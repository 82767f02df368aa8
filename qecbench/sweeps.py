"""The in-process workload: ``sweep-store``.

Set-up fills a clause store with one cold pass over the task set.  Each timed
pass builds a fresh :class:`~repro.api.Engine` on that store, decides every
task of the seeded shuffle with :meth:`Engine.run`, and closes the engine.
Passes repeat until the window has elapsed; the pass in progress always
completes, so every run measures whole passes of the same task mix.

A store keeps improving as passes write to it (pass times fall by a third
over a dozen passes), so a run's numbers would depend on how many passes fit
in its window.  Each pass therefore starts from a copy of the store as
set-up filled it, made between passes and outside the window.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from qecbench import spans as sp
from qecbench.measure import Outcome, import_seconds, self_rss_mb, task_percentiles
from qecbench.taskset import Answers, Plan, canonical, shuffled, units, verdict_from_result

from repro.api import Engine

#: The share of a traced pass's wall time that span self times may leave
#: uncovered (the benchmark's own loop and engine construction).
UNACCOUNTED_SHARE = 0.05

#: Layers of the traced set-up fill, reported as ``fill.<name>``.  The fill is
#: the workload's one cold pass, so these are the numbers of cold solving and
#: family warm start, which the store-warm timed passes skip.
FILL_LAYERS = (
    "codes.build_s", "verifier.formula_s", "vc.compile_triple_s", "smt.check_s", "smt.solve_s",
    "smt.conflicts", "smt.decisions", "smt.propagations", "api.run_s", "api.absorb_s",
    "api.family_absorbed", "store.write_s",
)


@dataclass
class Pass:
    seconds: float
    #: ``(task id, seconds)`` per decided task
    latencies: list[tuple[str, float]]
    correct: int
    traced: bool = False
    first_span: int = 0
    last_span: int = 0
    cache: dict = field(default_factory=dict)


def _run_pass(order, store_dir, answers: Answers, tracer: sp.Tracer | None) -> Pass:
    first = len(tracer.spans) if tracer else 0
    latencies = []
    correct = 0
    start = time.perf_counter()
    engine = Engine(clause_store=store_dir)
    try:
        for item in order:
            if tracer:
                tracer.set_task(item.id)
            began = time.perf_counter()
            try:
                result = engine.run(item.task)
            except Exception as exc:  # a failed operation is counted, not fatal
                answers.error(item.id, exc)
                continue
            latencies.append((item.id, time.perf_counter() - began))
            correct += answers.check(item.id, verdict_from_result(result))
        cache = engine.cache_info()
    finally:
        if tracer:
            tracer.set_task(None)
        engine.close()
    seconds = time.perf_counter() - start
    return Pass(seconds, latencies, correct, tracer is not None, first,
                len(tracer.spans) if tracer else 0, cache)


def _fill(grouped, work: Path, answers: Answers,
          tracer: sp.Tracer | None = None) -> tuple[Path, Pass]:
    """A set-up pass that fills a fresh clause store; returns the store and
    the pass."""
    store = Path(tempfile.mkdtemp(prefix="store-", dir=work))
    return store, _run_pass(canonical(grouped), str(store), answers, tracer)


def run(workload: str, seed: int, seconds: float, trace: bool, plan: Plan, work: Path) -> Outcome:
    answers = Answers(plan.answers)
    grouped = units(plan)
    import_s = statistics.median(import_seconds() for _ in range(plan.setup_samples))
    store_dir = None
    fills = []
    for _ in range(plan.setup_samples):
        if store_dir is not None:
            shutil.rmtree(store_dir)
        store_dir, fill = _fill(grouped, work, answers)
        fills.append(fill.seconds)
    fill_s = statistics.median(fills)

    live = work / "live"

    def fresh_store() -> str:
        shutil.rmtree(live, ignore_errors=True)
        shutil.copytree(store_dir, live)
        return str(live)

    rng = random.Random(seed)
    tracer = sp.Tracer() if trace else None
    passes: list[Pass] = []
    while not passes or sum(p.seconds for p in passes) < seconds:
        order = shuffled(grouped, rng)
        passes.append(_run_pass(order, fresh_store(), answers, None))
        if tracer:
            # The traced twin of the pass just run, same order: the pair's
            # wall times give the tracing overhead.
            with tracer.installed():
                passes.append(_run_pass(order, fresh_store(), answers, tracer))
    window = sum(p.seconds for p in passes if not p.traced)
    answers.require_covered(canonical(grouped))

    outcome = Outcome(answers)
    outcome.samples = sum(len(p.latencies) for p in passes if not p.traced)
    if not trace:
        p50, p90, outcome.tasks = task_percentiles([s for p in passes for s in p.latencies])
        outcome.metrics.update({
            "setup_s": import_s + fill_s,
            "tasks_per_s": sum(p.correct for p in passes) / window,
            "task_s_p50": p50,
            "task_s_p90": p90,
            "peak_rss_mb": self_rss_mb(),
        })
        return outcome
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    outcome.unaccounted = [_unaccounted(tracer.spans, p) for p in traced]
    outcome.notes.append(
        f"unaccounted share of {len(traced)} traced passes: max {max(outcome.unaccounted):.4f}"
        f" (stated bound {UNACCOUNTED_SHARE})"
    )
    outcome.metrics.update(layer_metrics(tracer.spans, traced))
    fill_tracer = sp.Tracer()
    with fill_tracer.installed():
        _, fill = _fill(grouped, work, answers, fill_tracer)
    cold = layer_metrics(fill_tracer.spans, [fill])
    outcome.metrics.update({f"fill.{name}": cold[name] for name in FILL_LAYERS})
    outcome.metrics.update({
        "setup.import_s": import_s,
        "setup.store_fill_s": fill_s,
        "trace.overhead_ratio": sum(p.seconds for p in traced) / sum(p.seconds for p in untraced) - 1,
        "trace.unaccounted_ratio": statistics.median(outcome.unaccounted),
    })
    return outcome


def _unaccounted(all_spans, p: Pass) -> float:
    """The share of the pass's wall time outside every span's self time."""
    return 1 - sum(sp.self_times(all_spans, p.first_span, p.last_span).values()) / p.seconds


def layer_metrics(all_spans: list[sp.Span], passes: list[Pass]) -> dict[str, float]:
    """Per-layer numbers of the traced passes: each is the pass total of the
    median pass, so a count repeats exactly when every pass does the same
    work."""
    rows = []
    for p in passes:
        spans = all_spans[p.first_span:p.last_span]
        own = sp.self_times(all_spans, p.first_span, p.last_span)
        loads = sp.count(spans, "store.load")
        lookups = p.cache["hits"] + p.cache["misses"]
        rows.append({
            "codes.build_s": sp.total(spans, "codes.build"),
            "verifier.formula_s": sp.total(spans, "verifier.formula"),
            "vc.compile_triple_s": sp.total(spans, "vc.compile_triple"),
            "smt.encode_s": sp.total(spans, "smt.encode"),
            "smt.check_s": sp.total(spans, "smt.check"),
            "smt.solve_s": sp.total(spans, "smt.solve"),
            # A check's only child span is its solve: the rest is syncing
            # the CNF into the solver and reading the model back.
            "smt.sync_s": own.get("smt.check", 0.0),
            "smt.checks": sp.count(spans, "smt.check"),
            "smt.conflicts": sp.data_sum(spans, "smt.check", "conflicts"),
            "smt.decisions": sp.data_sum(spans, "smt.check", "decisions"),
            "smt.propagations": sp.data_sum(spans, "smt.check", "propagations"),
            "smt.clauses": sp.data_sum(spans, "smt.check", "clauses"),
            "api.run_s": sp.total(spans, "api.run"),
            "api.self_s": own.get("api.run", 0.0),
            "api.close_s": sp.total(spans, "api.close"),
            "api.absorb_s": sp.total(spans, "api.absorb"),
            "api.family_absorbed": sp.data_sum(spans, "api.absorb", "family"),
            "api.store_absorbed": sp.data_sum(spans, "api.absorb", "store"),
            "api.compile_cache_hit_ratio": p.cache["hits"] / lookups if lookups else 0.0,
            "store.load_s": sp.total(spans, "store.load"),
            "store.loads": loads,
            "store.load_hit_ratio": sp.data_sum(spans, "store.load", "hit") / loads if loads else 0.0,
            "store.family_candidates_s": sp.total(spans, "store.family_candidates"),
            "store.write_s": sp.total(spans, "store.write"),
            "store.writes": sp.count(spans, "store.write"),
        })
    return {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
