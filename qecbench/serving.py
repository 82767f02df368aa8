"""The service workload: ``service-mixed``.

``python -m repro serve`` runs as a child process with default lanes and
admission sized above the offered load, so a refusal is a failure and never
a throttle.  Set-up starts it and warms it with one pass of the
JSON-expressible tasks; then two keep-alive clients, one API key each, run a
closed loop: submit the next task of a seeded shuffle with ``submit_stream``
and read every NDJSON line up to the terminal event.  Every answer is already compiled and
learnt, so the time goes to HTTP parsing, admission, lane queueing, event
serialization and stream writes.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from qecbench import spans as sp
from qecbench.measure import ROOT, Outcome, child_env, percentile, task_percentiles
from qecbench.taskset import Answers, Item, Plan, canonical, units, verdict_from_events

from repro.api.events import validate_stream
from repro.service import ServiceClient, ServiceError

CLIENTS = 2
#: Per-key rate and burst far above what two closed-loop clients offer
#: (about 150 jobs/s in all), and quotas above their one job in flight each.
ADMISSION = ("--rate", "10000", "--burst", "10000", "--max-inflight", "8", "--max-pending", "64")
#: Seconds between ``GET /stats`` samples of the lane queues (traced run).
STATS_EVERY = 0.5
TIMEOUT = 20.0


class Server:
    """One ``python -m repro serve`` child, started and stopped."""

    def __init__(self):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *ADMISSION],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = json.loads(self.proc.stdout.readline())
            if ready.get("event") != "listening":
                raise RuntimeError(f"server did not start: {ready}")
        except BaseException:
            self.kill()
            raise
        self.port = ready["port"]
        self.ready_s = time.perf_counter() - start

    def client(self, key: str) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, api_key=key, keep_alive=True, timeout=TIMEOUT)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def drain(self) -> dict:
        """SIGTERM, wait for the drain, and return its summary line."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        lines = [line for line in out.splitlines() if line.strip()]
        summary = json.loads(lines[-1]) if lines else {}
        if summary.get("event") != "drained" or self.proc.returncode != 0:
            raise RuntimeError(f"server drain failed ({self.proc.returncode}): {summary}")
        return summary

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=TIMEOUT)
        if self.proc.stdout:
            self.proc.stdout.close()


@dataclass
class Tally:
    correct: int = 0
    #: ``(task id, seconds)`` per job checked
    latencies: list[tuple[str, float]] = field(default_factory=list)
    events: list[int] = field(default_factory=list)
    bytes: list[int] = field(default_factory=list)
    rejected_429: int = 0
    queue_depths: list[int] = field(default_factory=list)


def run_job(client: ServiceClient, item: Item, answers: Answers, tally: Tally,
            tracer: sp.Tracer | None) -> None:
    """Submit one task, read its stream to the terminal line, check it.

    Traced, the job is a ``service.job`` span with three children that
    partition it: ``service.submit`` (POST sent to 201 read),
    ``service.compiled`` (201 to the ``TaskCompiled`` line) and
    ``service.terminal`` (``TaskCompiled`` to the terminal line).
    """
    lines: list[str] = []
    compiled = None
    if tracer:
        tracer.set_task(item.id)
    start = time.perf_counter()
    root = tracer.open("service.job", start) if tracer else None
    try:
        _, stream = client.submit_stream(item.spec, raw=True)
        submitted = time.perf_counter()
        for line in stream:
            lines.append(line)
            if compiled is None and '"TaskCompiled"' in line:
                compiled = time.perf_counter()
        end = time.perf_counter()
    except ServiceError as exc:
        if exc.status == 429:
            tally.rejected_429 += 1
        answers.error(item.id, exc)
        return
    except (OSError, ValueError, http.client.HTTPException) as exc:
        answers.error(item.id, exc)
        return
    finally:
        if tracer:
            tracer.close(root)
            tracer.set_task(None)
    _, _, errors = validate_stream(lines)
    if errors:
        answers.error(item.id, f"stream schema: {errors[:3]}")
        return
    tally.correct += answers.check(item.id, verdict_from_events([json.loads(line) for line in lines]))
    tally.latencies.append((item.id, end - start))
    tally.events.append(len(lines))
    tally.bytes.append(sum(len(line) + 1 for line in lines))
    if tracer:
        compiled = compiled or end
        tracer.record("service.compiled", submitted, compiled, root, item.id)
        tracer.record("service.terminal", compiled, end, root, item.id)


def _client_loop(server: Server, index: int, seed: int, items: list[Item], until: float,
                 answers: Answers, tally: Tally, tracer: sp.Tracer | None) -> None:
    client = server.client(f"bench-{index}")
    next_stats = time.perf_counter()
    draws = _draws(random.Random(f"{seed}:{index}"), items)
    try:
        while True:  # at least one job, however short the window
            run_job(client, next(draws), answers, tally, tracer)
            if tracer and index == 0 and time.perf_counter() >= next_stats:
                next_stats += STATS_EVERY
                lanes = client.stats()["resources"].get("lanes", [])
                tally.queue_depths.append(sum(lane["queue_depth"] for lane in lanes))
            if time.perf_counter() >= until:
                break
    except Exception as exc:  # the thread's failure must reach the tally
        answers.error(f"client-{index}", exc)
    finally:
        client.close()


def _draws(rng: random.Random, items: list[Item]):
    """Endless seeded shuffles of the set, one after another: the seed
    changes the order, while every task keeps its share of the jobs, so the
    run's throughput does not move with how often a seed drew the heaviest
    tasks."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _window(server: Server, seed: int, seconds: float, items: list[Item], answers: Answers,
            tracer: sp.Tracer | None) -> tuple[float, list[Tally]]:
    """Run the closed loop for ``seconds``; returns its length and tallies."""
    tallies = [Tally() for _ in range(CLIENTS)]
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(server, i, seed, items, start + seconds, answers, tallies[i], tracer),
            name=f"bench-client-{i}",
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT + seconds)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    return time.perf_counter() - start, tallies


def _setup(items: list[Item], answers: Answers) -> tuple[Server, float, float]:
    """Start a server and warm it with one pass; returns it with its
    ready and warm-pass seconds."""
    server = Server()
    try:
        start = time.perf_counter()
        client = server.client("bench-warm")
        try:
            tally = Tally()
            for item in items:
                run_job(client, item, answers, tally, None)
        finally:
            client.close()
        return server, server.ready_s, time.perf_counter() - start
    except BaseException:
        server.kill()
        raise


def run(workload: str, seed: int, seconds: float, trace: bool, plan: Plan, work) -> Outcome:
    answers = Answers(plan.answers)
    items = [item for item in canonical(units(plan)) if item.spec is not None]
    samples = []
    server = None
    try:
        for _ in range(plan.setup_samples):
            if server is not None:
                server.drain()
            server, ready_s, warm_s = _setup(items, answers)
            samples.append((ready_s, warm_s))
        outcome = Outcome(answers)
        if not trace:
            window, tallies = _window(server, seed, seconds, items, answers, None)
            latencies = [s for tally in tallies for s in tally.latencies]
            outcome.samples = len(latencies)
            p50, p90, outcome.tasks = task_percentiles(latencies)
            outcome.metrics.update({
                "setup_s": statistics.median(ready + warm for ready, warm in samples),
                "tasks_per_s": sum(tally.correct for tally in tallies) / window,
                "task_s_p50": p50,
                "task_s_p90": p90,
                "peak_rss_mb": server.peak_rss_mb(),
            })
        else:
            outcome.metrics.update(_traced(server, seed, seconds, items, answers, outcome))
            outcome.metrics["setup.server_ready_s"] = statistics.median(r for r, _ in samples)
            outcome.metrics["setup.warm_pass_s"] = statistics.median(w for _, w in samples)
        summary = server.drain()
        server = None
        outcome.notes.append(f"drained: {json.dumps(summary)}")
        if summary.get("orphaned"):
            answers.error("drain", f"{summary['orphaned']} job(s) orphaned")
        answers.require_covered(items)
        return outcome
    finally:
        if server is not None:
            server.kill()


def _traced(server: Server, seed: int, seconds: float, items: list[Item], answers: Answers,
            outcome: Outcome) -> dict[str, float]:
    """Half the window untraced, half traced; per-layer numbers come from
    the traced half and ``/stats`` deltas across it."""
    untraced_window, untraced = _window(server, seed, seconds / 2, items, answers, None)
    tracer = sp.Tracer()
    probe = server.client("bench-stats")
    try:
        before = probe.stats()
        with tracer.installed():
            window, tallies = _window(server, seed + 1, seconds / 2, items, answers, tracer)
        after = probe.stats()
    finally:
        probe.close()
    jobs = sum(len(tally.latencies) for tally in tallies)
    outcome.samples = untraced_jobs = sum(len(tally.latencies) for tally in untraced)
    depths = [d for tally in tallies for d in tally.queue_depths]
    hits = after["engine"]["hits"] - before["engine"]["hits"]
    misses = after["engine"]["misses"] - before["engine"]["misses"]
    return {
        "service.submit_s_p50": _span_p50(tracer, "service.submit"),
        "service.compiled_s_p50": _span_p50(tracer, "service.compiled"),
        "service.terminal_s_p50": _span_p50(tracer, "service.terminal"),
        "service.events_per_job": statistics.mean(n for t in tallies for n in t.events),
        "service.bytes_per_job": statistics.mean(n for t in tallies for n in t.bytes),
        "service.rejected_429": sum(t.rejected_429 for t in untraced + tallies),
        "service.lane_busy_share": (_lane_busy(after) - _lane_busy(before)) / window,
        "service.queue_depth_mean": statistics.mean(depths) if depths else 0.0,
        "api.compile_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "api.family_absorbed": _delta(before, after, "family_absorbed"),
        "api.store_absorbed": _delta(before, after, "store_absorbed"),
        "trace.overhead_ratio": (window / jobs) / (untraced_window / untraced_jobs) - 1,
    }


def _span_p50(tracer: sp.Tracer, name: str) -> float:
    return percentile([span.seconds for span in tracer.spans if span.name == name], 50)


def _lane_busy(stats: dict) -> float:
    return sum(lane["busy_seconds"] for lane in stats["resources"].get("lanes", []))


def _delta(before: dict, after: dict, key: str) -> int:
    return after["resources"].get(key, 0) - before["resources"].get(key, 0)
