"""The paper's task set, its seeded shuffle, and the check against the answer file.

The set is the paper's evaluation: the Table 3 target of every registry
code, a distance discovery per code (Fig. 6), and the Table 4 scenarios,
including an over-claimed weight-2 correction that must be refuted and the
fixed-error check.  Tasks are grouped into *units* that the seed shuffles:
all tasks on one code family, in rank order, form one unit, and each Table 4
program is a unit of its own.  Engine state is per code, and family warm
start only flows from a smaller sibling to a larger one, so within one engine
a unit's work does not depend on which units ran before it.  The seed
therefore changes the order the program sees without changing the work it
does, and every seed pays for family warm start the same way.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import DistanceTask, FixedErrorTask, ProgramTask, Task, registry_sweep_tasks
from repro.codes import CODE_REGISTRY, steane_code
from repro.verifier.programs import (
    correction_triple,
    ghz_preparation,
    logical_cnot_with_propagation,
)

ANSWERS = Path(__file__).with_name("answers.json")


def _scenario(name: str):
    """The Table 4 scenario ``name`` as ``(triple, decoder_condition)``."""
    steane = steane_code()
    if name == "error-free":
        return ghz_preparation(steane, blocks=2).triple, None
    if name == "logical-free":
        scenario = correction_triple(steane, error="Y", max_errors=1)
    elif name == "one-cycle":
        scenario = correction_triple(
            steane, error="Y", logical_gate="H", propagation=True, max_errors=1
        )
    elif name == "propagated-cnot":
        scenario = logical_cnot_with_propagation(steane, error="X", max_errors=1)
    elif name == "over-claim":
        # Steane corrects one error; claiming two must yield a counterexample.
        scenario = correction_triple(steane, error="Y", max_errors=2)
    else:
        raise KeyError(f"unknown Table 4 scenario {name!r}")
    return scenario.triple, scenario.decoder_condition


SCENARIOS = ("error-free", "logical-free", "one-cycle", "propagated-cnot", "over-claim")


@dataclass(frozen=True)
class Item:
    """One task of the set: its answer-file id, the engine task, and the
    JSON spec the service accepts (``None`` for program tasks, which carry
    an in-memory Hoare triple and have no wire form)."""

    id: str
    task: Task
    spec: dict | None


@dataclass(frozen=True)
class Plan:
    """What one run covers.  The defaults are the benchmark; the tests shrink
    them to keep a run short."""

    codes: tuple[str, ...] = tuple(sorted(CODE_REGISTRY))
    scenarios: tuple[str, ...] = SCENARIOS
    #: set-ups per run; ``setup_s`` is their median
    setup_samples: int = 3
    answers: Path = field(default=ANSWERS)


def _code_items(code: str, target: Task) -> list[Item]:
    items = [
        Item(f"table3/{code}", target, {"kind": target.kind, "code": code}),
        Item(f"distance/{code}", DistanceTask(code=code), {"kind": "distance", "code": code}),
    ]
    if code == "steane":
        error = ((2, "Y"),)
        items.append(Item(
            "table4/fixed-error",
            FixedErrorTask(code=code, error_qubits=error),
            {"kind": FixedErrorTask.kind, "code": code, "error_qubits": [list(e) for e in error]},
        ))
    return items


def units(plan: Plan) -> list[list[Item]]:
    """The task set as shuffle units, in a fixed canonical order."""
    by_family: dict[str, list[tuple[int, str, list[Item]]]] = {}
    for target in registry_sweep_tasks(plan.codes):
        entry = CODE_REGISTRY[target.code]
        by_family.setdefault(entry.family or entry.key, []).append(
            (entry.family_rank, entry.key, _code_items(entry.key, target))
        )
    grouped = [
        [item for _, _, items in sorted(members) for item in items]
        for _, members in sorted(by_family.items())
    ]
    for name in plan.scenarios:
        triple, decoder = _scenario(name)
        grouped.append([Item(
            f"table4/{name}", ProgramTask(triple=triple, decoder_condition=decoder), None
        )])
    return grouped


def shuffled(grouped: list[list[Item]], rng: random.Random) -> list[Item]:
    """One pass over the set: the units in a seeded order, each unit intact."""
    order = list(grouped)
    rng.shuffle(order)
    return [item for unit in order for item in unit]


def canonical(grouped: list[list[Item]]) -> list[Item]:
    return [item for unit in grouped for item in unit]


def verdict_from_result(result) -> dict:
    """The answer-file view of an engine :class:`~repro.api.Result`."""
    verdict = {"verified": result.verified}
    if "distance" in result.details:
        verdict["distance"] = result.details["distance"]
    if result.counterexample is not None:
        verdict["counterexample_weight"] = len(result.counterexample_qubits())
    return verdict


def verdict_from_events(events: list[dict]) -> dict | None:
    """The answer-file view of one job's event stream, or ``None`` when the
    job did not complete.  A distance is the lightest witness of a
    satisfiable probe, confirmed by an unsatisfiable probe one below it."""
    terminal = events[-1] if events else {}
    if terminal.get("event") != "JobCompleted":
        return None
    verdict = {"verified": terminal["verified"]}
    probes = [event for event in events if event["event"] == "DistanceProbe"]
    if probes:
        witnesses = [p["witness_weight"] for p in probes if p["sat"]]
        refuted = [p["bound"] for p in probes if not p["sat"]]
        if witnesses:
            distance = min(witnesses)
            if distance == 1 or max(refuted, default=0) >= distance - 1:
                verdict["distance"] = distance
    return verdict


class Answers:
    """The hand-written answer file and the tally checked against it."""

    def __init__(self, path: Path):
        self.expected: dict[str, dict] = json.loads(Path(path).read_text())
        self.attempted = 0
        self.failed = 0
        self.seen: set[str] = set()
        self.mismatches: list[str] = []
        # Client threads of the service workload check concurrently.
        self._lock = threading.Lock()

    def check(self, item_id: str, verdict: dict | None) -> bool:
        """Count one verdict; ``None`` stands for an operation that failed."""
        with self._lock:
            self.attempted += 1
            self.seen.add(item_id)
        expected = self.expected.get(item_id)
        ok = verdict is not None and expected is not None and all(
            _matches(key, want, verdict) for key, want in expected.items()
        )
        if not ok:
            self._fail(f"{item_id}: got {verdict}, expected {expected}")
        return ok

    def error(self, item_id: str, reason: object) -> None:
        """Count an operation that gave no verdict (an exception, a refusal,
        a malformed stream)."""
        with self._lock:
            self.attempted += 1
            self.seen.add(item_id)
        self._fail(f"{item_id}: {reason!r}")

    def _fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(reason)

    def require_covered(self, items: list[Item]) -> None:
        """Every task of the set must have been decided at least once, so
        the verdict map equals the answer file on the set."""
        for item in items:
            if item.id not in self.seen:
                with self._lock:
                    self.attempted += 1
                self._fail(f"{item.id}: never decided")


def _matches(key: str, want, verdict: dict) -> bool:
    if key == "counterexample_weight_at_most":
        weight = verdict.get("counterexample_weight")
        return weight is not None and weight <= want
    return verdict.get(key) == want
