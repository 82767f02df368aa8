"""Tests of the benchmark itself, on a small task set and short windows."""

import json
from dataclasses import replace

import pytest

from qecbench import run, sweeps
from qecbench.measure import task_percentiles
from qecbench.taskset import ANSWERS, Plan

SMALL = Plan(codes=("five-qubit", "six-qubit", "steane"), scenarios=("over-claim",),
             setup_samples=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int, plan: Plan = SMALL):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        plan=plan,
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(
            line.strip().startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name


def test_a_wrong_answer_fails_the_run(capsys, tmp_path):
    answers = json.loads(ANSWERS.read_text())
    answers["distance/steane"] = {"distance": 4}
    path = tmp_path / "answers.json"
    path.write_text(json.dumps(answers))
    code, _, result = _run(capsys, "sweep-store", 0, replace(SMALL, answers=path))
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_self_times_account_for_each_traced_pass(tmp_path):
    outcome = sweeps.run("sweep-store", 7, 0.2, True, SMALL, tmp_path)
    assert outcome.unaccounted
    for share in outcome.unaccounted:
        assert 0 <= share <= sweeps.UNACCOUNTED_SHARE


def test_percentiles_are_over_each_tasks_median():
    # Pooled, the p90 would be 6.6, set by the one slow sample of "a".
    samples = [("a", 1.0), ("a", 9.0), ("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert task_percentiles(samples) == (2.0, pytest.approx(2.8), 3)
