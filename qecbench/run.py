"""Run one workload of the repository benchmark and print its metrics.

    python3 qecbench/run.py --workload sweep-store --seed 1 --seconds 50 --trace 0

Run from the repository root.  The workloads (``sweep-store``,
``service-mixed``) drive the program through its public API only
(``repro.api``, ``repro.service``), with inputs drawn from ``--seed``, and
check every verdict against ``qecbench/answers.json``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` a
separate traced run's per-layer metrics.  Each metric is printed with its
unit, and the last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every verdict
matched the answer file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program sources under {ROOT / 'src'}")
# Replace this script's directory with the repository root and its sources,
# so the benchmark imports as a package and the program from ``src``.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from qecbench import serving, sweeps  # noqa: E402
from qecbench.taskset import Plan  # noqa: E402

WORKLOADS = {
    "sweep-store": sweeps.run,
    "service-mixed": serving.run,
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, plan: Plan = Plan()) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = Path(tempfile.mkdtemp(prefix=".qecbench-", dir=ROOT))
    try:
        outcome = WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), plan, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(outcome.metrics) - {metric["name"] for metric in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if args.trace:
            # A layer this workload never reaches reads 0.
            value = outcome.metrics.get(name, 0)
        else:
            value = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}

    answers = outcome.answers
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  latency samples: {outcome.samples}"
          + (f" over {outcome.tasks} tasks" if outcome.tasks else ""))
    for note in outcome.notes:
        print(f"  {note}")
    for mismatch in answers.mismatches:
        print(f"  FAILED {mismatch}")
    print(json.dumps({
        "correct": answers.failed == 0,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": metrics,
    }))
    return 0 if answers.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
