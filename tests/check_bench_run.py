"""Run benchmark workloads and check that each ends in a strict-JSON result.

    python3 tests/check_bench_run.py [--trace 0|1] chain classify batch

Each workload runs once, ``perfbench/run.py --workload W --seed 0
--seconds 1 --trace T``.  The run must exit 0, and its last line of stdout
must be a JSON object, with no NaN or Infinity anywhere, whose ``correct``
is true.  Its ``metrics`` must hold a number for every name that
``BENCHMARK.json`` declares: the ``end_to_end`` names untraced, the
``per_layer`` names traced.  A traced run's detail line, the one before
the result, must name no ``absent_layers`` (a hooked function it could not
find or count).  Exits 1 on the first workload that fails, with the reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
DECLARED = ("end_to_end", "per_layer")  # the metric list for --trace 0 and 1


def _refuse(token: str):
    raise ValueError(f"non-finite number {token} in the result")


def check(workload: str, trace: int) -> str | None:
    """None if the run's result is well formed and correct, else why not."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        return f"exited {done.returncode}: {done.stderr.strip()[-500:]}"
    lines = done.stdout.splitlines()
    if not lines:
        return "printed nothing"
    try:
        result = json.loads(lines[-1], parse_constant=_refuse)
    except ValueError as exc:
        return f"last line is not a strict-JSON result ({exc}): {lines[-1][:200]!r}"
    if not isinstance(result, dict) or result.get("correct") is not True:
        return f"result is not correct: {lines[-1][:500]}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[DECLARED[trace]]
    metrics = result.get("metrics", {})
    missing = [
        metric["name"]
        for metric in declared
        if not isinstance(metrics.get(metric["name"], {}).get("value"), (int, float))
    ]
    if missing:
        return f"no number for the declared {DECLARED[trace]} metrics {missing}"
    if trace:
        try:
            absent = json.loads(lines[-2])["detail"]["absent_layers"]
        except (IndexError, ValueError, TypeError, KeyError) as exc:
            return f"no detail line naming the absent layers ({exc!r})"
        if absent:
            return f"layers absent from the trace: {absent}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("workloads", nargs="+", choices=("chain", "classify", "batch"))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        problem = check(workload, args.trace)
        if problem is not None:
            print(f"{workload} --trace {args.trace}: {problem}", file=sys.stderr)
            return 1
        print(f"{workload} --trace {args.trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
