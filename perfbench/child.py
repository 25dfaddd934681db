"""Work that runs in child processes: tractability ladder steps and set-up
probes.  The parent functions start the children, bound them, and read
their results; ``python3 perfbench/child.py step|setup ...`` is the child.

A ladder step runs one operation on the next, larger input of its
workload's ladder under an address-space limit set in the child only.  The
parent kills a step that outlives the wall budget (rescaled to the current
machine speed, see ``speed.py``) and records it as ``over_budget``; a step
that runs out of address space exits with ``EXIT_OVER_MEMORY`` and is
recorded as ``over_memory``.  The ladder stops at the first step that is not
``ok``.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-step budget for the timed operation, in reference seconds, near the
# geometric mean of the last step that fits and the first that does not, so
# seed times sit at least 2x away on both sides.  Seed times: chain depth 3
# 0.02-0.03 s, depth 4 1.6-1.7 s; classify l=9 0.55 s, l=10 2.4 s; batch
# (witness line) l=6 0.065 s, l=7 0.68 s.
BUDGET_S = {"chain": 0.3, "classify": 1.15, "batch": 0.2}
START_ALLOWANCE_S = 1.0  # interpreter start, imports and input building
MEMORY_LIMIT = 1536 << 20  # address space of one step
MAX_STEPS = 14
EXIT_OVER_MEMORY = 3
SETUP_PROBES = 15


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# ladders: chain climbs the dyadic depth (delta_x 4, 8, 16, ...); classify and
# batch climb the pair ladder l (delta_x 160, 320, ... from l=6), classify
# with the classification and graph, batch with one `witness` line through
# the CLI, whose forms and JSON text grow about 15x per step.  The steps
# below the first take under 15 ms and would only add process starts.

FIRST_STEP = {"chain": 2, "classify": 6, "batch": 5}


def delta_x(workload: str, index: int) -> int:
    return 2**index if workload == "chain" else 5 * 2 ** (index - 1)


def run_step(workload: str, index: int, workdir: Path) -> float:
    """Child side: run and check one ladder step; returns seconds."""
    import workloads as wl

    if workload == "chain":
        g = wl.parse_series(*wl.dyadic_chain(index))
        run = lambda: wl.chain_op(g)  # noqa: E731
    else:
        text = wl.classify_ladder_pairs(index)
        omegas = wl.essential_values(wl.pair_list(text))
        if workload == "classify":
            pairs = wl.parse_pairs(text)
            run = lambda: wl.classify_op(pairs, witnesses=False)  # noqa: E731
        else:
            path = workdir / f"ladder-{index}.txt"
            path.write_text(f"witness --pairs {text} --kind algebraic\n")
            run = lambda: wl.batch_op(str(path))  # noqa: E731

    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start

    # cheap checks: the closed-form essential values must come out
    if workload == "chain":
        expected = wl.essential_values(wl.series_pairs(g.phi.exponents(), g.r))
        wl.check(result.keyforms.essential_values() == expected, "ladder step: wrong essentials")
    elif workload == "classify":
        wl.check(result[0].essential_values == omegas, "ladder step: wrong essentials")
        wl.check(result[2], "ladder step: graph is not contractible")
    else:
        code, out = result
        wl.check(code == 0 and len(out.splitlines()) == 1, "ladder step: batch failed")
        payload = json.loads(out)
        wl.check(payload["all_polynomial"], "ladder step: algebraic witness is not polynomial")
        wl.check(tuple(int(v) for v in payload["values"]) == omegas, "ladder step: wrong witness values")
    return seconds


def run_ladder(workload: str, workdir: Path, budget_s: float | None = None, first: int | None = None) -> dict:
    import speed

    budget_s = BUDGET_S[workload] if budget_s is None else budget_s
    steps = []
    index = FIRST_STEP[workload] if first is None else first
    for index in range(index, index + MAX_STEPS):
        factor = speed.slowdown(workload)
        cmd = [sys.executable, str(HERE / "child.py"), "step", workload, str(index), str(workdir)]
        started = time.perf_counter()
        # own session, so a kill reaches every process the step started
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        step = {"delta_x": delta_x(workload, index)}
        try:
            out, err = proc.communicate(timeout=(budget_s + START_ALLOWANCE_S) * factor)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            step.update(outcome="over_budget", wall_s=time.perf_counter() - started)
            steps.append(step)
            break
        if proc.returncode == EXIT_OVER_MEMORY:
            step["outcome"] = "over_memory"
        elif proc.returncode != 0:
            step.update(outcome="wrong", error=err.strip().splitlines()[-1:] or ["exit code"])
        else:
            reported = json.loads(out.splitlines()[-1])
            seconds = reported["seconds"] * speed.reference_s(workload) / reported["calibration_s"]
            step.update(seconds=seconds, outcome="ok" if seconds <= budget_s else "over_budget")
        steps.append(step)
        if step["outcome"] != "ok":
            break
    ok = [s["delta_x"] for s in steps if s["outcome"] == "ok"]
    return {
        "tractable_delta_x": max(ok) if ok else 0,
        "budget_s": budget_s,
        "steps": steps,
        "correct": all(s["outcome"] != "wrong" for s in steps),
    }


# ---------------------------------------------------------------------------
# set-up probes


def setup_seconds(workload: str, input_path: Path) -> tuple[float, list[float]]:
    """Median wall time, rescaled to reference speed, of fresh processes that
    start the interpreter, import the package with its CLI, and turn the
    input file into program objects."""
    import speed

    samples = []
    for _ in range(SETUP_PROBES):
        factor = speed.slowdown("setup", samples=3)
        cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(input_path)]
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start) / factor)
    return statistics.median(samples), samples


def _setup_child(workload: str, input_path: str) -> None:
    import semidegree  # noqa: F401
    import semidegree.cli  # noqa: F401
    from workloads import parse_items

    lines = Path(input_path).read_text().splitlines()
    if len(parse_items(workload, lines)) != len(lines):
        raise SystemExit("setup probe parsed the wrong number of inputs")


def _step_child(workload: str, index: str, workdir: str) -> None:
    import speed

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    before = [speed.calibration(workload) for _ in range(3)]
    try:
        seconds = run_step(workload, int(index), Path(workdir))
    except MemoryError:
        raise SystemExit(EXIT_OVER_MEMORY)
    after = [speed.calibration(workload) for _ in range(3)]
    print(json.dumps({"seconds": seconds, "calibration_s": statistics.median(before + after)}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup_child(*sys.argv[2:4])
    else:
        _step_child(*sys.argv[2:5])
