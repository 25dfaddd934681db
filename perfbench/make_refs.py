"""Rebuild the committed references for the default seed.

    python3 perfbench/make_refs.py

Every output is checked by the independent oracles in ``workloads.py``
before it is written; a disagreement stops the script.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, import_package


def main() -> int:
    problem = import_package()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    import workloads as wl

    wl.REFS_DIR.mkdir(parents=True, exist_ok=True)
    workdir = WORK / "make_refs"
    try:
        for name in ("chain", "classify", "batch"):
            spec = wl.build(name, wl.DEFAULT_SEED, workdir, seconds=1)
            outputs, problems = wl.build_references(spec)
            if problems:
                print(f"{name}: not written, oracles disagree: {problems[:3]}", file=sys.stderr)
                return 1
            data = {"workload": name, "seed": spec.seed, "inputs_sha256": spec.digest, "inputs": spec.lines, "outputs": outputs}
            (wl.REFS_DIR / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
            print(f"{name}: {len(outputs)} references checked and written")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
