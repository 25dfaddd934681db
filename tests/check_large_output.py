"""Run the keyforms CLI on a large input as a process and pin its stdout.

    python3 tests/check_large_output.py

The input is the dyadic chain of depth 7 (129 key forms, 7.3 MB of JSON).
The process must exit 0 and print exactly the pinned bytes (size and md5).
Its peak RSS, read with ``resource.getrusage(RUSAGE_CHILDREN)``, is printed
for the record; no bound is asserted on it.  Exits 1 with the reason when
the run fails.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEPTH7_SIZE = 7336946
DEPTH7_MD5 = "d37f5ae3f8f121c95e2f673234bf8a7c"


def dyadic_keyforms_argv(depth: int) -> list[str]:
    """The keyforms command on x^(5/2) + x^(9/4) + ... (depth terms), r one below the last exponent."""
    phi = " + ".join(f"x^({2 ** (k + 1) + 1}/{2 ** k})" for k in range(1, depth + 1))
    return [sys.executable, "-m", "semidegree.cli", "keyforms", "--phi", phi, "--r", f"{2 ** depth + 1}/{2 ** depth}"]


def child_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def main() -> int:
    digest, size = hashlib.md5(), 0
    with subprocess.Popen(dyadic_keyforms_argv(7), stdout=subprocess.PIPE, env=child_env()) as child:
        while chunk := child.stdout.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    print(f"keyforms dyadic depth 7: exit {child.returncode}, {size} bytes, md5 {digest.hexdigest()}, peak RSS {peak:.1f} MB")
    if child.returncode != 0:
        print(f"FAIL: exit {child.returncode}, expected 0")
        return 1
    if (size, digest.hexdigest()) != (DEPTH7_SIZE, DEPTH7_MD5):
        print(f"FAIL: expected {DEPTH7_SIZE} bytes with md5 {DEPTH7_MD5}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
