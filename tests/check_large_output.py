"""Run the keyforms CLI on large inputs as processes and pin their stdout.

    python3 tests/check_large_output.py

The inputs are the dyadic chain of depth 7 (129 key forms, 7.3 MB of JSON),
the three-level input x^(1/7) + x^(1/11) + x^(1/13) with r = -1 (483
values, 93.5 MB), and the wide two-level inputs x^(1/31) + x^(1/37) and
x^(1/41) + x^(1/43) with r = -1 (1.5 MB and 34.7 MB, from packed products
and squares cut at the band; most of the second run is packed products).
Each process must exit 0 and print exactly the pinned bytes (size and md5).
Its wall seconds and its peak RSS, read with ``os.wait4``, are printed
for the record; no bound is asserted on either.  Exits 1 with the reasons
when a run fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEPTH7_SIZE = 7336946
DEPTH7_MD5 = "d37f5ae3f8f121c95e2f673234bf8a7c"
THREE_LEVEL_SIZE = 93490176
THREE_LEVEL_MD5 = "a4ef2d07c402b004ebdb375588eb1d9a"
WIDE_SIZE = 1547767
WIDE_MD5 = "32b12cb8b0158306b0872f1ed7cfd17c"
WIDER_SIZE = 34655675
WIDER_MD5 = "7210bdc5615ab4111f9e5455ee927d9c"


def dyadic_keyforms_argv(depth: int) -> list[str]:
    """The keyforms command on x^(5/2) + x^(9/4) + ... (depth terms), r one below the last exponent."""
    phi = " + ".join(f"x^({2 ** (k + 1) + 1}/{2 ** k})" for k in range(1, depth + 1))
    return [sys.executable, "-m", "semidegree.cli", "keyforms", "--phi", phi, "--r", f"{2 ** depth + 1}/{2 ** depth}"]


def child_env() -> dict:
    """The environment with src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def keyforms_argv(phi: str, r: str) -> list[str]:
    """The keyforms command on phi and r."""
    return [sys.executable, "-m", "semidegree.cli", "keyforms", "--phi", phi, "--r", r]


def pinned_run(name: str, argv: list[str], expected_size: int, expected_md5: str) -> bool:
    """Run argv, print what it printed (exit, size, md5), its wall seconds
    and peak RSS, and whether that is the pinned output; True when it is."""
    digest, size = hashlib.md5(), 0
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env()) as child:
        while chunk := child.stdout.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    print(f"{name}: exit {child.returncode}, {size} bytes, md5 {digest.hexdigest()}, {wall:.2f} s, peak RSS {peak:.1f} MB")
    if child.returncode != 0:
        print(f"FAIL: exit {child.returncode}, expected 0")
        return False
    if (size, digest.hexdigest()) != (expected_size, expected_md5):
        print(f"FAIL: expected {expected_size} bytes with md5 {expected_md5}")
        return False
    return True


def main() -> int:
    runs = [
        ("keyforms dyadic depth 7", dyadic_keyforms_argv(7), DEPTH7_SIZE, DEPTH7_MD5),
        ("keyforms three-level", keyforms_argv("x^(1/7)+x^(1/11)+x^(1/13)", "-1"), THREE_LEVEL_SIZE, THREE_LEVEL_MD5),
        ("keyforms wide two-level", keyforms_argv("x^(1/31)+x^(1/37)", "-1"), WIDE_SIZE, WIDE_MD5),
        ("keyforms wider two-level", keyforms_argv("x^(1/41)+x^(1/43)", "-1"), WIDER_SIZE, WIDER_MD5),
    ]
    passed = [pinned_run(*run) for run in runs]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
