"""The CLI's stdout, byte for byte, against outputs committed under golden/.

The cases are the README's command-line examples (with a local batch file
in place of requests.txt): a change to how numbers, forms or graphs are
computed or printed shows here as a diff.  Each file was written by running
the same argv through ``semidegree.cli.main``.
"""

import warnings
from pathlib import Path

import pytest

from semidegree.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
BIG = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"

CASES = [
    ("keyforms", ["keyforms", "--phi", BIG, "--r", "-8/3"], 0),
    ("decide", ["decide", "--phi", "x^(2/5)", "--r", "-6/5"], 0),
    ("semidegree", ["semidegree", "--phi", "x^(2/5)", "--r", "-6/5", "--f", "y^5 - x^2"], 0),
    ("cousin", ["cousin", "--psi", "x^(3/5)", "--r", "11/5"], 0),
    ("classify", ["classify", "--pairs", "2/5,-6/1"], 0),
    ("graph_dot", ["graph", "--pairs", "2/5,-6/1", "--dot"], 0),
    ("witness", ["witness", "--pairs", "2/5,-6/1", "--kind", "nonalgebraic"], 0),
    ("batch", ["batch", "--input", str(GOLDEN / "batch.txt")], 3),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_the_golden_file(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_the_library_writes_nothing(capfd):
    """Only the CLI writes: the library's entry points print nothing to
    stdout or stderr, at the Python or the file-descriptor level, and warn
    nothing."""
    from fractions import Fraction

    from semidegree import (
        FormalPuiseuxPairs,
        GenericDPS,
        classify,
        compute_key_forms,
        decide_algebraic,
        parse_dps,
    )
    from semidegree.algebra import semidegrees
    from semidegree.graphs import algebraic_witness, nonalgebraic_witness

    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi, r in [(BIG, "-8/3"), ("x^(2/5)", "-6/5"), ("x^(2/5) + x^-1", "-6/5")]:
            g = GenericDPS(parse_dps(phi), Fraction(r))
            seq = compute_key_forms(g)
            decide_algebraic(g)
            semidegrees(seq.forms, g)
        pairs = FormalPuiseuxPairs(((2, 5), (-6, 1)))
        classify(pairs)
        algebraic_witness(pairs)
        nonalgebraic_witness(pairs)
    assert capfd.readouterr() == ("", "")
