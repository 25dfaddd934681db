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


def test_runs_leave_the_shared_constants_alone_and_no_map_is_shared(capsys):
    """Elements keep the maps they are built from, and x, y and 1 are
    shared constants: after a verdict, both witnesses and the golden batch,
    the constants equal freshly built terms, and no two forms of a
    sequence share a map of terms."""
    import random
    from fractions import Fraction

    from semidegree import GenericDPS, LaurentPoly, decide_algebraic, parse_dps
    from semidegree.graphs import algebraic_witness, nonalgebraic_witness

    from helpers import random_normal_pairs

    sequences = []
    for phi, r in [(BIG, "-8/3"), ("x^(2/5)", "-6/5"), ("x^(2/5) + x^-1", "-6/5")]:
        sequences.append(decide_algebraic(GenericDPS(parse_dps(phi), Fraction(r))).keyforms)
    for seed in range(60):
        pairs = random_normal_pairs(random.Random(seed))
        for build in (algebraic_witness, nonalgebraic_witness):
            try:
                sequences.append(build(pairs))
            except ValueError:  # no such witness, or no compactification
                continue
    assert main(["batch", "--input", str(GOLDEN / "batch.txt")]) == 3
    capsys.readouterr()
    assert len(sequences) > 45
    for seq in sequences:
        assert len({id(form._terms) for form in seq.forms}) == len(seq.forms)
    constants = (LaurentPoly.x(), LaurentPoly.y(), LaurentPoly.one())
    assert constants == (LaurentPoly.term(1, 0), LaurentPoly.term(0, 1), LaurentPoly.term(0, 0))
    assert [(c._terms, c._den) for c in constants] == [({(1, 0): 1}, 1), ({(0, 1): 1}, 1), ({(0, 0): 1}, 1)]
