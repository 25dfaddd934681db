"""Seeded inputs, the operation each workload times, canonical outputs, and
the independent oracles that references are checked against.

Inputs depend only on the seed and on the program's outputs (graph sizes
and witness term counts in the classify cost model), never on measured
time, so every correct version of the program gets the same inputs for the
same seed.  Whether a drawn input is valid is decided by the benchmark's own
arithmetic on Puiseux pairs, never by whether the program accepts it: a
program that fails on a valid input fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import semidegree as sd
from semidegree import cli

DEFAULT_SEED = 0
REFS_DIR = Path(__file__).resolve().parent / "refs" / f"seed{DEFAULT_SEED}"

# Operations per --seconds of run length.  A run executes whole passes over
# its distinct inputs, in order, at least seconds * OPS_PER_SECOND
# operations, so it is bounded by its operation count, not by a clock.
# chain and classify have 45 distinct inputs, batch 25, which puts the 50th and 90th
# percentiles inside one input's block of samples rather than on the edge
# between two inputs of different cost.
OPS_PER_SECOND = {"chain": 40, "classify": 20, "batch": 50}

# chain: after the fixed examples, one series per exponent pattern below,
# each coefficient +1 or -1 as the seed draws.  The patterns were drawn once
# at random (delta_x = 4, generic pair over 1; 14, 14 and 13 of them with 9,
# 10 and 11 key forms at unit coefficients).  Costs of different patterns
# spread 4x (5-30 ms on the reference machine) and even equal key-form counts leave them 30%
# apart, while redrawing coefficients from +-1..3 moves one pattern's cost
# by 5% on average and redrawing signs only by 3%; so the seed draws signs
# only, and every seed gets the same cost profile.  Exponents, then r.
CHAIN_DELTA_X = 4
CHAIN_PATTERNS = (
    ("7 9/2 7/2 0 -5/4", "-13/4"),  # 9 forms
    ("4 5/2 1 -5/4 -7/2", "-5"),  # 9 forms
    ("5 11/4 1/2 -5/2 -7/2", "-11/2"),  # 9 forms
    ("10 -1/2 -3/4 -3/2", "-5/2"),  # 9 forms
    ("3/2 -1/4 -3/2 -2", "-4"),  # 9 forms
    ("4 3/2 -3/4 -4", "-9"),  # 9 forms
    ("5/2 1 0 -1/4", "-9/4"),  # 10 forms
    ("9/4 2 -7", "-11"),  # 11 forms
    ("9/4 2 -1/2", "-5/4"),  # 9 forms
    ("11 9/4 3/2 -7/4", "-23/4"),  # 9 forms
    ("11 5/2 5/4 -5/2 -8", "-35/4"),  # 11 forms
    ("11/2 1 1/2 -5/4", "-25/4"),  # 9 forms
    ("11 1/4 0 -7/4", "-11/4"),  # 9 forms
    ("5 2 5/4 0 -5", "-7"),  # 11 forms
    ("7/4 -3/2 -7/4 -7 -8", "-9"),  # 11 forms
    ("5 11/4 5/4 -2", "-6"),  # 9 forms
    ("5/4 -1 -2", "-7"),  # 10 forms
    ("3 5/4 1 1/4", "-19/4"),  # 11 forms
    ("1 -7/4 -2 -7/2", "-9/2"),  # 10 forms
    ("5/4 3/4 1/4 -2", "-9/4"),  # 9 forms
    ("9/4 2 -1/2", "-1"),  # 9 forms
    ("10 11/4 3/2 -1 -5", "-6"),  # 11 forms
    ("3 7/4 0 -3/2", "-4"),  # 9 forms
    ("12 9/2 2 3/4 -5/4", "-21/4"),  # 11 forms
    ("5 0 -1/4 -2 -4", "-6"),  # 10 forms
    ("1/4 -1 -4", "-8"),  # 11 forms
    ("3/4 1/2 -1/2", "-3"),  # 11 forms
    ("11/4 2 0 -1/2", "-1"),  # 10 forms
    ("9/4 -1/4 -1 -7/2", "-17/2"),  # 10 forms
    ("10 5 1 -7/4 -2", "-4"),  # 10 forms
    ("7/2 11/4 0 -3/2 -2", "-3"),  # 11 forms
    ("3/2 1/4 -3/2 -8", "-9"),  # 11 forms
    ("5/4 3/4 1/4 -1", "-9/4"),  # 10 forms
    ("3 5/4 -1/4 -2 -7/2", "-15/2"),  # 11 forms
    ("2 3/4 1/4 -4 -7", "-8"),  # 11 forms
    ("12 11/2 1 -3/4 -6", "-29/4"),  # 10 forms
    ("10 9/2 5/2 5/4 -4", "-9/2"),  # 10 forms
    ("7/2 -5/4 -3/2 -4 -5", "-23/4"),  # 10 forms
    ("1 -1/4 -2 -8", "-21/2"),  # 10 forms
    ("2 1 3/4 0 -1/4", "-7/4"),  # 10 forms
    ("11/4 3/2 -2 -6", "-13/2"),  # 10 forms
)
WORKED_EXAMPLE = ("x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)", "-8/3")
BRANCH_PAIR = (("x^(2/5)", "-6/5"), ("x^(2/5) + x^-1", "-6/5"))

# classify: normal-form pair lists with delta_x in 50..500, stratified by a
# work proxy in narrow bins so that every seed gets the same cost profile.
# The proxy is a cost model in ms, fitted once on the reference machine
# over 120 random inputs (residual 7%): a constant, the coin-problem DP
# cells the two semigroup conditions take, n^4 for the leading-minors loop
# on the n x n intersection matrix, and the squared term counts of the
# witness forms.  It reads counts and outputs only, never a measured time.
CLASSIFY_DELTA_X = (50, 500)
CLASSIFY_MODEL_MS = (3.1, 4.47e-5, 1.12e-5, 4.1e-4)  # constant, per cell, per n^4, per term^2
CLASSIFY_BIN_EDGES_MS = tuple(10 + 10 * i / 3 for i in range(16))  # 15 bins over 10..60 ms
CLASSIFY_PER_BIN = 3

# batch: tiny inputs so per-call overhead dominates; every chunk holds each
# command BATCH_PER_COMMAND times, in seeded order.
BATCH_CHUNKS = 25
BATCH_PER_COMMAND = 3
BATCH_COMMANDS = ("keyforms", "decide", "semidegree", "cousin", "classify", "graph", "witness")
BATCH_CHUNK_LINES = BATCH_PER_COMMAND * len(BATCH_COMMANDS)

# Caps on drawing.  Over seeds 0-11 classify took at most 4062 draws and a
# batch line at most 63; a program on which no valid input can be drawn
# within the caps fails the run instead of hanging it.
CLASSIFY_MAX_DRAWS = 100_000
BATCH_MAX_DRAWS = 1_000

ALGEBRAIC_ONLY = "algebraic_only"
NON_ALGEBRAIC_ONLY = "non_algebraic_only"
BOTH = "both"


WITNESS_KINDS = {ALGEBRAIC_ONLY: ("algebraic",), NON_ALGEBRAIC_ONLY: ("nonalgebraic",), BOTH: ("algebraic", "nonalgebraic")}


class OracleError(AssertionError):
    """An output disagrees with an independent route to the same answer."""


class GenerationError(RuntimeError):
    """No valid inputs could be drawn; the run is reported as incorrect."""


# ---------------------------------------------------------------------------
# text formats (written by the benchmark, read through the package parsers)


def _signed_sum(terms) -> str:
    """``terms`` as (body, coefficient): "b1 + b2 - b3", the first sign bare."""
    text = ""
    for body, c in terms:
        sign = ("-" if c < 0 else "") if not text else (" - " if c < 0 else " + ")
        text += sign + body
    return text or "0"


def dps_text(terms) -> str:
    return _signed_sum((f"{abs(c)}*x^({e})", c) for e, c in sorted(terms, reverse=True))


def laurent_text(terms) -> str:
    return _signed_sum((f"{abs(c)}*x^{a}*y^{b}", c) for (a, b), c in terms)


def pairs_text(pairs) -> str:
    return ",".join(f"{q}/{p}" for q, p in pairs)


def parse_series(phi: str, r: str) -> sd.GenericDPS:
    return sd.GenericDPS(sd.parse_dps(phi), F(r))


def pair_list(text: str) -> list[tuple[int, int]]:
    return [tuple(int(v) for v in c.split("/")) for c in text.split(",")]


def parse_pairs(text: str) -> sd.FormalPuiseuxPairs:
    return sd.FormalPuiseuxPairs(tuple(pair_list(text)))


def dyadic_chain(depth: int) -> tuple[str, str]:
    """x^(5/2) + x^(9/4) + ... with r one below the lowest exponent."""
    terms, e = [], F(3)
    for k in range(1, depth + 1):
        e -= F(1, 2**k)
        terms.append((e, F(1)))
    return dps_text(terms), str(e - 1)


def classify_ladder_pairs(l: int) -> str:
    """3/5, then q -> 2q-1 over p=2, then the generic pair q-1 over 1."""
    pairs = [(3, 5)]
    for _ in range(l - 1):
        pairs.append((2 * pairs[-1][0] - 1, 2))
    pairs.append((pairs[-1][0] - 1, 1))
    return pairs_text(pairs)


# ---------------------------------------------------------------------------
# canonical outputs


def _form_json(form: sd.LaurentPoly) -> list:
    return [[a, b, str(c)] for (a, b), c in form.items()]


def _seq_json(seq: sd.KeyFormSeq) -> dict:
    return {
        "forms": [_form_json(f) for f in seq.forms],
        "values": list(seq.values),
        "multipliers": list(seq.multipliers),
        "essential_indices": list(seq.essential_indices),
    }


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def chain_op(g: sd.GenericDPS):
    try:
        return sd.decide_algebraic(g)
    except sd.NotACompactificationError as exc:
        return exc


def chain_output(result) -> str:
    if isinstance(result, sd.NotACompactificationError):
        return _dumps({"refused": str(result)})
    out = {"kind": result.kind, **_seq_json(result.keyforms)}
    if result.is_algebraic:
        out["curve"] = _form_json(result.curve)
        out["embedding_weights"] = list(result.embedding_weights)
        out["essential_weights"] = list(result.essential_weights)
    else:
        out["witness_index"] = result.witness_index
    return _dumps(out)


def classify_op(pairs: sd.FormalPuiseuxPairs, witnesses: bool = True):
    """classify, resolution_graph, the definiteness test, then every witness
    the class allows.  The ladder steps leave the witnesses out."""
    cls = sd.classify(pairs)
    graph = sd.resolution_graph(pairs)
    definite = sd.is_negative_definite(sd.intersection_matrix(graph, exclude_estar=True))
    built = []
    if witnesses and cls.kind in (ALGEBRAIC_ONLY, BOTH):
        built.append(("algebraic", sd.algebraic_witness(pairs)))
    if witnesses and cls.kind in (NON_ALGEBRAIC_ONLY, BOTH):
        built.append(("nonalgebraic", sd.nonalgebraic_witness(pairs)))
    return cls, graph, definite, built


def classify_output(result) -> str:
    cls, graph, definite, built = result
    return _dumps(
        {
            "kind": cls.kind,
            "s1_failures": list(cls.s1_failures),
            "s2_failures": list(cls.s2_failures),
            "s2_witnesses": [list(w) for w in cls.s2_witnesses],
            "essential_values": list(cls.essential_values),
            "vertices": [[v.name, v.weight, v.mark] for v in graph.vertices],
            "edges": [list(e) for e in graph.edges],
            "negative_definite": definite,
            "witnesses": [{"kind": kind, **_seq_json(seq)} for kind, seq in built],
        }
    )


def batch_op(chunk_path: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["batch", "--input", chunk_path, "--jobs", "1"])
    return code, buffer.getvalue()


def batch_output(result) -> str:
    code, text = result
    return f"{code}\n{text}"


# ---------------------------------------------------------------------------
# independent oracles


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def series_pairs(exponents, r: F) -> list[tuple[int, int]]:
    """Formal Puiseux pairs of a series with these exponents and generic
    exponent r: walking down, an exponent off the lattice so far starts a
    pair, and r over the final denominator is the generic pair."""
    pairs, denom = [], 1
    for e in sorted(exponents, reverse=True):
        scaled = e * denom
        if scaled.denominator > 1:
            pairs.append((scaled.numerator, scaled.denominator))
            denom *= scaled.denominator
    scaled = r * denom
    return pairs + [(scaled.numerator, scaled.denominator)]


def essential_values(pairs) -> tuple[int, ...]:
    """The closed recursion, with p_0 = q_0 = 1: omega_0 = p_1 ... p_{l+1},
    omega_k = p_{k-1} omega_{k-1} + (q_k - q_{k-1} p_k) p_{k+1} ... p_{l+1}."""
    ps = [1] + [p for _, p in pairs]
    qs = [1] + [q for q, _ in pairs]
    omegas = [math.prod(ps)]
    for k in range(1, len(ps)):
        omegas.append(ps[k - 1] * omegas[-1] + (qs[k] - qs[k - 1] * ps[k]) * math.prod(ps[k + 1 :]))
    return tuple(omegas)


def pairs_valid(pairs) -> bool:
    """p >= 2 (p >= 1 for the generic pair), gcd(q, p) = 1, and strictly
    decreasing characteristic exponents."""
    denom, exps = 1, []
    for i, (q, p) in enumerate(pairs):
        if p < (1 if i == len(pairs) - 1 else 2) or math.gcd(q, p) != 1:
            return False
        denom *= p
        exps.append(F(q, denom))
    return all(b < a for a, b in zip(exps, exps[1:]))


def _essentials_of(g: sd.GenericDPS) -> tuple[int, ...]:
    return essential_values(series_pairs(g.phi.exponents(), g.r))


def check_sequence(seq: sd.KeyFormSeq, g: sd.GenericDPS) -> None:
    """Every value by direct substitution, the defining properties, and the
    essential values against their closed recursion."""
    report = sd.verify_key_properties(seq, g)
    check(report.ok, f"key forms fail verification: {report.problems[:3]}")
    check(
        seq.essential_values() == _essentials_of(g),
        "essential values disagree with the closed recursion",
    )


def check_chain(g: sd.GenericDPS, result) -> None:
    last = _essentials_of(g)[-1]
    if isinstance(result, sd.NotACompactificationError):
        check(last <= 0, "refused an input whose last essential value is positive")
        return
    check(last > 0, "decided an input that defines no compactification")
    check_sequence(result.keyforms, g)
    polynomial = all(f.is_polynomial for f in result.keyforms.forms)
    check(result.is_algebraic == polynomial, "verdict disagrees with polynomiality of the forms")


def _semigroup_table(generators, limit: int) -> list[bool]:
    table = [False] * (limit + 1)
    table[0] = True
    for g in generators:
        for v in range(g, limit + 1):
            if table[v - g]:
                table[v] = True
    return table


def reference_classification(pairs):
    """The two semigroup conditions on a list of (q, p) from one DP table
    per index, plus the DP cells the package's per-target membership calls
    spend on them."""
    omegas = essential_values(pairs)
    s1_failures, s2_failures, s2_witnesses = [], [], []
    cells = 0
    for k in range(1, len(pairs)):
        p_k = pairs[k - 1][1]
        top = p_k * omegas[k]
        if not _semigroup_table(omegas[:k], top)[top]:
            s1_failures.append(k)
        cells += (top + 1) * k
        gens = omegas[: k + 1]
        step = math.gcd(*gens)
        table = _semigroup_table(gens, top)
        for t in range((omegas[k + 1] // step + 1) * step, top, step):
            cells += (t + 1) * len(gens)
            if not table[t]:
                s2_failures.append(k)
                s2_witnesses.append((k, t))
                break
    if s1_failures:
        kind = NON_ALGEBRAIC_ONLY
    elif s2_failures:
        kind = BOTH
    else:
        kind = ALGEBRAIC_ONLY
    return kind, tuple(s1_failures), tuple(s2_failures), tuple(s2_witnesses), omegas, cells


def _check_witness(kind: str, seq: sd.KeyFormSeq, expected_values) -> None:
    report = sd.verify_key_properties(seq)
    check(report.ok, f"{kind} witness fails verification: {report.problems[:3]}")
    polynomial = all(f.is_polynomial for f in seq.forms)
    check(polynomial == (kind == "algebraic"), f"{kind} witness has the wrong polynomiality")
    check(tuple(seq.values) == tuple(expected_values), f"{kind} witness values are not regenerated")


def _witness_values(kind, pairs, omegas, s1_failures, s2_witnesses):
    if kind == "algebraic" or s1_failures:
        return omegas
    k, t = s2_witnesses[0]
    return tuple(omegas[: k + 1]) + (t,) + tuple(omegas[k + 1 :])


def check_classification(pairs: sd.FormalPuiseuxPairs, result) -> None:
    cls, graph, definite, built = result
    kind, s1f, s2f, s2w, omegas, _ = reference_classification(pairs.pairs)
    check(
        (cls.kind, cls.s1_failures, cls.s2_failures, cls.s2_witnesses, cls.essential_values)
        == (kind, s1f, s2f, s2w, omegas),
        "classification disagrees with the reference semigroup DP",
    )
    check(definite == (omegas[-1] > 0), "contractibility disagrees with negative definiteness")
    if built:
        check(tuple(k for k, _ in built) == WITNESS_KINDS[kind], "wrong witness kinds for the class")
    for wkind, seq in built:
        _check_witness(wkind, seq, _witness_values(wkind, pairs, omegas, s1f, s2w))


def _seq_from_payload(payload: dict) -> sd.KeyFormSeq:
    return sd.KeyFormSeq(
        tuple(sd.parse_laurent(text) for text in payload["key_forms"]),
        tuple(int(v) for v in payload["values"]),
        tuple(int(v) for v in payload["multipliers"]),
        tuple(int(v) for v in payload["essential_indices"]),
    )


def _flags(line: str) -> tuple[str, dict]:
    argv = shlex.split(line)
    return argv[0], {argv[i].lstrip("-"): argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def check_batch_line(line: str, text: str) -> None:
    """Re-derive one CLI line's answer through the library and the oracles."""
    command, flags = _flags(line)
    payload = json.loads(text)
    check(payload.get("command") == command, "wrong command echoed")
    if command in ("keyforms", "decide", "cousin"):
        if command == "cousin":
            g = sd.from_local(sd.parse_dps(flags["psi"]), F(flags["r"]))
        else:
            g = parse_series(flags["phi"], flags["r"])
        seq = _seq_from_payload(payload)
        check_sequence(seq, g)
        if command != "keyforms":
            polynomial = all(f.is_polynomial for f in seq.forms)
            check((payload["kind"] == "algebraic") == polynomial, "verdict disagrees with the forms")
    elif command == "semidegree":
        g = parse_series(flags["phi"], flags["r"])
        degree = sd.substitute(sd.parse_laurent(flags["f"]), g).degree
        delta_x = _essentials_of(g)[0]
        check(F(payload["value"]) == delta_x * degree, "semidegree disagrees with substitution")
    elif command == "classify":
        kind, s1f, s2f, s2w, omegas, _ = reference_classification(pair_list(flags["pairs"]))
        check(payload["kind"] == kind, "class disagrees with the reference DP")
        check([int(v) for v in payload["essential_values"]] == list(omegas), "essential values differ")
        check([int(v) for v in payload["s1_failures"]] == list(s1f), "s1 failures differ")
        check([(int(w["k"]), int(w["t"])) for w in payload["s2_witnesses"]] == list(s2w), "s2 witnesses differ")
    elif command == "graph":
        kept = [v for v in payload["vertices"] if v["mark"] != "Estar"]
        index = {v["name"]: i for i, v in enumerate(kept)}
        check(len(index) == len(kept), "vertex names repeat")
        matrix = [[0] * len(kept) for _ in kept]
        for i, v in enumerate(kept):
            matrix[i][i] = int(v["weight"])
        for a, b in payload["edges"]:
            if a in index and b in index:
                matrix[index[a]][index[b]] = matrix[index[b]][index[a]] = 1
        check(sd.is_negative_definite(matrix), "graph of a compactification is not contractible")
    elif command == "witness":
        seq = _seq_from_payload(payload)
        pairs = pair_list(flags["pairs"])
        kind, s1f, _, s2w, omegas, _ = reference_classification(pairs)
        check(payload["all_polynomial"] == all(f.is_polynomial for f in seq.forms), "polynomial flag is wrong")
        _check_witness(flags["kind"], seq, _witness_values(flags["kind"], pairs, omegas, s1f, s2w))


# ---------------------------------------------------------------------------
# input generation


def _random_series(rng: random.Random, exps, dens, count, r_steps) -> tuple[dict, F]:
    """{exponent: coefficient} and a generic exponent below all exponents."""
    terms = {}
    for _ in range(rng.randrange(*count)):
        terms[F(rng.randrange(*exps), rng.choice(dens))] = F(rng.choice((-3, -2, -1, 1, 2, 3)))
    return terms, min(terms) - F(rng.randrange(1, r_steps), rng.choice(dens))


def _fill_quotas(draw, strata, per_stratum: int, max_draws: int) -> list[str]:
    """Accepted lines in draw order until every stratum holds its quota;
    ``draw()`` returns (line, stratum) or None."""
    left = dict.fromkeys(strata, per_stratum)
    lines = []
    for _ in range(max_draws):
        if not any(left.values()):
            return lines
        drawn = draw()
        if drawn is not None and left.get(drawn[1], 0) > 0:
            left[drawn[1]] -= 1
            lines.append(drawn[0])
    raise GenerationError(f"strata still short of inputs after {max_draws} draws: {left}")


def chain_inputs(seed: int) -> list[str]:
    rng = random.Random(f"chain-{seed}")
    lines = [f"{phi}\t{r}" for phi, r in (WORKED_EXAMPLE, *BRANCH_PAIR, dyadic_chain(3))]
    for exps, r in CHAIN_PATTERNS:
        terms = [(F(e), F(rng.choice((-1, 1)))) for e in exps.split()]
        lines.append(f"{dps_text(terms)}\t{r}")
    return lines


def _random_pair_list(rng: random.Random, l: int, p1_range, p_range, drop: int) -> list[tuple[int, int]]:
    """l pairs in normal form, then a generic pair at most ``drop`` below."""
    while True:
        p1 = rng.randrange(*p1_range)
        q1 = rng.randrange(2, p1)
        if math.gcd(p1, q1) == 1:
            break
    pairs = [(q1, p1)]
    for _ in range(l - 1):
        p = rng.randrange(*p_range)
        pairs.append((pairs[-1][0] * p - rng.randrange(1, drop), p))
    pairs.append((pairs[-1][0] - rng.randrange(1, drop), 1))
    return pairs


def graph_pairs_valid(pairs, delta_x=(1, 10**9)) -> bool:
    """A normal-form pair list in the delta_x band, all essential values
    positive, every graph block with a positive chain parameter: the
    preconditions of ``classify``, ``resolution_graph`` and the witnesses."""
    if not pairs_valid(pairs) or not delta_x[0] <= math.prod(p for _, p in pairs) <= delta_x[1]:
        return False
    if min(essential_values(pairs)) <= 0:
        return False
    (q1, p1), l = pairs[0], len(pairs) - 1
    if not (q1 < p1 and (l == 0 or q1 > 1)) or (l == 0 and p1 == 1):
        return False
    prefix, previous = 1, 0
    for i in range(l + 1 if pairs[-1][1] > 1 else l):
        q, p = pairs[i]
        prefix *= p
        if prefix - q - previous * p <= 0:
            return False
        previous = prefix - q
    return True


def classify_proxy(pairs) -> float:
    """Modelled cost in ms of one classify operation on ``pairs``.  The
    vertex count and the witness term counts come from the program; an
    exception there stops generation as a failure."""
    base, per_cell, per_n4, per_term2 = CLASSIFY_MODEL_MS
    kind, *_, cells = reference_classification(pairs)
    fp = sd.FormalPuiseuxPairs(tuple(pairs))
    try:
        n = len(sd.resolution_graph(fp).vertices) - 1
        cost = base + per_cell * cells + per_n4 * n**4
        if cost > CLASSIFY_BIN_EDGES_MS[-1]:
            return cost  # already past the last bin; skip building witnesses
        witnesses = []
        if kind in (ALGEBRAIC_ONLY, BOTH):
            witnesses.append(sd.algebraic_witness(fp))
        if kind in (NON_ALGEBRAIC_ONLY, BOTH):
            witnesses.append(sd.nonalgebraic_witness(fp))
    except Exception as exc:  # noqa: BLE001 - a valid input the program fails on
        raise GenerationError(f"the program failed on valid pairs {pairs_text(pairs)}: {exc!r}") from exc
    return cost + per_term2 * sum(len(f) ** 2 for seq in witnesses for f in seq.forms)


def classify_stratum(pairs) -> int | None:
    """Index of the cost bin the pair list falls in, None outside all bins."""
    cost = classify_proxy(pairs)
    edges = CLASSIFY_BIN_EDGES_MS
    return next((i for i in range(len(edges) - 1) if edges[i] <= cost < edges[i + 1]), None)


def classify_inputs(seed: int) -> list[str]:
    rng = random.Random(f"classify-{seed}")

    def draw():
        pairs = _random_pair_list(rng, rng.choice((2, 3)), (3, 14), (2, 5), 40)
        if not graph_pairs_valid(pairs, CLASSIFY_DELTA_X):
            return None
        return pairs_text(pairs), classify_stratum(pairs)

    return _fill_quotas(draw, range(len(CLASSIFY_BIN_EDGES_MS) - 1), CLASSIFY_PER_BIN, CLASSIFY_MAX_DRAWS)


def _small(pairs) -> bool:
    """Last key form of y-degree at most 2: a line of a few ms."""
    return math.prod(p for _, p in pairs[:-1]) <= 2


def _batch_line(rng: random.Random, command: str) -> str | None:
    """One drawn line, or None where the benchmark's own arithmetic says the
    command would refuse it or it is not small."""
    q = shlex.quote
    if command in ("keyforms", "decide", "semidegree"):
        terms, r = _random_series(rng, exps=(-4, 7), dens=(1, 2, 3), count=(1, 4), r_steps=4)
        pairs = series_pairs(terms, r)
        if not _small(pairs) or (command == "decide" and essential_values(pairs)[-1] <= 0):
            return None
        line = f"{command} --phi {q(dps_text(terms.items()))} --r {r}"
        if command == "semidegree":
            f_terms = {}
            for _ in range(rng.randrange(1, 4)):
                f_terms[(rng.randrange(-2, 4), rng.randrange(0, 4))] = F(rng.choice((-2, -1, 1, 3)))
            line += f" --f {q(laurent_text(sorted(f_terms.items())))}"
        return line
    if command == "cousin":
        terms = {F(rng.randrange(1, 7), rng.choice((1, 2, 3))): F(rng.choice((-2, -1, 1, 2))) for _ in range(rng.randrange(1, 3))}
        psi, r = dps_text(terms.items()), F(rng.randrange(1, 9), rng.choice((1, 2, 3)))
        # the series at infinity: exponents 1 - e above the generic exponent 1 - r
        pairs = series_pairs([1 - e for e in terms if 1 - e > 1 - r], 1 - r)
        if not _small(pairs) or essential_values(pairs)[-1] <= 0:
            return None
        return f"cousin --psi {q(psi)} --r {r}"
    pairs = _random_pair_list(rng, rng.randrange(1, 3), (3, 8), (2, 4), 12)
    if not graph_pairs_valid(pairs):
        return None
    line = f"{command} --pairs {pairs_text(pairs)}"
    if command == "witness":
        kind = rng.choice(("algebraic", "nonalgebraic"))
        if kind not in WITNESS_KINDS[reference_classification(pairs)[0]]:
            return None
        line += f" --kind {kind}"
    return line


def batch_inputs(seed: int) -> list[str]:
    """Chunks of all seven commands in seeded order, each line one the
    benchmark's own arithmetic says the command accepts."""
    rng = random.Random(f"batch-{seed}")
    lines = []
    for _ in range(BATCH_CHUNKS):
        commands = list(BATCH_COMMANDS) * BATCH_PER_COMMAND
        rng.shuffle(commands)
        for command in commands:
            for _ in range(BATCH_MAX_DRAWS):
                line = _batch_line(rng, command)
                if line is not None:
                    break
            else:
                raise GenerationError(f"no valid {command} line in {BATCH_MAX_DRAWS} draws")
            lines.append(line)
    return lines


# ---------------------------------------------------------------------------
# workload specs


@dataclass
class Workload:
    name: str
    seed: int
    lines: list[str]  # the input file, one item per line
    items: list  # program objects (or chunk paths) the operation takes
    op: Callable
    output: Callable[[object], str]
    oracle: Callable[[object, object], None]  # (item, result) -> raises OracleError
    ops: int

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def kind_counts(name: str, refs: list[str | None]) -> dict[str, int]:
    """How many references fall in each outcome (chain, classify)."""
    counts: dict[str, int] = {}
    for ref in refs:
        if name == "chain":
            key = "unchecked" if ref is None else json.loads(ref).get("kind", "refused")
        elif name == "classify":
            key = "unchecked" if ref is None else json.loads(ref)["kind"]
        else:
            continue
        counts[key] = counts.get(key, 0) + 1
    return counts


def input_lines(name: str, seed: int) -> list[str]:
    if name == "chain":
        return chain_inputs(seed)
    if name == "classify":
        return classify_inputs(seed)
    return batch_inputs(seed)


def parse_items(name: str, lines: list[str]) -> list:
    """Input text to program objects through the package's parsers."""
    if name == "chain":
        return [parse_series(*line.split("\t")) for line in lines]
    if name == "classify":
        return [parse_pairs(line) for line in lines]
    parsers = {"phi": sd.parse_dps, "psi": sd.parse_dps, "f": sd.parse_laurent, "pairs": parse_pairs, "r": F}
    return [
        {flag: parsers.get(flag, str)(value) for flag, value in _flags(line)[1].items()} for line in lines
    ]


def check_chunk(chunk_lines: list[str], result) -> None:
    code, text = result
    outs = text.splitlines()
    check(code == 0 and len(outs) == len(chunk_lines), "chunk exited nonzero or lost lines")
    for line, out in zip(chunk_lines, outs):
        check_batch_line(line, out)


def build(name: str, seed: int, workdir: Path, seconds: int) -> Workload:
    lines = input_lines(name, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / f"{name}.txt").write_text("\n".join(lines) + "\n")
    if name == "chain":
        items, op, output, oracle = parse_items(name, lines), chain_op, chain_output, check_chain
    elif name == "classify":
        items, op, output, oracle = parse_items(name, lines), classify_op, classify_output, check_classification
    else:
        chunk_of = {}
        for i in range(BATCH_CHUNKS):
            path = workdir / f"chunk{i:02d}.txt"
            chunk_of[str(path)] = lines[i * BATCH_CHUNK_LINES : (i + 1) * BATCH_CHUNK_LINES]
            path.write_text("\n".join(chunk_of[str(path)]) + "\n")
        items = list(chunk_of)
        op, output = batch_op, batch_output
        oracle = lambda path, result: check_chunk(chunk_of[path], result)  # noqa: E731
    passes = -(-seconds * OPS_PER_SECOND[name] // len(items))
    return Workload(name, seed, lines, items, op, output, oracle, passes * len(items))


def build_references(spec: Workload) -> tuple[list[str | None], list[str]]:
    """Outputs of one pass, each checked by the oracles before it is trusted,
    and the problems found.  An input whose operation raises or fails its
    oracle gets no reference, so every timed run of it counts as failed."""
    outputs, problems = [], []
    for i, item in enumerate(spec.items):
        try:
            result = spec.op(item)
            spec.oracle(item, result)
            outputs.append(spec.output(result))
        except Exception as exc:  # noqa: BLE001 - any error leaves this input unchecked
            outputs.append(None)
            problems.append(f"input {i}: {exc!r}")
    return outputs, problems


def references(spec: Workload) -> tuple[list[str | None], str, list[str]]:
    """Committed references for the default seed, else oracle-built ones;
    with their source and the problems found."""
    path = REFS_DIR / f"{spec.name}.json"
    if spec.seed == DEFAULT_SEED and path.exists():
        data = json.loads(path.read_text())
        if data["inputs_sha256"] != spec.digest:
            problem = "the generated inputs no longer match the committed references"
            return [None] * len(spec.items), "committed", [problem]
        return data["outputs"], "committed", []
    outputs, problems = build_references(spec)
    return outputs, "oracles", problems
