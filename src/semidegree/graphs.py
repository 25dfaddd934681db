"""Resolution dual graphs and their classification by semigroup conditions.

Every valid pair list in normal form determines a weighted marked tree: a
horizontal spine of Hirzebruch-Jung chains with one downward branch per
pair, one vertex marked L (the line at infinity) and one marked E* (the
curve that survives contraction).  The graph corresponds to an actual
compactification exactly when the last essential value is positive (one
gate for pair lists and series, ``decide.compactification_values``), and
then two families of semigroup conditions on the essential values decide
whether the compactifications it carries are algebraic, non-algebraic, or
both.  Every pair-list entry point (``classify``, ``s1``, ``s2`` and both
witnesses) builds one record: after the normal-form check, the gate and
the table-size refusal, the step record of the essential values.  While
the first condition holds the values so far are telescopic, so it first
fails at the first step k whose representation of p_k * omega_k has a
negative power of x.  One lazy pass over k then gives both conditions:
before that failure the second needs no search above the largest gap,
and a window below it is scanned with the same sign rule, up to an Apéry
table for a window whose least gap lies far on; tables serve every k from
the failure on.  ``classify`` reads the pass to the end, the
non-algebraic witness stops at its first violator of the second, and
``s1`` and ``s2`` at their own k.
A graph of more than ``MAX_GRAPH_VERTICES`` vertices is refused before
any chain is expanded: each chain's length is read off a continued
fraction by Euclid.  Contractibility is negative definiteness of the
intersection matrix, refused past ``MAX_MATRIX_VERTICES`` kept vertices
before any row is allocated, and tested by exact symmetric elimination
leaves first: on these trees that is O(n) pivots over flat integer lists,
with no fill-in, after one scan of the dense rows.  Forests only: a matrix
whose nonzero entries form a cycle is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from math import gcd
from operator import lt
from typing import Iterator, NamedTuple

from .decide import NotACompactificationError, compactification_values
from .keyforms import KeyFormSeq, Steps, first_negative_step, key_forms_with_values, represent, steps_from_values
from .keyforms import _represent, _table
from .parsing import number_to_str
from .puiseux import FormalPuiseuxPairs, InternalError
from .semigroups import MAX_APERY_SIZE, apery_set, apery_size, in_semigroup

MARK_LINE = "L"
MARK_ESTAR = "Estar"

ALGEBRAIC_ONLY = "algebraic_only"
NON_ALGEBRAIC_ONLY = "non_algebraic_only"
BOTH = "both"
NOT_A_COMPACTIFICATION = "not_a_compactification"

# Most vertices a resolution graph may have; a larger one is refused
# before any chain is expanded.
MAX_GRAPH_VERTICES = 10**5

# Most kept vertices an intersection matrix may have: its n^2 cells stay
# under 10^7, about 72 MB of row slots.
MAX_MATRIX_VERTICES = 3000


class GraphError(ValueError):
    pass


class NormalFormError(GraphError):
    """The pair list is not in the normal form the graph shapes assume."""


class WitnessError(GraphError):
    """The requested witness kind is ruled out by the classification."""


class Vertex(NamedTuple):
    name: str
    weight: int
    mark: str | None = None


@dataclass(frozen=True)
class DualGraph:
    """Weighted marked tree; vertices keep construction order."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]


def hj_expansion(a: int, b: int) -> list[int]:
    """Continued fraction a/b = c0 - 1/(c1 - 1/(... - 1/ct)) with cj >= 2
    for j >= 1, by repeated ceiling division, of two positive ints."""
    if type(a) is not int or type(b) is not int or a <= 0 or b <= 0:
        a_text, b_text = (number_to_str(x) if type(x) is int else repr(x) for x in (a, b))
        raise GraphError(f"continued fraction needs positive integers, got {a_text}/{b_text}")
    out = []
    while True:
        c = -(-a // b)
        out.append(c)
        remainder = c * b - a
        if remainder == 0:
            return out
        a, b = b, remainder


def _chain_pair_length(a: int, b: int) -> int:
    """len(hj_expansion(a, b)) + len(hj_expansion(b, a)) in O(log) steps:
    one more than the sum of the partial quotients of the regular continued
    fraction of a/b, by Euclid (the two chains are Riemenschneider dual)."""
    total = 1
    while b:
        total += a // b
        a, b = b, a % b
    return total


def is_normal_form(pairs: FormalPuiseuxPairs) -> bool:
    q1, p1 = pairs.pairs[0]
    return q1 < p1 and (pairs.l == 0 or q1 > 1)


def require_normal_form(pairs: FormalPuiseuxPairs) -> None:
    if not is_normal_form(pairs):
        raise NormalFormError("normalize coordinates first")


def candidate_graph(pairs: FormalPuiseuxPairs) -> DualGraph:
    """Build the weighted marked tree for a normal-form pair list.

    This constructs the graph shape regardless of whether it actually
    bounds a compactification; callers wanting the positivity gate use
    :func:`resolution_graph`.
    """
    require_normal_form(pairs)
    ps = [p for _, p in pairs.pairs]
    qs = [q for q, _ in pairs.pairs]
    l = pairs.l

    if ps[-1] > 1:
        blocks, cap_weight, tail = l + 1, -1, 0
    else:
        if l == 0:
            raise GraphError("a single integer pair carries no resolution graph")
        blocks, cap_weight, tail = l, -2, qs[l - 1] - qs[l] - 1

    prefix = 1
    tilde_q: list[int] = []
    for i in range(blocks):
        prefix *= ps[i]
        tilde_q.append(prefix - qs[i])

    # L, a head per later block, each pair of chains but their first entries,
    # and E* with, when p_last = 1, the cap and the S-tail before it
    size = blocks + (1 if ps[-1] > 1 else tail + 2)
    q_primes = []
    for i in range(blocks):
        q_prime = tilde_q[0] if i == 0 else tilde_q[i] - tilde_q[i - 1] * ps[i]
        q_primes.append(q_prime)
        size += _chain_pair_length(ps[i], q_prime) - 2
    if size > MAX_GRAPH_VERTICES:
        raise GraphError(f"pair list too large: its resolution graph has more than {MAX_GRAPH_VERTICES} vertices")
    u_chains = [hj_expansion(p, q) for p, q in zip(ps, q_primes)]
    v_chains = [hj_expansion(q, p) for p, q in zip(ps, q_primes)]

    vertices: list[tuple[str, int, str | None]] = []
    edges: list[tuple[str, str]] = []

    def add(name: str, weight: int, attach: str | None, mark: str | None = None) -> str:
        vertices.append((name, weight, mark))
        if attach is not None:
            edges.append((attach, name))
        return name

    def hang_branch(block: int, attach: str) -> None:
        # the branch under a spine vertex, top entry adjacent to the spine
        chain = v_chains[block][1:]
        for j in range(len(chain), 0, -1):
            attach = add(f"B{block + 1}V{j}", -chain[j - 1], attach)

    spine = add(MARK_LINE, 1 - u_chains[0][0], None, mark=MARK_LINE)
    for i in range(blocks):
        if i >= 1:
            spine = add(f"B{i + 1}H", -u_chains[i][0] - 1, spine)
            hang_branch(i - 1, spine)
        for j, c in enumerate(u_chains[i][1:], start=1):
            spine = add(f"B{i + 1}T{j}", -c, spine)

    if ps[-1] > 1:
        spine = add(MARK_ESTAR, cap_weight, spine, mark=MARK_ESTAR)
        hang_branch(blocks - 1, spine)
    else:
        spine = add("Cap", cap_weight, spine)
        hang_branch(blocks - 1, spine)
        for j in range(1, tail + 1):
            spine = add(f"S{j}", -2, spine)
        add(MARK_ESTAR, -1, spine, mark=MARK_ESTAR)

    # tuple.__new__ types each triple as a Vertex without the Python-level
    # __new__ of a NamedTuple, as Vertex._make does
    return DualGraph(tuple(map(tuple.__new__, repeat(Vertex), vertices)), tuple(edges))


def resolution_graph(pairs: FormalPuiseuxPairs) -> DualGraph:
    """The augmented marked dual graph of the minimal resolution; errors when
    the pair list does not correspond to a compactification.  The normal
    form is checked first, as by :func:`classify` and the witnesses."""
    require_normal_form(pairs)
    compactification_values(pairs)
    return candidate_graph(pairs)


# ---------------------------------------------------------------------------
# intersection matrices


def intersection_matrix(graph: DualGraph, exclude_estar: bool = False) -> list[list[int]]:
    """The symmetric matrix of the graph's vertices in construction order:
    weights on the diagonal, 1 for each edge; with ``exclude_estar`` the E*
    vertex is left out.  Raises `GraphError`, before any row is allocated,
    on a graph of more than ``MAX_MATRIX_VERTICES`` kept vertices."""
    kept = [v for v in graph.vertices if not (exclude_estar and v.mark == MARK_ESTAR)]
    n = len(kept)
    if n > MAX_MATRIX_VERTICES:
        raise GraphError(
            f"graph too large for an intersection matrix: {n} vertices, more than {MAX_MATRIX_VERTICES}"
        )
    matrix = [[0] * n for _ in kept]
    index = {}
    for i, (name, weight, _) in enumerate(kept):
        index[name] = i
        matrix[i][i] = weight
    for a, b in graph.edges:
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None:
            matrix[i][j] = matrix[j][i] = 1
    return matrix


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Exact symmetric elimination from the leaves, on a matrix whose
    nonzero pattern is a forest, as every resolution graph is.

    A symmetric matrix is negative definite exactly when a diagonal pivot d
    is negative and its Schur complement is, whichever vertex is taken, so
    the order of elimination is free.  A vertex with at most one neighbour u
    goes first: removing it only turns u's pivot w into w - a^2/d, with no
    fill, so a forest costs O(n) pivots (Parter 1961), kept in flat integer
    lists: each pivot as a numerator and a positive denominator in lowest
    terms, each vertex's count of remaining neighbours, and the XOR of their
    indices, which names the last one.  The first pivot >= 0 answers False,
    which holds for any symmetric matrix.  Forests only: on a pattern with a
    cycle the leaves run out with vertices left, and that is refused with
    `GraphError`, so such a matrix never answers True.  Raises `GraphError`
    also on a matrix that is not square or not symmetric, or that has a
    nonzero entry or a diagonal entry that is not an int.  The scan reads
    only those entries' types: an off-diagonal zero is read by its value,
    so 0.0, False or Fraction(0) there is no edge.
    """
    n = len(matrix)
    short = next((i for i, row in enumerate(matrix) if len(row) != n), None)
    if short is not None:
        raise GraphError(f"matrix is not square: row {short} has {len(matrix[short])} entries, not {n}")
    span = range(n)
    num, degree, others = [], [], []
    for i, row in enumerate(matrix):
        count = xor = 0
        # an asymmetric pair has a nonzero side, so comparing each nonzero
        # entry with its mirror finds every one
        for j in compress(span, row):
            x = row[j]
            if type(x) is not int:
                raise GraphError(f"matrix entry ({i}, {j}) is a {type(x).__name__}, not an int")
            if matrix[j][i] != x:
                raise GraphError(f"matrix is not symmetric: row {i} differs from column {i}")
            count += 1
            xor ^= j
        w = row[i]
        if type(w) is not int:  # a zero on the diagonal, which the scan skips
            raise GraphError(f"matrix entry ({i}, {i}) is a {type(w).__name__}, not an int")
        if w:
            count -= 1
            xor ^= i
        num.append(w)
        degree.append(count)
        others.append(xor)
    den = [1] * n
    # a vertex is stacked once, when its degree first drops to 1 or below
    leaves = [v for v in span if degree[v] <= 1]
    left = n
    while leaves:
        v = leaves.pop()
        dn = num[v]
        if dn >= 0:
            return False
        left -= 1
        if degree[v]:
            u = others[v]
            a, ud = matrix[v][u], den[u]
            # w - a^2 / d over the positive denominator -ud * dn
            top, bottom = a * a * den[v] * ud - num[u] * dn, -ud * dn
            g = gcd(top, bottom)
            num[u], den[u] = top // g, bottom // g
            degree[u] -= 1
            others[u] ^= v
            if degree[u] == 1:
                leaves.append(u)
    if left:
        raise GraphError("definiteness is tested on forests only: the matrix has a cycle of nonzero entries")
    return True


# ---------------------------------------------------------------------------
# semigroup conditions and classification


class _Record(NamedTuple):
    """A compactification's essential values, their step record and the
    first step k whose beta_k0 is negative, or None."""

    omegas: tuple[int, ...]
    steps: Steps
    first: int | None


def _record(pairs: FormalPuiseuxPairs) -> _Record:
    """The record every pair-list entry point reads the semigroup conditions
    off, after the normal-form check, the compactification gate and the
    table-size refusal, in that order.

    On a valid pair list n_k = gcd(omega_<k) / gcd(omega_<=k) is p_k, so
    every omega_k with 1 <= k <= l is essential and step k of the record is
    p_k with the representation beta_k of p_k * omega_k
    (:func:`steps_from_values`).  While S1 holds below k, omega_0..omega_{k-1}
    are telescopic: each value after the first, times its n_i, is a
    nonnegative combination of the values before it.  Every member of their
    group then has one representation with 0 <= beta_i < n_i for i >= 1
    (:func:`represent`), and it lies in their semigroup exactly when
    beta_0 >= 0 (Kirfel-Pellikaan 1995): reducing any nonnegative
    combination from the top value down reaches that representation and
    keeps beta_0 nonnegative.  So S1 first fails at the first step with
    beta_k0 < 0 (:func:`first_negative_step`), the sign a verdict reads off
    a run's record.  A positive last value makes every essential value
    positive (omega_{k+1} < p_k * omega_k), as the tables need.
    """
    require_normal_form(pairs)
    omegas = compactification_values(pairs)
    # every table the conditions may build for k = 1..l, checked before any is built
    size = max((apery_size(omegas[: j + 1]) for j in range(1, pairs.l + 1)), default=0)
    if size > MAX_APERY_SIZE:
        raise GraphError(
            f"essential values too large: a semigroup table would need {number_to_str(size)} "
            f"entries, more than the bound of {MAX_APERY_SIZE}"
        )
    steps = steps_from_values(omegas)
    return _Record(omegas, steps, first_negative_step(steps))


# members of a telescopic window tested by the sign rule before its Apéry
# table is built: one test costs what the table's fill spends on 2 to 25
# entries (5 to 20 values), so a later least gap costs about the table
_SCAN = 32


def _least_gap(values, above: int, below: int, telescopic: bool) -> int | None:
    """The least member of the group of the values strictly between
    ``above`` and ``below``, a multiple of their gcd d, that is outside
    their semigroup, or None.

    A gap less the smallest value m is a gap or negative (were it a member,
    so would the gap be), so the least gap above ``above`` lies below the
    first multiple of d above it plus m: at most m / d members.  Telescopic
    values test the first ``_SCAN`` of them by the rule of :func:`_record`,
    a member being a gap exactly when its beta_0 is negative.  The rest is
    read off the Apéry table: d*t is a gap exactly when t lies below its
    class's entry.
    """
    d = gcd(*values)
    low = above // d + 1
    window = range(low, min(below // d, low + min(values) // d))
    if telescopic:
        rows = _table(values)
        least = next((t for t in window[:_SCAN] if _represent(d * t, rows)[0] < 0), None)
        window = window[_SCAN:]
        if least is not None or not window:
            return None if least is None else d * least
    d, table = apery_set(values)
    shift = window.start % len(table)
    entries = table[shift:] + table[:shift]  # entry i is the class of window.start + i
    least = next(compress(window, map(lt, window, entries)), None)
    return None if least is None else d * least


def _conditions(record: _Record) -> Iterator[tuple[int, bool, int | None]]:
    """S1 and S2 for k = 1..l, one k at a time: (k, whether S1 holds, the
    least S2 violator or None).

    Below the record's first S1 failure omega_0..omega_k are telescopic, so
    S1 holds, and every group member above
    F_k = sum_{i=1..k} (p_i - 1) * omega_i - omega_0, the largest gap, is in
    the semigroup, so S2 holds with no scan once omega_{k+1} >= F_k.  A
    window reaching below F_k is scanned by :func:`_least_gap`.  From the
    failure on, S1 and S2 read Apéry tables.
    """
    omegas, steps, first = record
    frobenius = -omegas[0]
    for k, (p, _) in enumerate(steps, start=1):
        w = omegas[k]
        frobenius += (p - 1) * w
        telescopic = first is None or k < first
        holds = telescopic or (k > first and in_semigroup(p * w, omegas[:k]))
        least = None
        if not telescopic or omegas[k + 1] < frobenius:
            least = _least_gap(omegas[: k + 1], omegas[k + 1], p * w, telescopic)
        yield k, holds, least


def _condition_at(pairs: FormalPuiseuxPairs, k: int) -> tuple[int, bool, int | None]:
    if not 1 <= k <= pairs.l:
        raise GraphError(f"condition index {k} out of range 1..{pairs.l}")
    return next(islice(_conditions(_record(pairs)), k - 1, None))


def s1(pairs: FormalPuiseuxPairs, k: int) -> bool:
    """Is p_k * omega_k a nonnegative combination of the earlier values?"""
    return _condition_at(pairs, k)[1]


def s2(pairs: FormalPuiseuxPairs, k: int) -> tuple[bool, int | None]:
    """Between omega_{k+1} and p_k * omega_k, does group membership in the
    first k+1 values imply semigroup membership?  Returns the least
    violating integer when not."""
    least = _condition_at(pairs, k)[2]
    return least is None, least


@dataclass(frozen=True)
class GraphClass:
    kind: str
    s1_failures: tuple[int, ...] = ()
    s2_failures: tuple[int, ...] = ()
    s2_witnesses: tuple[tuple[int, int], ...] = ()
    essential_values: tuple[int, ...] = ()


def classify(pairs: FormalPuiseuxPairs) -> GraphClass:
    """Sort a normal-form pair list into the four classification kinds."""
    try:
        record = _record(pairs)
    except NotACompactificationError:
        return GraphClass(NOT_A_COMPACTIFICATION, essential_values=pairs.essential_values)
    conditions = list(_conditions(record))
    s1_failures = tuple(k for k, holds, _ in conditions if not holds)
    s2_witnesses = tuple((k, least) for k, _, least in conditions if least is not None)
    if s1_failures:
        kind = NON_ALGEBRAIC_ONLY
    elif s2_witnesses:
        kind = BOTH
    else:
        kind = ALGEBRAIC_ONLY
    return GraphClass(kind, s1_failures, tuple(k for k, _ in s2_witnesses), s2_witnesses, record.omegas)


# ---------------------------------------------------------------------------
# witness key-form sequences


def algebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence, every form a polynomial, realizing the graph."""
    omegas, steps, k = _record(pairs)
    if k is not None:
        raise WitnessError(f"no algebraic witness: first semigroup condition fails at k={k}")
    return key_forms_with_values(omegas, steps)


def nonalgebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence with a non-polynomial form realizing the graph.

    When S1 fails the record's own sequence is one.  Otherwise the pass
    stops at the least S2 violator t, after omega_k: t enters right after
    omega_k with multiplier 1 and its representation against
    omega_0..omega_k, whose beta_0 is negative, and as t is not essential
    every later step keeps its own."""
    record = _record(pairs)
    omegas, steps, first = record
    if first is not None:
        # the base sequence itself is non-polynomial from the failure onward
        return key_forms_with_values(omegas, steps)
    violation = next(((k, least) for k, _, least in _conditions(record) if least is not None), None)
    if violation is None:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")
    k, t = violation
    beta = represent(t, omegas[: k + 1])
    if beta[0] >= 0:
        raise InternalError(f"semigroup violation {t} has x-exponent {beta[0]} >= 0; this is a bug")
    return key_forms_with_values(omegas[: k + 1] + (t,) + omegas[k + 1 :], steps[:k] + [(1, beta)] + steps[k:])


# ---------------------------------------------------------------------------
# DOT export


def export_dot(graph: DualGraph) -> str:
    """Deterministic DOT text; vertices in construction order, L boxed and
    E* doubly circled."""
    if not graph.vertices:
        raise GraphError("refusing to export an empty graph")
    shapes = {MARK_LINE: "box", MARK_ESTAR: "doublecircle"}
    lines = ["graph resolution {"]
    for v in graph.vertices:
        shape = shapes.get(v.mark, "circle")
        lines.append(f'  "{v.name}" [label="{v.name}\\n{v.weight}", shape={shape}];')
    for a, b in graph.edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
