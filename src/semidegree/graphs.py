"""Resolution dual graphs and their classification by semigroup conditions.

Every valid pair list in normal form determines a weighted marked tree: a
horizontal spine of Hirzebruch-Jung chains with one downward branch per
pair, one vertex marked L (the line at infinity) and one marked E* (the
curve that survives contraction).  The graph corresponds to an actual
compactification exactly when the last essential value is positive, and
then two families of semigroup conditions on the essential values decide
whether the compactifications it carries are algebraic, non-algebraic, or
both.  Explicit witness key-form sequences are constructed for each
non-trivial answer.  Contractibility is negative definiteness of the
intersection matrix, tested by exact symmetric elimination leaves first,
which takes O(n) pivots on these trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import lt

from .decide import NotACompactificationError
from .keyforms import KeyFormSeq, essential_key_values, key_forms_with_values, represent
from .puiseux import FormalPuiseuxPairs, InternalError
from .semigroups import MAX_APERY_SIZE, apery_set, apery_size, in_semigroup

MARK_LINE = "L"
MARK_ESTAR = "Estar"

ALGEBRAIC_ONLY = "algebraic_only"
NON_ALGEBRAIC_ONLY = "non_algebraic_only"
BOTH = "both"
NOT_A_COMPACTIFICATION = "not_a_compactification"


class GraphError(ValueError):
    pass


class NormalFormError(GraphError):
    """The pair list is not in the normal form the graph shapes assume."""


class WitnessError(GraphError):
    """The requested witness kind is ruled out by the classification."""


@dataclass(frozen=True)
class Vertex:
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
    for j >= 1, by repeated ceiling division."""
    if a <= 0 or b <= 0:
        raise GraphError(f"continued fraction needs positive inputs, got {a}/{b}")
    out = []
    while True:
        c = -(-a // b)
        out.append(c)
        remainder = c * b - a
        if remainder == 0:
            return out
        a, b = b, remainder


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

    u_chains: list[list[int]] = []
    v_chains: list[list[int]] = []
    for i in range(blocks):
        q_prime = tilde_q[0] if i == 0 else tilde_q[i] - tilde_q[i - 1] * ps[i]
        if q_prime <= 0:
            raise GraphError(f"block {i + 1}: nonpositive chain parameter {q_prime}")
        u_chains.append(hj_expansion(ps[i], q_prime))
        v_chains.append(hj_expansion(q_prime, ps[i]))

    vertices: list[Vertex] = []
    edges: list[tuple[str, str]] = []

    def add(name: str, weight: int, attach: str | None, mark: str | None = None) -> str:
        vertices.append(Vertex(name, weight, mark))
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

    return DualGraph(tuple(vertices), tuple(edges))


def _compactification_values(pairs: FormalPuiseuxPairs) -> tuple[int, ...]:
    """The essential values; errors unless the last one is positive."""
    omegas = essential_key_values(pairs)
    if omegas[-1] <= 0:
        raise NotACompactificationError(
            f"no compactification: last essential value {omegas[-1]} <= 0"
        )
    return omegas


def resolution_graph(pairs: FormalPuiseuxPairs) -> DualGraph:
    """The augmented marked dual graph of the minimal resolution; errors when
    the pair list does not correspond to a compactification."""
    _compactification_values(pairs)
    return candidate_graph(pairs)


# ---------------------------------------------------------------------------
# intersection matrices


def intersection_matrix(graph: DualGraph, exclude_estar: bool = False) -> list[list[int]]:
    names = [v.name for v in graph.vertices if not (exclude_estar and v.mark == MARK_ESTAR)]
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    matrix = [[0] * n for _ in range(n)]
    for v in graph.vertices:
        if v.name in index:
            matrix[index[v.name]][index[v.name]] = v.weight
    for a, b in graph.edges:
        if a in index and b in index:
            matrix[index[a]][index[b]] = 1
            matrix[index[b]][index[a]] = 1
    return matrix


def _schur(x, a, b, d):
    """The Schur-complement entry x - a*b/d on (numerator, positive
    denominator) pairs, in lowest terms."""
    (xn, xm), (an, am), (bn, bm), (dn, dm) = x, a, b, d
    num = xn * am * bm * dn - an * bn * dm * xm
    den = xm * am * bm * dn
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Exact symmetric elimination over the nonzero pattern, fewest
    neighbours first.

    A symmetric matrix is negative definite exactly when a diagonal pivot d
    is negative and its Schur complement is, whichever vertex is taken, so
    each step eliminates a vertex of least remaining degree: removing it
    subtracts a_u * a_w / d from the entry of every pair u, w of its
    neighbours.  On a tree that vertex is a leaf and its parent's weight
    becomes w - 1/d with no fill (Parter 1961), so a dual graph costs O(n)
    pivots.  Entries are exact (numerator, denominator) pairs; the first
    pivot >= 0 answers False.  Raises `GraphError` on a matrix that is not
    square or not symmetric.
    """
    n = len(matrix)
    short = next((i for i, row in enumerate(matrix) if len(row) != n), None)
    if short is not None:
        raise GraphError(f"matrix is not square: row {short} has {len(matrix[short])} entries, not {n}")
    pivots = []
    links: list[dict | None] = [{} for _ in range(n)]
    for i, (row, column) in enumerate(zip(matrix, zip(*matrix))):
        if tuple(row) != column:
            raise GraphError(f"matrix is not symmetric: row {i} differs from column {i}")
        pivots.append((row[i], 1))
        for j in compress(range(i), row):
            links[i][j] = links[j][i] = (row[j], 1)
    queue = [(len(near), v) for v, near in enumerate(links)]
    heapify(queue)
    while queue:
        degree, v = heappop(queue)
        near = links[v]
        if near is None or len(near) != degree:
            continue  # eliminated, or its degree changed since it was queued
        d = pivots[v]
        if d[0] >= 0:
            return False
        links[v] = None
        items = list(near.items())
        for k, (u, a) in enumerate(items):
            row = links[u]
            del row[v]
            pivots[u] = _schur(pivots[u], a, a, d)
            for w, b in items[k + 1 :]:
                x = _schur(row.get(w, (0, 1)), a, b, d)
                if x[0]:
                    row[w] = links[w][u] = x
                elif w in row:
                    del row[w], links[w][u]
        for u in near:
            heappush(queue, (len(links[u]), u))
    return True


# ---------------------------------------------------------------------------
# semigroup conditions and classification


def _check_condition_args(omegas, pairs: FormalPuiseuxPairs, k: int) -> None:
    if not 1 <= k <= pairs.l:
        raise GraphError(f"condition index {k} out of range 1..{pairs.l}")
    if any(w <= 0 for w in omegas):
        raise GraphError("semigroup conditions need positive essential values")
    # every table s1 and s2 build for k = 1..l, checked before any is built
    size = max(apery_size(omegas[: j + 1]) for j in range(1, pairs.l + 1))
    if size > MAX_APERY_SIZE:
        raise GraphError(
            f"essential values too large: a semigroup table would need {size} "
            f"entries, more than the bound of {MAX_APERY_SIZE}"
        )


def s1(omegas, pairs: FormalPuiseuxPairs, k: int) -> bool:
    """Is p_k * omega_k a nonnegative combination of the earlier values?"""
    _check_condition_args(omegas, pairs, k)
    p_k = pairs.pairs[k - 1][1]
    return in_semigroup(p_k * omegas[k], list(omegas[:k]))


def s2(omegas, pairs: FormalPuiseuxPairs, k: int) -> tuple[bool, int | None]:
    """Between omega_{k+1} and p_k * omega_k, does group membership in the
    first k+1 values imply semigroup membership?  Returns the least
    violating integer when not.

    The group is the multiples of d = gcd(omega_0..omega_k).  A group member
    d*t is outside the semigroup exactly when t lies below the Apéry entry of
    its class, so the least violator comes from the least t of each class
    inside the window.  Those all lie below low + a, so the least violator
    is the first t from low on that lies below its class's entry.
    """
    _check_condition_args(omegas, pairs, k)
    p_k = pairs.pairs[k - 1][1]
    d, table = apery_set(omegas[: k + 1])
    a = len(table)
    low, high = omegas[k + 1] // d + 1, p_k * omegas[k] // d
    window = range(low, min(high, low + a))
    shift = low % a
    entries = table[shift:] + table[:shift]  # entry i is the class of low + i
    least = next(compress(window, map(lt, window, entries)), None)
    return (True, None) if least is None else (False, d * least)


@dataclass(frozen=True)
class GraphClass:
    kind: str
    s1_failures: tuple[int, ...] = ()
    s2_failures: tuple[int, ...] = ()
    s2_witnesses: tuple[tuple[int, int], ...] = ()
    essential_values: tuple[int, ...] = ()


def classify(pairs: FormalPuiseuxPairs) -> GraphClass:
    """Sort a normal-form pair list into the four classification kinds."""
    require_normal_form(pairs)
    omegas = essential_key_values(pairs)
    if omegas[-1] <= 0:
        return GraphClass(NOT_A_COMPACTIFICATION, essential_values=omegas)
    s1_failures = []
    s2_failures = []
    s2_witnesses = []
    for k in range(1, pairs.l + 1):
        if not s1(omegas, pairs, k):
            s1_failures.append(k)
        holds, witness = s2(omegas, pairs, k)
        if not holds:
            s2_failures.append(k)
            s2_witnesses.append((k, witness))
    if s1_failures:
        kind = NON_ALGEBRAIC_ONLY
    elif s2_failures:
        kind = BOTH
    else:
        kind = ALGEBRAIC_ONLY
    return GraphClass(
        kind,
        tuple(s1_failures),
        tuple(s2_failures),
        tuple(s2_witnesses),
        omegas,
    )


# ---------------------------------------------------------------------------
# witness key-form sequences


def algebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence, every form a polynomial, realizing the graph."""
    omegas = _compactification_values(pairs)
    for k in range(1, pairs.l + 1):
        if not s1(omegas, pairs, k):
            raise WitnessError(f"no algebraic witness: first semigroup condition fails at k={k}")
    return key_forms_with_values(omegas)


def nonalgebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence with a non-polynomial form realizing the graph."""
    omegas = _compactification_values(pairs)
    if any(not s1(omegas, pairs, k) for k in range(1, pairs.l + 1)):
        # the base sequence itself is non-polynomial from the failure onward
        return key_forms_with_values(omegas)

    k = witness_value = None
    for candidate in range(1, pairs.l + 1):
        holds, value = s2(omegas, pairs, candidate)
        if not holds:
            k, witness_value = candidate, value
            break
    if k is None:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")

    beta = represent(witness_value, omegas[: k + 1])
    if beta[0] >= 0:
        raise InternalError(
            f"semigroup violation {witness_value} has x-exponent {beta[0]} >= 0; this is a bug"
        )
    # the violation enters right after omega_k as a value with multiplier 1
    return key_forms_with_values(omegas[: k + 1] + (witness_value,) + omegas[k + 1 :])


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
