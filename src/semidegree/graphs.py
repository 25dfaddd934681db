"""Resolution dual graphs and their classification by semigroup conditions.

Every valid pair list in normal form determines a weighted marked tree: a
horizontal spine of Hirzebruch-Jung chains with one downward branch per
pair, one vertex marked L (the line at infinity) and one marked E* (the
curve that survives contraction).  The graph corresponds to an actual
compactification exactly when the last essential value is positive, and
then two families of semigroup conditions on the essential values decide
whether the compactifications it carries are algebraic, non-algebraic, or
both.  Both are tested in one pass over k: while the first holds, the
essential values so far are telescopic, so membership is one closed-form
representation and the second needs no search above the largest gap;
Apéry tables serve only what the closed forms leave.  Explicit witness
key-form sequences are constructed for each non-trivial answer.
Contractibility is negative definiteness of the intersection matrix,
tested by exact symmetric elimination leaves first, which takes O(n)
pivots on these trees.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Exact symmetric elimination over the nonzero pattern, leaves first.

    A symmetric matrix is negative definite exactly when a diagonal pivot d
    is negative and its Schur complement is, whichever vertex is taken, so
    the order of elimination is free.  A vertex with at most one neighbour u
    goes first: removing it only turns u's weight w into w - a^2/d, with no
    fill, so a forest costs O(n) pivots (Parter 1961).  Only when no such
    vertex is left does the loop take one of least degree, whose removal
    subtracts a_u * a_w / d from the entry of every pair u, w of its
    neighbours.  Entries are exact (numerator, denominator) pairs; the first
    pivot >= 0 answers False.  Raises `GraphError` on a matrix that is not
    square or not symmetric.
    """
    n = len(matrix)
    short = next((i for i, row in enumerate(matrix) if len(row) != n), None)
    if short is not None:
        raise GraphError(f"matrix is not square: row {short} has {len(matrix[short])} entries, not {n}")
    span = range(n)
    pivots, links = [], []
    for i, row in enumerate(matrix):
        near = {}
        # an asymmetric pair has a nonzero side, so comparing each nonzero
        # entry with its mirror finds every one
        for j in compress(span, row):
            if matrix[j][i] != row[j]:
                raise GraphError(f"matrix is not symmetric: row {i} differs from column {i}")
            near[j] = (row[j], 1)
        pivots.append(near.pop(i, (0, 1)))
        links.append(near)
    leaves = [v for v, near in enumerate(links) if len(near) <= 1]
    for _ in span:
        while leaves and links[leaves[-1]] is None:
            leaves.pop()  # eliminated since it was stacked
        if leaves:
            v = leaves.pop()
        else:
            v = min((u for u, near in enumerate(links) if near is not None), key=lambda u: len(links[u]))
        near, d = links[v], pivots[v]
        if d[0] >= 0:
            return False
        links[v] = None
        while near:
            u, a = near.popitem()
            row = links[u]
            del row[v]
            pivots[u] = _schur(pivots[u], a, a, d)
            for w, b in near.items():
                x = _schur(row.get(w, (0, 1)), a, b, d)
                if x[0]:
                    row[w] = links[w][u] = x
                elif w in row:
                    del row[w], links[w][u]
            if len(row) <= 1:
                leaves.append(u)
    return True


# ---------------------------------------------------------------------------
# semigroup conditions and classification


def _check_condition_args(omegas, pairs: FormalPuiseuxPairs) -> None:
    if any(w <= 0 for w in omegas):
        raise GraphError("semigroup conditions need positive essential values")
    # every table the conditions may build for k = 1..l, checked before any is built
    size = max((apery_size(omegas[: j + 1]) for j in range(1, pairs.l + 1)), default=0)
    if size > MAX_APERY_SIZE:
        raise GraphError(
            f"essential values too large: a semigroup table would need {size} "
            f"entries, more than the bound of {MAX_APERY_SIZE}"
        )


def _in_telescopic(target: int, values) -> bool:
    """Semigroup membership for a telescopic sequence, one whose every value
    after the first, times n_i = gcd(values[:i]) / gcd(values[:i + 1]), is a
    nonnegative combination of the values before it.

    Every member of the group then has one representation with
    0 <= beta_i < n_i for i >= 1 (:func:`represent`), and it lies in the
    semigroup exactly when beta_0 >= 0 (Kirfel-Pellikaan 1995): reducing
    any nonnegative combination from the top value down reaches that
    representation and keeps beta_0 nonnegative.
    """
    return target % gcd(*values) == 0 and represent(target, values)[0] >= 0


def _least_gap(values, above: int, below: int) -> int | None:
    """The least member of the group of the values strictly between
    ``above`` and ``below``, a multiple of their gcd d, that is outside
    their semigroup, or None.

    A group member d*t is outside the semigroup exactly when t lies below
    the Apéry entry of its class, so the least gap comes from the least t
    of each class inside the window.  Those all lie below low + a, so the
    least gap is the first t from low on that lies below its class's entry.
    """
    d, table = apery_set(values)
    a = len(table)
    low, high = above // d + 1, below // d
    window = range(low, min(high, low + a))
    shift = low % a
    entries = table[shift:] + table[:shift]  # entry i is the class of low + i
    least = next(compress(window, map(lt, window, entries)), None)
    return None if least is None else d * least


def _conditions(omegas, pairs: FormalPuiseuxPairs) -> tuple[list[int], list[tuple[int, int]]]:
    """S1 and S2 for k = 1..l in one pass: the k where S1 fails, and (k,
    least violator) where S2 fails.

    With d_k = gcd(omega_0..omega_k) and n_k = d_{k-1} / d_k, while
    omega_0..omega_k is telescopic (:func:`_in_telescopic`) each membership
    is one representation, and every group member above
    F_k = sum_{i=1..k} (n_i - 1) * omega_i - omega_0, the largest gap, is
    in the semigroup, so S2 holds with no table once omega_{k+1} >= F_k.
    An Apéry table serves the rest: S2 windows reaching below F_k, and every
    prefix from the first one that is not telescopic.
    """
    _check_condition_args(omegas, pairs)
    s1_failures, s2_witnesses = [], []
    d, frobenius, telescopic = omegas[0], -omegas[0], True
    for k, (_, p) in enumerate(pairs.pairs[: pairs.l], start=1):
        w, head = omegas[k], omegas[:k]
        holds = (_in_telescopic if telescopic else in_semigroup)(p * w, head)
        if not holds:
            s1_failures.append(k)
        n = d // gcd(d, w)
        d //= n
        frobenius += (n - 1) * w
        telescopic = telescopic and _in_telescopic(n * w, head)
        if not telescopic or omegas[k + 1] < frobenius:
            least = _least_gap(omegas[: k + 1], omegas[k + 1], p * w)
            if least is not None:
                s2_witnesses.append((k, least))
    return s1_failures, s2_witnesses


def _check_index(pairs: FormalPuiseuxPairs, k: int) -> None:
    if not 1 <= k <= pairs.l:
        raise GraphError(f"condition index {k} out of range 1..{pairs.l}")


def s1(omegas, pairs: FormalPuiseuxPairs, k: int) -> bool:
    """Is p_k * omega_k a nonnegative combination of the earlier values?"""
    _check_index(pairs, k)
    return k not in _conditions(omegas, pairs)[0]


def s2(omegas, pairs: FormalPuiseuxPairs, k: int) -> tuple[bool, int | None]:
    """Between omega_{k+1} and p_k * omega_k, does group membership in the
    first k+1 values imply semigroup membership?  Returns the least
    violating integer when not."""
    _check_index(pairs, k)
    least = dict(_conditions(omegas, pairs)[1]).get(k)
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
    require_normal_form(pairs)
    omegas = essential_key_values(pairs)
    if omegas[-1] <= 0:
        return GraphClass(NOT_A_COMPACTIFICATION, essential_values=omegas)
    s1_failures, s2_witnesses = _conditions(omegas, pairs)
    if s1_failures:
        kind = NON_ALGEBRAIC_ONLY
    elif s2_witnesses:
        kind = BOTH
    else:
        kind = ALGEBRAIC_ONLY
    return GraphClass(
        kind,
        tuple(s1_failures),
        tuple(k for k, _ in s2_witnesses),
        tuple(s2_witnesses),
        omegas,
    )


# ---------------------------------------------------------------------------
# witness key-form sequences


def algebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence, every form a polynomial, realizing the graph."""
    omegas = _compactification_values(pairs)
    s1_failures, _ = _conditions(omegas, pairs)
    if s1_failures:
        raise WitnessError(f"no algebraic witness: first semigroup condition fails at k={s1_failures[0]}")
    return key_forms_with_values(omegas)


def nonalgebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence with a non-polynomial form realizing the graph."""
    omegas = _compactification_values(pairs)
    s1_failures, s2_witnesses = _conditions(omegas, pairs)
    if s1_failures:
        # the base sequence itself is non-polynomial from the failure onward
        return key_forms_with_values(omegas)
    if not s2_witnesses:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")

    k, witness_value = s2_witnesses[0]
    if _in_telescopic(witness_value, omegas[: k + 1]):
        beta = represent(witness_value, omegas[: k + 1])
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
