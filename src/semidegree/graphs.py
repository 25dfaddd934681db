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
representation, which on a pair list also answers whether they stay
telescopic, and the second needs no search above the largest gap;
Apéry tables serve only what the closed forms leave.  Explicit witness
key-form sequences are constructed for each non-trivial answer, each
witness testing only what it needs: the algebraic one only the first
condition, the non-algebraic one up to the first failure of either.
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
from itertools import compress, repeat
from math import gcd
from operator import lt
from typing import NamedTuple

from .decide import NotACompactificationError
from .keyforms import KeyFormSeq, essential_key_values, key_forms_with_values, represent, steps_from_values
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
    also on a matrix that is not square, not symmetric or not of ints.
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


def _conditions(
    omegas, pairs: FormalPuiseuxPairs, windows: bool = True, first: bool = False
) -> tuple[list[int], list[tuple[int, int]]]:
    """S1 and S2 for k = 1..l in one pass: the k where S1 fails, and (k,
    least violator) where S2 fails.

    With d_k = gcd(omega_0..omega_k) and n_k = d_{k-1} / d_k, while
    omega_0..omega_k is telescopic (:func:`_in_telescopic`) each membership
    is one representation, and every group member above
    F_k = sum_{i=1..k} (n_i - 1) * omega_i - omega_0, the largest gap, is
    in the semigroup, so S2 holds with no table once omega_{k+1} >= F_k.
    On a pair list n_k = p_k, so S1 at k is the telescopic test of
    omega_k itself and one representation answers both.  An Apéry table
    serves the rest: S2 windows reaching below F_k, and every prefix from
    the first one that is not telescopic.

    With ``windows`` False only S1 is tested.  With ``first`` True the pass
    stops at the first S1 failure and opens no S2 window after the first
    violator: all that a witness needs.
    """
    _check_condition_args(omegas, pairs)
    s1_failures, s2_witnesses = [], []
    d, frobenius, telescopic = omegas[0], -omegas[0], True
    for k, (_, p) in enumerate(pairs.pairs[: pairs.l], start=1):
        w, head = omegas[k], omegas[:k]
        n = d // gcd(d, w)
        d //= n
        frobenius += (n - 1) * w
        if telescopic:
            holds = _in_telescopic(p * w, head)
            telescopic = holds if n == p else _in_telescopic(n * w, head)
        else:
            holds = in_semigroup(p * w, head)
        if not holds:
            s1_failures.append(k)
            if first:
                break
        if windows and not (first and s2_witnesses) and (not telescopic or omegas[k + 1] < frobenius):
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
    return k not in _conditions(omegas, pairs, windows=False)[0]


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


def _witness(values: tuple[int, ...]) -> KeyFormSeq:
    """The key forms of these values, every scalar 1."""
    return key_forms_with_values(values, steps_from_values(values))


def algebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence, every form a polynomial, realizing the graph."""
    omegas = _compactification_values(pairs)
    s1_failures, _ = _conditions(omegas, pairs, windows=False, first=True)
    if s1_failures:
        raise WitnessError(f"no algebraic witness: first semigroup condition fails at k={s1_failures[0]}")
    return _witness(omegas)


def nonalgebraic_witness(pairs: FormalPuiseuxPairs) -> KeyFormSeq:
    """A key-form sequence with a non-polynomial form realizing the graph."""
    omegas = _compactification_values(pairs)
    s1_failures, s2_witnesses = _conditions(omegas, pairs, first=True)
    if s1_failures:
        # the base sequence itself is non-polynomial from the failure onward
        return _witness(omegas)
    if not s2_witnesses:
        raise WitnessError("no non-algebraic witness: the graph is algebraic-only")

    k, witness_value = s2_witnesses[0]
    if _in_telescopic(witness_value, omegas[: k + 1]):
        beta = represent(witness_value, omegas[: k + 1])
        raise InternalError(
            f"semigroup violation {witness_value} has x-exponent {beta[0]} >= 0; this is a bug"
        )
    # the violation enters right after omega_k as a value with multiplier 1
    return _witness(omegas[: k + 1] + (witness_value,) + omegas[k + 1 :])


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
