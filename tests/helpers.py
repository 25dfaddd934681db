"""Shared random generators and independent oracles for the test suite."""

from fractions import Fraction

from semidegree import DPuiseuxPoly, GenericDPS, LaurentPoly


def random_dps(rng, max_terms=3, denominators=(1, 1, 2, 3)):
    """A random descending Puiseux polynomial with small denominators."""
    terms = []
    used = set()
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = Fraction(rng.randrange(-6, 7), rng.choice(denominators))
        if e in used:
            continue
        used.add(e)
        terms.append((e, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))))
    return DPuiseuxPoly(terms)


def random_generic(rng, max_terms=3):
    """A random generic descending series (any sign of the last value)."""
    phi = random_dps(rng, max_terms=max_terms)
    bottom = phi.order if not phi.is_zero else Fraction(3)
    r = bottom - Fraction(rng.randrange(1, 6), rng.choice([1, 2, 3]))
    return GenericDPS(phi, r)


def random_contractible(rng, max_terms=3):
    """A random generic series whose last essential value is positive."""
    from semidegree import essential_key_values, formal_pairs

    while True:
        g = random_generic(rng, max_terms=max_terms)
        if essential_key_values(formal_pairs(g))[-1] > 0:
            return g


def random_laurent(rng, max_terms=4, allow_negative_x=True):
    """A random nonzero element of Q[x, 1/x, y] with a small support."""
    while True:
        terms = []
        low = -3 if allow_negative_x else 0
        for _ in range(rng.randrange(1, max_terms + 1)):
            a = rng.randrange(low, 5)
            b = rng.randrange(0, 4)
            c = Fraction(rng.choice([-5, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
            terms.append(((a, b), c))
        poly = LaurentPoly(terms)
        if not poly.is_zero:
            return poly


def coprime_pairs(rng, count, min_q=2, max_p=12):
    """Distinct coprime (p, q) with p > q >= min_q."""
    import math

    seen = set()
    out = []
    while len(out) < count:
        p = rng.randrange(min_q + 1, max_p + 1)
        q = rng.randrange(min_q, p)
        if math.gcd(p, q) == 1 and (p, q) not in seen:
            seen.add((p, q))
            out.append((p, q))
    return out


def random_normal_pairs(rng):
    """Random pair list in normal form; the last value may have either sign."""
    import math

    from semidegree import FormalPuiseuxPairs

    l = rng.randrange(0, 3)
    if l == 0:
        while True:
            p1 = rng.randrange(2, 8)
            q1 = rng.randrange(-6, p1)
            if math.gcd(abs(q1), p1) == 1:
                return FormalPuiseuxPairs(((q1, p1),))
    pairs = []
    while True:
        p1 = rng.randrange(3, 6)
        q1 = rng.randrange(2, p1)
        if math.gcd(q1, p1) == 1:
            pairs = [(q1, p1)]
            break
    for _ in range(l - 1):
        while True:
            p = rng.randrange(2, 4)
            q = pairs[-1][0] * p - rng.randrange(1, 15)
            if math.gcd(abs(q), p) == 1:
                pairs.append((q, p))
                break
    while True:
        p = rng.randrange(1, 4)
        q = pairs[-1][0] * p - rng.randrange(1, 15)
        if math.gcd(abs(q), p) == 1:
            pairs.append((q, p))
            break
    return FormalPuiseuxPairs(tuple(pairs))


# ---------------------------------------------------------------------------
# slow exact oracles for the fast classification kernels


def dp_in_semigroup(target, generators):
    """Semigroup membership by the coin-problem DP over 0..target."""
    for g in generators:
        if g <= 0:
            raise ValueError(f"semigroup generators must be positive, got {g}")
    if target < 0:
        return False
    reachable = [False] * (target + 1)
    reachable[0] = True
    for g in generators:
        for v in range(g, target + 1):
            if reachable[v - g]:
                reachable[v] = True
    return reachable[target]


def window_s2(omegas, p_k, k):
    """The second semigroup condition by scanning every integer between
    omega_{k+1} and p_k * omega_k; (holds, least violator)."""
    from semidegree.semigroups import in_group

    generators = list(omegas[: k + 1])
    for t in range(omegas[k + 1] + 1, p_k * omegas[k]):
        if in_group(t, [Fraction(w) for w in generators]) and not dp_in_semigroup(t, generators):
            return False, t
    return True, None


def bareiss_determinant(matrix):
    """Determinant by Bareiss elimination with row swaps."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def minors_negative_definite(matrix):
    """Negative definiteness from each leading minor computed on its own."""
    for k in range(1, len(matrix) + 1):
        minor = bareiss_determinant([row[:k] for row in matrix[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# test-only routes kept out of the package


def polynomial_prefixes_by_semigroup(seq):
    """For each m, whether multiplier * value lies in the semigroup of the
    earlier values for every j <= m.

    By the semigroup criterion this equals "forms 0..m+1 are all
    polynomials", which callers cross-check directly.  Requires positive
    values, which holds whenever the last value is positive.
    """
    from semidegree.semigroups import in_semigroup

    out = []
    ok = True
    for m in range(seq.n + 1):
        if ok and m >= 1:
            ok = in_semigroup(seq.alpha(m) * seq.values[m], list(seq.values[:m]))
        out.append(ok)
    return out


def hj_evaluate(entries):
    """Value of the continued fraction c0 - 1/(c1 - 1/(...))."""
    from semidegree.graphs import GraphError

    if not entries:
        raise GraphError("empty continued fraction")
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c - 1 / value
    return value


def strip_polynomial_part(g):
    """Remove the terms of g.phi with integer exponent >= 1, the coordinate
    change y -> y - h(x) that such head terms correspond to."""
    kept = DPuiseuxPoly(
        (e, c) for e, c in g.phi.items() if not (e.denominator == 1 and e >= 1)
    )
    return GenericDPS(kept, g.r)


def equiv_r(phi, psi, r):
    """True iff ``phi`` and ``psi`` agree in all terms of exponent above r."""
    from semidegree import truncate_above

    return truncate_above(phi, r) == truncate_above(psi, r)


def polydromy_order(phi):
    """Least positive p with every exponent of ``phi`` in (1/p)Z; the zero
    polynomial is rejected."""
    import math

    from semidegree.puiseux import PuiseuxError

    if phi.is_zero:
        raise PuiseuxError("polydromy order of the zero polynomial is undefined")
    result = 1
    for e in phi.exponents():
        result = result * e.denominator // math.gcd(result, e.denominator)
    return result


def star_scale(c, r, phi):
    """Scale each coefficient of x**(q/p) by c**(q*r/p), p the polydromy order.

    ``r`` must be a positive multiple of the polydromy order so that every
    power of ``c`` is an integer.  The zero polynomial is fixed.
    """
    from semidegree.puiseux import PuiseuxError

    if phi.is_zero:
        return phi
    p = polydromy_order(phi)
    if r <= 0 or r % p != 0:
        raise PuiseuxError(f"scaling order {r} is not a positive multiple of the polydromy order {p}")
    return DPuiseuxPoly((e, coeff * Fraction(c) ** int(e * r)) for e, coeff in phi.items())


# ---------------------------------------------------------------------------
# oracle for the sparse core: expansions with Fraction x-exponents and dense
# xi-polynomial coefficients, as the package computed them before its
# expansions moved to integer exponents in x^(1/delta_x)


def _xp_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _xp_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _xp_trim(out)


def _xp_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _xp_trim(out)


def _fraction_series_add(*series):
    out = {}
    for s in series:
        for e, p in s.items():
            merged = _xp_add(out.get(e, ()), p)
            if merged:
                out[e] = merged
            else:
                out.pop(e, None)
    return out


def _fraction_series_mul(s, t):
    return _fraction_series_add(
        *({e1 + e2: _xp_mul(p1, p2)} for e1, p1 in s.items() for e2, p2 in t.items())
    )


def oracle_substitute(f, g):
    """f(x, g) as a dict {Fraction x-exponent: dense xi-tuple}."""
    base = _fraction_series_add({e: (c,) for e, c in g.phi.items()}, {g.r: (Fraction(0), Fraction(1))})
    powers = [{Fraction(0): (Fraction(1),)}]
    while len(powers) <= f.y_degree:
        powers.append(_fraction_series_mul(powers[-1], base))
    out = {}
    for (a, b), c in f.items():
        shifted = {e + a: tuple(v * c for v in p) for e, p in powers[b].items()}
        out = _fraction_series_add(out, shifted)
    return out
