"""Shared ring and ideal builders used across the test suite."""

import heapq
import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, combinations, product
from operator import add, mul

from mixedmult import (
    GroebnerBasis,
    HilbertPolynomialRep,
    HilbertSeriesRep,
    Ideal,
    InvariantViolation,
    LaurentPolyZ,
    MixedMultTable,
    PairBudgetExceeded,
    Polynomial,
    Prng,
    RingSpec,
    elimination_ideal,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    irrelevant_saturation,
    k_polynomial,
    normal_form,
    parse_polynomial,
)
from mixedmult.groebner import (
    DEFAULT_PAIR_BUDGET,
    _buchberger,
    _lift,
    _Packing,
    _project,
    _width_for,
)
from mixedmult.maps import (
    PresentationMatrix,
    RationalMapSpec,
    ideal_height,
)
from mixedmult.multigraded import block_ideal
from mixedmult.rings import (
    TermOrder,
    _minimalize,
    degrevlex_order,
    mono_div,
    mono_divides,
)

CHAR = 32003


def mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The lcm of two exponent tuples, for the tuple oracles."""
    return tuple(map(max, a, b))


def mono_coprime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """No variable divides both (exponents are nonnegative)."""
    return not any(map(mul, a, b))


def ring_blocks(*blocks) -> RingSpec:
    return RingSpec(CHAR, tuple(tuple(b) for b in blocks))


def p1xp1() -> RingSpec:
    return ring_blocks(("x0", "x1"), ("y0", "y1"))


def rational_map(variables: tuple[str, ...], exprs: tuple[str, ...]) -> RationalMapSpec:
    """The map P^d -> P^n by the parsed forms ``exprs`` in ``variables``."""
    ring = RingSpec(CHAR, (tuple(variables),))
    return RationalMapSpec(ring, tuple(parse_polynomial(e, ring) for e in exprs))


def in_ideal(p: Polynomial, J: Ideal) -> bool:
    return normal_form(p, groebner_basis(J)).is_zero()


def laurent_product(a: LaurentPolyZ, b: LaurentPolyZ) -> LaurentPolyZ:
    """a·b, for closed-form numerators (the library multiplies none)."""
    return LaurentPolyZ(
        a.r, ((tuple(map(add, ea, eb)), ca * cb) for ea, ca in a.terms for eb, cb in b.terms)
    )


def mk(ring: RingSpec, *exprs: str, shift=None) -> Ideal:
    gens = tuple(parse_polynomial(e, ring) for e in exprs)
    return Ideal(ring, gens, shift=shift)


def pp(ring: RingSpec, expr: str) -> Polynomial:
    return parse_polynomial(expr, ring)


def random_monomial_ideal(seed: int) -> Ideal:
    """Seeded monomial ideal in at most 6 variables across 2 blocks.

    Exponents stay small so the whole property corpus runs in seconds.
    """
    rng = Prng(seed)
    n1 = 1 + rng.below(3)
    n2 = 1 + rng.below(3)
    ring = ring_blocks(
        tuple(f"x{i}" for i in range(n1)),
        tuple(f"y{i}" for i in range(n2)),
    )
    nvars = n1 + n2
    count = 1 + rng.below(4)
    gens = []
    for _ in range(count):
        exps = [0] * nvars
        support = 1 + rng.below(min(3, nvars))
        for _ in range(support):
            exps[rng.below(nvars)] += 1 + rng.below(2)
        gens.append(Polynomial(ring, ((tuple(exps), 1),)))
    return Ideal(ring, tuple(gens))


def hitting_set_dimension(exps, nvars: int) -> int:
    """Reference Krull dimension of the quotient by a monomial ideal.

    The quotient's dimension is nvars minus the fewest variables that meet
    the support of every generator (the largest coordinate subspace in the
    zero set).  Exponential search; -1 for the zero ring.
    """
    if any(sum(e) == 0 for e in exps):
        return -1
    supports = frozenset(
        frozenset(i for i, x in enumerate(e) if x) for e in exps
    )
    memo: dict = {}

    def min_hitting_set(sets: frozenset) -> int:
        if not sets:
            return 0
        if sets not in memo:
            pivot = min(sets, key=lambda s: (len(s), sorted(s)))
            memo[sets] = 1 + min(
                min_hitting_set(frozenset(s for s in sets if v not in s))
                for v in pivot
            )
        return memo[sets]

    return nvars - min_hitting_set(supports)


def assert_holds_its_basis(J: Ideal) -> None:
    """J holds its reduced degrevlex basis, ``groebner_basis`` returns it,
    and it equals a new Buchberger run on J's generators (bypassing the
    memo) in elements, order and leading exponents."""
    fresh = _buchberger.__wrapped__(
        J.ring, frozenset(J.generators), degrevlex_order(J.ring), DEFAULT_PAIR_BUDGET
    )
    held = groebner_basis(J)
    assert held is J._basis
    assert held.elements == fresh.elements == J.generators
    assert held.leading_exps == fresh.leading_exps


def intersection_irrelevant_ideal(ring: RingSpec) -> Ideal:
    """Reference irrelevant ideal: the block ideals intersected by elimination.

    One block gives the block ideal itself; otherwise each intersection is an
    elimination, whose generators come out as a reduced Groebner basis.
    """
    acc = block_ideal(ring, 0)
    for i in range(1, ring.r):
        acc = ideal_intersection(acc, block_ideal(ring, i))
    return acc


def _saturate_by_element(J: Ideal, k: Polynomial) -> Ideal:
    """(J : k^inf) via J + (1 - w*k), eliminating the one helper w."""
    ring = J.ring
    if k.is_constant():
        return Ideal(ring, groebner_basis(J).elements)
    ext = ring.extended("_w")
    wname = ext.variables[-1]
    w = Polynomial.variable(ext, wname)
    gens = [_lift(g, ext) for g in J.generators]
    gens.append(Polynomial.one(ext) - w * _lift(k, ext))
    eliminated = elimination_ideal(Ideal(ext, gens), (wname,))
    return Ideal(ring, [_project(g, ring) for g in eliminated.generators])


def per_generator_saturation(J: Ideal, K: Ideal) -> Ideal:
    """Reference (J : K^inf): the intersection of the (J : k^inf), k in K.

    One single-helper elimination per generator of K, folded by pairwise
    intersections (skipping equal parts and unit ideals), then the reduced
    degrevlex basis of the result.
    """
    result = None
    for k in K.generators:
        part = _saturate_by_element(J, k)
        if result is None:
            result = part
        elif part.generators == result.generators:
            continue
        elif part.is_unit_ideal():
            continue
        elif result.is_unit_ideal():
            result = part
        else:
            inter = ideal_intersection(result, part)
            result = Ideal(J.ring, groebner_basis(inter).elements)
    return Ideal(J.ring, groebner_basis(result).elements)


def colon_filter_regular(J: Ideal, h: Polynomial) -> bool:
    """Reference filter-regularity test: (J : h) contained in J^sat.

    The colon comes from ``ideal_quotient`` (an intersection elimination
    and exact division) and each of its generators is reduced to a normal
    form against the saturation's basis.
    """
    G = groebner_basis(irrelevant_saturation(J))
    return all(normal_form(g, G).is_zero() for g in ideal_quotient(J, h).generators)


def _binomial_poly(shift: int, k: int) -> list[Fraction]:
    """Coefficients (ascending) of C(X + shift, k) as a polynomial in X."""
    coeffs = [Fraction(1)]
    for j in range(1, k + 1):
        # multiply by (X + shift - k + j)
        const = Fraction(shift - k + j)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * const
            nxt[i + 1] += c
        coeffs = nxt
    inv = Fraction(1, math.factorial(k))
    return [c * inv for c in coeffs]


def fraction_hilbert_polynomial(J: Ideal) -> HilbertPolynomialRep:
    """Reference Hilbert polynomial: every numerator term expanded in Fractions.

    Each term c*t^a contributes c * prod_i C(X_i + D_i-1-a_i, D_i-1), each
    binomial expanded with rational coefficients and summed as it goes.
    """
    rep = k_polynomial(J)
    ring = J.ring
    D = ring.block_sizes
    r = ring.r
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for a, c in rep.numerator.terms:
        factors = [_binomial_poly(D[i] - 1 - a[i], D[i] - 1) for i in range(r)]
        partial: dict[tuple[int, ...], Fraction] = {(): Fraction(c)}
        for i in range(r):
            nxt: dict[tuple[int, ...], Fraction] = {}
            for e, v in partial.items():
                for k, fc in enumerate(factors[i]):
                    if fc == 0:
                        continue
                    ne = e + (k,)
                    nxt[ne] = nxt.get(ne, Fraction(0)) + v * fc
            partial = nxt
        for e, v in partial.items():
            if v:
                cur = coeffs.get(e, Fraction(0)) + v
                if cur:
                    coeffs[e] = cur
                else:
                    coeffs.pop(e, None)
    threshold = rep.numerator.max_exponents()
    return HilbertPolynomialRep(
        ring=ring, coefficients=coeffs, validity_threshold=threshold
    )


def generator_pivot_knum(gens, ring: RingSpec) -> dict:
    """Reference K-polynomial numerator of a minimal monomial ideal, as a
    dict over multidegrees: the generator-pivot recursion.

    The pivot is a least-degree generator (ties: smallest in degrevlex)
    among those containing the variable found in the most generators (ties:
    lowest index); K(I' + m) = K(I') - t^deg(m) * K(I' : m).  Pairwise
    coprime generators are tested pair by pair.  Memoized per call.
    """
    r = ring.r
    memo: dict = {}

    def neg_grevlex(e):
        return tuple(-x for x in reversed(e))

    def rec(gens):
        if gens in memo:
            return memo[gens]
        if not gens:
            return {(0,) * r: 1}
        if any(sum(g) == 0 for g in gens):
            return {}
        pairwise_coprime = all(
            all(a == 0 or b == 0 for a, b in zip(gens[i], gens[j]))
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        )
        if pairwise_coprime:
            acc = {(0,) * r: 1}
            for g in gens:
                deg = ring.multidegree_of(g)
                out: dict = {}
                for e, c in acc.items():
                    out[e] = out.get(e, 0) + c
                    shifted = tuple(x + y for x, y in zip(e, deg))
                    out[shifted] = out.get(shifted, 0) - c
                acc = {e: c for e, c in out.items() if c}
            memo[gens] = acc
            return acc
        nvars = len(gens[0])
        counts = [sum(1 for g in gens if g[i]) for i in range(nvars)]
        v = max(range(nvars), key=lambda i: (counts[i], -i))
        carriers = [g for g in gens if g[v] > 0]
        pivot = min(carriers, key=lambda g: (sum(g), neg_grevlex(g)))
        rest = tuple(g for g in gens if g != pivot)
        colon = _minimalize(
            [tuple(max(x - y, 0) for x, y in zip(g, pivot)) for g in rest]
        )
        acc = dict(rec(rest))
        deg = ring.multidegree_of(pivot)
        for e, c in rec(colon).items():
            shifted = tuple(x + y for x, y in zip(e, deg))
            val = acc.get(shifted, 0) - c
            if val:
                acc[shifted] = val
            else:
                acc.pop(shifted, None)
        memo[gens] = acc
        return acc

    return rec(tuple(gens))


def fraction_evaluate(rep: HilbertPolynomialRep, nu) -> Fraction:
    """Reference value of a Hilbert polynomial at nu: every term's Fraction
    powers multiplied out and summed term by term."""
    acc = Fraction(0)
    for e, c in rep.coefficients.items():
        term = c
        for x, k in zip(nu, e):
            term *= Fraction(x) ** k
        acc += term
    return acc


def division_pole_at_one(numerator: LaurentPolyZ, nvars: int) -> tuple[int, int]:
    """Reference dimension and coarsened multiplicity of a series numerator.

    The series is numerator / (1-t)^nvars after coarsening to total degree.
    Divide the coarsened numerator by (1-t) while the remainder vanishes:
    the dimension is nvars minus the number of divisions, the multiplicity
    is the quotient at t = 1.  The zero numerator (zero ring) gives (-1, 0).
    """
    if numerator.is_zero():
        return -1, 0
    u = numerator.coarsened()
    low = u.min_exponents()[0]
    coeffs = [0] * (u.max_exponents()[0] - low + 1)
    for (e,), c in u.terms:
        coeffs[e - low] = c
    order = 0
    while sum(coeffs) == 0:
        # w_i = v_0 + ... + v_i; the last partial sum is the zero remainder
        coeffs = list(accumulate(coeffs))[:-1]
        order += 1
    return nvars - order, sum(coeffs)


def box_series_table(rep: HilbertSeriesRep, dimension: int) -> MixedMultTable:
    """Reference type-indexed table of a series of known dimension: every
    s^beta in the box up to the codimension is read off K(1-s), those below
    the codimension must vanish."""
    d = dimension
    D = rep.denominator_exponents
    codim = sum(D) - d
    num = rep.numerator
    mins = num.min_exponents()
    clear = tuple(max(0, -m) for m in mins)
    if any(clear):
        num = num.shifted(clear)
    support = num.terms
    maxexp = num.max_exponents()

    def kappa(beta: tuple[int, ...]) -> int:
        acc = 0
        for a, c in support:
            term = c
            for ai, bi in zip(a, beta):
                if bi > ai:
                    term = 0
                    break
                term *= math.comb(ai, bi)
            acc += term
        return acc if sum(beta) % 2 == 0 else -acc

    box = [range(0, min(m, codim) + 1) for m in maxexp]
    entries: dict[tuple[int, ...], int] = {}
    for beta in product(*box):
        total = sum(beta)
        if total > codim:
            continue
        k = kappa(beta)
        if total < codim:
            if k != 0:
                raise InvariantViolation(
                    f"nonzero component of K(1-s) below codimension: "
                    f"s^{beta} -> {k}"
                )
            continue
        if k == 0:
            continue
        if k < 0:
            raise InvariantViolation(f"negative multiplicity {k} at s^{beta}")
        if any(b > Di for b, Di in zip(beta, D)):
            raise InvariantViolation(
                f"multiplicity support exceeds block bound at s^{beta}"
            )
        n = tuple(Di - b - 1 for b, Di in zip(beta, D))
        entries[n] = k
    if not entries:
        raise InvariantViolation("no positive multiplicity for a nonzero quotient")
    return MixedMultTable(dimension=d, route="series", entries=entries)


@lru_cache(maxsize=16)
def laplace_minors(rows: tuple[tuple[Polynomial, ...], ...], ring: RingSpec):
    """minor(rsel, csel): the minor of ``rows`` on a row tuple and a column
    tuple, by first-row Laplace expansion from the entries, each minor of
    this matrix expanded once (memoized on its index tuples, one table per
    matrix shared by every call on it)."""
    memo: dict = {((), ()): Polynomial.one(ring)}

    def minor(rsel: tuple[int, ...], csel: tuple[int, ...]) -> Polynomial:
        det = memo.get((rsel, csel))
        if det is None:
            det = Polynomial.zero(ring)
            row = rows[rsel[0]]
            for j, c in enumerate(csel):
                a = row[c]
                if a.is_zero():
                    continue
                term = a * minor(rsel[1:], csel[:j] + csel[j + 1:])
                det = det + term if j % 2 == 0 else det - term
            memo[rsel, csel] = det
        return det

    return minor


def _det(rows: tuple[tuple[Polynomial, ...], ...], ring: RingSpec) -> Polynomial:
    k = len(rows)
    return laplace_minors(rows, ring)(tuple(range(k)), tuple(range(k)))


def _pf(rows: tuple[tuple[Polynomial, ...], ...], ring: RingSpec) -> Polynomial:
    k = len(rows)
    if k == 0:
        return Polynomial.one(ring)
    if k % 2 == 1:
        return Polynomial.zero(ring)
    acc = Polynomial.zero(ring)
    for j in range(1, k):
        a = rows[0][j]
        if a.is_zero():
            continue
        keep = tuple(i for i in range(1, k) if i != j)
        sub = tuple(tuple(rows[r][c] for c in keep) for r in keep)
        term = a * _pf(sub, ring)
        acc = acc + term if j % 2 == 1 else acc - term
    return acc


def submatrix(rows, rsel, csel) -> tuple[tuple[Polynomial, ...], ...]:
    return tuple(tuple(rows[r][c] for c in csel) for r in rsel)


def laplace_fitting_ideal(M: PresentationMatrix, i: int) -> Ideal:
    """Reference Fitt_i: every minor of size (rows - i) by first-row Laplace
    expansion, read from the ``laplace_minors`` table of M."""
    rows, ring = M.entries, M.ring
    m, w = len(rows), len(rows[0])
    k = m - i
    if k <= 0:
        return Ideal(ring, (Polynomial.one(ring),))
    minor = laplace_minors(rows, ring)
    return Ideal(
        ring,
        tuple(
            minor(rsel, csel)
            for rsel in combinations(range(m), k)
            for csel in combinations(range(w), k)
        ),
    )


def minors_G_condition(M: PresentationMatrix, s: int) -> bool:
    """Reference G_s test: ht Fitt_i > i for 1 <= i < s, every Fitting ideal
    taken as the ideal of minors of M (``laplace_fitting_ideal``).  A unit
    Fitting ideal has an empty zero set, so its height is infinite and it
    passes."""
    for i in range(1, s):
        J = laplace_fitting_ideal(M, i)
        if not J.is_unit_ideal() and ideal_height(J) <= i:
            return False
    return True


def work_ring_rees_check(F: RationalMapSpec, gens) -> None:
    """Reference Rees check: each g(x, y) lifted to the ring of x, y and t
    and substituted y_i -> t*f_i there; raises InvariantViolation unless
    the image is zero."""
    graph = F.graph_ring()
    work = graph.extended("t")
    t = Polynomial.variable(work, work.variables[-1])
    images = (
        [Polynomial.variable(work, x) for x in F.source_ring.variables]
        + [t * _lift(f, work) for f in F.generators]
        + [t]
    )
    for g in gens:
        if not _lift(g, work).substitute(work, images).is_zero():
            raise InvariantViolation(
                f"Rees generator {g} does not vanish on the graph"
            )


def expansion_graph_check(F: RationalMapSpec, gens) -> None:
    """Reference Rees check by full expansion: each term c*x^a*y^e of g goes
    to c*x^a*f^e on packed monomials, summed per y-degree, with every power
    f^e built (from a smaller power times one f_i) and shared across gens;
    raises InvariantViolation unless every sum vanishes mod p.  The library
    check evaluates the same sums in Horner form."""
    ring = F.source_ring
    nx = ring.nvars
    p = ring.characteristic
    delta = F.delta
    top = max(
        (sum(e[:nx]) + delta * sum(e[nx:]) for g in gens for e, _ in g.terms),
        default=0,
    )
    pk = _Packing(degrevlex_order(ring), _width_for(top))
    pack, flip = pk.pack, pk.flip
    fs = [{pack(e) ^ flip: c for e, c in f.terms} for f in F.generators]
    f_pow: dict[tuple[int, ...], dict[int, int]] = {(0,) * len(fs): {0: 1}}

    def f_power(e: tuple[int, ...]) -> dict[int, int]:
        power = f_pow.get(e)
        if power is None:
            i = max(k for k, v in enumerate(e) if v)
            acc: dict[int, int] = {}
            for ma, ca in f_power(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                for mb, cb in fs[i].items():
                    m = ma + mb
                    acc[m] = acc.get(m, 0) + ca * cb
            power = f_pow[e] = {m: c % p for m, c in acc.items() if c % p}
        return power

    for g in gens:
        by_degree: dict[int, dict[int, int]] = {}
        for exps, c in g.terms:
            e = exps[nx:]
            acc = by_degree.setdefault(sum(e), {})
            xa = pack(exps[:nx]) ^ flip
            for m, fc in f_power(e).items():
                k = xa + m
                acc[k] = acc.get(k, 0) + c * fc
        if any(v % p for acc in by_degree.values() for v in acc.values()):
            raise InvariantViolation(
                f"Rees generator {g} does not vanish on the graph"
            )


def tuple_graph_check(F: RationalMapSpec, gens) -> None:
    """Reference Rees check on exponent tuples: each term c*x^a*y^e of g
    goes to c*x^a*f^e, summed per (y-degree, exponent) with the products
    f^e built as ``Polynomial`` powers; raises InvariantViolation unless
    every sum vanishes."""
    nx = F.source_ring.nvars
    p = F.source_ring.characteristic
    fs = F.generators
    f_pow: dict[tuple[int, ...], Polynomial] = {
        (0,) * len(fs): Polynomial.one(F.source_ring)
    }

    def f_power(e: tuple[int, ...]) -> Polynomial:
        if e not in f_pow:
            i = max(k for k, v in enumerate(e) if v)
            f_pow[e] = f_power(e[:i] + (e[i] - 1,) + e[i + 1:]) * fs[i]
        return f_pow[e]

    for g in gens:
        acc: dict[tuple[int, tuple[int, ...]], int] = {}
        for exps, c in g.terms:
            a, e = exps[:nx], exps[nx:]
            b = sum(e)
            for fe, fc in f_power(e).terms:
                key = (b, tuple(map(add, a, fe)))
                v = (acc.get(key, 0) + c * fc) % p
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        if acc:
            raise InvariantViolation(
                f"Rees generator {g} does not vanish on the graph"
            )


def assert_canonical(p: Polynomial) -> None:
    """p's terms are exactly what the validating constructor makes of them:
    a tuple sorted descending under degrevlex, coefficients in [1, char),
    no repeated monomial."""
    assert Polynomial(p.ring, p.terms).terms == p.terms


def trial_division_is_prime(n: int) -> bool:
    """Reference primality test: trial division by 2 and the odd numbers."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def tuple_order_key(order: TermOrder, exps) -> tuple:
    """Reference order key, larger key = larger monomial: every component
    built by a generator expression over the drop and kept index lists.
    The library compares monomials only by ``groebner._Packing.pack``."""
    if order.kind == "degrevlex":
        return (sum(exps), tuple(-e for e in reversed(exps)))
    dropset = set(order.drop)
    d = tuple(exps[i] for i in order.drop)
    k = tuple(exps[i] for i in range(order.nvars) if i not in dropset)
    return (
        sum(d),
        tuple(-e for e in reversed(d)),
        sum(k),
        tuple(-e for e in reversed(k)),
    )


def neg_key(k: tuple) -> tuple:
    """Reference heap key: componentwise negation of an order key, for
    min-heap max extraction."""
    return tuple(
        -c if isinstance(c, int) else tuple(-x for x in c) for c in k
    )


def tuple_full_reduce(work, entries, order, p, sugar=None, sugars=None):
    """Reference reduction kernel on exponent tuples: heap keys negated from
    ``tuple_order_key`` tuples, monomial arithmetic by generator expressions.

    Same contract as the packed ``groebner._reduce``: tail-complete
    reduction of ``work`` (mutated, dict exps -> coeff) by monic
    (lead, tail_terms) entries, the largest term first, each by the first
    entry whose lead divides it; returns (remainder dict, sugar) with the
    remainder filled largest term first.
    """
    key = partial(tuple_order_key, order)
    heap = [(neg_key(key(e)), e) for e in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        _, e = heapq.heappop(heap)
        if e not in work:
            continue
        c = work.pop(e)
        reducer = None
        for idx, (lead, tail) in enumerate(entries):
            if all(x <= y for x, y in zip(lead, e)):
                reducer = (idx, lead, tail)
                break
        if reducer is None:
            remainder[e] = c
            continue
        idx, lead, tail = reducer
        q = tuple(x - y for x, y in zip(e, lead))
        if sugar is not None and sugars is not None:
            s = sugars[idx] + sum(q)
            if s > sugar:
                sugar = s
        for te, tc in tail:
            ne = tuple(x + y for x, y in zip(q, te))
            prev = work.get(ne)
            if prev is None:
                v = (-c * tc) % p
                if v:
                    work[ne] = v
                    heapq.heappush(heap, (neg_key(key(ne)), ne))
            else:
                v = (prev - c * tc) % p
                if v:
                    work[ne] = v
                else:
                    del work[ne]
    return remainder, sugar


def pair_budget_exceeded(
    budget: int, processed: int, basis_size: int, remaining: int
) -> PairBudgetExceeded:
    """The error a run with ``budget`` raises on selecting its pair number
    ``processed`` (> budget), with ``basis_size`` elements and ``remaining``
    live pairs left."""
    return PairBudgetExceeded(
        f"S-pair budget {budget} exceeded",
        {
            "pairs_processed": processed,
            "basis_size": basis_size,
            "pairs_remaining": remaining,
            "budget": budget,
        },
    )


def tuple_buchberger(
    ring: RingSpec, gens, order: TermOrder, budget: int, trace: list | None = None
):
    """Reference ``groebner._buchberger`` on exponent tuples, unmemoized.

    The same Gebauer-Moller pair update, (sugar, lcm key) selection and
    final inter-reduction, with every reduction by ``tuple_full_reduce``
    and every new basis element built as a ``Polynomial``.  A ``trace``
    list gets (pairs processed, basis size, live pairs) on each selected
    pair, before the budget test: a run under a smaller budget b takes the
    same steps up to its selection b + 1, where it raises
    ``pair_budget_exceeded(b, *trace[b])``.
    """
    p = ring.characteristic
    key = partial(tuple_order_key, order)

    def monic(g):
        """(g scaled to leading coefficient 1 under ``order``, its lead)."""
        lead, c = max(g.terms, key=lambda t: key(t[0]))
        inv = pow(c, p - 2, p)
        return Polynomial(ring, ((e, v * inv) for e, v in g.terms)), lead

    unit = GroebnerBasis(ring, order, (Polynomial.one(ring),), (ring.zero_exps(),))
    work_gens = sorted(
        (monic(g) for g in gens if not g.is_zero()),
        key=lambda gl: (key(gl[1]), gl[0].terms),
    )
    if not work_gens:
        return GroebnerBasis(ring, order, (), ())
    if any(g.is_constant() for g, _ in work_gens):
        return unit

    def entry(g, lead):
        return (lead, tuple((e, c) for e, c in g.terms if e != lead))

    entries: list = []
    sugars: list = []
    leads: list = []
    pairs: list = []  # (sugar, lcm_key, i, j, lcm)
    processed = 0

    def add_element(g, lead_t, sugar):
        t = len(entries)
        lcms = [mono_lcm(leads[i], lead_t) for i in range(t)]
        coprime = [mono_coprime(leads[i], lead_t) for i in range(t)]
        kept: list = []
        removed = [False] * t
        for i in range(t):
            li = lcms[i]
            if not coprime[i]:
                if any(
                    j != i and not removed[j] and lcms[j] != li
                    and mono_divides(lcms[j], li)
                    for j in range(t)
                ) or any(lcms[j] == li for j in kept):
                    removed[i] = True
                    continue
            kept.append(i)
        coprime_lcms = {lcms[i] for i in kept if coprime[i]}
        new_pairs = []
        for i in kept:
            if coprime[i] or lcms[i] in coprime_lcms:
                continue
            li = lcms[i]
            s = max(
                sugars[i] + sum(li) - sum(leads[i]),
                sugar + sum(li) - sum(lead_t),
            )
            new_pairs.append((s, key(li), i, t, li))
        pairs[:] = [
            (s, k, i, j, lij)
            for s, k, i, j, lij in pairs
            if not (
                mono_divides(lead_t, lij)
                and mono_lcm(leads[i], lead_t) != lij
                and mono_lcm(leads[j], lead_t) != lij
            )
        ] + new_pairs
        entries.append(entry(g, lead_t))
        sugars.append(sugar)
        leads.append(lead_t)

    for g, _ in work_gens:
        red, sg = tuple_full_reduce(
            dict(g.terms), entries, order, p, sugar=g.total_degree(), sugars=sugars
        )
        if red:
            add_element(*monic(Polynomial(ring, red.items())), sg)

    while pairs:
        best = min(pairs)
        pairs.remove(best)
        processed += 1
        if trace is not None:
            trace.append((processed, len(entries), len(pairs)))
        if processed > budget:
            raise pair_budget_exceeded(budget, processed, len(entries), len(pairs))
        s_sugar, _, i, j, lij = best
        li, tail_i = entries[i]
        lj, tail_j = entries[j]
        qi = mono_div(lij, li)
        qj = mono_div(lij, lj)
        work: dict = {}
        for te, tc in tail_i:
            e = tuple(x + y for x, y in zip(qi, te))
            work[e] = work.get(e, 0) + tc
        for te, tc in tail_j:
            e = tuple(x + y for x, y in zip(qj, te))
            work[e] = work.get(e, 0) - tc
        work = {e: c % p for e, c in work.items() if c % p}
        red, sg = tuple_full_reduce(work, entries, order, p, sugar=s_sugar, sugars=sugars)
        if red:
            g, lead = monic(Polynomial(ring, red.items()))
            if g.is_constant():
                return unit
            add_element(g, lead, sg)

    idx_by_lead = sorted(range(len(entries)), key=lambda i: key(leads[i]))
    minimal: list = []
    for i in idx_by_lead:
        if not any(mono_divides(leads[j], leads[i]) for j in minimal):
            minimal.append(i)
    reduced = []
    for i in minimal:
        others = [entries[j] for j in minimal if j != i]
        lead_i, tail_i = entries[i]
        red, _ = tuple_full_reduce(dict(tail_i), others, order, p)
        red[lead_i] = 1
        reduced.append((lead_i, Polynomial(ring, red.items())))
    reduced.sort(key=lambda lg: key(lg[0]))
    return GroebnerBasis(
        ring, order, [g for _, g in reduced], [lead for lead, _ in reduced]
    )
