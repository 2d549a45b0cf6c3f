"""Hilbert series numerators, mixed multiplicities, Hilbert polynomials.

The series of B/J over the full denominator prod_i (1-t_i)^(d_i+1) has a
unique Laurent numerator (the K-polynomial), computed by reducing to the
leading-term ideal and running a colon recursion on its minimal monomial
generators.  The default rule pivots on a pure power p = x_v^k of the
variable in the most generators, k its least positive exponent (Bigatti,
"Computation of Hilbert-Poincare series", JPAA 119, 1997):
K(I) = K(I + p) + t^deg(p) * K(I : p).  The "antipodal" rule pivots on a
generator m of largest degree, K(I' + m) = K(I') - t^deg(m) * K(I' : m),
and serves as an independent cross-check.

One recursion serves every grading, given a degree vector per variable:
the unit vector of its block, or (w_j,) for a Hilbert-driven Groebner run.
It runs on numerators packed into one Python int by Kronecker
substitution, t_i -> 2^(W * stride_i), so every step is one shift and one
add.  Three facts make this exact: every exponent of K(I) is at most the
degree of the lcm of the generators, which sets the strides; every
coefficient has |c| <= 2^n for n generators (the Taylor complex), so
W = n + 2 bits hold it as a balanced digit; and evaluation is a ring
homomorphism, so sub-results need not fit and the value is decoded once.
The packed value has W bits for every point of the lcm box, so a box of
more than PACK_BITS bits runs the same recursion on dicts of terms.

Everything read at t = 1 comes from one expansion, the substitution
t_i = 1 - s_i, done as a truncated Taylor shift one variable at a time.
The series is K(1-s) / prod_i s_i^(D_i), so its pole order at s = 0 is
the number of variables minus the degree c of the lowest nonzero
homogeneous part of K(1-s): the Krull dimension is nvars - c.  The
coefficients of that part are the mixed multiplicities, indexed by type
n = D - exponent - 1; read on the total-degree coarsening, the one
coefficient is the coarsened multiplicity.  The leading-term ideal is
monomial, hence multigraded, so the dimension reading holds for a
non-homogeneous J as well.  The Hilbert polynomial comes from the same
expansion, truncated at beta < D: the term k_beta s^beta over
prod_i s_i^(D_i) contributes k_beta prod_i C(X_i + D_i-1-beta_i,
D_i-1-beta_i), an integer polynomial once scaled by
L = prod_i (D_i - 1)!, and each coefficient is divided by L once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, le, mul, sub
from typing import Callable, Iterable, Optional

from .errors import EnumerationGuardError, InvariantViolation
from .groebner import Ideal, groebner_basis
from .rings import (
    LaurentPolyZ,
    RingSpec,
    _degree_key,
    _grevlex_neg_key,
    _minimalize,
    mono_divides,
)

PIECE_GUARD = 10**7


@dataclass(frozen=True)
class HilbertSeriesRep:
    """Numerator over the fixed full denominator prod (1-t_i)^(D_i)."""

    ring: RingSpec
    numerator: LaurentPolyZ
    denominator_exponents: tuple[int, ...]
    shift: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class MixedMultTable:
    """Type-indexed multiplicities with the governing dimension.

    Series route: keys n >= -1 componentwise with |n+1| = dimension (Krull
    dimension of the quotient).  Polynomial route: keys n >= 0 with
    |n| = dimension (dim of the relevant support); an empty polynomial
    table carries dimension None (support empty, polynomial zero).  Only
    positive values are stored; ``value`` applies the |n+1| > d convention.
    """

    dimension: Optional[int]
    route: str
    entries: dict[tuple[int, ...], int] = field(default_factory=dict)

    def value(self, n: tuple[int, ...]) -> int:
        return self.entries.get(tuple(n), 0)

    def total(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class HilbertPolynomialRep:
    """Exact rational polynomial in the block coordinates.

    Agrees with graded piece dimensions at every point componentwise >=
    validity_threshold.  ``coefficients`` maps exponent vectors to nonzero
    Fractions; the zero polynomial is the empty map.
    """

    ring: RingSpec
    coefficients: dict[tuple[int, ...], Fraction]
    validity_threshold: tuple[int, ...]

    def total_degree(self) -> Optional[int]:
        if not self.coefficients:
            return None
        return max(sum(e) for e in self.coefficients)

    def evaluate(self, nu: tuple[int, ...]) -> Fraction:
        """Exact value at nu: integer numerators over the common
        denominator L of the coefficients, summed, then divided once."""
        if len(nu) != self.ring.r:
            raise ValueError("multidegree length mismatch")
        L = math.lcm(*(c.denominator for c in self.coefficients.values()))
        acc = 0
        for e, c in self.coefficients.items():
            acc += c.numerator * (L // c.denominator) * math.prod(
                x**k for x, k in zip(nu, e)
            )
        return Fraction(acc, L)

    def evaluate_int(self, nu: tuple[int, ...]) -> int:
        v = self.evaluate(nu)
        if v.denominator != 1:
            raise InvariantViolation(
                f"Hilbert polynomial non-integral at {nu}: {v}"
            )
        return int(v)

    def leading_table(self) -> MixedMultTable:
        """Polynomial-route multiplicities n! * (coefficient of X^n)."""
        deg = self.total_degree()
        if deg is None:
            return MixedMultTable(dimension=None, route="polynomial")
        entries: dict[tuple[int, ...], int] = {}
        for e, c in self.coefficients.items():
            if sum(e) != deg:
                continue
            v = c * math.prod(math.factorial(k) for k in e)
            if v.denominator != 1:
                raise InvariantViolation(f"non-integral multiplicity at {e}: {v}")
            vi = int(v)
            if vi < 0:
                raise InvariantViolation(f"negative multiplicity at {e}: {vi}")
            if vi:
                entries[e] = vi
        if not entries:
            raise InvariantViolation("leading form vanished identically")
        return MixedMultTable(dimension=deg, route="polynomial", entries=entries)


# ---------------------------------------------------------------------------
# Dimension of a monomial quotient


def _dimension_and_multiplicity(J: Ideal) -> tuple[int, int]:
    """Krull dimension and coarsened multiplicity of B/J, from one reading
    of the coarsened numerator of its leading-term ideal (minimally
    generated by the leads of the reduced basis); (-1, 0) for the zero
    ring."""
    ring = J.ring
    num = _knum(groebner_basis(J).leading_exps, ring, "default")
    d, form = _lowest_form(LaurentPolyZ(ring.r, num.items()).coarsened(), ring.nvars)
    e = sum(form.values())
    if d >= 0 and e < 1:
        raise InvariantViolation(f"coarsened multiplicity {e} < 1 for nonzero quotient")
    return d, e


def _lowest_form(
    numerator: LaurentPolyZ, nvars: int
) -> tuple[int, dict[tuple[int, ...], int]]:
    """Dimension and lowest nonzero homogeneous part of N(1-s).

    The series is N(t) / prod_i (1-t_i)^(D_i) with nvars = sum_i D_i, so
    after t = 1 - s it is N(1-s) / prod_i s_i^(D_i), and its pole order at
    s = 0 is nvars - c, c the degree of the lowest nonzero homogeneous part
    of N(1-s).  Negative exponents are cleared first: multiplying N by t^k
    multiplies N(1-s) by prod_i (1-s_i)^(k_i), whose constant term is 1,
    so the lowest part does not change.

    The expansion is truncated at total degree c', the lowest degree of the
    coarsened expansion N(1-s, ..., 1-s): its coefficient at degree m is
    the sum of the k_beta with |beta| = m, so c <= c'.  c' need not be c
    (t_1 - t_2 coarsens to 0), and the cap is nvars where the coarsening
    vanishes below degree nvars.  A module's series has c <= nvars, so a
    nonzero numerator with no nonzero part up to degree nvars raises
    InvariantViolation.  Returns (nvars - c, {beta: k_beta}) for the lowest
    part; the zero numerator (the zero ring) gives (-1, {}).
    """
    if numerator.is_zero():
        return -1, {}
    clear = tuple(max(0, -m) for m in numerator.min_exponents())
    terms = [(tuple(map(add, a, clear)), c) for a, c in numerator.terms]
    coarse = _taylor_at_one([((sum(a),), c) for a, c in terms], (nvars,), nvars)
    cap = min(coarse)[0] if coarse else nvars
    expansion = _taylor_at_one(terms, (cap,) * numerator.r, cap)
    if not expansion:
        raise InvariantViolation(
            f"numerator {numerator} has no nonzero part of degree <= {nvars} at t = 1"
        )
    c = min(map(sum, expansion))
    return nvars - c, {beta: k for beta, k in expansion.items() if sum(beta) == c}


def _taylor_at_one(
    terms: Iterable[tuple[tuple[int, ...], int]], top: tuple[int, ...], cap: int
) -> dict[tuple[int, ...], int]:
    """The part of N(1-s) with beta <= top componentwise and |beta| <= cap,
    as {beta: k_beta} without zeros; N is given by (exponent, coefficient)
    pairs with nonnegative exponents, repeats allowed.

    One truncated Taylor shift per variable: t_i^a becomes
    sum_b (-1)^b C(a, b) s_i^b, and a term is dropped once its s-degree
    passes cap, which the later variables can only raise.
    """
    cur = terms
    for i, bound in enumerate(top):
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for e, c in cur:
            head, a, tail = e[:i], e[i], e[i + 1:]
            for b in range(min(a, bound, cap - sum(head)) + 1):
                key = head + (b,) + tail
                nxt[key] = get(key, 0) + c * math.comb(a, b)
                c = -c
        cur = [(e, c) for e, c in nxt.items() if c]
    return dict(cur)


def quotient_dimension(J: Ideal) -> int:
    """Krull dimension of B/J (via the leading-term ideal)."""
    return _dimension_and_multiplicity(J)[0]


# ---------------------------------------------------------------------------
# K-polynomial recursion

PIVOT_RULES = ("default", "antipodal")


# A packed value spans W * prod_i (L_i + 1) bits whatever its number of
# terms, while a dict costs per term.  On the 76 top-level inputs of a
# seed-1 hilbert_series pass, with every exponent scaled by 1, 2, 4 and 8
# (CPython 3.11, x86_64), packing took 0.28 s against 0.44 s for dicts on
# the 102 inputs of 2^12 to 2^16 bits, about as long from 2^16 to 2^18,
# and 1.9 s against 0.43 s on the 66 inputs above 2^20.  The largest
# packed value of an unscaled benchmark pass has 31,680 bits.
PACK_BITS = 1 << 16


# Top-level numerators only: sub-ideals are memoized within one call.  One
# benchmark pass asks for under 100 distinct ones (both rules together), so
# 4096 entries keep every reuse while bounding a long-lived process.
# Callers must not mutate the returned dict.
@lru_cache(maxsize=4096)
def _knum(
    gens: tuple[tuple[int, ...], ...], ring: RingSpec, rule: str
) -> dict[tuple[int, ...], int]:
    """Numerator of the series of B/I, I = (gens) minimal, over the
    multigrading of ``ring``: ``_numerator`` with each variable of degree
    the unit vector of its block."""
    units = [tuple(int(b == i) for i in range(ring.r)) for b in range(ring.r)]
    degrees = tuple(u for u, size in zip(units, ring.block_sizes) for _ in range(size))
    return _numerator(gens, degrees, rule)


def _numerator(
    gens: tuple[tuple[int, ...], ...], degrees: tuple[tuple[int, ...], ...],
    rule: str,
) -> dict[tuple[int, ...], int]:
    """Numerator of the series of B/I, I = (gens) minimal, as a dict over
    degrees, variable v of degree vector ``degrees[v]`` (entries >= 0), by
    the recursion of ``_recurse`` with the pivot rule ``rule``, one of
    ``PIVOT_RULES`` (``k_polynomial`` checks it).

    A small lcm box runs the recursion on one Python int: the numerator
    evaluated at t_i = 2^(W * stride_i) (Kronecker substitution).  Three
    facts make the value decode to the numerator:
      * every exponent is the degree of an lcm of generators (Taylor
        complex), so it lies in the box [0, L], L the degree of the lcm of
        all of them, and stride_i = prod_{j<i} (L_j + 1) gives each
        exponent its own W-bit slot;
      * the Taylor complex has 2^n faces, n = len(gens), so every
        coefficient has |c| <= 2^n and W = n + 2 holds it as a balanced
        digit in [-2^(W-1), 2^(W-1));
      * evaluation is a ring homomorphism Z[t] -> Z, so each step below is
        exact on the value, sub-ideals included, and only the final value
        has to fit its slots.
    Multiplying by t^deg(g) is a left shift by s(g) = W * (deg(g) . stride),
    and the value is decoded once, at the end.

    Beyond PACK_BITS packed bits (high degrees, many generators) the same
    recursion runs on dicts, whose cost follows the terms instead.
    """
    r = len(degrees[0])
    if not gens:
        return {(0,) * r: 1}
    width = len(gens) + 2
    lcm = tuple(map(max, zip(*gens)))
    columns = tuple(zip(*degrees))
    top = [sum(map(mul, lcm, column)) for column in columns]
    if width * math.prod(L + 1 for L in top) > PACK_BITS:
        def sparse(acc: dict, part: dict, g: tuple[int, ...], sign: int) -> dict:
            deg = tuple(sum(map(mul, g, column)) for column in columns)
            return _shift_add(acc, part, deg, sign)

        return _recurse(gens, rule, {(0,) * r: 1}, {}, sparse)
    stride = [width] * r  # W * stride_i, the bit offset of t_i
    for i in range(1, r):
        stride[i] = stride[i - 1] * (top[i - 1] + 1)
    shift = [sum(map(mul, degree, stride)) for degree in degrees]

    def packed(acc: int, part: int, g: tuple[int, ...], sign: int) -> int:
        part <<= sum(map(mul, g, shift))
        return acc + part if sign > 0 else acc - part

    return _unpack(_recurse(gens, rule, 1, 0, packed), width, top)


def _shift_add(
    acc: dict[tuple[int, ...], int], part: dict[tuple[int, ...], int],
    deg: tuple[int, ...], sign: int,
) -> dict[tuple[int, ...], int]:
    """acc + sign * t^deg * part, as a new dict without zero entries."""
    out = dict(acc)
    for e, c in part.items():
        shifted = tuple(map(add, e, deg))
        v = out.get(shifted, 0) + sign * c
        if v:
            out[shifted] = v
        else:
            out.pop(shifted, None)
    return out


def _recurse(
    gens: tuple[tuple[int, ...], ...], rule: str, one, zero,
    combine: Callable,
):
    """The numerator of the series of B/(gens) in the representation whose
    constant 1 and 0 are ``one`` and ``zero``, with
    combine(acc, part, g, sign) = acc + sign * t^deg(g) * part.

    Base cases: the zero ideal gives 1 and the unit ideal 0.  Pairwise
    coprime generators g_1..g_n form a regular sequence, so the numerator
    is prod_j (1 - t^deg g_j), one combine per generator; they are coprime
    iff every variable lies in at most one of them.

    Otherwise some variable lies in at least two generators.  "default"
    pivots on a pure power p = x_v^k (Bigatti's pivot): x_v is the variable
    in the most generators (ties: lowest index) and k its least positive
    exponent.  Multiplication by p gives the exact sequence

        0 -> B/(I:p)(-deg p) --p--> B/I -> B/(I+p) -> 0,

    so K(I) = K(I+p) + t^deg(p) * K(I:p).  As k is least, x_v^k divides
    every generator that contains x_v: I + p is the generators without x_v
    plus p (already minimal), and I : p subtracts k from every x_v exponent.
    Lowering keeps the lowered generators minimal among themselves (a' | b'
    gives a | b) and never divisible by a generator without x_v, so only
    such a generator can fall, and only to a lowered generator free of x_v,
    one whose x_v exponent was exactly k: I : p tests just those pairs.
    Termination: x_v, the most frequent variable, lies in at least two
    generators, each of degree >= k, so the sum of the generator degrees
    drops by at least k in I + p (they give way to p alone) and by at least
    2k in I : p.

    "antipodal" pivots on a generator m of largest degree (ties: largest
    in degrevlex) with I' the other generators, by the sequence for
    multiplication by m on B/I': K(I) = K(I') - t^deg(m) * K(I' : m).  The
    two rules share no pivot; the numerator over the fixed denominator is
    unique, so they must agree, and each checks the other.  Sub-ideals are
    memoized for the one call.
    """
    zero_exps = (0,) * len(gens[0])
    memo = {}

    def rec(gens):
        value = memo.get(gens)
        if value is not None:
            return value
        if not gens:
            return one
        if zero_exps in gens:
            return zero
        n = len(gens)
        columns = list(zip(*gens))
        counts = [n - col.count(0) for col in columns]
        most = max(counts)
        if most == 1:
            value = one
            for g in gens:
                value = combine(value, value, g, -1)
        elif rule == "antipodal":
            pivot = min(gens, key=_grevlex_neg_key)
            rest = tuple(g for g in gens if g != pivot)
            colon = _minimalize([tuple(map(sub, map(max, g, pivot), pivot)) for g in rest])
            value = combine(rec(rest), rec(colon), pivot, -1)
        else:
            v = counts.index(most)
            k = min(e for e in columns[v] if e)
            p = zero_exps[:v] + (k,) + zero_exps[v + 1:]
            without = [g for g in gens if not g[v]]
            plus = tuple(sorted(without + [p], key=_degree_key))
            lowered = [g[:v] + (g[v] - k,) + g[v + 1:] for g in gens if g[v]]
            free = [h for h in lowered if not h[v]]
            colon = tuple(sorted(
                lowered + [g for g in without if not any(all(map(le, h, g)) for h in free)],
                key=_degree_key,
            ))
            value = combine(rec(plus), rec(colon), p, 1)
        memo[gens] = value
        return value

    return rec(gens)


def _unpack(
    value: int, width: int, top: list[int]
) -> dict[tuple[int, ...], int]:
    """The nonzero balanced base-2^width digits of value, keyed by their
    slots read as exponent vectors in the box [0, top] (mixed radix, first
    coordinate fastest).  Splits in halves, so a zero run of slots costs
    one test: for balanced digits the low m slots are the residue of value
    mod 2^(width*m) in [-2^(width*m-1), 2^(width*m-1))."""
    radix = [L + 1 for L in top]
    out: dict[tuple[int, ...], int] = {}

    def split(v: int, first: int, count: int) -> None:
        if not v:
            return
        if count == 1:
            exps = []
            for base in radix:
                first, e = divmod(first, base)
                exps.append(e)
            out[tuple(exps)] = v
            return
        m = count // 2
        bits = width * m
        half = 1 << (bits - 1)
        low = ((v + half) & ((half << 1) - 1)) - half
        split(low, first, m)
        split((v - low) >> bits, first + m, count - m)

    split(value, 0, math.prod(radix))
    return out


def _weighted_numerator(
    gens: Iterable[tuple[int, ...]], weights: tuple[int, ...]
) -> tuple[int, ...]:
    """Numerator of the series of B/(gens) over prod_j (1 - z^w_j), where
    variable j has weight w_j > 0, as its coefficients in z from z^0 up to
    the last nonzero one ((), the zero numerator, for the unit ideal):
    ``_numerator`` with each variable of degree (w_j,)."""
    num = _numerator(_minimalize(gens), tuple((w,) for w in weights), "default")
    coeffs = [0] * (max(num, default=(-1,))[0] + 1)
    for (k,), c in num.items():
        coeffs[k] = c
    return tuple(coeffs)


def k_polynomial(J: Ideal, pivot_rule: str = "default") -> HilbertSeriesRep:
    """Laurent numerator of Hilb_{B/J(-shift)} over the full denominator."""
    if pivot_rule not in PIVOT_RULES:
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    J.require_multihomogeneous()
    ring = J.ring
    num_dict = _knum(groebner_basis(J).leading_exps, ring, pivot_rule)
    numerator = LaurentPolyZ(ring.r, num_dict.items())
    if J.shift is not None:
        numerator = numerator.shifted(J.shift)
    return HilbertSeriesRep(
        ring=ring,
        numerator=numerator,
        denominator_exponents=ring.block_sizes,
        shift=J.shift,
    )


def series_coefficient(rep: HilbertSeriesRep, nu: tuple[int, ...]) -> int:
    """Exact coefficient of t^nu in numerator / prod (1-t_i)^(D_i)."""
    D = rep.denominator_exponents
    if len(nu) != len(D):
        raise ValueError("multidegree length mismatch")
    acc = 0
    for a, c in rep.numerator.terms:
        term = c
        for x, ai, Di in zip(nu, a, D):
            m = x - ai + Di - 1
            if m < Di - 1:
                term = 0
                break
            term *= math.comb(m, Di - 1)
        acc += term
    return acc


# ---------------------------------------------------------------------------
# Mixed multiplicities from the series


def mixed_mult_series(J: Ideal) -> MixedMultTable:
    """Table of e_n over all types with |n+1| = dim, from K(1-s)."""
    return series_table(k_polynomial(J))


def series_table(rep: HilbertSeriesRep) -> MixedMultTable:
    """The type-indexed table, read off the lowest nonzero part of K(1-s);
    the zero numerator gives dimension -1 and no entries."""
    D = rep.denominator_exponents
    d, form = _lowest_form(rep.numerator, sum(D))
    entries: dict[tuple[int, ...], int] = {}
    for beta, k in form.items():
        if k < 0:
            raise InvariantViolation(f"negative multiplicity {k} at s^{beta}")
        if any(b > Di for b, Di in zip(beta, D)):
            raise InvariantViolation(
                f"multiplicity support exceeds block bound at s^{beta}"
            )
        entries[tuple(Di - b - 1 for b, Di in zip(beta, D))] = k
    return MixedMultTable(dimension=d, route="series", entries=entries)


# ---------------------------------------------------------------------------
# Hilbert polynomial


def hilbert_polynomial(J: Ideal) -> HilbertPolynomialRep:
    """Exact multivariate Hilbert polynomial of B/J(-shift).

    Expand the unshifted numerator once at t = 1 - s, N(1-s) =
    sum_beta k_beta s^beta.  The series of B/J is then
    sum_beta k_beta prod_i (1-t_i)^(beta_i - D_i); a factor with
    beta_i >= D_i is a polynomial in t_i and adds nothing for large X_i,
    and (1-t)^-(m+1) has the coefficient C(X + m, m) at t^X.  With the
    shift a moving X to X - a,

        HP(X) = sum_{beta < D} k_beta prod_i C(X_i - a_i + m_i, m_i),
        m_i = D_i - beta_i - 1,

    and m! * C(X - a + m, m) is the integer polynomial
    prod_{j=1}^{m} (X - a + j).  So the sum is accumulated over the
    integers, scaled by L = prod_i (D_i - 1)! (block i's factor times
    (D_i - 1)! / m_i!), and each coefficient is divided by L once.
    """
    rep = k_polynomial(J)
    ring = J.ring
    D = ring.block_sizes
    shift = J.shift or (0,) * ring.r
    # factors[i][b]: block i's integer factor at beta_i = b, m = D_i - 1 - b
    factors = [
        [
            tuple(
                (k, c * (math.factorial(Di - 1) // math.factorial(m)))
                for k, c in _shifted_rising_factorial(m, ai)
            )
            for m in range(Di - 1, -1, -1)
        ]
        for Di, ai in zip(D, shift)
    ]
    unshifted = [(tuple(map(sub, e, shift)), c) for e, c in rep.numerator.terms]
    top = tuple(Di - 1 for Di in D)
    scaled: dict[tuple[int, ...], int] = {}
    for beta, kb in _taylor_at_one(unshifted, top, sum(top)).items():
        partial: dict[tuple[int, ...], int] = {(): kb}
        for block_factors, b in zip(factors, beta):
            nxt: dict[tuple[int, ...], int] = {}
            for e, v in partial.items():
                for k, fc in block_factors[b]:
                    ne = e + (k,)
                    nxt[ne] = nxt.get(ne, 0) + v * fc
            partial = nxt
        for e, v in partial.items():
            scaled[e] = scaled.get(e, 0) + v
    L = math.prod(math.factorial(Di - 1) for Di in D)
    coeffs = {e: Fraction(v, L) for e, v in scaled.items() if v}
    threshold = rep.numerator.max_exponents()
    return HilbertPolynomialRep(
        ring=ring, coefficients=coeffs, validity_threshold=threshold
    )


def _shifted_rising_factorial(k: int, a: int) -> tuple[tuple[int, int], ...]:
    """Nonzero (power, coefficient) pairs of prod_{j=1}^{k} (X - a + j)."""
    coeffs = [1]
    for j in range(1, k + 1):
        const = j - a
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * const
            nxt[i + 1] += c
        coeffs = nxt
    return tuple((i, c) for i, c in enumerate(coeffs) if c)


# ---------------------------------------------------------------------------
# Graded piece dimensions and coarsening


def graded_piece_dim(J: Ideal, nu: tuple[int, ...]) -> int:
    """dim_k of the multidegree-nu piece of B/J(-shift), by direct count."""
    ring = J.ring
    nu = tuple(nu)
    if len(nu) != ring.r:
        raise ValueError("multidegree length mismatch")
    if any(x < 0 for x in nu):
        raise ValueError("multidegree must be componentwise nonnegative")
    if J.shift is not None:
        nu = tuple(x - s for x, s in zip(nu, J.shift))
        if any(x < 0 for x in nu):
            return 0
    sizes = ring.block_sizes
    count_bound = math.prod(
        math.comb(x + sz - 1, sz - 1) for x, sz in zip(nu, sizes)
    )
    if count_bound > PIECE_GUARD:
        raise EnumerationGuardError(
            f"graded piece at {nu} has {count_bound} monomials (guard {PIECE_GUARD})"
        )
    # only a generator of multidegree <= nu can divide a monomial of degree nu
    lt = [
        g for g in groebner_basis(J).leading_exps
        if all(map(le, ring.multidegree_of(g), nu))
    ]
    per_block = [
        list(_compositions(x, sz)) for x, sz in zip(nu, sizes)
    ]
    count = 0
    for pieces in product(*per_block):
        exps = tuple(e for piece in pieces for e in piece)
        if not any(mono_divides(g, exps) for g in lt):
            count += 1
    return count


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def coarsened_multiplicity(J: Ideal) -> int:
    """Multiplicity of the total-degree coarsening of B/J (0 for the zero ring)."""
    J.require_multihomogeneous()
    return _dimension_and_multiplicity(J)[1]
