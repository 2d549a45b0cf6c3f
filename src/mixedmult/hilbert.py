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
Everything read at t = 1 comes from one expansion, the substitution
t_i = 1 - s_i.  The series is K(1-s) / prod_i s_i^(D_i), so its pole order
at s = 0 is the number of variables minus the degree c of the lowest
nonzero homogeneous part of K(1-s): the Krull dimension is nvars - c.
The coefficients of that part are the mixed multiplicities, indexed by
type n = D - exponent - 1; read on the total-degree coarsening, the one
coefficient is the coarsened multiplicity.  The leading-term ideal is
monomial, hence multigraded, so the dimension reading holds for a
non-homogeneous J as well.  The Hilbert polynomial comes from the same
numerator: each term t^a over (1-t)^D contributes C(X + D-1-a, D-1), and
(D-1)! times that is the integer product prod_{j=1}^{D-1} (X - a + j), so
the expansion runs in integers and each coefficient is divided once by
L = prod_i (D_i - 1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, le
from typing import Optional

from .errors import EnumerationGuardError, InvariantViolation
from .groebner import Ideal, groebner_basis
from .rings import LaurentPolyZ, RingSpec, _grevlex_neg_key, mono_divides

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


def _degree_key(e: tuple[int, ...]):
    return (sum(e), e)


def _minimalize(gens: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    gens = sorted(set(gens), key=_degree_key)
    out: list[tuple[int, ...]] = []
    for g in gens:
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


def _dimension_and_multiplicity(
    gens: tuple[tuple[int, ...], ...], ring: RingSpec
) -> tuple[int, int]:
    """Krull dimension and coarsened multiplicity of the quotient by the
    monomial ideal (gens), from one reading of its coarsened numerator;
    (-1, 0) for the zero ring."""
    num = _knum(_minimalize(list(gens)), ring, "default")
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
    of N(1-s).  The coefficient of s^beta in N(1-s) is
    k_beta = (-1)^|beta| * sum_a c_a * prod_i C(a_i, beta_i), which is 0
    unless beta <= a for some term, so beta runs over compositions of c
    bounded by the largest exponents.  Negative exponents are cleared
    first: multiplying N by t^k multiplies N(1-s) by prod_i (1-s_i)^(k_i),
    whose constant term is 1, so the lowest part does not change.  The
    substitution t = 1 - s is invertible, so N(1-s) is nonzero whenever N
    is and the walk over c = 0, 1, ... ends.  Returns (nvars - c,
    {beta: k_beta}) for that part; the zero numerator (the zero ring)
    gives (-1, {}).
    """
    if numerator.is_zero():
        return -1, {}
    clear = tuple(max(0, -m) for m in numerator.min_exponents())
    numerator = numerator.shifted(clear)
    terms = numerator.terms
    bound = numerator.max_exponents()
    c = 0
    while True:
        form: dict[tuple[int, ...], int] = {}
        for beta in _compositions(c, numerator.r):
            if all(map(le, beta, bound)):
                k = sum(v * math.prod(map(math.comb, a, beta)) for a, v in terms)
                if k:
                    form[beta] = -k if c % 2 else k
        if form:
            return nvars - c, form
        c += 1


def _lt_exps(J: Ideal) -> tuple[tuple[int, ...], ...]:
    """Minimal monomial generators of the leading-term ideal (degrevlex)."""
    return groebner_basis(J).leading_exps


def quotient_dimension(J: Ideal) -> int:
    """Krull dimension of B/J (via the leading-term ideal)."""
    return _dimension_and_multiplicity(_lt_exps(J), J.ring)[0]


# ---------------------------------------------------------------------------
# K-polynomial recursion

PIVOT_RULES = ("default", "antipodal")


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


# One cold benchmark pass of random monomial ideals leaves under 7,000
# distinct sub-ideals (both rules together), so 65536 entries keep every
# reuse of one pass while bounding a long-lived process.  Callers must not
# mutate the returned dict.
@lru_cache(maxsize=65536)
def _knum(
    gens: tuple[tuple[int, ...], ...], ring: RingSpec, rule: str
) -> dict[tuple[int, ...], int]:
    """Numerator of the series of B/I, I = (gens) minimal, as a dict over
    multidegrees.

    Base cases: the zero ideal gives 1 and the unit ideal 0.  Pairwise
    coprime generators g_1..g_n form a regular sequence, so the numerator
    is prod_j (1 - t^deg g_j); they are coprime iff no variable lies in two
    supports, which one pass over the support bitmasks decides.

    Otherwise some variable lies in at least two generators.  "default"
    pivots on a pure power p = x_v^k (Bigatti's pivot): x_v is the variable
    in the most generators (ties: lowest index) and k its least positive
    exponent.  Multiplication by p gives the exact sequence

        0 -> B/(I:p)(-deg p) --p--> B/I -> B/(I+p) -> 0,

    so K(I) = K(I+p) + t^deg(p) * K(I:p).  As k is least, x_v^k divides
    every generator that contains x_v: I + p is the generators without x_v
    plus p (already minimal), and I : p subtracts k from every x_v exponent
    (then minimalized).  Termination: x_v, the most frequent variable, lies
    in at least two generators, each of degree >= k, so the sum of the
    generator degrees drops by at least k in I + p (they give way to p
    alone) and by at least 2k in I : p.

    "antipodal" pivots on a generator m of largest degree (ties: largest
    in degrevlex) with I' the other generators, by the sequence for
    multiplication by m on B/I': K(I) = K(I') - t^deg(m) * K(I' : m).  The
    two rules share no pivot; the numerator over the fixed denominator is
    unique, so they must agree, and each checks the other.
    """
    r = ring.r
    if not gens:
        return {(0,) * r: 1}
    seen = 0
    coprime = True
    for g in gens:
        mask = 0
        for i, e in enumerate(g):
            if e:
                mask |= 1 << i
        if not mask:
            return {}
        if seen & mask:
            coprime = False
        seen |= mask
    if coprime:
        acc = {(0,) * r: 1}
        for g in gens:
            acc = _shift_add(acc, acc, ring.multidegree_of(g), -1)
        return acc
    if rule == "antipodal":
        pivot = min(gens, key=_grevlex_neg_key)
        rest = tuple(g for g in gens if g != pivot)
        colon = _minimalize([tuple(max(x - y, 0) for x, y in zip(g, pivot)) for g in rest])
        return _shift_add(
            _knum(rest, ring, rule), _knum(colon, ring, rule),
            ring.multidegree_of(pivot), -1,
        )
    if rule != "default":
        raise ValueError(f"unknown pivot rule {rule!r}")
    n = len(gens)
    columns = list(zip(*gens))
    counts = [n - col.count(0) for col in columns]
    v = counts.index(max(counts))
    k = min(e for e in columns[v] if e)
    p = (0,) * v + (k,) + (0,) * (len(columns) - v - 1)
    plus = tuple(sorted([g for g in gens if not g[v]] + [p], key=_degree_key))
    colon = _minimalize([g[:v] + (g[v] - k,) + g[v + 1:] if g[v] else g for g in gens])
    return _shift_add(
        _knum(plus, ring, rule), _knum(colon, ring, rule), ring.multidegree_of(p), 1
    )


def k_polynomial(J: Ideal, pivot_rule: str = "default") -> HilbertSeriesRep:
    """Laurent numerator of Hilb_{B/J(-shift)} over the full denominator."""
    if pivot_rule not in PIVOT_RULES:
        raise ValueError(f"unknown pivot rule {pivot_rule!r}")
    J.require_multihomogeneous()
    ring = J.ring
    num_dict = _knum(_minimalize(list(_lt_exps(J))), ring, pivot_rule)
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


def mixed_mult_series(J: Ideal, pivot_rule: str = "default") -> MixedMultTable:
    """Table of e_n over all types with |n+1| = dim, from K(1-s)."""
    return series_table(k_polynomial(J, pivot_rule))


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

    The term c*t^a of the numerator over prod_i (1-t_i)^(D_i) contributes
    c * prod_i C(X_i + D_i - 1 - a_i, D_i - 1) for X >= a componentwise, and
    (D-1)! * C(X + D-1-a, D-1) is the integer polynomial
    prod_{j=1}^{D-1} (X - a + j).  So the sum is accumulated over the
    integers, scaled by L = prod_i (D_i - 1)!, and each coefficient is
    divided by L once at the end.
    """
    rep = k_polynomial(J)
    ring = J.ring
    D = ring.block_sizes
    factors: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    scaled: dict[tuple[int, ...], int] = {}
    for a, c in rep.numerator.terms:
        partial: dict[tuple[int, ...], int] = {(): c}
        for Di, ai in zip(D, a):
            f = factors.get((Di, ai))
            if f is None:
                f = factors[Di, ai] = _shifted_rising_factorial(Di - 1, ai)
            nxt: dict[tuple[int, ...], int] = {}
            for e, v in partial.items():
                for k, fc in f:
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
    lt = [g for g in _lt_exps(J) if all(map(le, ring.multidegree_of(g), nu))]
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
    return _dimension_and_multiplicity(_lt_exps(J), J.ring)[1]
