"""Irrelevant saturation, multidegrees, and randomized hyperplane slicing.

The irrelevant ideal of a block ring is the intersection of the block
variable ideals, which for disjoint blocks is their product; saturating by
it removes the submodule supported on the union of the coordinate
degenerate loci, which is exactly the part the Hilbert polynomial cannot
see.  Multidegrees are the leading data of that polynomial.  The slicing
verifier cuts the quotient with verified filter-regular hyperplanes,
saturates, and counts points, giving an independent randomized route to
the same numbers; the regularity test and the point count are both read
off K-polynomials of saturations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InvariantViolation, SamplingExhausted
from .groebner import Ideal, saturation
from .hilbert import (
    MixedMultTable,
    hilbert_polynomial,
    k_polynomial,
    mixed_mult_series,
    quotient_dimension,
    series_coefficient,
)
from .prng import Prng
from .rings import DEGREE_ANY, Polynomial, RingSpec, _grevlex_neg_key

MAX_RESAMPLES = 10


def block_ideal(ring: RingSpec, block: int) -> Ideal:
    """The ideal generated by the variables of one block."""
    lo, hi = ring.block_slices[block]
    gens = tuple(
        Polynomial.variable(ring, ring.variables[i]) for i in range(lo, hi)
    )
    return Ideal(ring, gens)


def irrelevant_ideal(ring: RingSpec) -> Ideal:
    """Intersection of the block variable ideals.

    The blocks share no variables, so this is their product: the monomials
    taking one variable from each block, which are its reduced Groebner
    basis.  With two or more blocks they come in ascending degrevlex order.
    """
    if ring.r == 1:
        return block_ideal(ring, 0)
    monomials = [
        tuple(int(i in choice) for i in range(ring.nvars))
        for choice in product(*(range(lo, hi) for lo, hi in ring.block_slices))
    ]
    monomials.sort(key=_grevlex_neg_key, reverse=True)
    return Ideal(ring, (Polynomial(ring, ((e, 1),)) for e in monomials))


def irrelevant_saturation(J: Ideal) -> Ideal:
    """(J : N^inf) for the irrelevant ideal N, as a plain ideal (no shift)."""
    J.require_multihomogeneous()
    return saturation(J, irrelevant_ideal(J.ring))


def compare_routes(J: Ideal) -> tuple[MixedMultTable, str | None]:
    """Polynomial-route table and its disagreement with the series route.

    The leading coefficients of the Hilbert polynomial of B/J must agree
    entrywise with the series extraction on the irrelevant saturation, and
    the series dimension must exceed the polynomial one by r.  Returns the
    polynomial table and None when they agree, or a description of the
    first disagreement; it never raises on one.
    """
    J.require_multihomogeneous()
    ptable = hilbert_polynomial(J).leading_table()
    sat = irrelevant_saturation(J)
    if sat.is_unit_ideal():
        if ptable.dimension is not None:
            return ptable, (
                "empty multiprojective support but nonzero Hilbert polynomial"
            )
        return ptable, None
    if ptable.dimension is None:
        return ptable, "zero Hilbert polynomial but nonempty saturated quotient"
    stable = mixed_mult_series(sat)
    if stable.dimension != ptable.dimension + J.ring.r:
        return ptable, (
            f"route dimension mismatch: series {stable.dimension}, "
            f"polynomial {ptable.dimension} + r {J.ring.r}"
        )
    if stable.entries != ptable.entries:
        return ptable, (
            f"route disagreement: series {stable.entries}, "
            f"polynomial {ptable.entries}"
        )
    return ptable, None


def mixed_mult_polynomial(J: Ideal) -> MixedMultTable:
    """Polynomial-route multiplicity table, cross-checked against the series.

    A disagreement found by ``compare_routes`` is an implementation bug,
    not an input condition, and raises InvariantViolation.
    """
    ptable, mismatch = compare_routes(J)
    if mismatch is not None:
        raise InvariantViolation(mismatch)
    return ptable


@dataclass(frozen=True)
class FilterRegularWitness:
    """Outcome of the filter-regularity test of ``element``.

    ``saturation_ideal`` is J^sat = (J : N^inf), the ideal whose quotient
    the test showed ``element`` to be (``passed``) or not to be a
    nonzerodivisor on.
    """

    element: Polynomial
    passed: bool
    saturation_ideal: Ideal


def _linear_block_of(h: Polynomial) -> int:
    """Block index of a linear single-block form; ValueError otherwise."""
    deg = h.multidegree()
    if deg is None or deg == DEGREE_ANY or sum(deg) != 1:
        raise ValueError(f"form {h} is not linear in a single block")
    return deg.index(1)


def is_filter_regular(J: Ideal, h: Polynomial) -> FilterRegularWitness:
    """Test (J : h) contained in J^sat = (J : N^inf), i.e. h avoids every
    associated prime of B/J outside V(N), by comparing two K-polynomials.

    The containment holds iff h is a nonzerodivisor on M = B/J^sat.
    (<=) J : h ⊆ J^sat : h = J^sat.  (=>) If g·h ∈ J^sat, then
    N^m·g·h ⊆ J for some m, so N^m·g ⊆ J : h ⊆ J^sat and g ∈ J^sat.

    With e the unit vector of h's block, multiplication by h gives the
    exact sequence of multigraded modules

        0 -> (0 :_M h)(-e) -> M(-e) --h--> M -> M/hM -> 0,

    and Hilbert series are additive along it, so over the common
    denominator K(M/hM) = K(M) - t^e·K(M) + t^e·K(0 :_M h), where
    M/hM = B/(J^sat + h).  The last term is the numerator of the series of
    0 :_M h, whose coefficients are the dimensions of its pieces: all
    nonnegative, and all zero only when the module is.  So h is a
    nonzerodivisor on M iff K(J^sat + h) = K(J^sat)·(1 - t^e).
    """
    block = _linear_block_of(h)
    ring = J.ring
    sat = irrelevant_saturation(J)
    base = k_polynomial(sat).numerator
    cut = k_polynomial(Ideal(ring, sat.generators + (h,))).numerator
    e = tuple(int(i == block) for i in range(ring.r))
    return FilterRegularWitness(
        element=h, passed=cut == base - base.shifted(e), saturation_ideal=sat
    )


def random_block_form(ring: RingSpec, block: int, rng: Prng | int) -> Polynomial:
    """Linear form in one block with coefficients uniform over the field."""
    if not isinstance(rng, Prng):
        rng = Prng(rng)
    if not 0 <= block < ring.r:
        raise ValueError(f"no block {block}")
    p = ring.characteristic
    lo, hi = ring.block_slices[block]
    acc = Polynomial.zero(ring)
    for i in range(lo, hi):
        c = rng.field(p)
        if c:
            acc = acc + Polynomial.constant(ring, c) * Polynomial.variable(
                ring, ring.variables[i]
            )
    return acc


def multidegree(J: Ideal, n: tuple[int, ...]) -> int:
    """Degree of type n of the multiprojective scheme of J; 0 off-profile."""
    if len(n) != J.ring.r:
        raise ValueError("type vector length mismatch")
    return mixed_mult_polynomial(J).value(tuple(n))


def _sliced_by_verified_forms(
    J: Ideal, n: tuple[int, ...], rng: Prng
) -> tuple[Ideal, int]:
    """J plus a verified filter-regular sequence of n_i forms per block.

    Returns (sliced ideal, resample count).  Raises
    SamplingExhausted after MAX_RESAMPLES failures on a single slot.
    """
    current = J
    resamples = 0
    for block, count in enumerate(n):
        for slot in range(count):
            for attempt in range(MAX_RESAMPLES + 1):
                if attempt == MAX_RESAMPLES:
                    raise SamplingExhausted(
                        f"no filter-regular form found for block {block} "
                        f"slot {slot} after {MAX_RESAMPLES} attempts",
                        block=block,
                        slot=slot,
                    )
                h = random_block_form(J.ring, block, rng)
                if h.is_zero():
                    resamples += 1
                    continue
                if is_filter_regular(current, h).passed:
                    break
                resamples += 1
            current = Ideal(J.ring, current.generators + (h,))
    return current, resamples


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    verified: bool
    point_count: int | None
    resamples: int
    note: str = ""


@dataclass(frozen=True)
class SliceReport:
    """Randomized point counts for slices of one type vector."""

    type_vector: tuple[int, ...]
    hyperplane_seeds: int
    trials: int
    trial_outcomes: tuple[TrialOutcome, ...]
    point_count: int | None
    agreement: int

    def as_dict(self) -> dict:
        return {
            "type_vector": list(self.type_vector),
            "seed": self.hyperplane_seeds,
            "trials": self.trials,
            "trial_outcomes": [
                {
                    "trial": t.trial,
                    "verified": t.verified,
                    "point_count": t.point_count,
                    "resamples": t.resamples,
                    **({"note": t.note} if t.note else {}),
                }
                for t in self.trial_outcomes
            ],
            "point_count": self.point_count,
            "agreement": self.agreement,
        }


def _slice_point_count(J: Ideal, n: tuple[int, ...], rng: Prng) -> tuple[int, int]:
    """(point count, resamples) for one verified slicing trial.

    A slice whose saturation has Krull dimension above r is not a finite
    set of points (the type is below the dimension) and counts 0, the
    off-profile value of ``multidegree``.
    """
    sliced, resamples = _sliced_by_verified_forms(J, n, rng)
    sat = irrelevant_saturation(sliced)
    if quotient_dimension(sat) > J.ring.r:
        return 0, resamples
    rep = k_polynomial(sat)
    nu = tuple(max(t, 0) + 2 for t in rep.numerator.max_exponents())
    return series_coefficient(rep, nu), resamples


def slice_degree(
    J: Ideal, n: tuple[int, ...], seed: int = 0, trials: int = 10
) -> SliceReport:
    """Repeated randomized slicing; the modal verified count is reported.

    Trials whose sampling exhausts the resample budget are reported as
    unverified and skipped, not raised.
    """
    if len(n) != J.ring.r:
        raise ValueError("type vector length mismatch")
    if any(k < 0 for k in n):
        raise ValueError("type vector must be componentwise nonnegative")
    if trials < 1:
        raise ValueError("need at least one trial")
    J.require_multihomogeneous()
    n = tuple(n)
    root = Prng(seed)
    outcomes: list[TrialOutcome] = []
    for t in range(trials):
        rng = root.fork(t)
        try:
            count, resamples = _slice_point_count(J, n, rng)
        except SamplingExhausted as e:
            outcomes.append(
                TrialOutcome(
                    trial=t,
                    verified=False,
                    point_count=None,
                    resamples=MAX_RESAMPLES,
                    note=str(e),
                )
            )
            continue
        outcomes.append(
            TrialOutcome(
                trial=t, verified=True, point_count=count, resamples=resamples
            )
        )
    counts = [o.point_count for o in outcomes if o.verified]
    if counts:
        freq: dict[int, int] = {}
        for c in counts:
            freq[c] = freq.get(c, 0) + 1
        modal = min(sorted(freq), key=lambda c: -freq[c])
        agreement = freq[modal]
    else:
        modal = None
        agreement = 0
    return SliceReport(
        type_vector=n,
        hyperplane_seeds=seed,
        trials=trials,
        trial_outcomes=tuple(outcomes),
        point_count=modal,
        agreement=agreement,
    )
