"""Irrelevant saturation, multidegrees, and randomized hyperplane slicing.

The irrelevant ideal of a block ring is the intersection of the block
variable ideals, which for disjoint blocks is their product; saturating by
it removes the submodule supported on the union of the coordinate
degenerate loci, which is exactly the part the Hilbert polynomial cannot
see.  Multidegrees are the leading data of that polynomial.  The slicing
verifier cuts the quotient with verified filter-regular hyperplanes,
saturates, and counts points, giving an independent randomized route to
the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import InvariantViolation, SamplingExhausted
from .groebner import (
    Ideal,
    groebner_basis,
    ideal_quotient,
    normal_form,
    saturation,
)
from .hilbert import (
    MixedMultTable,
    _dimension_and_multiplicity,
    graded_piece_dim,
    hilbert_polynomial,
    mixed_mult_series,
)
from .prng import Prng
from .rings import DEGREE_ANY, Polynomial, RingSpec, degrevlex_order

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
    monomials.sort(key=degrevlex_order(ring).key)
    return Ideal(ring, (Polynomial(ring, ((e, 1),)) for e in monomials))


def irrelevant_saturation(J: Ideal) -> Ideal:
    """(J : N^inf) for the irrelevant ideal N; the shift is preserved."""
    J.require_multihomogeneous()
    sat = saturation(J, irrelevant_ideal(J.ring))
    if J.shift is not None:
        sat = sat.with_shift(J.shift)
    return sat


def mixed_mult_polynomial(J: Ideal) -> MixedMultTable:
    """Polynomial-route multiplicity table, cross-checked against the series.

    The leading coefficients of the Hilbert polynomial of B/J must agree
    entrywise with the series extraction on the irrelevant saturation;
    disagreement is an implementation bug, not an input condition.
    """
    J.require_multihomogeneous()
    ring = J.ring
    ptable = hilbert_polynomial(J).leading_table()
    sat = irrelevant_saturation(J)
    if sat.is_unit_ideal():
        if ptable.dimension is not None:
            raise InvariantViolation(
                "empty multiprojective support but nonzero Hilbert polynomial"
            )
        return ptable
    stable = mixed_mult_series(sat)
    if ptable.dimension is None:
        raise InvariantViolation(
            "zero Hilbert polynomial but nonempty saturated quotient"
        )
    if stable.dimension != ptable.dimension + ring.r:
        raise InvariantViolation(
            f"route dimension mismatch: series {stable.dimension}, "
            f"polynomial {ptable.dimension} + r {ring.r}"
        )
    if stable.entries != ptable.entries:
        raise InvariantViolation(
            f"route disagreement: series {stable.entries}, "
            f"polynomial {ptable.entries}"
        )
    return ptable


@dataclass(frozen=True)
class FilterRegularWitness:
    """Certificate for the colon-containment filter-regularity test."""

    element: Polynomial
    passed: bool
    colon_ideal: Ideal
    saturation_ideal: Ideal


def _linear_block_of(h: Polynomial) -> int:
    """Block index of a linear single-block form; ValueError otherwise."""
    deg = h.multidegree()
    if deg is None or deg == DEGREE_ANY or sum(deg) != 1:
        raise ValueError(f"form {h} is not linear in a single block")
    return deg.index(1)


def is_filter_regular(J: Ideal, h: Polynomial) -> FilterRegularWitness:
    """Test (J : h) contained in (J : N^inf), i.e. h avoids every
    associated prime of B/J outside V(N)."""
    _linear_block_of(h)
    colon = ideal_quotient(J, h)
    sat = irrelevant_saturation(J.with_shift(None))
    G = groebner_basis(sat)
    passed = all(normal_form(g, G).is_zero() for g in colon.generators)
    return FilterRegularWitness(
        element=h, passed=passed, colon_ideal=colon, saturation_ideal=sat
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
) -> tuple[Ideal, list[Polynomial], int]:
    """J plus a verified filter-regular sequence of n_i forms per block.

    Returns (sliced ideal, forms, resample count).  Raises
    SamplingExhausted after MAX_RESAMPLES failures on a single slot.
    """
    current = J.with_shift(None)
    forms: list[Polynomial] = []
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
            forms.append(h)
            current = Ideal(J.ring, current.generators + (h,))
    return current, forms, resamples


def mixed_mult_via_slicing(J: Ideal, n: tuple[int, ...], seed: Prng | int) -> int:
    """Multiplicity of type n through a verified filter-regular slice.

    Cuts by n_i random verified forms in block i, saturates by the
    irrelevant ideal, and coarsens; a slice of dimension other than r
    witnesses e_n = 0.
    """
    rng = seed if isinstance(seed, Prng) else Prng(seed)
    if len(n) != J.ring.r or any(k < 0 for k in n):
        raise ValueError("type vector must be componentwise nonnegative")
    J.require_multihomogeneous()
    sliced, _, _ = _sliced_by_verified_forms(J, tuple(n), rng)
    sat = irrelevant_saturation(sliced)
    d, e = _dimension_and_multiplicity(sat)
    return e if d == J.ring.r else 0


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

    def verified_counts(self) -> list[int]:
        return [
            t.point_count for t in self.trial_outcomes if t.verified
        ]

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
    """(point count, resamples) for one verified slicing trial."""
    sliced, _, resamples = _sliced_by_verified_forms(J, n, rng)
    sat = irrelevant_saturation(sliced)
    threshold = hilbert_polynomial(sat).validity_threshold
    nu = tuple(max(t, 0) + 2 for t in threshold)
    return graded_piece_dim(sat, nu), resamples


def slice_degree(
    J: Ideal, n: tuple[int, ...], seed: int = 0, trials: int = 10
) -> SliceReport:
    """Repeated randomized slicing; the modal verified count is reported.

    Trials whose sampling exhausts the resample budget are reported as
    unverified and skipped, not raised.
    """
    if len(n) != J.ring.r or any(k < 0 for k in n):
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
