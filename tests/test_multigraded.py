"""Irrelevant-ideal saturation, filter-regularity, multidegrees, slicing."""

import itertools

import pytest
from hypothesis import event, given, strategies as st

from mixedmult import (
    Ideal,
    InvariantViolation,
    MixedMultTable,
    NotMultihomogeneousError,
    Polynomial,
    Prng,
    SamplingExhausted,
    graded_piece_dim,
    ideal_quotient,
    irrelevant_ideal,
    irrelevant_saturation,
    is_filter_regular,
    k_polynomial,
    mixed_mult_polynomial,
    mixed_mult_series,
    multidegree,
    quotient_dimension,
    random_block_form,
    rees_ideal,
    series_coefficient,
    slice_degree,
)
import mixedmult.multigraded as mg

from helpers import (
    CHAR,
    colon_filter_regular,
    intersection_irrelevant_ideal,
    mk,
    rational_map,
    p1xp1,
    pp,
    ring_blocks,
)

R = p1xp1()
DIAGONAL = mk(R, "x0*y1 - x1*y0")
RXY = ring_blocks(("x", "y"))


def nbar() -> Ideal:
    return irrelevant_ideal(R)


def cremona_graph() -> Ideal:
    F = rational_map(("x0", "x1", "x2"), ("x1*x2", "x0*x2", "x0*x1"))
    return rees_ideal(F)


# ---------------------------------------------------------------------------
# Irrelevant ideal and saturation


def test_irrelevant_ideal_is_product_of_blocks():
    assert nbar().same_ideal(mk(R, "x0*y0", "x0*y1", "x1*y0", "x1*y1"))


@pytest.mark.parametrize(
    "sizes",
    [s for r in (1, 2, 3) for s in itertools.product(range(1, 5), repeat=r)],
    ids=lambda sizes: "x".join(map(str, sizes)),
)
def test_irrelevant_ideal_matches_intersection_oracle(sizes):
    ring = ring_blocks(
        *(tuple(f"{'xyz'[b]}{i}" for i in range(n)) for b, n in enumerate(sizes))
    )
    expected = intersection_irrelevant_ideal(ring).generators
    assert irrelevant_ideal(ring).generators == expected


def test_saturation_of_irrelevant_ideal_is_unit():
    assert irrelevant_saturation(nbar()).is_unit_ideal()


def test_saturation_of_diagonal_is_identity():
    assert irrelevant_saturation(DIAGONAL).same_ideal(DIAGONAL)


def test_saturation_strips_the_x0_component():
    J = mk(R, "x0*y0", "x0*y1")
    assert irrelevant_saturation(J).same_ideal(mk(R, "x0"))


def test_saturation_idempotent():
    J = mk(R, "x0*y0", "x0*y1")
    once = irrelevant_saturation(J)
    assert irrelevant_saturation(once).same_ideal(once)


def test_saturation_requires_multihomogeneous():
    with pytest.raises(NotMultihomogeneousError):
        irrelevant_saturation(mk(R, "x0 + y0"))


def test_saturation_agrees_in_high_degrees():
    J = mk(R, "x0*y0", "x0*y1")
    sat = irrelevant_saturation(J)
    for a in range(4):
        for b in range(1, 4):
            assert graded_piece_dim(J, (a, b)) == graded_piece_dim(
                sat, (a, b)
            )
    # and genuinely differs below the agreement threshold
    assert graded_piece_dim(J, (1, 0)) != graded_piece_dim(sat, (1, 0))


# ---------------------------------------------------------------------------
# Dual-route multiplicity tables


def test_polynomial_route_full_ring():
    table = mixed_mult_polynomial(Ideal(R, ()))
    assert table.route == "polynomial"
    assert table.dimension == 2
    assert table.entries == {(1, 1): 1}


def test_polynomial_route_diagonal():
    table = mixed_mult_polynomial(DIAGONAL)
    assert table.dimension == 1
    assert table.entries == {(1, 0): 1, (0, 1): 1}


def test_polynomial_route_empty_support():
    table = mixed_mult_polynomial(nbar())
    assert table.dimension is None
    assert table.entries == {}
    assert table.total() == 0


def test_routes_agree_after_saturation():
    J = mk(R, "x0*y0", "x0*y1")
    ptable = mixed_mult_polynomial(J)
    stable = mixed_mult_series(irrelevant_saturation(J))
    assert stable.entries == ptable.entries
    assert stable.dimension == ptable.dimension + R.r


def test_route_disagreement_is_reported_then_raised(monkeypatch):
    real = mg.mixed_mult_series
    ptable, mismatch = mg.compare_routes(DIAGONAL)
    assert mismatch is None and ptable == mixed_mult_polynomial(DIAGONAL)
    monkeypatch.setattr(
        mg,
        "mixed_mult_series",
        lambda J: MixedMultTable(real(J).dimension, "series", {(9, 9): 1}),
    )
    ptable, mismatch = mg.compare_routes(DIAGONAL)
    assert ptable.entries == {(1, 0): 1, (0, 1): 1}
    assert mismatch.startswith("route disagreement")
    with pytest.raises(InvariantViolation, match="route disagreement"):
        mixed_mult_polynomial(DIAGONAL)


# ---------------------------------------------------------------------------
# Filter-regularity


def test_filter_regular_witness_passes():
    J = mk(RXY, "x^2", "x*y")
    w = is_filter_regular(J, pp(RXY, "y"))
    assert w.passed
    assert w.element == pp(RXY, "y")
    assert ideal_quotient(J, pp(RXY, "y")).same_ideal(mk(RXY, "x"))
    assert w.saturation_ideal.same_ideal(mk(RXY, "x"))


def test_filter_regular_witness_fails():
    J = mk(RXY, "x^2", "x*y")
    w = is_filter_regular(J, pp(RXY, "x"))
    assert not w.passed
    assert ideal_quotient(J, pp(RXY, "x")).same_ideal(mk(RXY, "x", "y"))


def test_filter_regular_on_zero_module():
    J = mk(RXY, "1")
    for h in ("x", "y", "x + 2*y"):
        assert is_filter_regular(J, pp(RXY, h)).passed


def test_filter_regular_rejects_bad_elements():
    J = mk(RXY, "x^2")
    with pytest.raises(ValueError):
        is_filter_regular(J, pp(RXY, "x*y"))
    with pytest.raises(ValueError):
        is_filter_regular(J, Polynomial.zero(RXY))
    with pytest.raises(ValueError):
        is_filter_regular(DIAGONAL, pp(R, "x0 + y0"))


@st.composite
def small_block_rings(draw):
    """Rings of 2 blocks of 1-3 variables or 3 blocks of 1-2 variables;
    the first block has at least 2."""
    r = draw(st.sampled_from((2, 3)))
    top = 3 if r == 2 else 2
    sizes = [draw(st.integers(2, top))]
    sizes += draw(st.lists(st.integers(1, top), min_size=r - 1, max_size=r - 1))
    names = iter("abcdefghi")
    return ring_blocks(*(tuple(next(names) for _ in range(k)) for k in sizes))


@st.composite
def multihomogeneous_forms(draw, ring):
    """A nonzero form of one drawn multidegree, up to three terms.

    Block degrees stay at most 1 in three blocks: the irrelevant
    saturation there is one elimination with 8 helpers, which can take
    minutes on forms of block degree 2.
    """
    top = 2 if ring.r == 2 else 1
    deg = draw(st.lists(st.integers(0, top), min_size=ring.r, max_size=ring.r))
    if not any(deg):
        deg[0] = 1
    per_block = [
        [c for c in itertools.product(range(x + 1), repeat=hi - lo) if sum(c) == x]
        for x, (lo, hi) in zip(deg, ring.block_slices)
    ]
    monomials = [sum(parts, ()) for parts in itertools.product(*per_block)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(1, CHAR - 1), min_size=len(chosen), max_size=len(chosen)))
    return Polynomial(ring, tuple(zip(chosen, coeffs)))


@st.composite
def block_linear_forms(draw, ring, wide_only=False):
    """A variable or a linear form with drawn coefficients, in one block
    (with wide_only, a block of at least 2 variables)."""
    blocks = [b for b, k in enumerate(ring.block_sizes) if k > 1 or not wide_only]
    lo, hi = ring.block_slices[draw(st.sampled_from(blocks))]
    if draw(st.booleans()):
        i = draw(st.integers(lo, hi - 1))
        return Polynomial.variable(ring, ring.variables[i])
    coeffs = draw(st.lists(st.integers(0, CHAR - 1), min_size=hi - lo, max_size=hi - lo))
    if not any(coeffs):
        coeffs[0] = 1
    terms = [
        (tuple(int(j == i) for j in range(ring.nvars)), c)
        for i, c in zip(range(lo, hi), coeffs)
    ]
    return Polynomial(ring, terms)


@st.composite
def filter_regularity_cases(draw):
    """(J, h): J = h*J' + J'' (planted, mostly non-regular) or J drawn freely.

    A form h in a block of one variable x is always filter-regular, since
    N lies in (x) and so J : h lies in J : N; planted cases avoid them.
    """
    ring = draw(small_block_rings())
    planted = draw(st.sampled_from((True, True, False)))
    h = draw(block_linear_forms(ring, wide_only=planted))
    forms = multihomogeneous_forms(ring)
    rest = draw(st.lists(forms, min_size=0, max_size=1 if planted else 2))
    if planted:
        multiples = draw(st.lists(forms, min_size=1, max_size=2))
        return Ideal(ring, [h * g for g in multiples] + rest), h
    return Ideal(ring, rest + [draw(forms)]), h


@given(case=filter_regularity_cases())
def test_filter_regular_matches_colon_containment(case):
    J, h = case
    passed = is_filter_regular(J, h).passed
    event("regular" if passed else "not regular")
    assert passed == colon_filter_regular(J, h)


@given(J=filter_regularity_cases().map(lambda case: case[0]), data=st.data())
def test_series_coefficient_counts_saturated_slices(J, data):
    ring = J.ring
    cuts = data.draw(st.lists(block_linear_forms(ring), max_size=2))
    sat = irrelevant_saturation(Ideal(ring, J.generators + tuple(cuts)))
    rep = k_polynomial(sat)
    top = tuple(max(t, 0) + 2 for t in rep.numerator.max_exponents())
    nu = data.draw(st.sampled_from([top, (0,) * ring.r, (1,) * ring.r]))
    assert series_coefficient(rep, nu) == graded_piece_dim(sat, nu)


# ---------------------------------------------------------------------------
# Random forms


def test_random_form_deterministic():
    assert random_block_form(R, 0, 5) == random_block_form(R, 0, 5)
    assert random_block_form(R, 0, 7) == random_block_form(R, 0, Prng(7))


def test_random_form_lives_in_its_block():
    for seed in range(6):
        for block in (0, 1):
            h = random_block_form(R, block, seed)
            if h.is_zero():
                continue
            expected = tuple(1 if b == block else 0 for b in range(R.r))
            assert h.multidegree() == expected
            for _, c in h.terms:
                assert 0 < c < R.characteristic


def test_random_form_bad_block():
    with pytest.raises(ValueError):
        random_block_form(R, 2, 0)


def test_sampled_forms_usually_filter_regular():
    # genericity over F_32003: allow at most one unlucky draw in ten
    passed = sum(
        1
        for seed in range(10)
        if is_filter_regular(DIAGONAL, random_block_form(R, 0, seed)).passed
    )
    assert passed >= 9


# ---------------------------------------------------------------------------
# Multidegrees


def test_multidegree_diagonal():
    assert multidegree(DIAGONAL, (1, 0)) == 1
    assert multidegree(DIAGONAL, (0, 1)) == 1


def test_multidegree_full_ring():
    assert multidegree(Ideal(R, ()), (1, 1)) == 1


def test_multidegree_off_profile_is_zero():
    assert multidegree(DIAGONAL, (2, 0)) == 0
    assert multidegree(DIAGONAL, (1, 1)) == 0


def test_multidegree_length_mismatch():
    with pytest.raises(ValueError):
        multidegree(DIAGONAL, (1, 0, 0))


# ---------------------------------------------------------------------------
# Slicing routes


def slice_count(J: Ideal, n: tuple[int, ...]) -> int:
    """The point count of one verified slicing trial at seed 0."""
    return mg._slice_point_count(J, n, Prng(0))[0]


def test_slicing_route_diagonal():
    assert slice_count(DIAGONAL, (1, 0)) == 1
    assert slice_count(DIAGONAL, (0, 1)) == 1


def test_slicing_route_detects_dimension_drop():
    assert slice_count(nbar(), (1, 0)) == 0
    assert slice_count(nbar(), (0, 0)) == 0


def test_slicing_route_full_ring():
    assert slice_count(Ideal(R, ()), (1, 1)) == 1


def test_slicing_route_rejects_bad_type():
    with pytest.raises(ValueError, match="componentwise nonnegative"):
        slice_degree(DIAGONAL, (1, -1))
    with pytest.raises(ValueError, match="length mismatch"):
        slice_degree(DIAGONAL, (1,))
    with pytest.raises(ValueError, match="length mismatch"):
        slice_degree(DIAGONAL, (1, 0, 0))


def test_slice_report_diagonal():
    rep = slice_degree(DIAGONAL, (1, 0), seed=0, trials=5)
    assert rep.point_count == 1
    assert rep.agreement == 5
    assert [t.point_count for t in rep.trial_outcomes if t.verified] == [1] * 5
    assert rep.type_vector == (1, 0)
    d = rep.as_dict()
    assert d["point_count"] == 1
    assert len(d["trial_outcomes"]) == 5


def test_slice_report_full_ring():
    rep = slice_degree(Ideal(R, ()), (1, 1), seed=0, trials=5)
    assert rep.point_count == 1


def test_slice_report_cremona_graph():
    rep = slice_degree(cremona_graph(), (1, 1), seed=0, trials=5)
    assert rep.point_count == 2
    assert rep.agreement >= 4


def test_route_equivalence_on_small_corpus():
    for J, types in (
        (DIAGONAL, [(1, 0), (0, 1), (0, 0)]),
        (Ideal(R, ()), [(1, 1), (1, 0)]),
        (mk(R, "x0*y0", "x0*y1"), [(0, 1)]),
    ):
        for n in types:
            alg = multidegree(J, n)
            rep = slice_degree(J, n, seed=0, trials=5)
            assert rep.point_count == alg


def test_slice_trial_validation():
    with pytest.raises(ValueError):
        slice_degree(DIAGONAL, (1, 0), trials=0)


# ---------------------------------------------------------------------------
# Exhaustion paths (forced: honest inputs cannot exhaust by construction)


def test_sampling_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(
        mg, "random_block_form", lambda ring, block, rng: Polynomial.zero(ring)
    )
    with pytest.raises(SamplingExhausted) as err:
        mg._sliced_by_verified_forms(DIAGONAL, (1, 0), Prng(0))
    assert err.value.block == 0
    assert err.value.slot == 0


def test_sampling_exhaustion_reported_per_trial(monkeypatch):
    monkeypatch.setattr(
        mg, "random_block_form", lambda ring, block, rng: Polynomial.zero(ring)
    )
    rep = slice_degree(DIAGONAL, (1, 0), seed=0, trials=3)
    assert rep.point_count is None
    assert rep.agreement == 0
    assert all(not t.verified for t in rep.trial_outcomes)
    assert all(t.point_count is None for t in rep.trial_outcomes)


# ---------------------------------------------------------------------------
# Slicing drop and negative-type detection


def test_drop_by_verified_form_shifts_the_table():
    table = mixed_mult_polynomial(DIAGONAL)
    for seed in range(3):
        h = random_block_form(R, 0, seed)
        assert is_filter_regular(DIAGONAL, h).passed
        dropped = Ideal(R, DIAGONAL.generators + (h,))
        dtable = mixed_mult_polynomial(dropped)
        for a in range(3):
            for b in range(3):
                if a >= 1:
                    assert table.value((a, b)) == dtable.value((a - 1, b))


def test_negative_types_flag_components_inside_the_irrelevant_locus():
    # minimal primes known by construction: a maximal-dimension component
    # contains the irrelevant ideal exactly when a -1 type appears
    corpus = [
        (nbar(), True),
        (mk(R, "x0", "x1"), True),
        (DIAGONAL, False),
        (mk(R, "x0"), False),
        (Ideal(R, ()), False),
    ]
    for J, expect_negative in corpus:
        table = mixed_mult_series(J)
        has_negative = any(min(n) == -1 for n in table.entries)
        assert has_negative == expect_negative


def test_block_ideal_series_table():
    table = mixed_mult_series(mk(R, "x0", "x1"))
    assert table.dimension == 2
    assert table.entries == {(-1, 1): 1}
