"""Irrelevant-ideal saturation, filter-regularity, multidegrees, slicing."""

import itertools

import pytest

from mixedmult import (
    Ideal,
    NotMultihomogeneousError,
    Polynomial,
    Prng,
    RationalMapSpec,
    SamplingExhausted,
    graded_piece_dim,
    irrelevant_ideal,
    irrelevant_saturation,
    is_filter_regular,
    mixed_mult_polynomial,
    mixed_mult_series,
    mixed_mult_via_slicing,
    multidegree,
    quotient_dimension,
    random_block_form,
    rees_ideal,
    slice_degree,
)
import mixedmult.multigraded as mg

from helpers import intersection_irrelevant_ideal, mk, p1xp1, pp, ring_blocks

R = p1xp1()
DIAGONAL = mk(R, "x0*y1 - x1*y0")
RXY = ring_blocks(("x", "y"))


def nbar() -> Ideal:
    return irrelevant_ideal(R)


def cremona_graph() -> Ideal:
    F = RationalMapSpec.make(
        32003, ("x0", "x1", "x2"), ("x1*x2", "x0*x2", "x0*x1")
    )
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


def test_saturation_preserves_shift():
    J = mk(R, "x0*y0", "x0*y1", shift=(1, 2))
    assert irrelevant_saturation(J).shift == (1, 2)


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


# ---------------------------------------------------------------------------
# Filter-regularity


def test_filter_regular_witness_passes():
    J = mk(RXY, "x^2", "x*y")
    w = is_filter_regular(J, pp(RXY, "y"))
    assert w.passed
    assert w.element == pp(RXY, "y")
    assert w.colon_ideal.same_ideal(mk(RXY, "x"))
    assert w.saturation_ideal.same_ideal(mk(RXY, "x"))


def test_filter_regular_witness_fails():
    J = mk(RXY, "x^2", "x*y")
    w = is_filter_regular(J, pp(RXY, "x"))
    assert not w.passed
    assert w.colon_ideal.same_ideal(mk(RXY, "x", "y"))


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


def test_slicing_route_diagonal():
    assert mixed_mult_via_slicing(DIAGONAL, (1, 0), 0) == 1
    assert mixed_mult_via_slicing(DIAGONAL, (0, 1), 0) == 1


def test_slicing_route_detects_dimension_drop():
    assert mixed_mult_via_slicing(nbar(), (1, 0), 0) == 0
    assert mixed_mult_via_slicing(nbar(), (0, 0), 0) == 0


def test_slicing_route_full_ring():
    assert mixed_mult_via_slicing(Ideal(R, ()), (1, 1), 0) == 1


def test_slicing_route_rejects_bad_type():
    with pytest.raises(ValueError):
        mixed_mult_via_slicing(DIAGONAL, (1, -1), 0)
    with pytest.raises(ValueError):
        mixed_mult_via_slicing(DIAGONAL, (1,), 0)


def test_slice_report_diagonal():
    rep = slice_degree(DIAGONAL, (1, 0), seed=0, trials=5)
    assert rep.point_count == 1
    assert rep.agreement == 5
    assert rep.verified_counts() == [1] * 5
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
        (DIAGONAL, [(1, 0), (0, 1)]),
        (Ideal(R, ()), [(1, 1)]),
        (mk(R, "x0*y0", "x0*y1"), [(0, 1)]),
    ):
        for n in types:
            alg = multidegree(J, n)
            assert mixed_mult_via_slicing(J, n, 0) == alg
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
        mixed_mult_via_slicing(DIAGONAL, (1, 0), 0)
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
