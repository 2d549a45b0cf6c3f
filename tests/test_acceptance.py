"""Acceptance suite: ten end-to-end criteria with pinned time budgets.

Each test prints one PASS/FAIL line (visible under pytest -s) and fails if
its wall-clock budget is exceeded.  Budgets are generous upper bounds for a
laptop-class machine; the whole suite runs in well under eight minutes.
"""

import math
import time
from contextlib import contextmanager
from itertools import product

from helpers import mk, p1xp1, random_monomial_ideal, rational_map, ring_blocks
from mixedmult.groebner import Ideal
from mixedmult.hilbert import (
    coarsened_multiplicity,
    graded_piece_dim,
    hilbert_polynomial,
    k_polynomial,
    mixed_mult_series,
    quotient_dimension,
)
from mixedmult.maps import (
    RationalMapSpec,
    check_G_condition,
    formula_gorenstein_ht3,
    formula_perfect_ht2,
    projective_degrees,
    random_alternating_matrix,
    rees_ideal,
    satfiber_d0_check,
    submaximal_pfaffians,
)
from mixedmult.multigraded import (
    irrelevant_saturation,
    is_filter_regular,
    mixed_mult_polynomial,
    multidegree,
    random_block_form,
    slice_degree,
)
from mixedmult.rings import RingSpec

CHAR = 32003


@contextmanager
def criterion(num: int, budget: float, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - started
        print(f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.monotonic() - started
    if elapsed >= budget:
        print(
            f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): "
            f"over {budget:.0f}s budget: {description}"
        )
        assert elapsed < budget
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {description}")


def cremona_map() -> RationalMapSpec:
    return rational_map(("x0", "x1", "x2"), ("x1*x2", "x0*x2", "x0*x1"))


def cubic_map() -> RationalMapSpec:
    return rational_map(("x0", "x1"), ("x0^3", "x0^2*x1", "x0*x1^2", "x1^3"))


def test_criterion_01_cremona_degrees():
    with criterion(
        1, 5.0, "Cremona degrees (1,2,1) by elimination and height-2 formula"
    ):
        elim = projective_degrees(cremona_map(), "elimination").degrees
        assert elim == (1, 2, 1)
        assert elim == formula_perfect_ht2(2, (1, 1)).degrees


def test_criterion_02_twisted_cubic_degrees():
    with criterion(
        2, 2.0, "twisted cubic degrees (3,1) by elimination and formula"
    ):
        elim = projective_degrees(cubic_map(), "elimination").degrees
        assert elim == (3, 1)
        assert elim == formula_perfect_ht2(1, (1, 1, 1)).degrees


def test_criterion_03_gorenstein_height_three_maps():
    with criterion(
        3,
        300.0,
        "five pfaffian maps passing the G screen match the height-3 formula",
    ):
        ring = ring_blocks(("x0", "x1", "x2", "x3"))
        target = formula_gorenstein_ht3(3, 4, 1, 2).degrees
        assert target == (3, 4, 2, 1)
        kept = 0
        seed = 0
        while kept < 5:
            assert seed < 50, "ran out of seeds"
            per_seed = time.monotonic()
            matrix = random_alternating_matrix(ring, 5, seed)
            forms = submaximal_pfaffians(matrix)
            seed += 1
            if any(p.is_zero() for p in forms):
                continue
            spec = RationalMapSpec(ring, tuple(forms))
            if not check_G_condition(spec, matrix, 4):
                continue
            assert projective_degrees(spec, "elimination").degrees == target
            assert time.monotonic() - per_seed < 60.0
            kept += 1


def test_criterion_04_free_ring_closed_forms():
    with criterion(
        4, 1.0, "free bigraded rings match the binomial product closed form"
    ):
        for n, m in ((2, 2), (3, 2)):
            ring = RingSpec(
                CHAR,
                (
                    tuple(f"x{i}" for i in range(n)),
                    tuple(f"y{i}" for i in range(m)),
                ),
            )
            free = Ideal(ring, ())
            assert k_polynomial(free).numerator.as_dict() == {(0, 0): 1}
            poly = hilbert_polynomial(free)
            for v1, v2 in product(range(5), repeat=2):
                expected = math.comb(v1 + n - 1, n - 1) * math.comb(
                    v2 + m - 1, m - 1
                )
                assert poly.evaluate_int((v1, v2)) == expected


def test_criterion_05_diagonal_multidegrees():
    with criterion(
        5, 1.0, "diagonal of P1xP1: both tables {(1,0):1,(0,1):1}, coarse 2"
    ):
        diag = mk(p1xp1(), "x0*y1 - x1*y0")
        stable = mixed_mult_series(diag)
        assert stable.entries == {(1, 0): 1, (0, 1): 1}
        assert mixed_mult_polynomial(diag).entries == stable.entries
        assert coarsened_multiplicity(diag) == 2 == stable.total()


def test_criterion_06_negative_type_detection():
    with criterion(
        6, 1.0, "irrelevant-supported ideal shows negative types, empty table"
    ):
        nbar = mk(p1xp1(), "x0*y0", "x0*y1", "x1*y0", "x1*y1")
        stable = mixed_mult_series(nbar)
        assert stable.entries == {(1, -1): 1, (-1, 1): 1}
        ptable = mixed_mult_polynomial(nbar)
        assert ptable.entries == {} and ptable.dimension is None
        assert coarsened_multiplicity(nbar) == 2


def test_criterion_07_random_monomial_property_suite():
    with criterion(
        7, 60.0, "five exact properties over 20 random monomial ideals"
    ):
        for seed in range(20):
            J = random_monomial_ideal(seed)
            ring = J.ring
            stable = mixed_mult_series(J)
            assert stable.dimension == quotient_dimension(J)
            for key in stable.entries:
                assert sum(x + 1 for x in key) == stable.dimension
            shifted = mixed_mult_series(Ideal(J.ring, J.generators, (1, 2)))
            assert shifted.entries == stable.entries
            assert shifted.dimension == stable.dimension
            assert (
                k_polynomial(J, "antipodal").numerator
                == k_polynomial(J).numerator
            )
            poly = hilbert_polynomial(J)
            base = tuple(max(t, 0) for t in poly.validity_threshold)
            for offset in product(range(4), repeat=ring.r):
                nu = tuple(b + o for b, o in zip(base, offset))
                assert poly.evaluate_int(nu) == graded_piece_dim(J, nu)
            ptable = mixed_mult_polynomial(J)
            if ptable.dimension is not None:
                sat = mixed_mult_series(irrelevant_saturation(J))
                assert sat.entries == ptable.entries
                assert sat.dimension == ptable.dimension + ring.r


def test_criterion_08_randomized_slicing_agreement():
    with criterion(
        8, 120.0, "seeded slicing matches multidegrees in >= 9/10 trials"
    ):
        conic = rational_map(("x0", "x1"), ("x0^2", "x0*x1", "x1^2"))
        cases = [
            (mk(p1xp1(), "x0*y1 - x1*y0"), [(1, 0), (0, 1)]),
            (rees_ideal(cremona_map()), [(0, 2), (1, 1), (2, 0)]),
            (rees_ideal(conic), [(0, 1), (1, 0)]),
        ]
        for J, types in cases:
            for n in types:
                algebraic = multidegree(J, n)
                report = slice_degree(J, n, seed=0, trials=10)
                matching = sum(
                    1
                    for t in report.trial_outcomes
                    if t.verified and t.point_count == algebraic
                )
                assert matching >= 9
                assert report.point_count == algebraic


def test_criterion_09_filter_regular_table_drop():
    with criterion(
        9, 60.0, "five verified filter-regular drops shift the graph table"
    ):
        J = rees_ideal(cremona_map())
        ring = J.ring
        table = mixed_mult_polynomial(J)
        kept = 0
        sample = 0
        while kept < 5:
            assert sample < 20, "ran out of samples"
            block = sample % 2
            h = random_block_form(ring, block, 100 + sample)
            sample += 1
            witness = is_filter_regular(J, h)
            if not witness.passed:
                continue
            dropped = mixed_mult_polynomial(Ideal(ring, J.generators + (h,)))
            shift = (1, 0) if block == 0 else (0, 1)
            for a, b in product(range(3), repeat=2):
                if (a, b)[block] >= 1:
                    assert table.value((a, b)) == dropped.value(
                        (a - shift[0], b - shift[1])
                    )
            kept += 1


def test_criterion_10_saturated_fiber_probe():
    with criterion(
        10, 120.0, "saturated fiber growth recovers d0 for three maps"
    ):
        identity = rational_map(("x0", "x1"), ("x0", "x1"))
        for spec, d0 in ((cremona_map(), 1), (cubic_map(), 3), (identity, 1)):
            check = satfiber_d0_check(spec, 6)
            assert check.stabilized is True
            assert check.inferred_e == d0
            assert check.d0_elimination == d0
            assert check.agree is True
