"""Series numerators, multiplicity tables, Hilbert polynomials, coarsening."""

import math
import tracemalloc
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import product
from operator import add, le, mul

import pytest
from hypothesis import example, given, strategies as st

from mixedmult import (
    EnumerationGuardError,
    HilbertPolynomialRep,
    HilbertSeriesRep,
    Ideal,
    InvariantViolation,
    LaurentPolyZ,
    MixedMultTable,
    NotMultihomogeneousError,
    Polynomial,
    coarsened_multiplicity,
    graded_piece_dim,
    groebner_basis,
    hilbert_polynomial,
    irrelevant_ideal,
    k_polynomial,
    mixed_mult_series,
    quotient_dimension,
    series_coefficient,
    series_table,
)
import mixedmult.hilbert as hilbert
from mixedmult.hilbert import PACK_BITS, PIVOT_RULES, _knum, _lowest_form
from mixedmult.rings import _minimalize

from helpers import (
    box_series_table,
    division_pole_at_one,
    fraction_evaluate,
    fraction_hilbert_polynomial,
    generator_pivot_knum,
    hitting_set_dimension,
    laurent_product,
    mk,
    p1xp1,
    random_monomial_ideal,
    ring_blocks,
)

R = p1xp1()
DIAGONAL = mk(R, "x0*y1 - x1*y0")


def nbar() -> Ideal:
    return irrelevant_ideal(R)


# ---------------------------------------------------------------------------
# Dimension


def test_dimension_of_zero_ideal():
    assert quotient_dimension(Ideal(R, ())) == 4


def test_dimension_of_maximal_ideal():
    assert quotient_dimension(mk(R, "x0", "x1", "y0", "y1")) == 0


def test_dimension_of_one_mixed_monomial():
    assert quotient_dimension(mk(R, "x0*y1")) == 3


def test_dimension_of_zero_ring():
    assert quotient_dimension(mk(R, "1")) == -1


def test_dimension_at_seventeen_variables():
    big = ring_blocks(tuple(f"v{i}" for i in range(17)))
    assert quotient_dimension(Ideal(big, ())) == 17


def test_hypersurface_in_p8xp7():
    ring = ring_blocks(
        tuple(f"x{i}" for i in range(9)), tuple(f"y{i}" for i in range(8))
    )
    J = mk(ring, "x0*y0 + x1*y1 + x2*y2")
    table = mixed_mult_series(J)
    assert table.entries == {(8, 6): 1, (7, 7): 1}
    assert table.dimension == 16
    assert coarsened_multiplicity(J) == 2


@st.composite
def monomial_ideals(draw) -> Ideal:
    sizes = draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
            lambda s: sum(s) <= 10
        )
    )
    nvars = sum(sizes)
    # pure powers x_i^a raise the height, so that all heights up to nvars occur
    k = draw(st.integers(0, nvars))
    powers = draw(st.permutations(range(nvars)))[:k]
    a = draw(st.integers(1, 2))
    mixed = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, nvars - 1), st.integers(1, 2), min_size=1, max_size=3
            ),
            max_size=6,
        )
    )
    exps = [
        tuple(d.get(i, 0) for i in range(nvars))
        for d in [{i: a} for i in powers] + mixed
    ]
    ring = ring_blocks(
        *(tuple(f"{b}{i}" for i in range(n)) for b, n in zip("xyz", sizes))
    )
    return Ideal(ring, tuple(Polynomial(ring, ((e, 1),)) for e in exps))


NONHOMOGENEOUS = (
    mk(R, "x0 - 1"),
    mk(R, "x0*y0 - x1"),
    mk(R, "x0^2 - y1", "x1*y0 - 1"),
    mk(R, "x0 - 1", "x0"),
    mk(ring_blocks(("x0", "x1", "x2")), "x0*x1 - x2", "x1^2 - x0"),
)


@given(J=st.one_of(monomial_ideals(), st.sampled_from(NONHOMOGENEOUS)))
def test_dimension_matches_hitting_set_oracle(J):
    expected = hitting_set_dimension(groebner_basis(J).leading_exps, J.ring.nvars)
    assert quotient_dimension(J) == expected
    if all(len(g.terms) == 1 for g in J.generators):
        exps = [g.terms[0][0] for g in J.generators]
        assert quotient_dimension(J) == hitting_set_dimension(exps, J.ring.nvars)
        assert coarsened_multiplicity(J) == mixed_mult_series(J).total()


def test_quotient_dimension_via_leading_terms():
    assert quotient_dimension(DIAGONAL) == 3
    assert quotient_dimension(nbar()) == 2
    assert quotient_dimension(Ideal(R, ())) == 4
    assert quotient_dimension(mk(R, "x0 - x1", "x0 + x1")) == 2


# ---------------------------------------------------------------------------
# K-polynomial numerators


def test_k_polynomial_of_zero_ideal():
    rep = k_polynomial(Ideal(R, ()))
    assert rep.numerator.as_dict() == {(0, 0): 1}
    assert rep.denominator_exponents == (2, 2)
    assert rep.shift is None


def test_k_polynomial_one_mixed_monomial():
    rep = k_polynomial(mk(R, "x0*y1"))
    assert rep.numerator.as_dict() == {(0, 0): 1, (1, 1): -1}


def test_k_polynomial_two_monomials():
    rep = k_polynomial(mk(R, "x0*y0", "x0*y1"))
    assert rep.numerator.as_dict() == {(0, 0): 1, (1, 1): -2, (1, 2): 1}


def test_k_polynomial_of_diagonal_matches_leading_term_ideal():
    assert k_polynomial(DIAGONAL).numerator.as_dict() == {
        (0, 0): 1,
        (1, 1): -1,
    }


def test_k_polynomial_rejects_inhomogeneous_generators():
    with pytest.raises(NotMultihomogeneousError):
        k_polynomial(mk(R, "x0 + y0"))
    with pytest.raises(NotMultihomogeneousError):
        k_polynomial(mk(R, "x0 + 1"))


def test_k_polynomial_shift_multiplies_numerator():
    plain = k_polynomial(DIAGONAL)
    shifted = k_polynomial(Ideal(R, DIAGONAL.generators, (1, 2)))
    assert shifted.shift == (1, 2)
    assert shifted.numerator == plain.numerator.shifted((1, 2))


def test_k_polynomial_pivot_rule_independence():
    for J in (DIAGONAL, mk(R, "x0*y0", "x0*y1"), nbar()):
        assert (
            k_polynomial(J, pivot_rule="default").numerator
            == k_polynomial(J, pivot_rule="antipodal").numerator
        )


def test_k_polynomial_unknown_pivot_rule():
    with pytest.raises(ValueError):
        k_polynomial(DIAGONAL, pivot_rule="sideways")


@st.composite
def shifted_monomial_ideals(draw) -> Ideal:
    """Monomial ideals in 1-3 blocks (some of one variable), or the unit
    ideal, with a drawn shift whose entries may be negative."""
    J = draw(monomial_ideals())
    ring = J.ring
    gens = J.generators
    if draw(st.integers(0, 7)) == 0:
        gens = (Polynomial.one(ring),)
    shift = draw(
        st.none() | st.tuples(*(st.integers(-3, 3) for _ in range(ring.r)))
    )
    return Ideal(ring, gens, shift=shift)


@st.composite
def pivot_cases(draw):
    """(minimal exponent tuples, ring) for the pivot-rule oracle: 1-3 blocks
    (some of one variable), drawn so that some generators are pure powers
    x_v^k, or every variable lies in equally many generators, or the ideal
    is the zero or the unit ideal."""
    sizes = draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
            lambda s: sum(s) <= 7
        )
    )
    nvars = sum(sizes)
    ring = ring_blocks(
        *(tuple(f"{b}{i}" for i in range(n)) for b, n in zip("xyz", sizes))
    )
    kind = draw(st.sampled_from(("mixed", "pure powers", "tied", "zero", "unit")))
    if kind == "zero":
        return (), ring
    if kind == "unit":
        return ((0,) * nvars,), ring
    monomials = st.dictionaries(
        st.integers(0, nvars - 1), st.integers(1, 3), min_size=1, max_size=3
    ).map(lambda d: tuple(d.get(i, 0) for i in range(nvars)))
    exps = draw(st.lists(monomials, min_size=1, max_size=3 if kind == "tied" else 7))
    if kind == "pure powers":
        powered = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars))
        for v in powered:
            k = draw(st.integers(1, 3))
            exps.append(tuple(k if i == v else 0 for i in range(nvars)))
    if kind == "tied":
        # closed under the cyclic shift of the variables: all counts are equal
        exps = [e[j:] + e[:j] for e in exps for j in range(nvars)]
    gens = _minimalize(exps)
    if kind == "tied":
        counts = {sum(1 for g in gens if g[i]) for i in range(nvars)}
        assert len(counts) == 1
    return gens, ring


@given(case=pivot_cases())
@example(case=(((2, 0, 0), (1, 1, 0), (1, 0, 1)), ring_blocks(("x0", "x1", "x2"))))
@example(
    case=(((1, 1, 0), (0, 1, 1), (1, 0, 1)), ring_blocks(("x0",), ("y0",), ("z0",)))
)
@example(case=(((0, 2), (1, 1), (2, 0)), ring_blocks(("x0",), ("y0",))))
def test_pure_power_pivot_matches_generator_pivot_oracle(case):
    gens, ring = case
    expected = generator_pivot_knum(gens, ring)
    assert _knum(gens, ring, "default") == expected
    assert _knum(gens, ring, "antipodal") == expected


@given(case=pivot_cases())
@example(case=(((2, 0, 0), (1, 1, 0), (1, 0, 1)), ring_blocks(("x0", "x1", "x2"))))
@example(case=(((0, 2), (1, 1), (2, 0)), ring_blocks(("x0",), ("y0",))))
def test_dict_route_matches_scaled_generator_pivot_oracle(case):
    # x_v -> x_v^s maps the numerator's t^a to t^(s*a); at s = 2^16 every
    # box other than the origin's spans more than PACK_BITS bits, so both
    # rules take the dict route
    gens, ring = case
    scale = 1 << 16
    assert 3 * (scale + 1) > PACK_BITS
    scaled = tuple(tuple(scale * e for e in g) for g in gens)
    expected = {
        tuple(scale * a for a in e): c
        for e, c in generator_pivot_knum(gens, ring).items()
    }
    assert _knum(scaled, ring, "default") == expected
    assert _knum(scaled, ring, "antipodal") == expected


@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_high_degree_generators_cost_their_terms(rule):
    # packed, (x0^N, y0^N) would span about 1.6e9 bits and x0^(2^31 - 1)
    # about 2^33; the dict route holds a few terms
    N = 20000
    top = 2**31 - 1
    mixed = ((N, 1, 0, 0), (1, N, 0, 0), (1, 0, N, 0), (0, 0, 1, N))
    expected = generator_pivot_knum(mixed, R)
    tracemalloc.start()
    try:
        assert _knum(((N, 0, 0, 0), (0, 0, N, 0)), R, rule) == {
            (0, 0): 1, (N, 0): -1, (0, N): -1, (N, N): 1,
        }
        assert _knum(((top, 0, 0, 0),), R, rule) == {(0, 0): 1, (top, 0): -1}
        assert _knum(mixed, R, rule) == expected
        J = mk(R, f"x0^{N}", f"y0^{N}")
        table = series_table(k_polynomial(J, rule))
        assert (table.dimension, table.entries) == (2, {(0, 0): N * N})
        assert hilbert_polynomial(J).coefficients == {(0, 0): Fraction(N * N)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def weighted_oracle(gens, weights) -> tuple[int, ...]:
    """Coefficients in z of ``generator_pivot_knum`` on the minimal
    generators, every variable its own block, with t^e read as z^(w . e)."""
    minimal = tuple(sorted(
        g for g in set(gens)
        if not any(h != g and all(map(le, h, g)) for h in gens)
    ))
    coeffs: dict[int, int] = {}
    for e, c in generator_pivot_knum(minimal, fine_ring(len(weights))).items():
        k = sum(map(mul, e, weights))
        coeffs[k] = coeffs.get(k, 0) + c
    dense = [0] * (max((k for k, c in coeffs.items() if c), default=-1) + 1)
    for k, c in coeffs.items():
        if c:
            dense[k] = c
    return tuple(dense)


@cache
def fine_ring(n: int):
    """n variables, each its own block: multidegrees are exponent vectors."""
    return ring_blocks(*((f"x{i}",) for i in range(n)))


@st.composite
def weighted_cases(draw):
    """(gens, weights): monomials in 1-4 variables with repeats and
    multiples (non-minimal input), sometimes the unit ideal, and positive
    weights, some large enough that the lcm box passes PACK_BITS."""
    n = draw(st.integers(1, 4))
    weights = tuple(
        draw(st.lists(
            st.integers(1, 5) | st.integers(1 << 13, 1 << 16), min_size=n, max_size=n
        ))
    )
    monomials = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(monomials, max_size=6))
    # multiples of the first generators, after them: a non-minimal input
    gens += [tuple(map(add, g, e)) for g, e in zip(gens, draw(st.lists(monomials)))]
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * n)
    return gens, weights


@given(case=weighted_cases())
@example(case=([], (3,)))
@example(case=([(0, 0)], (1, 2)))
@example(case=([(2, 0), (1, 1), (2, 1), (0, 3), (1, 1)], (2, 3)))
def test_weighted_numerator_matches_generator_pivot_oracle(case):
    """The weighted read of a Hilbert-driven run is the K-numerator of the
    fine grading with t^e read as z^(w . e)."""
    gens, weights = case
    assert hilbert._weighted_numerator(gens, weights) == weighted_oracle(gens, weights)


def test_weighted_numerator_past_pack_bits_takes_the_dict_route(monkeypatch):
    gens, weights = [(2, 0), (1, 1), (0, 3), (2, 2)], (1 << 15, 3)
    # lcm (2, 3) has weight 65,545 and W = 5 bits: past PACK_BITS
    assert 5 * (2 * weights[0] + 3 * weights[1] + 1) > PACK_BITS
    calls = []
    shift_add = hilbert._shift_add

    def counting(*args):
        calls.append(args[2])
        return shift_add(*args)

    monkeypatch.setattr(hilbert, "_shift_add", counting)
    assert hilbert._weighted_numerator(gens, weights) == weighted_oracle(gens, weights)
    assert calls


@given(J=shifted_monomial_ideals())
@example(J=mk(R, "x0*y1 - x1*y0", shift=(2, -1)))
@example(J=mk(R, "1", shift=(0, 3)))
@example(J=Ideal(R, (), shift=(-1, 1)))
def test_k_polynomial_matches_generator_pivot_oracle(J):
    gens = _minimalize(list(groebner_basis(J).leading_exps))
    expected = LaurentPolyZ(J.ring.r, generator_pivot_knum(gens, J.ring).items())
    if J.shift is not None:
        expected = expected.shifted(J.shift)
    assert k_polynomial(J).numerator == expected
    assert k_polynomial(J, pivot_rule="antipodal").numerator == expected


def power_of_one_minus_t(ring, block: int, n: int) -> LaurentPolyZ:
    """(1 - t_block)^n over the series variables of ``ring``."""
    return LaurentPolyZ(
        ring.r,
        [
            (tuple(k if i == block else 0 for i in range(ring.r)), (-1) ** k * math.comb(n, k))
            for k in range(n + 1)
        ],
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 19, 20, 21, 24])
@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_maximal_ideal_of_one_block_fills_its_slots(n, rule):
    # n generators give slots of n + 2 bits; C(20, 10) is within a factor
    # of about sqrt(n) of the 2^n bound, and for odd n the top coefficient
    # -1 is a negative balanced digit
    ring = ring_blocks(tuple(f"v{i}" for i in range(n)))
    gens = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    assert _knum(gens, ring, rule) == power_of_one_minus_t(ring, 0, n).as_dict()


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (1, 4), (2, 2, 2), (4, 3), (3, 2, 2), (5, 4)])
@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_block_maximal_ideals_match_closed_forms(sizes, rule):
    # the sum of the block maximal ideals m_i gives prod_i (1 - t_i)^(D_i);
    # their product is their intersection, so inclusion-exclusion over the
    # sums gives 1 - prod_i (1 - (1 - t_i)^(D_i)), and with prod_i D_i
    # generators that share variables the pivot rules do the work
    ring = ring_blocks(
        *(tuple(f"{b}{i}" for i in range(n)) for b, n in zip("xyzw", sizes))
    )
    nvars = ring.nvars
    variables = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    products = [
        tuple(map(sum, zip(*(variables[s + j] for s, j in zip(starts, pick)))))
        for pick in product(*map(range, sizes))
    ]
    one = LaurentPolyZ(ring.r, [((0,) * ring.r, 1)])
    powers = [power_of_one_minus_t(ring, i, n) for i, n in enumerate(sizes)]
    assert _knum(tuple(variables), ring, rule) == reduce(laurent_product, powers).as_dict()
    expected = one - reduce(laurent_product, (one - p for p in powers))
    assert _knum(_minimalize(products), ring, rule) == expected.as_dict()


def test_series_coefficients_match_piece_dimensions():
    for J in (Ideal(R, ()), mk(R, "x0*y1"), mk(R, "x0*y0", "x0*y1"), nbar()):
        rep = k_polynomial(J)
        for a in range(4):
            for b in range(4):
                assert series_coefficient(rep, (a, b)) == graded_piece_dim(
                    J, (a, b)
                )


def test_wrong_length_multidegrees_are_rejected():
    J = mk(R, "x0*y0 + x1*y1")
    rep, poly = k_polynomial(J), hilbert_polynomial(J)
    assert series_coefficient(rep, (3, 3)) == graded_piece_dim(J, (3, 3)) == 7
    assert poly.evaluate((5, 5)) == graded_piece_dim(J, (5, 5)) == 11
    for nu in ((3,), (3, 3, 3)):
        for read in (partial(series_coefficient, rep), poly.evaluate, poly.evaluate_int):
            with pytest.raises(ValueError, match="multidegree length mismatch"):
                read(nu)


# ---------------------------------------------------------------------------
# Series-route multiplicity tables


def test_series_table_full_ring_two_by_two():
    table = mixed_mult_series(Ideal(R, ()))
    assert table.dimension == 4
    assert table.route == "series"
    assert table.entries == {(1, 1): 1}
    assert table.value((1, 1)) == 1
    assert table.value((2, 0)) == 0


def test_series_table_full_ring_three_by_two():
    ring = ring_blocks(("x0", "x1", "x2"), ("y0", "y1"))
    table = mixed_mult_series(Ideal(ring, ()))
    assert table.dimension == 5
    assert table.entries == {(2, 1): 1}


def test_series_table_diagonal():
    table = mixed_mult_series(DIAGONAL)
    assert table.dimension == 3
    assert table.entries == {(1, 0): 1, (0, 1): 1}


def test_series_table_irrelevant_ideal_has_negative_types():
    table = mixed_mult_series(nbar())
    assert table.dimension == 2
    assert table.entries == {(1, -1): 1, (-1, 1): 1}


def test_series_table_rejects_numerator_with_vanishing_coarsening():
    # t1 - t2 coarsens to 0, but its lowest part -s1 + s2 does not vanish;
    # no module has this numerator, and the table must refuse it
    rep = HilbertSeriesRep(
        ring=R,
        numerator=LaurentPolyZ(2, [((1, 0), 1), ((0, 1), -1)]),
        denominator_exponents=(2, 2),
    )
    assert _lowest_form(rep.numerator, 4) == (3, {(1, 0): -1, (0, 1): 1})
    with pytest.raises(InvariantViolation):
        series_table(rep)


@pytest.mark.parametrize("power", [5, 7])
def test_lowest_form_rejects_numerator_without_part_up_to_nvars(power):
    # (1 - t)^power over (1 - t)^4 would read as dimension 4 - power; no
    # module has that numerator, and the reading must refuse it
    numerator = LaurentPolyZ(
        1, [((k,), (-1) ** k * math.comb(power, k)) for k in range(power + 1)]
    )
    assert _lowest_form(numerator, power) == (0, {(power,): 1})
    with pytest.raises(InvariantViolation):
        _lowest_form(numerator, 4)
    wide = LaurentPolyZ(2, [((0, k), c) for (k,), c in numerator.terms])
    with pytest.raises(InvariantViolation):
        _lowest_form(wide, 4)


def test_series_table_rejects_negative_multiplicity():
    rep = HilbertSeriesRep(
        ring=R,
        numerator=LaurentPolyZ(2, [((0, 0), -1)]),
        denominator_exponents=(2, 2),
    )
    with pytest.raises(InvariantViolation):
        series_table(rep)


def test_series_table_additivity_on_direct_sums():
    J1 = DIAGONAL
    J2 = mk(R, "x0*y0", "x0*y1")
    rep1, rep2 = k_polynomial(J1), k_polynomial(J2)
    assert quotient_dimension(J1) == quotient_dimension(J2) == 3
    summed = HilbertSeriesRep(
        ring=R,
        numerator=LaurentPolyZ(R.r, rep1.numerator.terms + rep2.numerator.terms),
        denominator_exponents=(2, 2),
    )
    t1 = mixed_mult_series(J1)
    t2 = mixed_mult_series(J2)
    combined = series_table(summed)
    keys = set(t1.entries) | set(t2.entries)
    assert combined.entries == {
        n: t1.value(n) + t2.value(n)
        for n in keys
        if t1.value(n) + t2.value(n)
    }


def test_series_table_additivity_drops_lower_dimension():
    # dim 2 summand contributes nothing at the dim 3 level
    rep1 = k_polynomial(DIAGONAL)
    rep2 = k_polynomial(nbar())
    summed = HilbertSeriesRep(
        ring=R,
        numerator=LaurentPolyZ(R.r, rep1.numerator.terms + rep2.numerator.terms),
        denominator_exponents=(2, 2),
    )
    assert series_table(summed) == mixed_mult_series(DIAGONAL)


@st.composite
def series_cases(draw):
    """(J, K-polynomial of J) for a shifted monomial ideal in 1-3 blocks
    (some of one variable, the zero and the unit ideal among them), or
    (None, the sum of that K-polynomial and a second one over one ring)."""
    J = draw(shifted_monomial_ideals())
    rep = k_polynomial(J)
    if draw(st.booleans()):
        return J, rep
    ring = J.ring
    nvars = ring.nvars
    monomials = st.dictionaries(
        st.integers(0, nvars - 1), st.integers(1, 2), min_size=1, max_size=3
    ).map(lambda d: tuple(d.get(i, 0) for i in range(nvars)))
    exps = draw(st.lists(monomials, max_size=5))
    shift = draw(st.none() | st.tuples(*(st.integers(-3, 3) for _ in range(ring.r))))
    J2 = Ideal(ring, tuple(Polynomial(ring, ((e, 1),)) for e in exps), shift=shift)
    summed = HilbertSeriesRep(
        ring=ring,
        numerator=LaurentPolyZ(
            ring.r, rep.numerator.terms + k_polynomial(J2).numerator.terms
        ),
        denominator_exponents=ring.block_sizes,
    )
    return None, summed


@given(case=series_cases())
@example(case=(Ideal(R, ()), k_polynomial(Ideal(R, ()))))
@example(case=(mk(R, "1", shift=(1, -2)), k_polynomial(mk(R, "1", shift=(1, -2)))))
@example(case=(nbar(), k_polynomial(nbar())))
def test_lowest_form_matches_division_and_box_scan_oracles(case):
    J, rep = case
    nvars = rep.ring.nvars
    d, e = division_pole_at_one(rep.numerator, nvars)
    expected_form = {(nvars - d,): e} if d >= 0 else {}
    assert _lowest_form(rep.numerator.coarsened(), nvars) == (d, expected_form)
    if J is not None:
        assert quotient_dimension(J) == d
        assert coarsened_multiplicity(J) == e
    if d >= 0:
        expected = box_series_table(rep, d)
    else:
        expected = MixedMultTable(dimension=-1, route="series")
    assert series_table(rep) == expected


# ---------------------------------------------------------------------------
# Hilbert polynomials


def test_polynomial_full_ring_closed_form():
    for sizes in ((2, 2), (3, 2)):
        ring = ring_blocks(
            tuple(f"x{i}" for i in range(sizes[0])),
            tuple(f"y{i}" for i in range(sizes[1])),
        )
        poly = hilbert_polynomial(Ideal(ring, ()))
        n, m = sizes
        assert poly.total_degree() == n + m - 2
        for a in range(5):
            for b in range(5):
                expected = math.comb(a + n - 1, n - 1) * math.comb(
                    b + m - 1, m - 1
                )
                assert poly.evaluate_int((a, b)) == expected


def test_polynomial_full_ring_exact_coefficients():
    poly = hilbert_polynomial(Ideal(R, ()))
    one = Fraction(1)
    assert poly.coefficients == {
        (0, 0): one,
        (1, 0): one,
        (0, 1): one,
        (1, 1): one,
    }


def test_polynomial_of_irrelevant_ideal_is_zero():
    poly = hilbert_polynomial(nbar())
    assert poly.coefficients == {}
    assert poly.total_degree() is None
    assert poly.leading_table().dimension is None
    assert poly.leading_table().entries == {}


def test_polynomial_of_diagonal():
    poly = hilbert_polynomial(DIAGONAL)
    one = Fraction(1)
    assert poly.coefficients == {(0, 0): one, (1, 0): one, (0, 1): one}
    assert poly.validity_threshold == (1, 1)
    table = poly.leading_table()
    assert table.dimension == 1
    assert table.entries == {(1, 0): 1, (0, 1): 1}


def test_polynomial_matches_pieces_beyond_threshold():
    for J in (DIAGONAL, mk(R, "x0*y0", "x0*y1"), mk(R, "x0^2*y1", "x1*y0")):
        poly = hilbert_polynomial(J)
        base = tuple(max(t, 0) for t in poly.validity_threshold)
        for da in range(4):
            for db in range(4):
                nu = (base[0] + da, base[1] + db)
                assert poly.evaluate_int(nu) == graded_piece_dim(J, nu)


@given(J=shifted_monomial_ideals())
@example(J=mk(R, "1", shift=(-1, 2)))
def test_polynomial_matches_fraction_oracle(J):
    poly = hilbert_polynomial(J)
    expected = fraction_hilbert_polynomial(J)
    assert poly.coefficients == expected.coefficients
    assert poly.validity_threshold == expected.validity_threshold
    assert all(isinstance(c, Fraction) and c for c in poly.coefficients.values())


def test_polynomial_with_one_variable_blocks_and_negative_shift():
    ring = ring_blocks(("x0",), ("y0", "y1", "y2"), ("z0",))
    J = mk(ring, "x0*y0^2", "y1*z0", shift=(-2, 1, -1))
    poly = hilbert_polynomial(J)
    assert poly.coefficients == fraction_hilbert_polynomial(J).coefficients
    assert any(x < 0 for x in k_polynomial(J).numerator.min_exponents())
    base = tuple(max(t, 0) for t in poly.validity_threshold)
    for nu in (base, tuple(t + 1 for t in base), tuple(t + 2 for t in base)):
        assert poly.evaluate_int(nu) == graded_piece_dim(J, nu)


@st.composite
def polynomial_reps(draw) -> HilbertPolynomialRep:
    """Hilbert polynomials of drawn shifted ideals, or reps whose Fraction
    coefficients (denominators up to 30) are drawn directly."""
    if draw(st.booleans()):
        return hilbert_polynomial(draw(shifted_monomial_ideals()))
    r = draw(st.integers(1, 3))
    ring = ring_blocks(*((f"b{i}_0", f"b{i}_1") for i in range(r)))
    coeffs = draw(
        st.dictionaries(
            st.tuples(*(st.integers(0, 4) for _ in range(r))),
            st.fractions(min_value=-50, max_value=50, max_denominator=30),
            max_size=8,
        )
    )
    coeffs = {e: c for e, c in coeffs.items() if c}
    return HilbertPolynomialRep(
        ring=ring, coefficients=coeffs, validity_threshold=(0,) * r
    )


@given(rep=polynomial_reps(), data=st.data())
def test_evaluate_matches_fraction_oracle(rep, data):
    nu = data.draw(st.tuples(*(st.integers(-6, 12) for _ in range(rep.ring.r))))
    value = rep.evaluate(nu)
    assert isinstance(value, Fraction)
    assert value == fraction_evaluate(rep, nu)


# ---------------------------------------------------------------------------
# Graded pieces


def test_piece_of_free_module():
    assert graded_piece_dim(Ideal(R, ()), (2, 3)) == 12


def test_piece_of_diagonal():
    assert graded_piece_dim(DIAGONAL, (1, 1)) == 3


def test_piece_of_irrelevant_ideal_vanishes_in_mixed_degrees():
    assert graded_piece_dim(nbar(), (1, 1)) == 0
    assert graded_piece_dim(nbar(), (2, 0)) == 3


def test_piece_respects_shift():
    shifted = Ideal(R, DIAGONAL.generators, (1, 1))
    assert graded_piece_dim(shifted, (2, 2)) == graded_piece_dim(
        DIAGONAL, (1, 1)
    )
    # below the shift nothing lives
    assert graded_piece_dim(shifted, (0, 0)) == 0


def test_piece_enumeration_guard():
    big = ring_blocks(tuple(f"v{i}" for i in range(10)))
    with pytest.raises(EnumerationGuardError):
        graded_piece_dim(Ideal(big, ()), (40,))


# ---------------------------------------------------------------------------
# Coarsened multiplicity


def test_coarsened_full_ring():
    assert coarsened_multiplicity(Ideal(R, ())) == 1


def test_coarsened_diagonal():
    assert coarsened_multiplicity(DIAGONAL) == 2


def test_coarsened_irrelevant_ideal():
    assert coarsened_multiplicity(nbar()) == 2


def test_coarsened_zero_ring():
    assert coarsened_multiplicity(mk(R, "1")) == 0


def test_coarsening_identity_on_examples():
    for J in (Ideal(R, ()), DIAGONAL, nbar(), mk(R, "x0*y0", "x0*y1")):
        assert coarsened_multiplicity(J) == mixed_mult_series(J).total()


# ---------------------------------------------------------------------------
# Property corpus: seeded random monomial ideals


CORPUS = [random_monomial_ideal(seed) for seed in range(8)]


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_extraction_invariants_hold(idx):
    # the extraction itself asserts vanishing below the codimension level,
    # nonnegativity and support bounds; reaching the table is the test
    J = CORPUS[idx]
    table = mixed_mult_series(J)
    d = quotient_dimension(J)
    assert table.dimension == d
    D = J.ring.block_sizes
    for n, v in table.entries.items():
        assert v > 0
        assert all(k >= -1 for k in n)
        assert sum(k + 1 for k in n) == d
        assert all(k + 1 <= Di for k, Di in zip(n, D))


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_shift_invariance(idx):
    J = CORPUS[idx]
    base = mixed_mult_series(J)
    for shift in ((1, 2), (3, 1), (2, 2)):
        shifted = mixed_mult_series(Ideal(J.ring, J.generators, shift))
        assert shifted.entries == base.entries
        assert shifted.dimension == base.dimension


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_pivot_independence(idx):
    J = CORPUS[idx]
    assert (
        k_polynomial(J, pivot_rule="default").numerator
        == k_polynomial(J, pivot_rule="antipodal").numerator
    )


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_corpus_polynomial_matches_pieces(idx):
    J = CORPUS[idx]
    poly = hilbert_polynomial(J)
    base = tuple(max(t, 0) for t in poly.validity_threshold)
    for da in range(4):
        for db in range(4):
            nu = (base[0] + da, base[1] + db)
            assert poly.evaluate_int(nu) == graded_piece_dim(J, nu)
