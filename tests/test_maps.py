"""Tests for rational maps: graphs, degree vectors, presentations, formulas."""

import math
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import mixedmult.groebner as gb
import mixedmult.maps as maps
from helpers import (
    CHAR,
    _det,
    _pf,
    assert_holds_its_basis,
    expansion_graph_check,
    in_ideal,
    minors_G_condition,
    per_generator_saturation,
    pp,
    rational_map,
    ring_blocks,
    submatrix,
    tuple_buchberger,
    tuple_graph_check,
    work_ring_rees_check,
)
from mixedmult.errors import InvariantViolation, PairBudgetExceeded, PresentationMismatch
from mixedmult.groebner import Ideal
from mixedmult.hilbert import graded_piece_dim
from mixedmult.maps import (
    PresentationMatrix,
    RationalMapSpec,
    SatFiberTable,
    _check_on_graph,
    _Expansion,
    _fitting_zero_set,
    check_G_condition,
    elementary_symmetric,
    fitting_ideal,
    formula_gorenstein_ht3,
    formula_perfect_ht2,
    ideal_height,
    maximal_minors,
    projective_degrees,
    random_alternating_matrix,
    rees_ideal,
    satfiber_d0_check,
    satfiber_dims,
    submaximal_pfaffians,
)
from mixedmult.multigraded import block_ideal
from mixedmult.prng import Prng
from mixedmult.rings import Polynomial, RingSpec, elimination_order, parse_polynomial


def identity_map() -> RationalMapSpec:
    return rational_map(("x0", "x1"), ("x0", "x1"))


def conic_map() -> RationalMapSpec:
    return rational_map(("x0", "x1"), ("x0^2", "x0*x1", "x1^2"))


def cubic_map() -> RationalMapSpec:
    return rational_map(("x0", "x1"), ("x0^3", "x0^2*x1", "x0*x1^2", "x1^3"))


def cremona_map() -> RationalMapSpec:
    return rational_map(("x0", "x1", "x2"), ("x1*x2", "x0*x2", "x0*x1"))


def cubic_cremona_map() -> RationalMapSpec:
    return rational_map(
        ("x0", "x1", "x2", "x3"),
        ("x1*x2*x3", "x0*x2*x3", "x0*x1*x3", "x0*x1*x2"),
    )


def cremona_matrix() -> PresentationMatrix:
    """The two-column presentation whose signed minors are the Cremona forms."""
    ring = ring_blocks(("x0", "x1", "x2"))
    x0, x1, x2 = (Polynomial.variable(ring, n) for n in ("x0", "x1", "x2"))
    zero = Polynomial.zero(ring)
    return PresentationMatrix(
        entries=((x0, zero), (-x1, x1), (zero, -x2)), kind="hilbert-burch"
    )


# ---------------------------------------------------------------------------
# Map construction and validation


def test_map_requires_single_block_source():
    ring = ring_blocks(("x0", "x1"), ("y0",))
    with pytest.raises(ValueError, match="single-block"):
        RationalMapSpec(ring, (pp(ring, "x0"), pp(ring, "x1")))


def test_map_requires_enough_forms():
    with pytest.raises(ValueError, match="at least as many forms"):
        rational_map(("x0", "x1", "x2"), ("x0", "x1"))


def test_map_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="mixed degrees"):
        rational_map(("x0", "x1"), ("x0", "x1^2", "x0*x1"))


def test_map_rejects_all_zero_forms():
    with pytest.raises(ValueError, match="must not all be zero"):
        rational_map(("x0", "x1"), ("0", "0"))


def test_map_rejects_constant_forms():
    with pytest.raises(ValueError, match="constant maps"):
        rational_map(("x0", "x1"), ("1", "2"))


def test_map_rejects_inhomogeneous_generator():
    with pytest.raises(ValueError, match="not homogeneous"):
        rational_map(("x0", "x1"), ("x0 + x0^2", "x1^2"))


def test_map_rejects_generator_from_other_ring():
    ring = ring_blocks(("x0", "x1"))
    other = ring_blocks(("x0", "x1", "x2"))
    with pytest.raises(ValueError, match="outside the source ring"):
        RationalMapSpec(ring, (pp(ring, "x0"), pp(other, "x1")))


def test_map_basic_properties():
    F = cremona_map()
    assert F.delta == 2
    assert F.d == 2
    assert F.n == 2
    assert cubic_map().delta == 3
    assert cubic_map().n == 3


def test_target_names_skip_colliding_bases():
    F = identity_map()
    assert F.graph_ring().blocks[-1] == ("y0", "y1")
    clash = rational_map(("y0", "y1"), ("y0", "y1"))
    assert clash.graph_ring().blocks[-1] == ("y2", "y3")


def test_target_names_follow_the_extended_ring_rule():
    """Targets are named as ``RingSpec.extended`` names new variables: one
    form gets ``y``, several get the free names among y0, y1, ..."""
    point = rational_map(("x0",), ("x0^2",))
    assert point.graph_ring().blocks == (("x0",), ("y",))
    mixed = rational_map(("y0", "x1"), ("y0", "x1", "y0+x1"))
    assert mixed.graph_ring().blocks[-1] == ("y1", "y2", "y3")
    assert projective_degrees(point).degrees == (1,)


def test_graph_ring_has_source_and_target_blocks():
    G = conic_map().graph_ring()
    assert G.blocks == (("x0", "x1"), ("y0", "y1", "y2"))
    assert G.characteristic == CHAR


# ---------------------------------------------------------------------------
# Rees ideals of graphs


def test_rees_ideal_of_identity_is_diagonal():
    J = rees_ideal(identity_map())
    G = J.ring
    assert J.same_ideal(Ideal(G, (parse_polynomial("x0*y1 - x1*y0", G),)))


def test_rees_ideal_of_conic():
    J = rees_ideal(conic_map())
    G = J.ring
    expected = Ideal(
        G,
        tuple(
            parse_polynomial(s, G)
            for s in ("y0*y2 - y1^2", "x0*y1 - x1*y0", "x0*y2 - x1*y1")
        ),
    )
    assert J.same_ideal(expected)


def test_rees_ideal_of_cremona_contains_known_binomials():
    J = rees_ideal(cremona_map())
    G = J.ring
    assert in_ideal(parse_polynomial("x0*y0 - x1*y1", G), J)
    assert in_ideal(parse_polynomial("x1*y1 - x2*y2", G), J)


def test_rees_ideal_generators_are_bihomogeneous():
    for g in rees_ideal(cremona_map()).generators:
        assert g.multidegree() is not None


def pfaffian_map() -> RationalMapSpec:
    ring = ring_blocks(tuple(f"x{i}" for i in range(4)))
    M = random_alternating_matrix(ring, 5, 3)
    return RationalMapSpec(ring, tuple(submaximal_pfaffians(M)))


REES_MAPS = {"cremona": cremona_map, "conic": conic_map, "pfaffian": pfaffian_map}


@cache
def rees_case(name: str):
    F = REES_MAPS[name]()
    return F, rees_ideal(F).generators


@pytest.mark.parametrize("name", sorted(REES_MAPS))
def test_rees_check_passes_like_work_ring_oracle(name):
    F, gens = rees_case(name)
    assert gens
    work_ring_rees_check(F, gens)
    _check_on_graph(F, gens)


def test_rees_check_splits_by_y_degree():
    """y0 - x0 vanishes at y = f for the identity map but not at y = t*f:
    its parts of y-degree 1 and 0 must vanish separately."""
    F = identity_map()
    g = parse_polynomial("y0 - x0", F.graph_ring())
    with pytest.raises(InvariantViolation, match="does not vanish"):
        work_ring_rees_check(F, (g,))
    with pytest.raises(InvariantViolation, match="does not vanish"):
        _check_on_graph(F, (g,))


@given(
    name=st.sampled_from(sorted(REES_MAPS)),
    data=st.data(),
    coeff=st.integers(1, CHAR - 1),
)
def test_rees_check_rejects_y_monomial_like_work_ring_oracle(name, data, coeff):
    """A Rees generator plus c*y^e (e != 0) no longer vanishes on the graph:
    its part of y-degree |e| picks up c*f^e.  Both checks must say so."""
    F, gens = rees_case(name)
    g = data.draw(st.sampled_from(gens))
    nx, ny = F.source_ring.nvars, len(F.generators)
    e = data.draw(
        st.tuples(*(st.integers(0, 2) for _ in range(ny))).filter(any)
    )
    bad = g + Polynomial(g.ring, (((0,) * nx + e, coeff),))
    with pytest.raises(InvariantViolation, match="does not vanish"):
        work_ring_rees_check(F, (bad,))
    with pytest.raises(InvariantViolation, match="does not vanish"):
        _check_on_graph(F, gens[:1] + (bad,))


REES_CHECKS = (_check_on_graph, tuple_graph_check, work_ring_rees_check)


def rees_verdicts(F, gens) -> list[bool]:
    """Whether each of the packed, tuple and work-ring checks accepts gens."""
    verdicts = []
    for check in REES_CHECKS:
        try:
            check(F, gens)
        except InvariantViolation:
            verdicts.append(False)
        else:
            verdicts.append(True)
    return verdicts


@given(
    name=st.sampled_from(sorted(REES_MAPS)),
    data=st.data(),
    coeffs=st.lists(st.integers(1, CHAR - 1), min_size=1, max_size=3),
)
def test_rees_check_agrees_with_tuple_and_work_ring_oracles(name, data, coeffs):
    """A Rees generator plus terms c*x^a*y^e with a != 0, in one or several
    y-degrees: the packed check, the tuple check and the work-ring check
    all give one verdict, and a single such term is always rejected (its
    image c*x^a*f^e in y-degree |e| has nothing to cancel against)."""
    F, gens = rees_case(name)
    g = data.draw(st.sampled_from(gens))
    nx, ny = F.source_ring.nvars, len(F.generators)
    xs = st.tuples(*(st.integers(0, 2) for _ in range(nx))).filter(any)
    ys = st.tuples(*(st.integers(0, 2) for _ in range(ny)))
    bad = g + Polynomial(
        g.ring, ((data.draw(xs) + data.draw(ys), c) for c in coeffs)
    )
    verdicts = rees_verdicts(F, gens[:1] + (bad,))
    assert len(set(verdicts)) == 1
    if len(coeffs) == 1:
        assert verdicts == [False] * 3
    assert rees_verdicts(F, gens) == [True] * 3


@pytest.mark.parametrize(
    "extra, accepted",
    [
        # images x0^3 in y-degree 1 and -x0^3 in y-degree 0
        ("x0^2*y0 - x0^3", False),
        # images x0^3 in y-degree 2 and -x0^3 in y-degree 1
        ("x0*y0^2 - x0^2*y0", False),
        # x0*g + x0*y0*g for the generator g = x0*y1 - x1*y0
        ("x0^2*y1 - x0*x1*y0 + x0^2*y0*y1 - x0*x1*y0^2", True),
    ],
)
def test_rees_check_perturbations_across_y_degrees(extra, accepted):
    """Terms c*x^a*y^e with a != 0 in several y-degrees, added to the Rees
    generator of the identity map: images that cancel only across
    y-degrees are rejected, a multiple of the generator is accepted, and
    all three checks agree."""
    F = identity_map()
    gens = rees_ideal(F).generators
    bad = gens[0] + parse_polynomial(extra, F.graph_ring())
    assert rees_verdicts(F, (bad,)) == [accepted] * 3


def test_rees_check_holds_products_past_sixteen_bit_fields():
    """F = (x0^20000, x1^20000): the products x^a*f^e have degree 40000,
    past the fields of 16 bits, so the packed check widens its fields."""
    F = rational_map(("x0", "x1"), ("x0^20000", "x1^20000"))
    J = rees_ideal(F)
    assert [str(g) for g in J.generators] == ["x1^20000*y0 - x0^20000*y1"]
    assert rees_verdicts(F, J.generators) == [True] * 3
    assert projective_degrees(F).degrees == (20000, 1)
    bad = J.generators[0] + parse_polynomial("5*x0^20000*y0", J.ring)
    assert rees_verdicts(F, (bad,)) == [False] * 3


def test_rees_check_widens_for_the_map_degree():
    """F = (x0^65536, x1^65536, x2^65536): the field width must hold
    deg_x + delta*deg_y, not a fixed 16 bits nor deg_x + deg_y.  At 16-bit
    fields x0^65536*x2 and x1^65537 pack to the same value, so the images
    of x2*y0 - x1*y1 would cancel."""
    F = rational_map(("x0", "x1", "x2"), ("x0^65536", "x1^65536", "x2^65536"))
    graph = F.graph_ring()
    _check_on_graph(F, [parse_polynomial("x1^65536*y0 - x0^65536*y1", graph)])
    with pytest.raises(InvariantViolation):
        _check_on_graph(F, [parse_polynomial("x2*y0 - x1*y1", graph)])


# ---------------------------------------------------------------------------
# Hilbert-driven Rees elimination and the Horner Rees check


def conics_through_a_point() -> RationalMapSpec:
    return rational_map(
        ("x0", "x1", "x2"), ("x0^2", "x0*x1", "x0*x2", "x1*x2", "x2^2")
    )


@st.composite
def drawn_maps(draw) -> RationalMapSpec:
    """Maps of P^1, P^2 or P^3 by forms of degree 1 to 3 with at most two
    terms each: some forms are zero, and sparse forms give base points (a
    form list that is all zero is redrawn)."""
    nvars = draw(st.integers(2, 4))
    delta = draw(st.integers(1, 3))
    ring = ring_blocks(tuple(f"x{i}" for i in range(nvars)))
    monomials = sorted(
        tuple(c.count(i) for i in range(nvars))
        for c in combinations_with_replacement(range(nvars), delta)
    )
    term = st.tuples(st.sampled_from(monomials), st.integers(1, CHAR - 1))
    form = st.lists(term, max_size=2, unique_by=lambda t: t[0])
    forms = draw(
        st.lists(form, min_size=nvars, max_size=nvars + 1).filter(lambda fs: any(fs))
    )
    return RationalMapSpec(ring, tuple(Polynomial(ring, f) for f in forms))


def rees_run(F: RationalMapSpec, hint="graph", budget=gb.DEFAULT_PAIR_BUDGET):
    """The elimination run of ``rees_ideal`` on F: with the map's own
    Hilbert-series hint, with the given one, or with none."""
    work, gens, own = maps._graph_input(F)
    order = elimination_order(work, work.variables[-1:])
    return gb._buchberger(
        work, frozenset(gens), order, budget, own if hint == "graph" else hint
    )


# The tuple oracle takes about 60 ms an example here, so the deep profile
# runs 400 of them, not 1000, to keep CI's deep-fuzz step within its aim.
@settings(max_examples=min(settings().max_examples, 400))
@given(F=drawn_maps())
@example(F=cremona_map())
@example(F=conics_through_a_point())
@example(F=cubic_cremona_map())
def test_hinted_rees_run_matches_unhinted_and_tuple_oracle(F):
    """The Hilbert-driven run skips pairs but returns exactly the reduced
    basis of the unhinted run and of the tuple oracle."""
    work, gens, _ = maps._graph_input(F)
    order = elimination_order(work, work.variables[-1:])
    oracle = tuple_buchberger(work, gens, order, gb.DEFAULT_PAIR_BUDGET)
    for G in (rees_run(F), rees_run(F, hint=None)):
        assert G.elements == oracle.elements
        assert G.leading_exps == oracle.leading_exps


def accepts(check, F, gens) -> bool:
    try:
        check(F, gens)
    except InvariantViolation:
        return False
    return True


@given(F=drawn_maps(), data=st.data())
@example(F=cremona_map(), data=None)
@example(F=conics_through_a_point(), data=None)
def test_horner_rees_check_matches_expansion_oracle(F, data):
    """The Horner check and the full expansion accept the true Rees
    generators, and give one verdict on a generator with one coefficient
    changed (a term of a zero form's y_i still vanishes, so the verdict can
    be either)."""
    gens = rees_ideal(F).generators
    assert accepts(_check_on_graph, F, gens)
    assert accepts(expansion_graph_check, F, gens)
    if data is None:
        cases = [(g, e, 1) for g in gens for e, _ in g.terms]
    else:
        g = data.draw(st.sampled_from(gens))
        e, _ = data.draw(st.sampled_from(g.terms))
        cases = [(g, e, data.draw(st.integers(1, CHAR - 1)))]
    for g, e, step in cases:
        bad = g + Polynomial(g.ring, ((e, step),))
        assert accepts(_check_on_graph, F, (bad,)) == accepts(
            expansion_graph_check, F, (bad,)
        )


@pytest.mark.parametrize("name", sorted(REES_MAPS))
def test_hint_off_by_one_coefficient_raises(name):
    """A planted fault: a hint numerator one coefficient off, at any degree
    up to one past its last, never yields a basis."""
    F = REES_MAPS[name]()
    _, _, (weights, numerator) = maps._graph_input(F)
    for k in range(len(numerator) + 1):
        for step in (1, -1):
            bad = list(numerator) + [0]
            bad[k] += step
            while not bad[-1]:
                bad.pop()
            with pytest.raises(InvariantViolation):
                rees_run(F, hint=(weights, tuple(bad)))


def test_rees_budget_counts_skipped_pairs(monkeypatch):
    """A skipped pair still leaves the queue, so it counts against the pair
    budget: the Cremona run processes more pairs than it reduces, and every
    smaller budget raises PairBudgetExceeded with the usual stats."""
    F = cremona_map()
    _, gens, _ = maps._graph_input(F)
    sugars = []  # the sugar of every _reduce call: None in the final pass
    reduce = gb._reduce

    def counting(*args, **kwargs):
        sugars.append(kwargs.get("sugar"))
        return reduce(*args, **kwargs)

    monkeypatch.setattr(gb, "_reduce", counting)
    gb._buchberger.cache_clear()
    rees_run(F)
    reduced_pairs = sum(s is not None for s in sugars) - len(gens)
    budget = 1
    while True:
        try:
            rees_run(F, budget=budget)
        except PairBudgetExceeded as exc:
            assert set(exc.stats) == {
                "pairs_processed", "basis_size", "pairs_remaining", "budget"
            }
            assert (exc.stats["pairs_processed"], exc.stats["budget"]) == (
                budget + 1, budget
            )
            budget += 1
        else:
            break
    assert budget > reduced_pairs


HELD_BASIS_MAPS = dict(REES_MAPS, twisted_cubic=cubic_map)


@pytest.mark.parametrize("name", sorted(HELD_BASIS_MAPS))
def test_rees_ideal_holds_its_reduced_basis(name):
    assert_holds_its_basis(rees_ideal(HELD_BASIS_MAPS[name]()))


@pytest.mark.parametrize("name", sorted(HELD_BASIS_MAPS))
def test_elimination_degrees_run_one_buchberger(name):
    """The Rees elimination is the only Groebner run: the Hilbert polynomial
    reads the degrevlex basis the Rees ideal holds."""
    F = HELD_BASIS_MAPS[name]()
    gb._buchberger.cache_clear()
    projective_degrees(F, "elimination")
    assert gb._buchberger.cache_info().misses == 1


# ---------------------------------------------------------------------------
# Projective degree vectors


def test_projective_degrees_elimination_examples():
    assert projective_degrees(cremona_map()).degrees == (1, 2, 1)
    assert projective_degrees(cubic_map()).degrees == (3, 1)
    assert projective_degrees(identity_map()).degrees == (1, 1)


def test_rees_helper_avoids_source_names_t_s_tt():
    F = rational_map(("t", "s", "tt"), ("s*tt", "t*tt", "t*s"))
    assert rees_ideal(F).ring.variables == ("t", "s", "tt", "y0", "y1", "y2")
    assert projective_degrees(F).degrees == (1, 2, 1)


def test_projective_degrees_slicing_matches_elimination():
    got = projective_degrees(cremona_map(), "slicing", seed=3, trials=6)
    assert got.degrees == (1, 2, 1)
    assert got.method == "slicing"


def test_projective_degrees_formula_route_hilbert_burch():
    got = projective_degrees(cremona_map(), "formula", matrix=cremona_matrix())
    assert got.degrees == (1, 2, 1)
    assert got.method == "formula"


def test_projective_degrees_formula_route_alternating():
    ring = ring_blocks(("x0", "x1", "x2", "x3", "x4"))
    M = random_alternating_matrix(ring, 5, 11)
    F = RationalMapSpec(ring, tuple(submaximal_pfaffians(M)))
    got = projective_degrees(F, "formula", matrix=M)
    assert got.degrees == (1, 3, 4, 2, 1)


def test_projective_degrees_formula_needs_matrix():
    with pytest.raises(ValueError, match="needs a presentation matrix"):
        projective_degrees(identity_map(), "formula")


def test_projective_degrees_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        projective_degrees(identity_map(), "bogus")


@pytest.mark.parametrize(
    "factory", [identity_map, conic_map, cubic_map, cremona_map]
)
def test_degree_vector_tail_is_powers_of_delta(factory):
    """d_i = delta^(d-i) once i exceeds d minus the base-ideal height,
    and in particular d_d = 1."""
    F = factory()
    degrees = projective_degrees(F).degrees
    c = ideal_height(Ideal(F.source_ring, F.generators))
    for i in range(max(0, F.d - c + 1), F.d + 1):
        assert degrees[i] == F.delta ** (F.d - i)
    assert degrees[F.d] == 1


# ---------------------------------------------------------------------------
# Minors from the shared expansion and signed maximal minors


def test_determinant_generic_two_by_two():
    ring = ring_blocks(("a", "b", "c", "d"))
    a, b, c, d = (Polynomial.variable(ring, n) for n in "abcd")
    assert _Expansion(((a, b), (c, d))).minor((0, 1), (0, 1)) == a * d - b * c


def test_maximal_minors_signs_reproduce_cremona_forms():
    ring = cremona_matrix().ring
    assert maximal_minors(cremona_matrix()) == [
        pp(ring, "x1*x2"),
        pp(ring, "x0*x2"),
        pp(ring, "x0*x1"),
    ]


def test_maximal_minors_with_zero_row():
    ring = ring_blocks(("a", "b", "c", "d"))
    a, b, c, d = (Polynomial.variable(ring, n) for n in "abcd")
    zero = Polynomial.zero(ring)
    M = PresentationMatrix(
        entries=((a, b), (c, d), (zero, zero)), kind="hilbert-burch"
    )
    minors = maximal_minors(M)
    assert minors[0].is_zero() and minors[1].is_zero()
    assert minors[2] == a * d - b * c


def test_maximal_minors_reject_alternating_kind():
    ring = ring_blocks(("x0", "x1", "x2"))
    M = random_alternating_matrix(ring, 3, 0)
    with pytest.raises(ValueError, match="hilbert-burch"):
        maximal_minors(M)


# ---------------------------------------------------------------------------
# Pfaffians


def test_pfaffian_two_by_two():
    ring = ring_blocks(("a",))
    a = pp(ring, "a")
    zero = Polynomial.zero(ring)
    assert _Expansion(((zero, a), (-a, zero))).pfaffian((0, 1)) == a


def _generic_alternating_four():
    names = ("a12", "a13", "a14", "a23", "a24", "a34")
    ring = ring_blocks(names)
    a12, a13, a14, a23, a24, a34 = (
        Polynomial.variable(ring, n) for n in names
    )
    zero = Polynomial.zero(ring)
    rows = (
        (zero, a12, a13, a14),
        (-a12, zero, a23, a24),
        (-a13, -a23, zero, a34),
        (-a14, -a24, -a34, zero),
    )
    return rows, (a12, a13, a14, a23, a24, a34)


def test_pfaffian_generic_four_by_four():
    rows, (a12, a13, a14, a23, a24, a34) = _generic_alternating_four()
    assert _Expansion(rows).pfaffian((0, 1, 2, 3)) == (
        a12 * a34 - a13 * a24 + a14 * a23
    )


def test_pfaffian_squares_to_determinant():
    """Pf(S)^2 is the principal minor on S, for every even index set S."""
    rows, _ = _generic_alternating_four()
    E = _Expansion(rows)
    for size in (2, 4):
        for keep in combinations(range(4), size):
            pf = E.pfaffian(keep)
            assert pf * pf == E.minor(keep, keep)


@st.composite
def hilbert_burch_matrices(draw) -> PresentationMatrix:
    """(w+1) x w Hilbert-Burch matrices, w = 2..4, in 2 or 3 variables,
    each column of one degree 0-2; about one entry in three is zero, but
    entry (j, j) never is, so every column has a degree."""
    w = draw(st.integers(2, 4))
    nvars = draw(st.integers(2, 3))
    ring = ring_blocks(tuple(f"x{i}" for i in range(nvars)))
    zero = Polynomial.zero(ring)
    rows = [[zero] * w for _ in range(w + 1)]
    for j in range(w):
        deg = draw(st.integers(0, 2))
        monos = [e for e in product(range(deg + 1), repeat=nvars) if sum(e) == deg]
        for i in range(w + 1):
            if i != j and draw(st.integers(0, 2)) == 0:
                continue
            coeffs = draw(
                st.lists(
                    st.integers(1, CHAR - 1),
                    min_size=len(monos),
                    max_size=len(monos),
                )
            )
            rows[i][j] = Polynomial(ring, zip(monos, coeffs))
    return PresentationMatrix(
        entries=tuple(tuple(r) for r in rows), kind="hilbert-burch"
    )


@given(M=hilbert_burch_matrices())
def test_expansion_minors_match_laplace_oracle(M):
    """Every minor of every size from the shared expansion equals the
    from-scratch Laplace expansion, and ``fitting_ideal`` lists the nonzero
    ones in row-subset x column-subset ``combinations`` order."""
    rows, ring = M.entries, M.ring
    m, w = len(rows), len(rows[0])
    E = _Expansion(rows)
    for k in range(1, w + 1):
        sels = [
            (r, c) for r in combinations(range(m), k) for c in combinations(range(w), k)
        ]
        oracle = [_det(submatrix(rows, r, c), ring) for r, c in sels]
        assert [E.minor(r, c) for r, c in sels] == oracle
        assert fitting_ideal(M, m - k) == Ideal(ring, oracle)


# ---------------------------------------------------------------------------
# Alternating presentations and their submaximal pfaffians


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_submaximal_pfaffians_form_a_syzygy(seed):
    """The signed pfaffian vector lies in the kernel of the matrix."""
    ring = ring_blocks(("x0", "x1", "x2"))
    M = random_alternating_matrix(ring, 5, seed)
    v = submaximal_pfaffians(M)
    assert len(v) == 5
    for p in v:
        assert not p.is_zero()
        assert p.multidegree() == (2,)
    for i in range(5):
        acc = Polynomial.zero(ring)
        for j in range(5):
            acc = acc + M.entries[i][j] * v[j]
        assert acc.is_zero()


def test_submaximal_pfaffians_reject_hilbert_burch_kind():
    with pytest.raises(ValueError, match="alternating"):
        submaximal_pfaffians(cremona_matrix())


def test_random_alternating_matrix_is_deterministic():
    ring = ring_blocks(("x0", "x1", "x2"))
    M1 = random_alternating_matrix(ring, 5, 7)
    M2 = random_alternating_matrix(ring, 5, Prng(7))
    assert M1.entries == M2.entries
    assert M1.entries != random_alternating_matrix(ring, 5, 8).entries


def test_random_alternating_matrix_structure():
    ring = ring_blocks(("x0", "x1", "x2"))
    M = random_alternating_matrix(ring, 3, 2)
    assert M.kind == "alternating"
    assert len(M.entries) == 3 and all(len(row) == 3 for row in M.entries)
    assert M.entry_degree == 1


def test_random_alternating_matrix_even_size_fails_validation():
    ring = ring_blocks(("x0", "x1", "x2"))
    with pytest.raises(ValueError, match="odd size"):
        random_alternating_matrix(ring, 4, 0)


# ---------------------------------------------------------------------------
# Presentation matrix validation


def test_presentation_rejects_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        PresentationMatrix(entries=(), kind="hilbert-burch")


def test_presentation_rejects_ragged_rows():
    ring = ring_blocks(("a",))
    a = pp(ring, "a")
    with pytest.raises(ValueError, match="ragged"):
        PresentationMatrix(entries=((a, a), (a,)), kind="hilbert-burch")


def test_presentation_rejects_mixed_rings():
    r1 = ring_blocks(("a",))
    r2 = ring_blocks(("b",))
    with pytest.raises(ValueError, match="mixed rings"):
        PresentationMatrix(
            entries=((pp(r1, "a"),), (pp(r2, "b"),)), kind="hilbert-burch"
        )


def test_hilbert_burch_shape_enforced():
    ring = ring_blocks(("a",))
    a = pp(ring, "a")
    with pytest.raises(ValueError, match=r"\(n\+1\) x n"):
        PresentationMatrix(entries=((a, a), (a, a)), kind="hilbert-burch")


def test_hilbert_burch_columns_must_be_homogeneous():
    ring = ring_blocks(("x0", "x1"))
    x0 = pp(ring, "x0")
    sq = pp(ring, "x0^2")
    mixed = pp(ring, "x0 + x0^2")
    with pytest.raises(ValueError, match="column 0 is not homogeneous"):
        PresentationMatrix(entries=((x0,), (sq,)), kind="hilbert-burch")
    with pytest.raises(ValueError, match="column 0 is not homogeneous"):
        PresentationMatrix(entries=((mixed,), (x0,)), kind="hilbert-burch")


def test_hilbert_burch_column_degrees():
    assert cremona_matrix().column_degrees == (1, 1)


def test_alternating_must_be_square_and_odd():
    ring = ring_blocks(("a",))
    a = pp(ring, "a")
    zero = Polynomial.zero(ring)
    with pytest.raises(ValueError, match="square"):
        PresentationMatrix(entries=((zero, a),), kind="alternating")
    with pytest.raises(ValueError, match="odd size"):
        PresentationMatrix(entries=((zero, a), (-a, zero)), kind="alternating")


def test_alternating_needs_zero_diagonal():
    ring = ring_blocks(("x0", "x1", "x2"))
    x0, x1, x2 = (Polynomial.variable(ring, n) for n in ("x0", "x1", "x2"))
    zero = Polynomial.zero(ring)
    with pytest.raises(ValueError, match="zero diagonal"):
        PresentationMatrix(
            entries=((x0, x0, x1), (-x0, zero, x2), (-x1, -x2, zero)),
            kind="alternating",
        )


def test_alternating_needs_opposite_entries():
    ring = ring_blocks(("x0", "x1", "x2"))
    x0, x1, x2 = (Polynomial.variable(ring, n) for n in ("x0", "x1", "x2"))
    zero = Polynomial.zero(ring)
    with pytest.raises(ValueError, match="not opposite"):
        PresentationMatrix(
            entries=((zero, x0, x1), (x0, zero, x2), (-x1, -x2, zero)),
            kind="alternating",
        )


def test_alternating_rejects_inhomogeneous_entry():
    ring = ring_blocks(("x0", "x1", "x2"))
    h = pp(ring, "x0 + x0^2")
    zero = Polynomial.zero(ring)
    with pytest.raises(ValueError, match=r"\(0,1\) is not homogeneous"):
        PresentationMatrix(
            entries=((zero, h, zero), (-h, zero, zero), (zero, zero, zero)),
            kind="alternating",
        )


def test_alternating_rejects_mixed_entry_degrees():
    ring = ring_blocks(("x0", "x1", "x2"))
    x0, x2 = pp(ring, "x0"), pp(ring, "x2")
    q = pp(ring, "x1*x2")
    zero = Polynomial.zero(ring)
    with pytest.raises(ValueError, match="mixed entry degrees"):
        PresentationMatrix(
            entries=((zero, x0, q), (-x0, zero, x2), (-q, -x2, zero)),
            kind="alternating",
        )


def test_alternating_all_zero_has_entry_degree_zero():
    ring = ring_blocks(("x0",))
    zero = Polynomial.zero(ring)
    M = PresentationMatrix(
        entries=tuple(tuple(zero for _ in range(3)) for _ in range(3)),
        kind="alternating",
    )
    assert M.entry_degree == 0


def test_unknown_presentation_kind():
    ring = ring_blocks(("a",))
    with pytest.raises(ValueError, match="unknown presentation kind"):
        PresentationMatrix(entries=((pp(ring, "a"),),), kind="koszul")


def test_wrong_kind_property_access():
    ring = ring_blocks(("x0", "x1", "x2"))
    alt = random_alternating_matrix(ring, 3, 0)
    with pytest.raises(ValueError, match="column degrees"):
        alt.column_degrees
    with pytest.raises(ValueError, match="entry degree"):
        cremona_matrix().entry_degree


def test_presentation_shape_and_ring():
    M = cremona_matrix()
    assert len(M.entries) == 3 and all(len(row) == 2 for row in M.entries)
    assert M.ring.variables == ("x0", "x1", "x2")


# ---------------------------------------------------------------------------
# Fitting ideals, heights, and the G condition


def test_fitting_ideal_heights_of_cremona_presentation():
    M = cremona_matrix()
    assert ideal_height(fitting_ideal(M, 1)) == 2
    assert ideal_height(fitting_ideal(M, 2)) == 3
    assert fitting_ideal(M, 3).is_unit_ideal()
    assert fitting_ideal(M, 0).generators == ()


def test_fitting_ideal_one_is_the_base_ideal():
    M = cremona_matrix()
    base = Ideal(M.ring, tuple(maximal_minors(M)))
    assert fitting_ideal(M, 1).same_ideal(base)


def test_ideal_height_examples():
    ring = ring_blocks(("x0", "x1", "x2"))
    assert ideal_height(Ideal(ring, (pp(ring, "x0"),))) == 1
    assert ideal_height(Ideal(ring, (pp(ring, "x0"), pp(ring, "x1")))) == 2


def test_check_g_cremona():
    M = cremona_matrix()
    assert check_G_condition(cremona_map(), M, 3) is True
    assert check_G_condition(cremona_map(), M, 1) is True


@pytest.mark.parametrize("s", [5, 10])
def test_check_g_passes_unit_fitting_ideals(s):
    """Fitt_i of the Cremona presentation is the unit ideal for i >= 3: its
    zero set is empty, so its height is infinite and G_s holds for every s,
    in the library and in the minors oracle alike."""
    M = cremona_matrix()
    assert fitting_ideal(M, 3).is_unit_ideal()
    assert check_G_condition(cremona_map(), M, s) is True
    assert minors_G_condition(M, s) is True


def test_check_g_on_plain_generator_sequence():
    """Three quadrics in four variables: the height bound fails at i = 2."""
    ring = ring_blocks(("x0", "x1", "x2", "x3"))
    x0, x1 = pp(ring, "x0"), pp(ring, "x1")
    zero = Polynomial.zero(ring)
    M = PresentationMatrix(
        entries=((x1, zero), (-x0, x1), (zero, -x0)), kind="hilbert-burch"
    )
    gens = (x0 * x0, x0 * x1, x1 * x1)
    assert check_G_condition(gens, M, 2) is True
    assert check_G_condition(gens, M, 3) is False
    assert check_G_condition(gens, M, 4) is False


def test_check_g_accepts_scalar_rescaled_generators():
    ring = cremona_matrix().ring
    gens = (
        pp(ring, "5*x1*x2"),
        pp(ring, "-x0*x2"),
        pp(ring, "17*x0*x1"),
    )
    assert check_G_condition(gens, cremona_matrix(), 3) is True


def test_check_g_rejects_permuted_generators():
    perm = rational_map(("x0", "x1", "x2"), ("x0*x2", "x1*x2", "x0*x1"))
    with pytest.raises(PresentationMismatch, match="not a scalar multiple"):
        check_G_condition(perm, cremona_matrix(), 3)


def test_check_g_rejects_wrong_ring():
    with pytest.raises(PresentationMismatch, match="ring differs"):
        check_G_condition(conic_map(), cremona_matrix(), 2)


def test_check_g_rejects_wrong_generator_count():
    with pytest.raises(PresentationMismatch, match="presents 3 forms"):
        check_G_condition(cubic_map(), cremona_matrix(), 2)


def test_check_g_rejects_empty_sequence():
    with pytest.raises(ValueError, match="no generators"):
        check_G_condition((), cremona_matrix(), 2)


@st.composite
def alternating_matrices(draw, sizes=(5, 3)) -> PresentationMatrix:
    """Alternating matrices of linear forms in 2-5 variables, of a size
    drawn from ``sizes`` (3x3 or 5x5 by default).

    Many are sparse on purpose: the entries use only the first ``used``
    variables and about one entry in three is zero, so low Fitting heights
    (G failing) are common.  A 5x5 matrix whose entries involve 4-5
    variables makes the minors oracle slow, so those come only from the
    explicit examples."""
    size = draw(st.sampled_from(sizes))
    nvars = draw(st.sampled_from((5, 4, 3, 2)))
    most = nvars if size == 3 else min(nvars, 3)
    sparse = most < nvars or draw(st.booleans())
    used = draw(st.integers(1, most)) if sparse else nvars
    ring = ring_blocks(tuple(f"x{i}" for i in range(nvars)))
    zero = Polynomial.zero(ring)
    rows = [[zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if sparse and draw(st.integers(0, 2)) == 0:
                continue
            coeffs = draw(
                st.lists(st.integers(1, CHAR - 1), min_size=used, max_size=used)
            )
            h = Polynomial(
                ring,
                (
                    (tuple(int(k == v) for k in range(nvars)), c)
                    for v, c in enumerate(coeffs)
                ),
            )
            rows[i][j], rows[j][i] = h, -h
    return PresentationMatrix(
        entries=tuple(tuple(r) for r in rows), kind="alternating"
    )


def generic_alternating(nvars: int, size: int) -> PresentationMatrix:
    ring = ring_blocks(tuple(f"x{i}" for i in range(nvars)))
    return random_alternating_matrix(ring, size, nvars)


@given(M=alternating_matrices(sizes=(7, 5, 3)))
def test_expansion_pfaffians_match_laplace_oracle(M):
    """Every principal pfaffian of an odd alternating matrix from the
    shared expansion equals the from-scratch Laplace expansion (zero on
    index sets of odd size)."""
    rows, ring = M.entries, M.ring
    m = len(rows)
    E = _Expansion(rows)
    for size in range(1, m + 1):
        for keep in combinations(range(m), size):
            assert E.pfaffian(keep) == _pf(submatrix(rows, keep, keep), ring)


@given(M=alternating_matrices())
@example(M=generic_alternating(4, 5))
@example(M=generic_alternating(5, 5))
@example(M=generic_alternating(3, 3))
def test_pfaffian_heights_match_minor_oracle(M):
    """Each ht Fitt_i read from a pfaffian ideal equals the height of the
    ideal of minors, and the G_s verdict matches for every s."""
    gens = submaximal_pfaffians(M)
    m = len(M.entries)
    E = _Expansion(M.entries)
    for i in range(1, m + 1):
        J = _fitting_zero_set(M, E, i)
        assert ideal_height(J) == ideal_height(fitting_ideal(M, i))
    for s in range(1, m + 2):
        assert check_G_condition(gens, M, s) == minors_G_condition(M, s)


def test_check_g_stretch_map():
    """The 7x7 pfaffian map P^4 -> P^6 satisfies G_5 (= G_{d+1}), with
    Fitting heights 3, 3, 5, 5 for i = 1..4."""
    ring = ring_blocks(tuple(f"x{i}" for i in range(5)))
    M = random_alternating_matrix(ring, 7, 1)
    gens = submaximal_pfaffians(M)
    F = RationalMapSpec(ring, tuple(gens))
    assert (F.d, F.n) == (4, 6)
    assert check_G_condition(F, M, 5) is True
    E = _Expansion(M.entries)
    heights = tuple(ideal_height(_fitting_zero_set(M, E, i)) for i in range(1, 5))
    assert heights == (3, 3, 5, 5)


# ---------------------------------------------------------------------------
# Closed degree formulas


def test_elementary_symmetric_values():
    assert elementary_symmetric(()) == [1]
    assert elementary_symmetric((1, 1)) == [1, 2, 1]
    assert elementary_symmetric((1, 2)) == [1, 3, 2]
    assert elementary_symmetric((2, 3, 5)) == [1, 10, 31, 30]


def test_formula_perfect_ht2_examples():
    assert formula_perfect_ht2(2, (1, 1)).degrees == (1, 2, 1)
    assert formula_perfect_ht2(1, (3,)).degrees == (3, 1)
    assert formula_perfect_ht2(2, (1, 2)).degrees == (2, 3, 1)


def test_formula_perfect_ht2_pads_with_zeros():
    assert formula_perfect_ht2(3, (1, 1)).degrees == (0, 1, 2, 1)


def test_formula_perfect_ht2_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        formula_perfect_ht2(-1, (1,))
    with pytest.raises(ValueError, match="positive integers"):
        formula_perfect_ht2(2, (1, 0))
    with pytest.raises(ValueError, match="positive integers"):
        formula_perfect_ht2(2, (1, "2"))


def test_formula_perfect_ht2_matches_elimination():
    M = cremona_matrix()
    assert (
        formula_perfect_ht2(2, M.column_degrees).degrees
        == projective_degrees(cremona_map()).degrees
    )
    assert formula_perfect_ht2(1, (1, 1)).degrees == projective_degrees(
        conic_map()
    ).degrees


def test_formula_gorenstein_ht3_examples():
    assert formula_gorenstein_ht3(3, 4, 1, 2).degrees == (3, 4, 2, 1)
    assert formula_gorenstein_ht3(4, 4, 1, 2).degrees == (1, 3, 4, 2, 1)
    assert formula_gorenstein_ht3(3, 6, 1, 3).degrees == (13, 9, 3, 1)


def test_formula_gorenstein_ht3_validation():
    with pytest.raises(ValueError, match="d must be positive"):
        formula_gorenstein_ht3(0, 4, 1, 2)
    with pytest.raises(ValueError, match=r"n\+1 odd"):
        formula_gorenstein_ht3(3, 5, 1, 2)
    with pytest.raises(ValueError, match="entry degree"):
        formula_gorenstein_ht3(3, 4, 0, 2)
    with pytest.raises(ValueError, match="inconsistent"):
        formula_gorenstein_ht3(3, 4, 1, 3)


# ---------------------------------------------------------------------------
# Saturated fiber dimensions


def test_satfiber_dims_cremona():
    table = satfiber_dims(cremona_map(), 4)
    assert table.dims == (1, 3, 6, 10, 15)
    assert table.difference_profile == ((2, 3, 4, 5), (1, 1, 1))


def test_satfiber_dims_identity_and_cubic():
    assert satfiber_dims(identity_map(), 4).dims == (1, 2, 3, 4, 5)
    assert satfiber_dims(cubic_map(), 4).dims == (1, 4, 7, 10, 13)


@st.composite
def small_maps(draw) -> RationalMapSpec:
    """Maps of P^1 or P^2 by d+1 or d+2 forms of degree 1 or 2, each with
    one to three terms and small coefficients, so forms may coincide or
    share factors."""
    nvars = draw(st.integers(2, 3))
    delta = draw(st.integers(1, 2))
    ring = ring_blocks(tuple(f"x{i}" for i in range(nvars)))
    monomials = [
        e for e in product(range(delta + 1), repeat=nvars) if sum(e) == delta
    ]
    form = st.dictionaries(
        st.sampled_from(monomials), st.sampled_from((1, -1, 2)), min_size=1, max_size=3
    ).map(lambda terms: Polynomial(ring, terms.items()))
    return RationalMapSpec(
        ring, tuple(draw(st.lists(form, min_size=nvars, max_size=nvars + 1)))
    )


@given(F=small_maps(), q_max=st.integers(1, 3))
def test_satfiber_dims_match_per_generator_oracle(F, q_max):
    ring = F.source_ring
    m = block_ideal(ring, 0)
    expected = [1]
    for q in range(1, q_max + 1):
        power = Ideal(
            ring,
            (reduce(mul, sel) for sel in combinations_with_replacement(F.generators, q)),
        )
        sat = per_generator_saturation(power, m)
        piece = q * F.delta
        total = math.comb(piece + F.d, F.d)
        expected.append(total - graded_piece_dim(sat, (piece,)))
    assert satfiber_dims(F, q_max).dims == tuple(expected)


def test_satfiber_dims_stop_saturating_once_the_base_saturates_to_unit(monkeypatch):
    """V(I^q) = V(I), so once I^sat is the unit ideal every (I^q)^sat is too
    and dims[q] = C(q*delta + d, d) with no further saturation.  The cubic
    Cremona map of P^3 has base points, so it saturates every power."""
    saturated = []
    saturate = maps.irrelevant_saturation

    def counted(J):
        saturated.append(J)
        return saturate(J)

    monkeypatch.setattr(maps, "irrelevant_saturation", counted)
    squares = rational_map(("x0", "x1", "x2", "x3"), ("x0^2", "x1^2", "x2^2", "x3^2"))
    assert satfiber_dims(squares, 5).dims == (1, 10, 35, 84, 165, 286)
    assert len(saturated) == 1
    saturated.clear()
    assert satfiber_dims(cubic_cremona_map(), 5).dims == (1, 4, 10, 20, 35, 56)
    assert len(saturated) == 5


def test_satfiber_dims_rejects_small_q_max():
    with pytest.raises(ValueError, match="at least 1"):
        satfiber_dims(identity_map(), 0)


def test_satfiber_d0_check_cremona():
    check = satfiber_d0_check(cremona_map(), 6)
    assert check.stabilized is True
    assert check.inferred_e == 1
    assert check.d0_elimination == 1
    assert check.agree is True
    assert check.table.dims == (1, 3, 6, 10, 15, 21, 28)


def test_satfiber_d0_check_cubic_and_identity():
    cubic = satfiber_d0_check(cubic_map(), 6)
    assert cubic.agree is True and cubic.inferred_e == 3
    ident = satfiber_d0_check(identity_map(), 4)
    assert ident.agree is True and ident.inferred_e == 1


def test_satfiber_d0_check_reads_the_table_differences():
    """d = 0 reads the dims themselves, d = 3 the third differences of the
    table's profile; values as computed before the check read them there."""
    point = satfiber_d0_check(rational_map(("x0",), ("x0^2",)), 2)
    assert point.table == SatFiberTable(dims=(1, 1, 1), difference_profile=((0, 0),))
    assert (point.stabilized, point.inferred_e, point.d0_elimination) == (True, 1, 1)
    check = satfiber_d0_check(cubic_cremona_map(), 5)
    assert check.table == SatFiberTable(
        dims=(1, 4, 10, 20, 35, 56),
        difference_profile=((3, 6, 10, 15, 21), (3, 4, 5, 6), (1, 1, 1)),
    )
    assert (check.stabilized, check.inferred_e, check.d0_elimination) == (True, 1, 1)


def test_satfiber_d0_check_needs_room_for_differences():
    with pytest.raises(ValueError, match=r"d \+ 2"):
        satfiber_d0_check(cremona_map(), 3)
