"""Core arithmetic layer: ring specs, term orders, parser, Laurent numerators."""

import time

import pytest
from hypothesis import given, strategies as st

from mixedmult import (
    DEGREE_ANY,
    ExponentOverflow,
    LaurentPolyZ,
    ParseError,
    Polynomial,
    RingSpec,
    degrevlex_order,
    elimination_order,
    parse_polynomial,
    render_polynomial,
)
from mixedmult.groebner import _Packing, _width_for
from mixedmult.rings import (
    MAX_EXPONENT,
    TermOrder,
    _grevlex_neg_key,
    _is_prime,
    mono_div,
    mono_divides,
)

from helpers import (
    CHAR,
    mk,
    mono_coprime,
    mono_lcm,
    neg_key,
    p1xp1,
    pp,
    ring_blocks,
    trial_division_is_prime,
    tuple_order_key,
)

R = p1xp1()


# ---------------------------------------------------------------------------
# RingSpec


def test_ring_basic_shape():
    assert R.r == 2
    assert R.nvars == 4
    assert R.variables == ("x0", "x1", "y0", "y1")
    assert R.block_sizes == (2, 2)
    assert R.multidegree_of((1, 0, 0, 1)) == (1, 1)


def test_ring_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        RingSpec(32004, (("x",),))


def test_primality_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if trial_division_is_prime(n)
    ]


# 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
# bases 2, 3, 5 and 7, the least one to all four
@pytest.mark.parametrize("n", [561, 3215031751])
def test_ring_rejects_pseudoprime_characteristic(n):
    with pytest.raises(ValueError, match="prime"):
        RingSpec(n, (("x",),))


@pytest.mark.parametrize("p", [2**61 - 1, 2**63 - 25])
def test_ring_accepts_large_prime_characteristic_quickly(p):
    started = time.perf_counter()
    assert RingSpec(p, (("x",),)).characteristic == p
    assert time.perf_counter() - started < 1.0


def test_ring_rejects_characteristic_past_a_machine_word():
    with pytest.raises(ValueError, match="machine word"):
        RingSpec(2**64 - 59, (("x",),))


def test_ring_rejects_duplicate_names():
    with pytest.raises(ValueError):
        RingSpec(CHAR, (("x", "y"), ("y",)))


def test_ring_rejects_empty_block():
    with pytest.raises(ValueError):
        RingSpec(CHAR, (("x",), ()))


def test_extended_names_one_variable_by_its_base():
    ring = ring_blocks(("x", "y0"))
    assert ring.extended("t").variables[2:] == ("t",)
    assert ring.extended("x").variables[2:] == ("x0",)
    assert ring.extended("y", 2).variables[2:] == ("y1", "y2")
    assert ring.extended("t", 3).blocks[-1] == ("t0", "t1", "t2")


# ---------------------------------------------------------------------------
# Parser


def test_parse_two_term_bidegree():
    p = pp(R, "x0*y1 - x1*y0")
    assert len(p.terms) == 2
    assert p.multidegree() == (1, 1)


def test_parse_distributes_products():
    assert pp(R, "x0^2*(x1 + y0)") == pp(R, "x0^2*x1 + x0^2*y0")


def test_parse_accepts_inhomogeneous_input():
    p = pp(R, "x0 + 1")
    assert len(p.terms) == 2
    assert p.multidegree() is None


def test_parse_coefficients_reduced_mod_p():
    assert pp(R, "32004*x0") == pp(R, "x0")
    assert pp(R, "-x0") == pp(R, "32002*x0")


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        pp(R, "x0 + z9")


def test_parse_malformed_syntax():
    for bad in ("x0 +", "(x0", "x0 * * y0", "", "^2", "x0 $"):
        with pytest.raises(ParseError):
            pp(R, bad)


def test_parse_negative_exponent():
    with pytest.raises(ParseError):
        pp(R, "x0^-2")


def test_parse_rejects_implicit_multiplication():
    for bad in ("2 x0", "x0 y1", "2(x0 + x1)"):
        with pytest.raises(ParseError):
            pp(R, bad)


def test_parse_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        pp(R, f"x0^{MAX_EXPONENT + 1}")


# ---------------------------------------------------------------------------
# Multihomogeneity


def test_multihomogeneous_bidegree():
    assert pp(R, "x0*y1 - x1*y0").multidegree() == (1, 1)


def test_multihomogeneous_mixed_blocks_absent():
    assert pp(R, "x0 + y0").multidegree() is None


def test_multihomogeneous_zero_sentinel():
    assert Polynomial.zero(R).multidegree() == DEGREE_ANY


# ---------------------------------------------------------------------------
# Term orders


def packed(order, *monos):
    """Packed keys of ``monos``, the library's order comparison, at the width
    a run would pick for them: a smaller key is a larger monomial."""
    pk = _Packing(order, _width_for(max(map(sum, monos))))
    return [pk.pack(e) for e in monos]


def test_term_order_is_its_description():
    """Orders compare and hash by (kind, nvars, sorted distinct drop), so
    equal descriptions share one ``_buchberger`` memo key."""
    elim = TermOrder("elim", 5, (1, 3))
    for drop in ((3, 1), [1, 3, 1, 3], (i for i in (3, 1, 3)), {1, 3}):
        other = TermOrder("elim", 5, drop)
        assert other == elim and hash(other) == hash(elim)
        assert other.drop == (1, 3)
    assert TermOrder("degrevlex", 5) == TermOrder("degrevlex", 5, ())
    assert hash(TermOrder("degrevlex", 5)) == hash(TermOrder("degrevlex", 5))
    assert elim != TermOrder("elim", 6, (1, 3))
    assert elim != TermOrder("elim", 5, (1,))
    assert TermOrder("degrevlex", 5) != TermOrder("degrevlex", 4)
    assert elimination_order(R, ("y1", "x1")) == TermOrder("elim", 4, (3, 1))
    with pytest.raises(AttributeError):
        elim.drop = (0,)


@pytest.mark.parametrize(
    "args, message",
    [
        (("lex", 3), "unknown order kind 'lex'"),
        (("degrevlex", 3, (0,)), "degrevlex takes no drop set"),
        (("elim", 3, ()), "elimination order needs a nonempty drop set"),
        (("elim", 3, (3,)), "drop index out of range"),
        (("elim", 3, (-1,)), "drop index out of range"),
    ],
)
def test_term_order_validates_its_description(args, message):
    with pytest.raises(ValueError, match=message):
        TermOrder(*args)


def test_degrevlex_tiebreak():
    larger, smaller = packed(degrevlex_order(R), (2, 0, 0, 0), (1, 1, 0, 0))
    assert larger < smaller


def test_order_reflexive_equal():
    a, b = packed(degrevlex_order(R), (1, 2, 3, 4), (1, 2, 3, 4))
    assert a == b


def test_elimination_block_dominates():
    ring = ring_blocks(("x0", "x1", "t"))
    order = elimination_order(ring, ("t",))
    t, x0_5 = packed(order, (0, 0, 1), (5, 0, 0))
    assert t < x0_5


def test_degrevlex_one_is_smallest():
    order = degrevlex_order(R)
    one = (0, 0, 0, 0)
    for exps in [(1, 0, 0, 0), (0, 0, 0, 1), (2, 1, 0, 3)]:
        k, k_one = packed(order, exps, one)
        assert k < k_one


exps4 = st.tuples(*(st.integers(0, 5) for _ in range(4)))


@given(a=exps4, b=exps4, m=exps4)
def test_order_multiplicative(a, b, m):
    am = tuple(x + y for x, y in zip(a, m))
    bm = tuple(x + y for x, y in zip(b, m))
    for order in (degrevlex_order(R), elimination_order(R, ("x0", "x1"))):
        ka, kb, kam, kbm = packed(order, a, b, am, bm)
        assert (kam < kbm, kam == kbm) == (ka < kb, ka == kb)


@given(a=exps4, b=exps4)
def test_order_total_and_antisymmetric(a, b):
    ka, kb = packed(degrevlex_order(R), a, b)
    assert (ka < kb) + (ka == kb) + (ka > kb) == 1
    assert (ka == kb) == (a == b)


# ---------------------------------------------------------------------------
# Polynomial arithmetic


def _poly(ring, items):
    return Polynomial(ring, items)


terms_strategy = st.lists(
    st.tuples(exps4, st.integers(1, CHAR - 1)), min_size=0, max_size=6
)


@given(t1=terms_strategy, t2=terms_strategy, t3=terms_strategy)
def test_ring_axioms(t1, t2, t3):
    p, q, r = _poly(R, t1), _poly(R, t2), _poly(R, t3)
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    for poly in (p + q, p * q, p - r):
        for _, c in poly.terms:
            assert 0 < c < CHAR


@given(t1=terms_strategy)
def test_additive_inverse_and_zero(t1):
    p = _poly(R, t1)
    assert p - p == Polynomial.zero(R)
    assert p + Polynomial.zero(R) == p
    assert p * Polynomial.one(R) == p


@st.composite
def homogeneous_poly(draw):
    dx = draw(st.integers(0, 2))
    dy = draw(st.integers(0, 2))
    monos = [
        (a, dx - a, b, dy - b) for a in range(dx + 1) for b in range(dy + 1)
    ]
    coeffs = draw(
        st.lists(
            st.integers(0, CHAR - 1), min_size=len(monos), max_size=len(monos)
        )
    )
    if not any(coeffs):
        coeffs = list(coeffs)
        coeffs[0] = 1
    return _poly(R, [(m, c) for m, c in zip(monos, coeffs) if c]), (dx, dy)


@given(pq=st.tuples(homogeneous_poly(), homogeneous_poly()))
def test_product_degree_adds(pq):
    (p, dp), (q, dq) = pq
    assert p.multidegree() == dp
    assert (p * q).multidegree() == tuple(a + b for a, b in zip(dp, dq))


def test_pow_and_overflow():
    x0 = pp(R, "x0")
    assert x0**0 == Polynomial.one(R)
    assert x0**3 == pp(R, "x0^3")
    with pytest.raises(ExponentOverflow):
        (x0 ** (2**20)) ** (2**12)


# Exponents from zero up to the cap, small ones most often.
exponents = st.one_of(
    st.integers(0, 3), st.just(MAX_EXPONENT), st.integers(0, MAX_EXPONENT)
)


@st.composite
def orders_and_monomials(draw):
    """A term order on 1-6 variables (degrevlex, or elimination with a
    trailing, leading, middle or scattered drop set) and 1-8 monomials,
    always including the zero vector one time in three."""
    n = draw(st.integers(1, 6))
    shape = draw(
        st.sampled_from(("degrevlex", "trailing", "leading", "middle", "scattered"))
    )
    if shape == "degrevlex":
        order = TermOrder("degrevlex", n)
    else:
        if shape == "scattered":
            drop = draw(st.sets(st.integers(0, n - 1), min_size=1))
        elif shape == "middle":
            start = draw(st.integers(0, n - 1))
            drop = range(start, draw(st.integers(start + 1, n)))
        else:
            k = draw(st.integers(1, n))
            drop = range(n - k, n) if shape == "trailing" else range(k)
        order = TermOrder("elim", n, drop)
    monos = draw(st.lists(st.tuples(*[exponents] * n), min_size=1, max_size=8))
    if draw(st.integers(0, 2)) == 0:
        monos.append((0,) * n)
    return order, monos


@given(case=orders_and_monomials())
def test_heap_key_is_the_negated_key(case):
    """The packed heap key (at the width a run would pick) orders monomials
    as the negated tuple key does, pair by pair and in sorted order."""
    order, monos = case
    pk = _Packing(order, _width_for(max(map(sum, monos))))
    for e in monos:
        if order.kind == "degrevlex":
            assert _grevlex_neg_key(e) == neg_key(tuple_order_key(order, e))
        for f in monos:
            assert (pk.pack(e) < pk.pack(f)) == (
                neg_key(tuple_order_key(order, e)) < neg_key(tuple_order_key(order, f))
            )
    by_heap = sorted(monos, key=pk.pack)
    assert by_heap == sorted(monos, key=lambda e: neg_key(tuple_order_key(order, e)))
    assert by_heap == sorted(
        monos, key=lambda e: tuple_order_key(order, e), reverse=True
    )


@given(
    pair=st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.tuples(*[exponents] * n)] * 2)
    )
)
def test_monomial_helpers_match_componentwise_definitions(pair):
    a, b = pair
    assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
    assert mono_coprime(a, b) == all(x == 0 or y == 0 for x, y in zip(a, b))
    if mono_divides(b, a):
        assert mono_div(a, b) == tuple(x - y for x, y in zip(a, b))


def test_substitute_collapses_to_zero():
    p = pp(R, "x0*y1 - x1*y0")
    images = [pp(R, e) for e in ("x0", "x0", "y0", "y0")]
    assert p.substitute(R, images).is_zero()


# ---------------------------------------------------------------------------
# Rendering round-trip


def test_render_canonical_examples():
    assert render_polynomial(pp(R, "x0*y1 - x1*y0")) == "-x1*y0 + x0*y1"
    assert render_polynomial(pp(R, "x1*y0 - x0*y1")) == "x1*y0 - x0*y1"
    assert render_polynomial(Polynomial.zero(R)) == "0"
    assert render_polynomial(pp(R, "x0^2 + 2")) == "x0^2 + 2"
    assert render_polynomial(pp(R, "-x0^2")) == "-x0^2"


@given(t1=terms_strategy)
def test_parse_render_round_trip(t1):
    p = _poly(R, t1)
    assert parse_polynomial(render_polynomial(p), R) == p


# ---------------------------------------------------------------------------
# Laurent numerator arithmetic


def test_laurent_canonical_form():
    L = LaurentPolyZ(2, [((1, 1), 2), ((1, 1), -2), ((0, 0), 5)])
    assert L.as_dict() == {(0, 0): 5}
    assert repr(L) == "LaurentPolyZ(2, (((0, 0), 5),))"


def test_laurent_ring_ops():
    a = LaurentPolyZ(2, [((0, 0), 1), ((1, 1), -1)])
    b = LaurentPolyZ(2, [((0, 0), 1), ((1, 1), 1)])
    assert (a - b).as_dict() == {(1, 1): -2}
    assert (a - a).is_zero()


def test_laurent_negative_exponents_and_shift():
    a = LaurentPolyZ(2, [((1, 0), 3)])
    shifted = a.shifted((-2, 1))
    assert shifted.as_dict() == {(-1, 1): 3}


def test_laurent_coarsen_and_exponent_bounds():
    k = LaurentPolyZ(2, [((0, 0), 1), ((1, 1), -2), ((1, 2), 1)])
    assert k.coarsened().as_dict() == {(0,): 1, (2,): -2, (3,): 1}
    assert k.min_exponents() == (0, 0)
    assert k.max_exponents() == (1, 2)


def test_ideal_drops_zero_and_duplicate_generators():
    J = mk(R, "x0*y0", "x0*y0", "0")
    assert len(J.generators) == 1
