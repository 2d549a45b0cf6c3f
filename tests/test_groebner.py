"""Buchberger engine and the ideal-theoretic primitives built on it."""

import operator
from functools import partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

import mixedmult.groebner as gb
from mixedmult import (
    Ideal,
    PairBudgetExceeded,
    Polynomial,
    Prng,
    elimination_ideal,
    groebner_basis,
    ideal_intersection,
    ideal_quotient,
    normal_form,
    render_polynomial,
    saturation,
    set_pair_budget,
)
from mixedmult.groebner import DEFAULT_PAIR_BUDGET, _lift, _project
from mixedmult.rings import TermOrder, elimination_order

from helpers import (
    CHAR,
    assert_canonical,
    assert_holds_its_basis,
    mk,
    p1xp1,
    per_generator_saturation,
    pp,
    ring_blocks,
    tuple_full_reduce,
    tuple_order_key,
)

R = p1xp1()
RXY = ring_blocks(("x", "y"))


def rendered(G) -> set[str]:
    return {render_polynomial(g) for g in G.elements}


# ---------------------------------------------------------------------------
# Reduced bases


def test_gb_single_generator_monic():
    G = groebner_basis(mk(R, "x0*y1 - x1*y0"))
    assert [render_polynomial(g) for g in G.elements] == ["x1*y0 - x0*y1"]


def test_gb_two_generator_completion():
    J = mk(R, "x0*y1 - x1*y0", "x0*y0")
    G = groebner_basis(J)
    assert rendered(G) == {"x1*y0 - x0*y1", "x0*y0", "x0^2*y1"}
    # the leading spread forces one genuinely new element beyond the input
    assert J.contains(pp(R, "x1*y0^2"))
    assert J.contains(pp(R, "x0^2*y1"))


def test_gb_monomial_ideal_is_itself():
    G = groebner_basis(mk(RXY, "x^2", "x*y"))
    assert rendered(G) == {"x^2", "x*y"}


def test_gb_unit_ideal():
    J = mk(RXY, "x + 1", "x")
    assert J.is_unit_ideal()
    assert rendered(groebner_basis(J)) == {"1"}


def test_gb_zero_ideal():
    assert groebner_basis(Ideal(R, ())).elements == ()


def test_gb_deterministic_and_order_invariant():
    a = groebner_basis(mk(R, "x0*y1 - x1*y0", "x0*y0"))
    b = groebner_basis(mk(R, "x0*y0", "x0*y1 - x1*y0"))
    c = groebner_basis(mk(R, "x0*y0", "x1*y0 - x0*y1"))
    assert a.elements == b.elements == c.elements


def test_gb_autoreduced():
    G = groebner_basis(mk(R, "x0*y1 - x1*y0", "x0*y0"))
    for i, (g, lead) in enumerate(zip(G.elements, G.leading_exps)):
        assert g.as_dict()[lead] == 1
        # no term of g is divisible by another element's leading term
        for j, lh in enumerate(G.leading_exps):
            if i == j:
                continue
            for e, _ in g.terms:
                assert any(x < y for x, y in zip(e, lh))


# ---------------------------------------------------------------------------
# Normal forms


def test_normal_form_of_zero():
    G = groebner_basis(mk(R, "x0*y1 - x1*y0"))
    assert normal_form(Polynomial.zero(R), G).is_zero()


def test_normal_form_reduces_past_the_leading_term():
    G = groebner_basis(mk(R, "x0*y1 - x1*y0"))
    assert normal_form(pp(R, "x1*y0"), G) == pp(R, "x0*y1")
    assert normal_form(pp(R, "x0*y1"), G) == pp(R, "x0*y1")


def test_normal_form_kills_generators():
    J = mk(R, "x0*y1 - x1*y0", "x0*y0")
    G = groebner_basis(J)
    for g in J.generators:
        assert normal_form(g, G).is_zero()


def test_normal_form_is_a_remainder():
    J = mk(R, "x0*y1 - x1*y0", "x0*y0")
    G = groebner_basis(J)
    p = pp(R, "x0^2*y0*y1 + x1^2*y0^2 + x0*x1*y0*y1")
    r = normal_form(p, G)
    assert J.contains(p - r)
    for e, _ in r.terms:
        for lh in G.leading_exps:
            assert any(x < y for x, y in zip(e, lh))


def test_membership_oracle_on_random_combinations():
    J = mk(R, "x0*y1 - x1*y0", "x0*y0")
    G = groebner_basis(J)
    rng = Prng(2024)
    monos = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for _ in range(10):
        combo = Polynomial.zero(R)
        for g in J.generators:
            coeff = Polynomial(
                R, ((monos[rng.below(4)], 1 + rng.below(R.characteristic - 1)),)
            )
            combo = combo + coeff * g
        assert normal_form(combo, G).is_zero()
    assert not normal_form(pp(R, "x0"), G).is_zero()
    assert not normal_form(pp(R, "x0*y1"), G).is_zero()


# Random reduction problems: 1-4 variables, exponents up to 3, a small
# prime so that cancellations (and stale heap entries) are common.
@st.composite
def reduction_inputs(draw):
    """(work, entries, order, p, sugar, sugars) for the reduction kernel.

    Each entry is a monic polynomial split at its leading term under the
    drawn order, so the reduction terminates; entries may repeat leads or
    divide one another, which makes the first-divisor rule matter.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        order = TermOrder("degrevlex", n)
    else:
        drop = draw(st.sets(st.integers(0, n - 1), min_size=1))
        order = TermOrder("elim", n, drop)
    p = draw(st.sampled_from((2, 3, 7, CHAR)))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.integers(1, p - 1)
    entries = []
    for terms in draw(
        st.lists(st.dictionaries(monos, coeffs, min_size=1, max_size=4), max_size=4)
    ):
        lead = max(terms, key=partial(tuple_order_key, order))
        inv = pow(terms[lead], p - 2, p)
        tail = tuple((e, c * inv % p) for e, c in terms.items() if e != lead)
        entries.append((lead, tail))
    work = draw(st.dictionaries(monos, coeffs, max_size=6))
    if draw(st.booleans()):
        sugar = draw(st.integers(0, 12))
        sugars = [draw(st.integers(0, 12)) for _ in entries]
    else:
        sugar = sugars = None
    return work, entries, order, p, sugar, sugars


def packed_reduce(work, entries, order, p, sugar, sugars):
    """``gb._reduce`` on tuple inputs, from 16-bit fields up, as a run
    widens them; the remainder unpacked in its order."""
    width = 16
    while True:
        pk = gb._Packing(order, width)
        packed = [pk.entry(lead, tail) for lead, tail in entries]
        try:
            rem, s = gb._reduce(
                {pk.pack(e): c for e, c in work.items()}, packed, pk, p, sugar, sugars
            )
        except gb._FieldOverflow:
            width *= 2
            continue
        return [(pk.unpack(k), c) for k, c in rem.items()], s


@settings(max_examples=300)
@given(inputs=reduction_inputs())
def test_full_reduce_matches_tuple_oracle(inputs):
    """The packed kernel leaves the tuple kernel's remainder, term by term
    in the same order, and the same sugar."""
    work, entries, order, p, sugar, sugars = inputs
    rem, s = tuple_full_reduce(dict(work), entries, order, p, sugar, sugars)
    assert packed_reduce(work, entries, order, p, sugar, sugars) == (list(rem.items()), s)


# ---------------------------------------------------------------------------
# Elimination


def test_elimination_nothing_t_free():
    ring = ring_blocks(("x", "y", "t"))
    J = mk(ring, "y - t*x")
    assert elimination_ideal(J, ("t",)).generators == ()


def test_elimination_recovers_the_diagonal():
    ring = ring_blocks(("x0", "x1", "y0", "y1", "t"))
    J = mk(ring, "y0 - t*x0", "y1 - t*x1")
    E = elimination_ideal(J, ("t",))
    assert E.same_ideal(mk(ring, "x0*y1 - x1*y0"))


def test_elimination_empty_drop_is_identity():
    J = mk(R, "x0*y0")
    assert elimination_ideal(J, ()) is J


# ---------------------------------------------------------------------------
# Quotient


def test_quotient_monomial_example():
    J = mk(RXY, "x^2", "x*y")
    assert ideal_quotient(J, pp(RXY, "x")).same_ideal(mk(RXY, "x", "y"))


def test_quotient_by_nonzerodivisor():
    J = mk(RXY, "x")
    assert ideal_quotient(J, pp(RXY, "y")).same_ideal(J)


def test_quotient_of_zero_ideal():
    Z = Ideal(RXY, ())
    assert ideal_quotient(Z, pp(RXY, "x + y")).generators == ()


def test_quotient_by_zero_rejected():
    with pytest.raises(ValueError):
        ideal_quotient(mk(RXY, "x"), Polynomial.zero(RXY))


# ---------------------------------------------------------------------------
# Saturation


def test_saturation_strips_embedded_component():
    J = mk(RXY, "x^2", "x*y")
    K = mk(RXY, "x", "y")
    assert saturation(J, K).same_ideal(mk(RXY, "x"))


def test_saturation_of_primary_power_is_unit():
    J = mk(RXY, "x^2", "y^2")
    K = mk(RXY, "x", "y")
    assert saturation(J, K).is_unit_ideal()


def test_saturation_of_prime_not_containing_k():
    J = mk(R, "x0*y1 - x1*y0")
    N = mk(R, "x0*y0", "x0*y1", "x1*y0", "x1*y1")
    assert saturation(J, N).same_ideal(J)


def test_saturation_idempotent():
    J = mk(RXY, "x^2", "x*y")
    K = mk(RXY, "x", "y")
    once = saturation(J, K)
    assert saturation(once, K).same_ideal(once)


def _colon_by_ideal(J, K):
    acc = None
    for k in K.generators:
        part = ideal_quotient(J, k)
        acc = part if acc is None else ideal_intersection(acc, part)
    return acc


def test_saturation_contains_j_with_quotient_criterion():
    # equality with J holds exactly when (J : K) == J, where (J : K) is the
    # intersection of the per-generator colon ideals
    K = mk(RXY, "x", "y")
    grew = mk(RXY, "x^2", "x*y")
    sat = saturation(grew, K)
    for g in grew.generators:
        assert sat.contains(g)
    assert not sat.same_ideal(grew)
    assert not _colon_by_ideal(grew, K).same_ideal(grew)

    fixed = mk(RXY, "x")
    assert saturation(fixed, K).same_ideal(fixed)
    assert _colon_by_ideal(fixed, K).same_ideal(fixed)
    # the per-generator form alone is strictly stronger: x lies in K
    assert ideal_quotient(fixed, pp(RXY, "x")).is_unit_ideal()


def test_saturation_by_zero_rejected():
    with pytest.raises(ValueError):
        saturation(mk(RXY, "x"), Ideal(RXY, ()))


def test_saturation_is_one_elimination(monkeypatch):
    targets = {
        "elimination_ideal": gb,
        "ideal_intersection": gb,
        "is_unit_ideal": gb.Ideal,
    }
    calls = dict.fromkeys(targets, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name, owner in targets.items():
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    J = mk(R, "x0^2*y1 - x1^2*y0", "x0*x1*y0*y1")
    saturation(J, mk(R, "x0*y0", "x0*y1", "x1*y0", "x1*y1"))
    assert calls == {"elimination_ideal": 1, "ideal_intersection": 0, "is_unit_ideal": 0}


R3 = ring_blocks(("x", "y"), ("z",))

# Nonconstant, mostly inhomogeneous factors: one or two terms, each variable
# to the power 0 or 1.  Small coefficients make sums of K's generators fall
# into J's components, where saturating by the sum and by K differ.
factors = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * R3.nvars),
    st.sampled_from((1, -1, 2)),
    min_size=1,
    max_size=2,
).map(lambda terms: Polynomial(R3, terms.items()))
factors = factors.filter(lambda f: not f.is_constant())


@st.composite
def saturation_inputs(draw):
    """J from products of 1-3 factors (zero one time in six), K from 1-3
    factors plus, one time in four, a nonzero constant."""
    J = Ideal(R3, ())
    if draw(st.integers(0, 5)) < 5:
        products = st.lists(factors, min_size=1, max_size=3).map(
            lambda fs: reduce(operator.mul, fs)
        )
        J = Ideal(R3, draw(st.lists(products, min_size=1, max_size=3)))
    K = draw(st.lists(factors, min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 3:
        K.append(Polynomial.constant(R3, draw(st.integers(1, CHAR - 1))))
    return J, Ideal(R3, K)


@settings(max_examples=150)
@given(inputs=saturation_inputs())
def test_saturation_matches_per_generator_oracle(inputs):
    J, K = inputs
    assert saturation(J, K).generators == per_generator_saturation(J, K).generators


@settings(max_examples=150)
@given(inputs=saturation_inputs())
def test_saturation_holds_its_reduced_basis(inputs):
    J, K = inputs
    sat = saturation(J, K)
    assert_holds_its_basis(sat)
    assert groebner_basis(sat.with_shift((1, -2))) is sat._basis
    elim = TermOrder("elim", R3.nvars, (0,))
    G = groebner_basis(sat, elim)
    assert G.order == elim
    assert G.elements == gb._buchberger.__wrapped__(
        R3, frozenset(sat.generators), elim, DEFAULT_PAIR_BUDGET
    ).elements


@settings(max_examples=60)
@given(inputs=saturation_inputs(), data=st.data())
def test_elimination_intersection_and_colon_hold_their_bases(inputs, data):
    J, K = inputs
    drop = data.draw(st.sets(st.sampled_from(R3.variables), min_size=1))
    assert_holds_its_basis(elimination_ideal(J, drop))
    assert_holds_its_basis(ideal_intersection(J, K))
    assert_holds_its_basis(ideal_quotient(J, K.generators[0]))


def test_saturation_helpers_avoid_existing_names():
    ring = ring_blocks(("x", "_w"), ("_w0", "_w1", "y"))
    assert ring.extended("_w", 3).variables[5:] == ("_w2", "_w3", "_w4")
    x, w, w0, w1, y = (Polynomial.variable(ring, n) for n in ring.variables)
    J = Ideal(ring, (x * w * w0 - y * w1 * w1, x * x * w0, w * w1 * y))
    for K in (
        Ideal(ring, (x * w0, w * w1)),
        Ideal(ring, (w1, w * y - w0)),
        Ideal(ring, (x, w * w1, w0 * y)),
    ):
        sat = saturation(J, K)
        assert sat.ring == ring
        assert sat.generators != groebner_basis(J).elements
        assert sat.generators == per_generator_saturation(J, K).generators


# ---------------------------------------------------------------------------
# Intersection


def test_intersection_of_principal_ideals():
    assert ideal_intersection(mk(RXY, "x"), mk(RXY, "y")).same_ideal(
        mk(RXY, "x*y")
    )


def test_intersection_with_unit():
    J = mk(RXY, "x^2", "x*y")
    assert ideal_intersection(J, mk(RXY, "1")).same_ideal(J)


def test_intersection_self():
    J = mk(RXY, "x^2", "x*y")
    assert ideal_intersection(J, J).same_ideal(J)


def test_intersection_with_zero():
    J = mk(RXY, "x")
    assert ideal_intersection(J, Ideal(RXY, ())).generators == ()


def test_intersection_membership_oracle():
    J1 = mk(RXY, "x^2", "x*y")
    J2 = mk(RXY, "y")
    inter = ideal_intersection(J1, J2)
    for g in inter.generators:
        assert J1.contains(g)
        assert J2.contains(g)
    for g1 in J1.generators:
        for g2 in J2.generators:
            assert inter.contains(g1 * g2)


# ---------------------------------------------------------------------------
# Polynomials built without validation


@settings(max_examples=60)
@given(inputs=saturation_inputs(), data=st.data())
def test_trusted_constructions_are_canonical(inputs, data):
    """Products, lifts and projections, reduced bases under degrevlex and
    an elimination order, saturations and normal forms are each what the
    validating constructor makes of their terms."""
    J, K = inputs
    f, g = data.draw(factors), data.draw(factors)
    drop = data.draw(st.sets(st.sampled_from(R3.variables), min_size=1))
    ext = R3.extended("_w", 2)
    elim = groebner_basis(J, elimination_order(R3, drop))
    built = [f * g, f * g * g, _lift(f * g, ext), _project(_lift(f * g, ext), R3)]
    built += groebner_basis(J).elements + elim.elements
    built += saturation(J, K).generators
    built += [normal_form(f * g, groebner_basis(J)), normal_form(f * g, elim)]
    for q in built:
        assert_canonical(q)


def test_elimination_basis_element_keeps_degrevlex_terms():
    """t - x^2 leads with t under the elimination order of t but with x^2
    under degrevlex: the basis element lists x^2 first."""
    ring = ring_blocks(("x", "y", "t"))
    G = groebner_basis(mk(ring, "t - x^2", "t*y - x"), elimination_order(ring, ("t",)))
    g = G.elements[G.leading_exps.index((0, 0, 1))]
    assert g.terms == (((2, 0, 0), CHAR - 1), ((0, 0, 1), 1))
    for g in G.elements:
        assert_canonical(g)


def test_lift_project_and_products_are_canonical():
    ext = RXY.extended("w")
    f = pp(RXY, "x^2 - 3*x*y + y")
    lifted = _lift(f, ext)
    assert lifted == Polynomial(ext, ((e + (0,), c) for e, c in f.terms))
    assert _project(lifted, RXY) == f
    w = Polynomial.variable(ext, "w")
    for q in (lifted, _project(lifted, RXY), f * f, w * lifted, lifted * (1 - w)):
        assert_canonical(q)


def test_saturation_builds_one_canonical_rabinowitsch_polynomial(monkeypatch):
    """The helper generator 1 - sum_j w_j*k_j equals the one built by
    subtractions through the validating constructor."""
    seen = []
    eliminate = gb.elimination_ideal

    def spy(J, drop):
        seen.append(J)
        return eliminate(J, drop)

    monkeypatch.setattr(gb, "elimination_ideal", spy)
    J = mk(R, "x0^2*y1 - x1^2*y0", "x0*x1*y0*y1")
    K = mk(R, "x0*y0", "x0*y1 + 2*x1*y0", "x1*y1 - 1", "5")
    saturation(J, K)
    (work,) = seen
    ext = work.ring
    expected = Polynomial.one(ext)
    for name, k in zip(ext.variables[R.nvars:], K.generators):
        expected = expected - Polynomial.variable(ext, name) * _lift(k, ext)
    assert work.generators[-1] == expected
    for g in work.generators:
        assert_canonical(g)


# ---------------------------------------------------------------------------
# Budgets


FRESH = ring_blocks(("a", "b", "c"))


def _budget_victim() -> Ideal:
    return mk(FRESH, "a^2 - b*c", "a*b - c^2", "b^2 - a*c")


def test_pair_budget_exceeded_carries_stats():
    set_pair_budget(1)
    try:
        with pytest.raises(PairBudgetExceeded) as err:
            groebner_basis(_budget_victim())
    finally:
        set_pair_budget(None)
    stats = err.value.stats
    assert stats["budget"] == 1
    assert stats["pairs_processed"] > stats["budget"]
    assert stats["basis_size"] >= 3
    assert "pairs_remaining" in stats


def test_memoized_basis_respects_smaller_budget():
    P2 = ring_blocks(("x0", "x1", "x2"))
    J = mk(P2, "x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1")
    assert len(groebner_basis(J).elements) >= 3
    set_pair_budget(1)
    try:
        with pytest.raises(PairBudgetExceeded) as err:
            groebner_basis(J)
    finally:
        set_pair_budget(None)
    assert err.value.stats["budget"] == 1
    assert err.value.stats["pairs_processed"] == 2


def test_set_pair_budget_returns_the_budget_it_replaces():
    try:
        assert set_pair_budget(55) == DEFAULT_PAIR_BUDGET
        assert set_pair_budget(33) == 55
        assert set_pair_budget(None) == 33
    finally:
        set_pair_budget(None)
    assert set_pair_budget(None) == DEFAULT_PAIR_BUDGET


def test_set_pair_budget_validation():
    set_pair_budget(55)
    try:
        with pytest.raises(ValueError):
            set_pair_budget(0)
    finally:
        current = set_pair_budget(None)
    # a rejected budget leaves the current one in place
    assert current == 55


def test_explicit_pair_budget_validation():
    for bad in (0, -1, -5):
        with pytest.raises(ValueError, match="pair budget must be positive"):
            set_pair_budget(bad)
    assert set_pair_budget(None) == DEFAULT_PAIR_BUDGET


@pytest.mark.parametrize("env", ["1", "abc"])
def test_library_ignores_pair_budget_env(monkeypatch, env):
    """Only ``mm`` reads MM_PAIR_BUDGET; a library run uses the set budget."""
    monkeypatch.setenv("MM_PAIR_BUDGET", env)
    gb._buchberger.cache_clear()
    assert len(groebner_basis(_budget_victim()).elements) >= 3


# ---------------------------------------------------------------------------
# Ideal plumbing


def test_ideal_shift_validation():
    with pytest.raises(ValueError):
        mk(R, "x0*y0", shift=(1,))
    J = mk(R, "x0*y0", shift=(1, 2))
    assert J.shift == (1, 2)
    assert J.with_shift(None).shift is None


def test_same_ideal_distinguishes_presentations():
    a = mk(R, "x0*y1 - x1*y0", "x0*y0")
    b = mk(R, "x0*y0", "x1*y0 - x0*y1")
    assert a.same_ideal(b)
    assert not a.same_ideal(mk(R, "x0*y0"))


def test_generator_from_wrong_ring_rejected():
    with pytest.raises(ValueError):
        Ideal(R, (pp(RXY, "x"),))
