"""Packed-monomial Groebner kernel against the tuple kernel it replaced.

Encoding properties of ``groebner._Packing`` (heap-key order, the guard-bit
divisibility test, additivity and round trips) at every field width, and
whole Buchberger runs and normal forms compared with the tuple oracles in
``helpers``: same elements, same leading exponents, same failures.
"""

import pytest
from hypothesis import assume, example, given, strategies as st

import mixedmult.groebner as gb
from mixedmult import ExponentOverflow, PairBudgetExceeded, Polynomial, RingSpec
from mixedmult.rings import (
    MAX_EXPONENT,
    TermOrder,
    degrevlex_order,
    elimination_order,
    mono_divides,
)

from helpers import (
    DEFAULT_PAIR_BUDGET,
    mono_coprime,
    mono_lcm,
    neg_key,
    pair_budget_exceeded,
    pp,
    ring_blocks,
    tuple_buchberger,
    tuple_full_reduce,
    tuple_order_key,
)

WIDTHS = (16, 32, 64, 128)


@st.composite
def packed_orders(draw):
    """A term order on 1-7 variables: degrevlex, or elimination with the
    drop set at the start, in the middle, at the end or interleaved with
    the kept variables."""
    n = draw(st.integers(1, 7))
    shape = draw(
        st.sampled_from(("degrevlex", "start", "middle", "end", "interleaved"))
    )
    if shape == "degrevlex":
        return TermOrder("degrevlex", n)
    if shape == "interleaved":
        drop = range(draw(st.integers(0, min(1, n - 1))), n, 2)
    elif shape == "middle":
        start = draw(st.integers(0, n - 1))
        drop = range(start, draw(st.integers(start + 1, n)))
    else:
        k = draw(st.integers(1, n))
        drop = range(k) if shape == "start" else range(n - k, n)
    return TermOrder("elim", n, drop)


# zero and small exponents most often, some just below the guard bit of a
# 16- or 32-bit field, where a borrow reaches the guard bit and nothing below
exponents = st.one_of(
    st.just(0),
    st.integers(1, 3),
    st.integers(2**14, 2**15 - 1),
    st.integers(2**30, MAX_EXPONENT),
    st.integers(0, MAX_EXPONENT),
)


@st.composite
def packing_and_monomials(draw):
    """(packing, monomials): 1-8 monomials and a packing at a width that
    holds every degree, drawn from all widths that do."""
    order = draw(packed_orders())
    monos = draw(
        st.lists(st.tuples(*[exponents] * order.nvars), min_size=1, max_size=8)
    )
    if draw(st.booleans()):
        monos.append((0,) * order.nvars)
    least = gb._width_for(max(map(sum, monos)))
    width = draw(st.sampled_from([w for w in WIDTHS if w >= least]))
    return gb._Packing(order, width), order, monos


HALF = 2**15 - 1  # the largest value below the guard bit of a 16-bit field


@given(case=packing_and_monomials())
@example(
    case=(
        gb._Packing(TermOrder("degrevlex", 3), 16),
        TermOrder("degrevlex", 3),
        [(HALF, 0, 0), (0, HALF, 0), (0, 0, 1)],
    )
)
@example(
    case=(
        gb._Packing(TermOrder("elim", 4, (2, 3)), 16),
        TermOrder("elim", 4, (2, 3)),
        [(HALF, 0, 0, 0), (0, HALF, 0, 0), (0, 0, HALF, 0), (1, 0, 0, HALF)],
    )
)
def test_packed_key_order_is_the_tuple_order(case):
    """The packed key orders the drawn monomials and their pairwise lcms,
    which key the pair queue, as the tuple oracle does.  An lcm's degree
    fields may pass the guard bit (the examples make them), but stay below
    2^width, so no complemented field borrows."""
    pk, order, monos = case
    lcms = {tuple(map(max, a, e)) for a in monos for e in monos}
    keys = [(e, pk.pack(e), neg_key(tuple_order_key(order, e))) for e in lcms]
    for a, ka, ta in keys:
        for e, ke, te in keys:
            assert (ka < ke) == (ta < te)
            assert (ka == ke) == (a == e)
    assert sorted(monos, key=pk.pack) == sorted(
        monos, key=lambda e: tuple_order_key(order, e), reverse=True
    )


@given(case=packing_and_monomials())
def test_guard_bit_test_is_mono_divides(case):
    """On guard-free packed values (every popped term is one), the guard
    bits of m_b - m_a are clear iff a divides b."""
    pk, _, monos = case
    for a in monos:
        for e in monos:
            lcm = tuple(map(max, a, e))
            for b in (e, lcm, tuple(x // 2 for x in e)):
                mb = pk.pack(b) ^ pk.flip
                if mb & pk.guard:
                    continue  # a degree field of the lcm is too wide
                got = not (mb - (pk.pack(a) ^ pk.flip)) & pk.guard
                assert got == mono_divides(a, b)


@given(case=packing_and_monomials(), data=st.data())
def test_packing_is_additive_and_round_trips(case, data):
    pk, order, monos = case
    for e in monos:
        k = pk.pack(e)
        assert pk.unpack(k) == e
        assert pk.degree(k ^ pk.flip) == sum(e)
        assert not (k ^ pk.flip) & pk.guard
    a, e = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    total = tuple(x + y for x, y in zip(a, e))
    wide = gb._Packing(order, max(pk.width, gb._width_for(sum(total))))
    ka, ke, kt = wide.pack(a), wide.pack(e), wide.pack(total)
    assert kt ^ wide.flip == (ka ^ wide.flip) + (ke ^ wide.flip)
    assert kt == ka + ke - wide.one
    assert wide.unpack(kt) == total
    # a quotient is a difference of keys: key(e·t) = key(t) + key(e) - key(1)
    assert kt - ka == ke - wide.one


@st.composite
def full_field_monomials(draw):
    """(packing, monomials): a packing at any width and 1-6 guard-free
    monomials whose fields reach 2^(b-1) - 1, the most a guard-free field
    holds: each block's degree is at most that, and one variable often
    takes all of it."""
    order = draw(packed_orders())
    width = draw(st.sampled_from(WIDTHS))
    top = 2 ** (width - 1) - 1
    n = order.nvars
    if order.kind == "degrevlex":
        blocks = [range(n)]
    else:
        blocks = [[i for i in range(n) if i not in order.drop], order.drop]
    monos = []
    for _ in range(draw(st.integers(1, 6))):
        e = [0] * n
        for block in blocks:
            room = top
            for i in block:
                e[i] = draw(
                    st.one_of(
                        st.just(0),
                        st.integers(0, min(3, room)),
                        st.just(room),
                        st.integers(0, room),
                    )
                )
                room -= e[i]
        monos.append(tuple(e))
    return gb._Packing(order, width), monos


@given(case=full_field_monomials())
def test_swar_lcm_and_coprimality_match_tuple_helpers(case):
    """``lcm`` of two plain packed values is the plain value of the tuple
    lcm, degree fields included, though they may pass the guard bit; the
    leads are coprime iff that lcm is their sum."""
    pk, monos = case
    plain = [(a, pk.pack(a) ^ pk.flip) for a in monos]
    for a, ma in plain:
        for b, mb in plain:
            lcm = pk.lcm(ma, mb)
            want = mono_lcm(a, b)
            assert pk.unpack(lcm ^ pk.flip) == want
            assert lcm == pk.pack(want) ^ pk.flip
            assert pk.degree(lcm) == sum(want)
            assert (lcm == ma + mb) == mono_coprime(a, b)


@given(case=full_field_monomials())
def test_variable_guard_test_on_lcms_is_mono_divides(case):
    """On lcms, whose degree fields may set their guard bits, the guard
    bits of the variable fields of L - m are clear iff m divides L; the
    monomials themselves are among the lcms, as leads in the chain
    criterion."""
    pk, monos = case
    plain = [(a, pk.pack(a) ^ pk.flip) for a in monos]
    lcms = {mono_lcm(a, b): pk.lcm(ma, mb) for a, ma in plain for b, mb in plain}
    for m, lm in lcms.items():
        for e, le in lcms.items():
            assert (not (le - lm) & pk.vguard) == mono_divides(m, e)


# ---------------------------------------------------------------------------
# Whole runs


VARS = ("x0", "x1", "x2", "x3")


@st.composite
def runs(draw):
    """(ring, generators, order) for one Buchberger run: sparse
    non-homogeneous polynomials in 1-4 variables with exponents up to 2 over
    a small prime, sometimes with a
    Rabinowitsch generator 1 - w·k in a trailing helper block, under
    degrevlex or an elimination order."""
    n = draw(st.integers(1, 4))
    p = draw(st.sampled_from((2, 3, 7, 32003)))
    rabinowitsch = draw(st.booleans())
    ring = RingSpec(p, (VARS[:n],) + ((("w",),) if rabinowitsch else ()))
    pad = (0,) * (ring.nvars - n)
    mono = st.tuples(*[st.integers(0, 2)] * n).map(lambda e: e + pad)
    poly = st.dictionaries(mono, st.integers(1, p - 1), min_size=1, max_size=4).map(
        lambda d: Polynomial(ring, d.items())
    )
    gens = draw(st.lists(poly, min_size=1, max_size=4))
    if rabinowitsch:
        gens.append(Polynomial.one(ring) - Polynomial.variable(ring, "w") * draw(poly))
    nv = ring.nvars
    if draw(st.booleans()):
        order = degrevlex_order(ring)
    elif rabinowitsch and draw(st.booleans()):
        order = TermOrder("elim", nv, (nv - 1,))
    else:
        order = TermOrder("elim", nv, draw(st.sets(st.integers(0, nv - 1), min_size=1)))
    return ring, frozenset(gens), order


def outcome(run, *args):
    try:
        G = run(*args)
    except PairBudgetExceeded as exc:
        return ("budget", exc.args, exc.stats)
    return (G.elements, G.leading_exps)


@given(case=runs())
def test_packed_buchberger_matches_tuple_oracle(case):
    """Same basis, or the same ``PairBudgetExceeded`` stats (pairs
    processed, basis size, pairs remaining), at every budget from 1 up to
    the first that completes: the pair update keeps the oracle's pairs
    after every new element.  40 pairs complete most runs and bound the
    odd costly one.  The oracle runs once, at budget 40: the record it
    keeps at each selected pair is what it raises at every smaller budget."""
    trace: list = []
    final = outcome(tuple_buchberger, *case, 40, trace)
    for budget in range(1, 41):
        got = outcome(gb._buchberger.__wrapped__, *case, budget)
        if budget < len(trace):
            exc = pair_budget_exceeded(budget, *trace[budget])
            assert got == ("budget", exc.args, exc.stats)
        else:
            assert got == final
        if got[0] != "budget":
            break


@pytest.mark.parametrize(
    "blocks, exprs, drop",
    [
        ((("x", "y", "z"),), ("x^2*y - z^2 + x", "y^2*z - x + 1", "x*z^2 - y^3"), ()),
        # the first two inputs share the lead t*x*y, so their monic terms
        # decide which enters the run first
        (
            (("x", "y", "z"), ("t",)),
            ("t*x*y - x*z^2 + 1", "t*x*y + x^2*y - z", "y^2*z - x*y*z + z"),
            ("t",),
        ),
    ],
    ids=("degrevlex", "elimination_shared_lead"),
)
def test_budget_failure_matches_tuple_oracle(blocks, exprs, drop):
    ring = ring_blocks(*blocks)
    gens = frozenset(pp(ring, e) for e in exprs)
    order = elimination_order(ring, drop) if drop else degrevlex_order(ring)
    for budget in (1, 5, 10):
        got = outcome(gb._buchberger.__wrapped__, ring, gens, order, budget)
        assert got[0] == "budget"
        assert got == outcome(tuple_buchberger, ring, gens, order, budget)


def test_high_degree_lcm_pairs_match_tuple_oracle():
    """The first two leads x^20000*y and x*y^20000 fit 16-bit fields, but
    their lcm has degree 40000 >= 2^15, so its degree field sets its guard
    bit.  The third input reduces to the lead x*y^2, which divides that
    lcm, so the chain criterion drops the pair of the first two, as in the
    oracle, only if the divisibility test reads no degree field's guard."""
    ring = ring_blocks(("x", "y", "z", "w"))
    gens = frozenset(
        pp(ring, e) for e in ("x^20000*y + z", "x*y^20000 + w", "x^20000*y^2 + x*y^2")
    )
    order = degrevlex_order(ring)
    for budget in (1, 2, 3, 5, 10, 40):
        got = outcome(gb._buchberger.__wrapped__, ring, gens, order, budget)
        assert got[0] == "budget"
        assert got == outcome(tuple_buchberger, ring, gens, order, budget)


def tuple_normal_form(f, G):
    """f reduced by G with the tuple kernel."""
    entries = [
        (lead, tuple((e, c) for e, c in g.terms if e != lead))
        for g, lead in zip(G.elements, G.leading_exps)
    ]
    red, _ = tuple_full_reduce(dict(f.terms), entries, G.order, f.ring.characteristic)
    return Polynomial(f.ring, red.items())


@given(case=runs(), data=st.data())
def test_packed_normal_form_matches_tuple_oracle(case, data):
    ring, gens, order = case
    try:
        G = gb._buchberger.__wrapped__(ring, gens, order, 40)
    except PairBudgetExceeded:
        assume(False)
    mono = st.tuples(*[st.integers(0, 5)] * ring.nvars)
    p = ring.characteristic
    f = Polynomial(
        ring, data.draw(st.dictionaries(mono, st.integers(1, p - 1), max_size=6)).items()
    )
    assert gb.normal_form(f, G) == tuple_normal_form(f, G)


# ---------------------------------------------------------------------------
# Field width


@pytest.fixture
def widths(monkeypatch):
    """The field width of every packing built while the test runs."""
    seen = []

    class Recording(gb._Packing):
        __slots__ = ()

        def __init__(self, order, width):
            seen.append(width)
            super().__init__(order, width)

    monkeypatch.setattr(gb, "_Packing", Recording)
    return seen


WIDE = ring_blocks(("x0", "x1", "x2"), ("t",))


def wide_order(drop):
    if drop is None:
        return degrevlex_order(WIDE)
    return TermOrder("elim", WIDE.nvars, [WIDE.var_index(v) for v in drop])


def both_runs(exprs, drop=None):
    gens = frozenset(pp(WIDE, e) for e in exprs)
    order = wide_order(drop)
    got = gb._buchberger.__wrapped__(WIDE, gens, order, DEFAULT_PAIR_BUDGET)
    want = tuple_buchberger(WIDE, gens, order, DEFAULT_PAIR_BUDGET)
    assert got.elements == want.elements
    assert got.leading_exps == want.leading_exps
    return got


@pytest.mark.parametrize(
    "exprs, drop, expected",
    [
        # degrees up to 20001 fit 16-bit fields; the S-polynomial has degree 40000
        (("x0^20001*x1 - x2^20001", "x0*x1^20001 - t^20001"), None, [16, 32]),
        # reducing t^2 by t - x0^20000 makes x0^40000 in an elimination run
        (("t - x0^20000", "t^2 - x1"), ("t",), [16, 32]),
        (("x0^40000 - x1",), None, [32]),
        (("x0^70000*x1 - x2^3", "x1*t - x0"), ("t",), [32]),
        (("x0^70000*x1 - x2^3", "x1*t - x0"), ("x0",), [32]),
        # degree 2^30 fits 32-bit fields; t^2 reduces to degree 2^31, which does not
        (("t - x0^536870912*x1^536870912", "t^2 - x2"), ("t",), [32, 64]),
        ((f"x0^{MAX_EXPONENT} - x1", f"x1^{MAX_EXPONENT} - x0*t"), None, [32]),
        # the S-polynomial x0^MAX*x1 - t*x2 has kept degree 2^31
        ((f"t*x1 - x0^{MAX_EXPONENT}", "x1^2 - x2"), ("t",), [32, 64]),
    ],
)
def test_width_restarts_match_tuple_oracle(widths, exprs, drop, expected):
    both_runs(exprs, drop)
    assert widths == expected


@pytest.mark.parametrize(
    "exprs, drop, budget, expected",
    [
        # x1·f1 - x0^MAX·f2 leaves x0^(MAX+1)*t, which no lead divides and
        # which would stay in the final basis
        ((f"x0^{MAX_EXPONENT}*x1 - x2", "x1^2 - x0*t"), None, DEFAULT_PAIR_BUDGET, [64]),
        # reducing x0^MAX*t by t - x0 leaves x0^(MAX+1) - x1; a later element
        # x0^MAX - x1^2 would make it non-minimal, but the run stops there
        (("x0*x1 - 1", f"x0^{MAX_EXPONENT}*t - x1", "t - x0"), ("t",), 100, [64]),
    ],
)
def test_exponent_above_cap_raises_like_tuple_oracle(widths, exprs, drop, budget, expected):
    """A new basis element with an exponent above MAX_EXPONENT fails as the
    tuple kernel's Polynomial constructor did, after the packed run widens
    to fields that can hold it."""
    gens = frozenset(pp(WIDE, e) for e in exprs)
    order = wide_order(drop)
    with pytest.raises(ExponentOverflow):
        tuple_buchberger(WIDE, gens, order, budget)
    with pytest.raises(ExponentOverflow):
        gb._buchberger.__wrapped__(WIDE, gens, order, budget)
    assert widths == expected


def test_exponent_above_cap_in_final_reduction_raises_like_tuple_oracle(widths):
    """The tail x0^MAX*x1^3 of the first input goes past the cap only in the
    final inter-reduction, by x1^3 - x0^2*x2, the difference of the two
    later inputs that share a lead: the first input's lead is coprime to
    both other leads, so no S-pair reaches that tail before."""
    ring = ring_blocks(("x0", "x1", "x2", "t", "u"))
    half = MAX_EXPONENT // 2
    far = f"x1^3*t^{half}*u^{half + 3}"
    gens = frozenset(
        pp(ring, e)
        for e in (
            f"x0^{MAX_EXPONENT}*x2^4 + x0^{MAX_EXPONENT}*x1^3",
            far,
            f"{far} + x1^3 - x0^2*x2",
        )
    )
    order = degrevlex_order(ring)
    with pytest.raises(ExponentOverflow):
        tuple_buchberger(ring, gens, order, DEFAULT_PAIR_BUDGET)
    with pytest.raises(ExponentOverflow):
        gb._buchberger.__wrapped__(ring, gens, order, DEFAULT_PAIR_BUDGET)
    assert widths == [64]


def test_normal_form_packs_on_each_call(widths):
    """Every normal form packs the basis anew, at the smallest width that
    holds the basis and the input, and doubles it when the reduction
    overflows; every normal form equals the tuple kernel's."""
    G = both_runs(("t - x0^20000", "x1^3 - x2"), ("t",))
    assert widths == [16]
    for expr, packed in (
        ("x1^4 + x0", [16]),
        ("t*x1^3 + x1", [16]),
        # t^2 reduces to x0^40000, past the 16-bit fields
        ("t^2 + x1", [16, 32]),
        # degree 70001 needs 32-bit fields from the start
        ("x0^70000*t + x1^5", [32]),
    ):
        widths.clear()
        f = pp(WIDE, expr)
        assert gb.normal_form(f, G) == tuple_normal_form(f, G)
        assert widths == packed
    assert gb.normal_form(pp(WIDE, "t^2 + x1"), G) == pp(WIDE, "x0^40000 + x1")
