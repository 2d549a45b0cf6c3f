"""Buchberger engine and ideal-theoretic primitives.

The S-pair queue is pruned with the Gebauer-Moller update (JSC 1988): each
new element drops old pairs by the chain criterion, then makes one pair per
minimal distinct lcm with it, in one pass over those lcms sorted by degree,
and none where the product criterion applies.  Pairs are selected by
(sugar, packed lcm key), smallest lcm first, so runs are deterministic;
the final basis is inter-reduced and monic, hence the unique reduced
Groebner basis of the ideal for the given order.  The packed key below is
the library's only comparison of monomials under a term order.
Elimination is one run in a block elimination order.  Intersection, colon
and saturation append helper variables, eliminate them and drop them
before returning: intersection (and the colon built on it) uses one
helper, saturation one helper per generator of the saturating ideal.

Reduction works on monomials packed into one Python int each, as in
Monagan & Pearce ("Sparse polynomial division using a heap", JSC 2011).

* Encoding.  A run fixes a field width of b bits.  The order's blocks are
  laid out from the low end: under degrevlex one block of all variables;
  under an elimination order the kept variables, then the drop variables.
  Each block holds one field per variable, in index order, and above them
  one field for the block's total degree.  The top bit of every field is a
  guard bit, so a field holds values below 2^(b-1).  In the plain packed
  value m the degree fields hold the degrees D; multiplying monomials is
  adding their m, and a | e iff (m_e - m_a) & GUARD == 0, because a
  negative field difference borrows into its own guard bit.  A monomial's
  sugar is the sum of its degree fields.
* Heap key.  The key k = m ^ FLIP replaces every degree field D by its
  complement 2^b - 1 - D.  Ascending k compares the drop degree descending,
  then the drop exponents from the last variable down, then the same for
  the kept block: that is the term order reversed, so a min-heap of
  plain ints pops the largest monomial first; under degrevlex
  it sorts as the tuple (-|e|, e reversed).  k is
  L(e) + const for the linear form L(e) = m(e) - 2·sum(D_block·2^pos), so
  k(q·t) = k(t) + k(q) - k(1): a basis element stores each tail term as
  k(t) - k(lead), and reducing the term with key k by it adds that
  difference to k, one int addition per tail term.  The work dict and the
  heap hold keys only; m is recovered at pop as k ^ FLIP.
* Width.  A run starts at the smallest of 16, 32, 64, ... bits whose
  fields hold the largest input degree.  Sums of two guard-free fields
  never carry into the next field, so an overflow shows as a guard bit of
  the first popped term it reaches, and the run restarts at double width.
  ``_buchberger`` packs its input once, builds monic basis elements
  straight from packed remainders and unpacks only the final basis;
  ``normal_form`` packs its basis on each call and restarts the same way.

Every ideal returned by elimination, intersection, colon or saturation
holds its reduced degrevlex basis, and ``groebner_basis`` returns that
basis without a second Buchberger run.  For elimination the reason is the
order: restricted to monomials free of the drop variables the elimination
order is degrevlex, so the drop-free part of the reduced elimination basis
is the reduced degrevlex basis of the eliminated ideal.  Dropping trailing
helper variables keeps degrevlex comparisons, so the projection to the
original ring keeps that basis; the colon is read from a degrevlex run.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import ExponentOverflow, NotMultihomogeneousError, PairBudgetExceeded
from .rings import (
    MAX_EXPONENT,
    Polynomial,
    RingSpec,
    TermOrder,
    _grevlex_neg_key,
    degrevlex_order,
    elimination_order,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
)

DEFAULT_PAIR_BUDGET = 200000

_pair_budget = DEFAULT_PAIR_BUDGET


def set_pair_budget(n: Optional[int]) -> int:
    """Set the process-wide S-pair budget (None: the default) and return
    the budget it replaces, so a caller can restore it."""
    global _pair_budget
    if n is not None and n <= 0:
        raise ValueError("pair budget must be positive")
    previous = _pair_budget
    _pair_budget = DEFAULT_PAIR_BUDGET if n is None else n
    return previous


class Ideal:
    """Finitely generated ideal, optionally carrying a module shift.

    Generators keep their given order (zero generators dropped, duplicates
    removed); ``shift`` decorates the cyclic module B/J(-shift) and plays no
    role in set-theoretic operations.  Structural equality; use
    ``same_ideal`` for mathematical equality.  An ideal returned by
    elimination, intersection, colon or saturation holds its reduced
    degrevlex basis (``_holding``), which ``groebner_basis`` returns without
    a Buchberger run; the held basis takes no part in equality or hashing.
    """

    __slots__ = ("ring", "generators", "shift", "_hash", "_basis")

    def __init__(
        self,
        ring: RingSpec,
        generators: Iterable[Polynomial],
        shift: Optional[tuple[int, ...]] = None,
    ):
        self.ring = ring
        seen = set()
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g.is_zero() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.generators = tuple(gens)
        if shift is not None:
            shift = tuple(shift)
            if len(shift) != ring.r:
                raise ValueError("shift length must equal the number of blocks")
        self.shift = shift
        self._hash = None
        self._basis: Optional[GroebnerBasis] = None

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.generators == other.generators
            and self.shift == other.shift
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.generators, self.shift))
        return self._hash

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        tail = f", shift={self.shift}" if self.shift is not None else ""
        return f"Ideal(({gens}){tail})"

    def with_shift(self, shift: Optional[tuple[int, ...]]) -> "Ideal":
        out = Ideal(self.ring, self.generators, shift)
        out._basis = self._basis
        return out

    def require_multihomogeneous(self) -> None:
        for g in self.generators:
            if g.multidegree() is None:
                raise NotMultihomogeneousError(
                    f"generator {g} is not multihomogeneous"
                )

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, groebner_basis(self)).is_zero()

    def same_ideal(self, other: "Ideal") -> bool:
        """Mathematical equality via reduced-basis uniqueness."""
        if self.ring != other.ring:
            return False
        return groebner_basis(self).elements == groebner_basis(other).elements

    def is_unit_ideal(self) -> bool:
        g = groebner_basis(self).elements
        return len(g) == 1 and g[0].is_constant() and not g[0].is_zero()


class GroebnerBasis:
    """Reduced Groebner basis: monic, autoreduced, sorted by leading term,
    with the leading exponents of its elements under ``order``."""

    __slots__ = ("ring", "order", "elements", "leading_exps")

    def __init__(
        self,
        ring: RingSpec,
        order: TermOrder,
        elements: Sequence[Polynomial],
        leading_exps: Sequence[tuple[int, ...]],
    ):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self.leading_exps = tuple(leading_exps)

    def __repr__(self):
        return f"GroebnerBasis({list(self.elements)!r})"


# ---------------------------------------------------------------------------
# Packed monomials


class _FieldOverflow(Exception):
    """A popped term has a guard bit set: the field width is too small."""


def _width_for(degree: int) -> int:
    """Smallest field width 16·2^j whose fields hold ``degree``."""
    width = 16
    while degree >> (width - 1):
        width *= 2
    return width


class _Packing:
    """Monomials of one order packed at one field width (see the module
    docstring): ``pack`` takes an exponent tuple to its heap key,
    ``unpack`` a heap key back, ``degree`` a plain packed value to its
    total degree; ``flip`` turns a key into the plain value and back,
    ``guard`` holds every guard bit, ``cap`` the bits of exponents above
    ``MAX_EXPONENT`` (0 where no field can hold one) and ``one`` is the key
    of the monomial 1.

    One codec serves every width.  Variable i has its field at bit offset
    ``shifts[i]``; its exponent adds to that field and, in the key, takes
    away from the complemented degree field of its block, so a key is
    ``flip`` plus one weighted sum of the exponents."""

    __slots__ = ("width", "flip", "guard", "cap", "one", "pack", "unpack", "degree")

    def __init__(self, order: TermOrder, width: int):
        n = order.nvars
        if order.kind == "degrevlex":
            blocks = [tuple(range(n))]
        else:
            dropset = set(order.drop)
            kept = tuple(i for i in range(n) if i not in dropset)
            blocks = [kept, order.drop] if kept else [order.drop]
        ones = (1 << width) - 1
        shifts = [0] * n  # bit offset of each variable's field, by index
        weights = [0] * n  # what one unit of each exponent adds to a key
        deg_shifts: list[int] = []
        pos = 0
        for block in blocks:
            top = pos + len(block) * width
            for i in block:
                shifts[i] = pos
                weights[i] = (1 << pos) - (1 << top)
                pos += width
            deg_shifts.append(top)
            pos += width
        self.width = width
        self.flip = flip = sum(ones << s for s in deg_shifts)
        self.guard = sum(1 << (s + width - 1) for s in range(0, pos, width))
        self.cap = (
            sum((ones ^ MAX_EXPONENT) << s for s in shifts) if width > 32 else 0
        )
        self.one = flip

        def pack(e):
            return sum(map(mul, e, weights), flip)

        def unpack(k):
            m = k ^ flip
            return tuple([(m >> s) & ones for s in shifts])

        # ``_reduce`` reads one degree per reduction step: a reader per
        # block count is faster there than a sum over the degree fields
        if len(blocks) == 1:
            (top,) = deg_shifts

            def degree(m):
                return m >> top

        else:
            low, top = deg_shifts

            def degree(m):
                return (m >> top) + ((m >> low) & ones)

        self.pack = pack
        self.unpack = unpack
        self.degree = degree

    def entry(self, lead: tuple[int, ...], terms) -> tuple[int, tuple]:
        """Reducer of a monic polynomial given by its (exps, coefficient)
        terms and its leading exponents: (plain packed lead, tail), each
        tail term as (key - lead key, coefficient)."""
        pack = self.pack
        kl = pack(lead)
        return kl ^ self.flip, tuple((pack(e) - kl, c) for e, c in terms if e != lead)

    def monic_entry(self, remainder: dict, p: int) -> tuple[int, tuple]:
        """(lead key, reducer) of a remainder dict scaled to lead
        coefficient 1; its first key is its leading term, since the kernel
        fills a remainder largest term first.  Raises ``ExponentOverflow``
        as ``Polynomial`` would for an exponent above ``MAX_EXPONENT``."""
        cap = self.cap
        if cap and any(k & cap for k in remainder):
            raise ExponentOverflow("exponent exceeds cap")
        items = iter(remainder.items())
        kl, c = next(items)
        inv = pow(c, p - 2, p)
        return kl, (kl ^ self.flip, tuple((k - kl, v * inv % p) for k, v in items))


# ---------------------------------------------------------------------------
# Reduction


def _reduce(
    work: dict,
    entries: list,
    pk: _Packing,
    p: int,
    sugar: Optional[int] = None,
    sugars: Optional[list] = None,
):
    """Tail-complete reduction of ``work`` (dict key -> coeff) by ``entries``.

    Each entry is a monic reducer (plain packed lead, tail) from
    ``_Packing.entry``.  Returns (remainder dict, sugar), the remainder
    filled largest term first.  Deterministic: the current largest term is
    reduced by the first entry (in list order) whose lead divides it.
    Raises ``_FieldOverflow`` when a popped term has a guard bit set.
    """
    heap = list(work)
    heapify(heap)
    get, pop = work.get, work.pop
    flip, guard = pk.flip, pk.guard
    track_sugar = sugar is not None and sugars is not None
    remainder: dict = {}
    while heap:
        k = heappop(heap)
        c = pop(k, None)
        if c is None:
            continue
        m = k ^ flip
        if m & guard:
            raise _FieldOverflow
        for idx, (lead, tail) in enumerate(entries):
            if not (m - lead) & guard:
                break
        else:
            remainder[k] = c
            continue
        if track_sugar:
            s = sugars[idx] + pk.degree(m - lead)
            if s > sugar:
                sugar = s
        c = p - c  # subtract c·(reducer) by adding (p - c)·(reducer)
        for td, tc in tail:
            ne = k + td
            prev = get(ne)
            if prev is None:
                work[ne] = c * tc % p
                heappush(heap, ne)
            else:
                v = (prev + c * tc) % p
                if v:
                    work[ne] = v
                else:
                    del work[ne]
    return remainder, sugar


# ---------------------------------------------------------------------------
# Buchberger with Gebauer-Moller pruning and sugar selection

def groebner_basis(J: Ideal, order: Optional[TermOrder] = None) -> GroebnerBasis:
    """Reduced Groebner basis of J under ``order`` (default degrevlex).

    The Buchberger run is memoized on (ring, generator set, order, pair
    budget): the same generators in any order and with any repeats share one
    entry, and since the budget is part of the key a basis computed
    under one budget is never returned under a smaller one.  The memo is a
    bounded LRU; ``_buchberger.cache_info()`` reads its hits and misses and
    ``_buchberger.cache_clear()`` empties it.  An ``Ideal`` that holds its
    reduced degrevlex basis (see ``_holding``) gets that basis back under
    degrevlex with no run, so no pair budget limits it.  The budget is the
    one ``set_pair_budget`` last set.
    """
    held = J._basis
    if held is not None and (order is None or order == held.order):
        return held
    if order is None:
        order = degrevlex_order(J.ring)
    return _buchberger(J.ring, frozenset(J.generators), order, _pair_budget)


# One benchmark pass of many small saturations makes under 800 distinct
# runs, so 4096 entries keep every reuse while bounding a long-lived process.
@lru_cache(maxsize=4096)
def _buchberger(
    ring: RingSpec, gens: frozenset, order: TermOrder, budget: int
) -> GroebnerBasis:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis(ring, order, (), ())
    if any(g.is_constant() for g in gens):
        return _unit_basis(ring, order)
    width = _width_for(max(g.total_degree() for g in gens))
    while True:
        try:
            return _packed_run(ring, order, budget, gens, _Packing(order, width))
        except _FieldOverflow:
            width *= 2


def _unit_basis(ring: RingSpec, order: TermOrder) -> GroebnerBasis:
    return GroebnerBasis(ring, order, (Polynomial.one(ring),), (ring.zero_exps(),))


def _packed_run(
    ring: RingSpec, order: TermOrder, budget: int, gens: list, pk: _Packing
) -> GroebnerBasis:
    """One Buchberger run of ``_buchberger`` at the field width of ``pk``.

    The nonzero, nonconstant ``gens`` enter smallest lead first, equal
    leads by their monic terms in canonical order; the lead of a packed
    input is its smallest key."""
    p = ring.characteristic
    pack, unpack, flip = pk.pack, pk.unpack, pk.flip
    inputs = []
    for g in gens:
        work = {pack(e): c for e, c in g.terms}
        kl = min(work)
        inv = pow(work[kl], p - 2, p)
        monic = tuple((e, c * inv % p) for e, c in g.terms)
        inputs.append((-kl, monic, work, g.total_degree()))
    inputs.sort(key=lambda t: t[:2])
    entries: list = []  # packed (lead, tail) per basis element
    sugars: list[int] = []
    leads: list[tuple[int, ...]] = []
    # (sugar, -lcm key, i, j, lcm).  The fields of the lcm of two guard-free
    # leads are below 2^(b-1) and its degree fields below 2^b, so no
    # complemented field borrows and the packed lcm key is exact: smallest
    # -key first is smallest lcm first.
    pairs: list = []
    processed = 0

    def add_element(kl: int, entry: tuple, sugar: int):
        """Gebauer-Moller update of the pair set, then append the reducer
        ``entry`` whose lead has key ``kl``.

        With t the new index and L_i = lcm(lead_i, lead_t):
        * an old pair (i, j) goes when lead_t divides its lcm and that lcm
          is neither L_i nor L_j (chain criterion);
        * of the candidates (i, t) with one L, only the first index is
          kept, and none when some candidate with that L has leads coprime
          to lead_t (product criterion);
        * an L goes when another L properly divides it (criterion M), also
          when that other L makes no pair.  A proper divisor has lower
          degree, so walking the distinct L by degree meets it first, and
          testing the minimal L kept so far suffices: every L that divides
          a later one lies over a minimal one.

        The pairs kept are those of the pairwise candidate scan that the
        tuple oracle ``tests/helpers.py::tuple_buchberger`` keeps.
        """
        lead_t = unpack(kl)
        t = len(entries)
        lcms = [mono_lcm(lead, lead_t) for lead in leads]
        pairs[:] = [
            pair
            for pair in pairs
            if pair[4] in (lcms[pair[2]], lcms[pair[3]])
            or not mono_divides(lead_t, pair[4])
        ]
        first: dict = {}  # L -> first index with it, None after a coprime one
        for i, li in enumerate(lcms):
            if mono_coprime(leads[i], lead_t):
                first[li] = None
            else:
                first.setdefault(li, i)
        minimal_lcms: list = []
        for li in sorted(first, key=sum):
            if any(mono_divides(m, li) for m in minimal_lcms):
                continue
            minimal_lcms.append(li)
            i = first[li]
            if i is not None:
                s = max(sugars[i] - sum(leads[i]), sugar - sum(lead_t)) + sum(li)
                pairs.append((s, -pack(li), i, t, li))
        entries.append(entry)
        sugars.append(sugar)
        leads.append(lead_t)

    # _reduce is linear, so reducing an input unscaled gives the same monic
    # remainder as reducing it monic
    for _, _, work, sugar in inputs:
        red, sg = _reduce(work, entries, pk, p, sugar=sugar, sugars=sugars)
        if red:
            add_element(*pk.monic_entry(red, p), sg)

    while pairs:
        best = min(pairs)
        pairs.remove(best)
        processed += 1
        if processed > budget:
            raise PairBudgetExceeded(
                f"S-pair budget {budget} exceeded",
                {
                    "pairs_processed": processed,
                    "basis_size": len(entries),
                    "pairs_remaining": len(pairs),
                    "budget": budget,
                },
            )
        s_sugar, neg_klij, i, j, _ = best
        # tails hold key(t) - key(lead), so key(lij / lead · t) = klij + diff
        klij = -neg_klij
        work: dict = {}
        for td, tc in entries[i][1]:
            k = klij + td
            work[k] = work.get(k, 0) + tc
        for td, tc in entries[j][1]:
            k = klij + td
            work[k] = work.get(k, 0) - tc
        work = {k: c % p for k, c in work.items() if c % p}
        red, sg = _reduce(work, entries, pk, p, sugar=s_sugar, sugars=sugars)
        if red:
            kl, entry = pk.monic_entry(red, p)
            if kl == pk.one:
                return _unit_basis(ring, order)
            add_element(kl, entry, sg)

    # Inter-reduce to the unique reduced basis; ascending key is descending
    # in the order, and leads are distinct.
    by_lead = sorted(
        range(len(entries)), key=lambda i: entries[i][0] ^ flip, reverse=True
    )
    guard, cap = pk.guard, pk.cap
    minimal: list[int] = []
    for i in by_lead:
        lead_i = entries[i][0]
        if all((lead_i - entries[j][0]) & guard for j in minimal):
            minimal.append(i)
    elements = []
    for i in minimal:
        others = [entries[j] for j in minimal if j != i]
        kl = entries[i][0] ^ flip
        red, _ = _reduce({kl + td: c for td, c in entries[i][1]}, others, pk, p)
        if cap and any(k & cap for k in red):
            raise ExponentOverflow("exponent exceeds cap")
        # the remainder comes largest term first in the run's order, which
        # is degrevlex only for a degrevlex run
        terms = [(leads[i], 1)]
        terms.extend((unpack(k), c) for k, c in red.items())
        if order.kind != "degrevlex":
            terms.sort(key=lambda t: _grevlex_neg_key(t[0]))
        elements.append(Polynomial._canonical(ring, tuple(terms)))
    return GroebnerBasis(ring, order, elements, [leads[i] for i in minimal])


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo G under G's order.

    Packs G and p at the smallest width holding both and, as a Buchberger
    run does, restarts at double width when the reduction overflows."""
    if p.ring != G.ring:
        raise ValueError("polynomial and basis over different rings")
    if p.is_zero() or not G.elements:
        return p
    width = _width_for(max(g.total_degree() for g in (p, *G.elements)))
    while True:
        pk = _Packing(G.order, width)
        entries = [pk.entry(lead, g.terms) for g, lead in zip(G.elements, G.leading_exps)]
        pack = pk.pack
        try:
            red, _ = _reduce(
                {pack(e): c for e, c in p.terms}, entries, pk, p.ring.characteristic
            )
        except _FieldOverflow:
            width *= 2
            continue
        unpack = pk.unpack
        return Polynomial(p.ring, ((unpack(k), c) for k, c in red.items()))


# ---------------------------------------------------------------------------
# Elimination and the derived ideal operations


def _holding(
    ring: RingSpec, elements: Sequence[Polynomial], leads: Sequence[tuple[int, ...]]
) -> Ideal:
    """The ideal generated by ``elements``, holding them as its basis.

    ``elements`` must be the reduced degrevlex basis of the ideal they
    generate, sorted by leading term, with leading exponents ``leads``;
    ``groebner_basis`` then returns them without a Buchberger run.
    """
    J = Ideal(ring, elements)
    J._basis = GroebnerBasis(ring, degrevlex_order(ring), J.generators, leads)
    return J


def elimination_ideal(J: Ideal, drop_names: Iterable[str]) -> Ideal:
    """J intersected with the subring omitting ``drop_names``, generated by
    (and holding) its reduced degrevlex basis.

    The generators are the drop-free elements of the reduced elimination
    basis, in its order.  They are that basis because the elimination order
    restricted to drop-free monomials is degrevlex on the kept variables,
    which is degrevlex on the whole ring for monomials that are zero at
    every drop variable: so they are reduced, monic and sorted by degrevlex
    leading term, with the leading exponents the elimination run found.
    """
    drop = tuple(dict.fromkeys(drop_names))
    if not drop:
        return J
    ring = J.ring
    indices = [ring.var_index(n) for n in drop]
    order = elimination_order(ring, drop)
    G = groebner_basis(J, order)
    kept = [
        (g, lead)
        for g, lead in zip(G.elements, G.leading_exps)
        if all(all(e[i] == 0 for i in indices) for e, _ in g.terms)
    ]
    return _holding(ring, [g for g, _ in kept], [lead for _, lead in kept])


def _lift(p: Polynomial, ext: RingSpec) -> Polynomial:
    """p in ``ext``, a ring extended by helper variables set to exponent 0."""
    pad = (0,) * (ext.nvars - p.ring.nvars)
    # trailing zero exponents keep degrevlex comparisons, so the sort holds
    return Polynomial._canonical(ext, tuple((e + pad, c) for e, c in p.terms))


def _project(p: Polynomial, ring: RingSpec) -> Polynomial:
    """p back in ``ring``, dropping the helper variables it must not involve."""
    n = ring.nvars
    for e, _ in p.terms:
        if any(e[n:]):
            raise AssertionError("projection of a polynomial involving a helper")
    return Polynomial._canonical(ring, tuple((e[:n], c) for e, c in p.terms))


def _drop_helpers(eliminated: Ideal, ring: RingSpec) -> Ideal:
    """The result of ``elimination_ideal`` over ``ring`` extended by trailing
    helpers, projected back to ``ring`` with its held basis.

    Dropping trailing zero exponents keeps degrevlex comparisons, so the
    projected basis is still the reduced degrevlex basis, in the same order.
    """
    n = ring.nvars
    return _holding(
        ring,
        [_project(g, ring) for g in eliminated.generators],
        [lead[:n] for lead in eliminated._basis.leading_exps],
    )


def ideal_intersection(J1: Ideal, J2: Ideal) -> Ideal:
    """J1 ∩ J2 via w·J1 + (1−w)·J2, eliminating the helper w."""
    if J1.ring != J2.ring:
        raise ValueError("ideals over different rings")
    ring = J1.ring
    if not J1.generators or not J2.generators:
        return _holding(ring, (), ())
    ext = ring.extended("_w")
    wname = ext.variables[-1]
    w = Polynomial.variable(ext, wname)
    one_minus_w = Polynomial.one(ext) - w
    gens = [w * _lift(g, ext) for g in J1.generators]
    gens += [one_minus_w * _lift(g, ext) for g in J2.generators]
    return _drop_helpers(elimination_ideal(Ideal(ext, gens), (wname,)), ring)


def _exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f when f divides g exactly (leading terms cancel stepwise)."""
    ring = g.ring
    p = ring.characteristic
    lf = f.lead_exps()
    cf_inv = pow(f.lead_coeff(), p - 2, p)
    quotient: dict = {}
    rest = g
    while not rest.is_zero():
        lg = rest.lead_exps()
        if not mono_divides(lf, lg):
            raise ArithmeticError("inexact polynomial division")
        q = mono_div(lg, lf)
        c = rest.lead_coeff() * cf_inv % p
        quotient[q] = c
        rest = rest - Polynomial(ring, ((q, c),)) * f
    return Polynomial(ring, quotient.items())


def ideal_quotient(J: Ideal, f: Polynomial) -> Ideal:
    """(J : f) = {g : g·f ∈ J}."""
    if f.ring != J.ring:
        raise ValueError("polynomial over a different ring")
    if f.is_zero():
        raise ValueError("colon by zero")
    if f.is_constant():
        G = groebner_basis(J)
    elif not J.generators:
        return _holding(J.ring, (), ())
    else:
        inter = ideal_intersection(J, Ideal(J.ring, (f,)))
        gens = [_exact_divide(g, f) for g in inter.generators]
        G = groebner_basis(Ideal(J.ring, gens))
    return _holding(J.ring, G.elements, G.leading_exps)


def saturation(J: Ideal, K: Ideal) -> Ideal:
    """(J : K^∞) by one elimination, as its reduced degrevlex basis.

    With one helper w_j per generator k_j of K,
    (J : K^∞) = (J + (1 − Σ_j w_j·k_j)) ∩ R.  If K^M·g ⊆ J then
    g·(Σ_j w_j·k_j)^M ∈ J, so g lies in the right side; conversely
    w_l ↦ 1/k_l and w_j ↦ 0 (j ≠ l) put g in J·R_{k_l} for every l.
    The helper-free part of the reduced elimination basis is already the
    reduced degrevlex basis, since the elimination order restricted to R is
    degrevlex; the result holds it, so ``groebner_basis`` of the result
    runs no second Buchberger.
    """
    if J.ring != K.ring:
        raise ValueError("ideals over different rings")
    if not K.generators:
        raise ValueError("saturation by the zero ideal")
    ring = J.ring
    r = len(K.generators)
    ext = ring.extended("_w", r)
    helpers = ext.variables[ring.nvars:]
    p = ring.characteristic
    # each w_j·k_j term carries its own w_j, so no two terms share a monomial
    terms = [(ext.zero_exps(), 1)]
    for j, k in enumerate(K.generators):
        w = tuple(int(i == j) for i in range(r))
        terms.extend((e + w, p - c) for e, c in k.terms)
    terms.sort(key=lambda t: _grevlex_neg_key(t[0]))
    rabinowitsch = Polynomial._canonical(ext, tuple(terms))
    gens = [_lift(g, ext) for g in J.generators] + [rabinowitsch]
    return _drop_helpers(elimination_ideal(Ideal(ext, gens), helpers), ring)
