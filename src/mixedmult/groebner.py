"""Buchberger engine and ideal-theoretic primitives.

The S-pair queue is pruned with the Gebauer-Moller update (JSC 1988): each
new element drops old pairs by the chain criterion, then makes one pair per
minimal distinct lcm with it, in one pass over those lcms in ascending
packed value, and none where the product criterion applies.  The queue is
a heap of (sugar, packed lcm key) entries, popped smallest lcm first, so
runs are deterministic; the final basis is inter-reduced and monic, hence
the unique reduced Groebner basis of the ideal for the given order.  The
packed key below is the library's only comparison of monomials under a
term order.
Elimination is one run in a block elimination order.  Intersection, colon
and saturation append helper variables, eliminate them and drop them
before returning: intersection (and the colon built on it) uses one
helper, saturation one helper per generator of the saturating ideal.
Saturating a monomial ideal by a monomial ideal is the exception: it runs
on exponent tuples, with no helper and no Buchberger run (``saturation``).

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
  the first popped term it reaches, and the run restarts at double width
  (``_widening``, the one restart loop).  ``_buchberger`` packs its input
  once, builds monic basis elements straight from packed remainders and
  unpacks only the final basis; ``normal_form`` packs its basis on each
  call.
* Pair update.  Leads are plain packed values, and so are their lcms, built
  field-wise on one int (SWAR): (a | GUARD) - b sets the guard bit of every
  field where a's is at least b's, which selects the maximum per field;
  each block's degree field is then the sum of its maxima, by one
  multiply.  Two leads are coprime iff their lcm is their sum.  An lcm's
  degree field can reach 2^(b-1), so divisibility of or by an lcm reads
  the guard bits of the variable fields only (VGUARD): the lowest field
  where a divisor candidate exceeds the lcm is always a variable field.
  Exponent tuples are unpacked only for the final basis.
* Hilbert-driven runs (Traverso, "Hilbert functions and the Buchberger
  algorithm", JSC 22, 1996).  A private hint (weights, numerator), passed
  by ``maps.rees_ideal``, says that the input is homogeneous when variable
  j has weight w_j > 0 and that B/J has the series numerator / prod_j
  (1 - z^w_j).  Pairs then queue by weighted sugar, the weight of their
  lcm, which every remainder of the pair keeps.  On the first zero
  reduction at weight D, when another pair of weight D is queued, the run
  reads the numerator of its leading-term ideal and takes the deficit
  HF_lead(D) - HF(D); each new lead of weight D lowers it by one, and at 0
  the rest of weight D leaves the queue unreduced.  This is exact because
  LT(G) lies in LT(J), which has the Hilbert function of J: at deficit 0
  their weight-D parts are equal, so no pair of weight D has a nonzero
  remainder.  A skipped pair still counts against the pair budget.  At
  the end the run raises ``InvariantViolation`` unless the numerator of
  its final leads is the hint's; with LT(G) in LT(J), equal series mean
  LT(G) = LT(J), so that equality certifies the basis whatever was
  skipped.  Both reads run ``hilbert``'s one K-numerator recursion on the
  grading by the weights, imported inside the run (``hilbert`` imports
  ``groebner``).

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
from itertools import zip_longest
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import (
    ExponentOverflow,
    InvariantViolation,
    NotMultihomogeneousError,
    PairBudgetExceeded,
)
from .rings import (
    MAX_EXPONENT,
    Polynomial,
    RingSpec,
    TermOrder,
    _grevlex_neg_key,
    _minimalize,
    degrevlex_order,
    elimination_order,
    mono_div,
    mono_divides,
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

    def require_multihomogeneous(self) -> None:
        for g in self.generators:
            if g.multidegree() is None:
                raise NotMultihomogeneousError(
                    f"generator {g} is not multihomogeneous"
                )

    def same_ideal(self, other: "Ideal") -> bool:
        """Mathematical equality via reduced-basis uniqueness."""
        if self.ring != other.ring:
            return False
        return groebner_basis(self).elements == groebner_basis(other).elements

    def is_unit_ideal(self) -> bool:
        g = groebner_basis(self).elements
        return len(g) == 1 and g[0].is_constant() and not g[0].is_zero()


class GroebnerBasis:
    """Reduced Groebner basis: monic, autoreduced, sorted by leading term
    in ascending order under ``order`` (ascending degrevlex for a degrevlex
    basis), with the leading exponents of its elements under that order."""

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


def _widening(order: TermOrder, polys, run):
    """``run(_Packing(order, width))``, from the smallest width holding the
    largest degree in polys, doubling the width while ``run`` overflows."""
    width = _width_for(max(g.total_degree() for g in polys))
    while True:
        try:
            return run(_Packing(order, width))
        except _FieldOverflow:
            width *= 2


class _Packing:
    """Monomials of one order packed at one field width (see the module
    docstring): ``pack`` takes an exponent tuple to its heap key,
    ``unpack`` a heap key back, ``degree`` a plain packed value to its
    total degree and ``lcm`` two guard-free plain values to the plain value
    of their lcm; ``flip`` turns a key into the plain value and back,
    ``guard`` holds every guard bit, ``vguard`` the guard bits of the
    variable fields only, ``cap`` the bits of exponents above
    ``MAX_EXPONENT`` (0 where no field can hold one) and ``one`` is the key
    of the monomial 1.

    One codec serves every width.  Variable i has its field at bit offset
    ``shifts[i]``; its exponent adds to that field and, in the key, takes
    away from the complemented degree field of its block, so a key is
    ``flip`` plus one weighted sum of the exponents."""

    __slots__ = (
        "width", "flip", "guard", "vguard", "cap", "one",
        "pack", "unpack", "degree", "lcm",
    )

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
        # per block: its variable fields, the multiplier sum(2^(j·b)) over
        # 1 <= j <= k that adds its k variable fields into its degree field,
        # and that degree field
        sums: list[tuple[int, int, int]] = []
        pos = 0
        for block in blocks:
            top = pos + len(block) * width
            fields = 0
            for i in block:
                shifts[i] = pos
                weights[i] = (1 << pos) - (1 << top)
                fields |= ones << pos
                pos += width
            deg_shifts.append(top)
            mult = sum(1 << (j * width) for j in range(1, len(block) + 1))
            sums.append((fields, mult, ones << top))
            pos += width
        self.width = width
        self.flip = flip = sum(ones << s for s in deg_shifts)
        self.guard = guard = sum(1 << (s + width - 1) for s in range(0, pos, width))
        self.vguard = vguard = sum(1 << (s + width - 1) for s in shifts)
        self.cap = (
            sum((ones ^ MAX_EXPONENT) << s for s in shifts) if width > 32 else 0
        )
        self.one = flip
        vmask = sum(fields for fields, _, _ in sums)
        guard_shift = width - 1

        def pack(e):
            return sum(map(mul, e, weights), flip)

        def unpack(k):
            m = k ^ flip
            return tuple([(m >> s) & ones for s in shifts])

        # ``_reduce`` reads one degree per reduction step and the pair update
        # one lcm per basis element: a reader per block count is faster there
        # than a loop over the blocks.  In ``lcm``, (a | guard) - b holds
        # a_f - b_f + 2^(b-1) in every field f, with no borrow between fields,
        # so its guard bit is set where a_f >= b_f; ``sel`` keeps those bits
        # of the variable fields, sel - (sel >> (b-1)) spreads each over the
        # bits below it, and that mask selects a there, b elsewhere.  Each
        # block's degree is then the sum of its maxima: no partial sum of a
        # block's fields reaches 2^b, so the multiply carries between none.
        if len(blocks) == 1:
            (top,) = deg_shifts
            ((_, mult, deg_field),) = sums

            def degree(m):
                return m >> top

            def lcm(a, b):
                sel = ((a | guard) - b) & vguard
                v = (b & vmask) ^ ((a ^ b) & (sel - (sel >> guard_shift)))
                return v | (v * mult & deg_field)

        else:
            low, top = deg_shifts
            (_, low_mult, low_field), (high_vars, high_mult, high_field) = sums

            def degree(m):
                return (m >> top) + ((m >> low) & ones)

            def lcm(a, b):
                sel = ((a | guard) - b) & vguard
                v = (b & vmask) ^ ((a ^ b) & (sel - (sel >> guard_shift)))
                # the low block's fields are the lowest, so only the high
                # block needs masking before its multiply
                return (
                    v
                    | (v * low_mult & low_field)
                    | ((v & high_vars) * high_mult & high_field)
                )

        self.pack = pack
        self.unpack = unpack
        self.degree = degree
        self.lcm = lcm

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
    excesses: Optional[list] = None,
):
    """Tail-complete reduction of ``work`` (dict key -> coeff) by ``entries``.

    Each entry is a monic reducer (plain packed lead, tail) from
    ``_Packing.entry``.  Returns (remainder dict, sugar), the remainder
    filled largest term first.  Deterministic: the current largest term is
    reduced by the first entry (in list order) whose lead divides it.
    ``excesses[i]`` is entry i's sugar minus its lead's degree, so using it
    on the term m raises ``sugar`` to at least excesses[i] + deg(m).
    Raises ``_FieldOverflow`` when a popped term has a guard bit set.
    """
    heap = list(work)
    heapify(heap)
    get, pop = work.get, work.pop
    flip, guard = pk.flip, pk.guard
    track_sugar = sugar is not None and excesses is not None
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
            s = excesses[idx] + pk.degree(m)
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
    ring: RingSpec,
    gens: frozenset,
    order: TermOrder,
    budget: int,
    hint: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None,
) -> GroebnerBasis:
    """The reduced basis of ``groebner_basis``.  A ``hint`` (weights,
    numerator) drives the run by the known Hilbert series of B/(gens) (see
    ``_packed_run``) and certifies the result: it raises
    ``InvariantViolation`` unless the numerator of the final leading terms
    is the hint's."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        basis = GroebnerBasis(ring, order, (), ())
    elif any(g.is_constant() for g in gens):
        basis = _unit_basis(ring, order)
    else:
        basis = _widening(
            order, gens, lambda pk: _packed_run(ring, order, budget, gens, pk, hint)
        )
    if hint is not None:
        from .hilbert import _weighted_numerator

        weights, target = hint
        found = _weighted_numerator(basis.leading_exps, weights)
        if found != target:
            raise InvariantViolation(
                f"leading terms have series numerator {found}, not {target}"
            )
    return basis


def _unit_basis(ring: RingSpec, order: TermOrder) -> GroebnerBasis:
    return GroebnerBasis(ring, order, (Polynomial.one(ring),), (ring.zero_exps(),))


def _packed_run(
    ring: RingSpec,
    order: TermOrder,
    budget: int,
    gens: list,
    pk: _Packing,
    hint: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None,
) -> GroebnerBasis:
    """One Buchberger run of ``_buchberger`` at the field width of ``pk``.

    The nonzero, nonconstant ``gens`` enter smallest lead first, equal
    leads by their monic terms in canonical order; the lead of a packed
    input is its smallest key.

    With a ``hint`` (weights, numerator) the run is Hilbert-driven
    (Traverso, JSC 22, 1996).  ``gens`` must be homogeneous when variable j
    has weight ``weights[j]`` > 0, and ``numerator`` must be that of the
    series of B/(gens) over prod_j (1 - z^w_j); ``_buchberger``'s
    certificate fails the run otherwise.  A pair's sugar is the weight of
    its lcm, which is the weight of its S-polynomial and of every remainder
    of it, and pairs pop by ascending weight, so while pairs of weight D
    pop the basis is a Groebner basis up to weight D - 1.  When a pair of
    weight D first reduces to zero and another pair of weight D is still
    queued (a read before that could skip nothing), the run reads the
    numerator of its leading-term ideal and takes the deficit
    HF_lead(D) - HF(D), HF(D) the number of standard monomials of weight D.
    LT(G) lies in LT(J), whose Hilbert function is that of J, so the
    deficit is the number of monomials of weight D that LT(J) has beyond
    LT(G), never negative.  A new element of weight D adds exactly its lead
    to the weight-D part of LT(G) (weights are positive), so lowers the
    deficit by one; at deficit 0 the two parts are equal, every remaining
    pair of weight D would reduce to zero, and it leaves the queue
    unreduced.  Skipped pairs count as processed against ``budget``."""
    p = ring.characteristic
    pack, unpack, flip = pk.pack, pk.unpack, pk.flip
    lcm, vguard = pk.lcm, pk.vguard
    if hint is None:
        degree = pk.degree
    else:
        from .hilbert import _weighted_numerator

        weights, target = hint

        def degree(m: int) -> int:
            return sum(map(mul, unpack(m ^ flip), weights))

    inputs = []
    for g in gens:
        work = {pack(e): c for e, c in g.terms}
        kl = min(work)
        inv = pow(work[kl], p - 2, p)
        monic = tuple((e, c * inv % p) for e, c in g.terms)
        sugar = g.total_degree() if hint is None else degree(kl ^ flip)
        inputs.append((-kl, monic, work, sugar))
    inputs.sort(key=lambda t: t[:2])
    entries: list = []  # packed (lead, tail) per basis element
    excesses: list[int] = []  # sugar minus lead degree, per element
    # a hinted run's sugars are exact weights: _reduce need not track them
    tracked = excesses if hint is None else None
    # A heap of (sugar, -lcm key, i, j, lcm), lcm a plain packed value.  The
    # fields of the lcm of two guard-free leads are below 2^(b-1) and its
    # degree fields below 2^b, so no complemented field borrows and the
    # packed lcm key is exact: smallest -key first is smallest lcm first.
    pairs: list = []
    processed = 0

    def add_element(entry: tuple, sugar: int):
        """Gebauer-Moller update of the pair set, then append the reducer
        ``entry``, all on plain packed values.

        With t the new index and L_i = lcm(lead_i, lead_t):
        * an old pair (i, j) goes when lead_t divides its lcm and that lcm
          is neither L_i nor L_j (chain criterion);
        * of the candidates (i, t) with one L, only the first index is
          kept, and none when some candidate with that L has leads coprime
          to lead_t (product criterion);
        * an L goes when another L properly divides it (criterion M), also
          when that other L makes no pair.  A proper divisor m of L is a
          smaller plain value, since L - m has no negative field, so
          walking the distinct L in ascending value meets it first, and
          testing the minimal L kept so far suffices: every L that divides
          a later one lies over a minimal one.

        Leads are coprime iff L_i = lead_i + lead_t: the maximum of two
        fields is their sum iff their minimum is 0.  m divides an lcm L iff
        (L - m) & vguard == 0, as in ``_reduce``, but on the variable
        fields' guard bits only: an lcm's degree field may reach 2^(b-1),
        so its own guard bit says nothing, and the lowest field where m
        exceeds L is always a variable field, which no borrow has reached.
        The pairs kept are those of the pairwise candidate scan that the
        tuple oracle ``tests/helpers.py::tuple_buchberger`` keeps; the
        queue is a heap again once the new pairs are in.
        """
        lead_t = entry[0]
        t = len(entries)
        lcms = []
        first: dict = {}  # L -> first index with it, None after a coprime one
        for i, (lead, _) in enumerate(entries):
            li = lcm(lead, lead_t)
            lcms.append(li)
            if li == lead + lead_t:
                first[li] = None
            else:
                first.setdefault(li, i)
        pairs[:] = [
            pair
            for pair in pairs
            if (pair[4] - lead_t) & vguard or pair[4] in (lcms[pair[2]], lcms[pair[3]])
        ]
        minimal_lcms: list = []
        excess_t = sugar - degree(lead_t)
        for li in sorted(first):
            for m in minimal_lcms:
                if not (li - m) & vguard:
                    break
            else:
                minimal_lcms.append(li)
                i = first[li]
                if i is not None:
                    s = max(excesses[i], excess_t) + degree(li)
                    pairs.append((s, -(li ^ flip), i, t, li))
        heapify(pairs)
        entries.append(entry)
        excesses.append(excess_t)

    # _reduce is linear, so reducing an input unscaled gives the same monic
    # remainder as reducing it monic
    for _, _, work, sugar in inputs:
        red, sg = _reduce(work, entries, pk, p, sugar=sugar, excesses=tracked)
        if red:
            add_element(pk.monic_entry(red, p)[1], sg)

    def deficit_at(D: int) -> int:
        """HF_lead(D) - HF(D) = sum_k (N_k - target_k) * c_(D-k), N the
        numerator of the leading-term ideal and c_m the number of monomials
        of weight m."""
        counts = [1] + [0] * D
        for w in weights:
            for k in range(w, D + 1):
                counts[k] += counts[k - w]
        leads = [unpack(lead ^ flip) for lead, _ in entries]
        diff = zip_longest(_weighted_numerator(leads, weights), target, fillvalue=0)
        return sum((a - b) * c for (a, b), c in zip(diff, reversed(counts)))

    # the weight D being popped and its deficit, None until a pair of weight
    # D reduces to zero: a read costs a numerator, and before that none pays
    weight_now, deficit = 0, None
    while pairs:
        best = heappop(pairs)
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
        if hint is not None and s_sugar != weight_now:
            weight_now, deficit = s_sugar, None
        if deficit == 0:
            continue
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
        red, sg = _reduce(work, entries, pk, p, sugar=s_sugar, excesses=tracked)
        if red:
            kl, entry = pk.monic_entry(red, p)
            if kl == pk.one:
                return _unit_basis(ring, order)
            add_element(entry, sg)
            if deficit is not None:
                deficit -= 1
        elif deficit is None and hint is not None and pairs and pairs[0][0] == s_sugar:
            deficit = deficit_at(s_sugar)
            if deficit < 0:
                raise InvariantViolation(
                    f"leading terms leave {-deficit} fewer standard "
                    f"monomials of weight {s_sugar} than the hinted series"
                )

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
    leading_exps = []
    for i in minimal:
        others = [entries[j] for j in minimal if j != i]
        kl = entries[i][0] ^ flip
        red, _ = _reduce({kl + td: c for td, c in entries[i][1]}, others, pk, p)
        if cap and any(k & cap for k in red):
            raise ExponentOverflow("exponent exceeds cap")
        # the remainder comes largest term first in the run's order, which
        # is degrevlex only for a degrevlex run
        lead = unpack(kl)
        leading_exps.append(lead)
        terms = [(lead, 1)]
        terms.extend((unpack(k), c) for k, c in red.items())
        if order.kind != "degrevlex":
            terms.sort(key=lambda t: _grevlex_neg_key(t[0]))
        elements.append(Polynomial._canonical(ring, tuple(terms)))
    return GroebnerBasis(ring, order, elements, leading_exps)


def normal_form(p: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo G under G's order.

    Packs G and p at the smallest width holding both and, as a Buchberger
    run does, restarts at double width when the reduction overflows."""
    if p.ring != G.ring:
        raise ValueError("polynomial and basis over different rings")
    if p.is_zero() or not G.elements:
        return p

    def run(pk: _Packing) -> Polynomial:
        entries = [pk.entry(lead, g.terms) for g, lead in zip(G.elements, G.leading_exps)]
        pack, unpack = pk.pack, pk.unpack
        red, _ = _reduce(
            {pack(e): c for e, c in p.terms}, entries, pk, p.ring.characteristic
        )
        return Polynomial(p.ring, ((unpack(k), c) for k, c in red.items()))

    return _widening(G.order, (p, *G.elements), run)


# ---------------------------------------------------------------------------
# Elimination and the derived ideal operations


def _holding(ring: RingSpec, elements: Sequence[Polynomial]) -> Ideal:
    """The ideal generated by ``elements``, holding them as its basis.

    ``elements`` must be the reduced degrevlex basis of the ideal they
    generate, sorted by leading term in ascending degrevlex order;
    ``groebner_basis`` then returns them, each lead its first term (terms
    run degrevlex descending), with no Buchberger run.
    """
    J = Ideal(ring, elements)
    leads = [g.terms[0][0] for g in J.generators]
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
    return _drop_free(J.ring, drop, groebner_basis(J, elimination_order(J.ring, drop)))


def _drop_free(ring: RingSpec, drop: tuple[str, ...], G: GroebnerBasis) -> Ideal:
    """The elements of G, a reduced basis under the elimination order of
    ``drop``, that involve no drop variable, holding them as their basis."""
    indices = [ring.var_index(n) for n in drop]
    return _holding(ring, [
        g for g in G.elements
        if all(all(e[i] == 0 for i in indices) for e, _ in g.terms)
    ])


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


def _eliminate_helpers(
    ext: RingSpec,
    gens: Iterable[Polynomial],
    ring: RingSpec,
    hint: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None,
) -> Ideal:
    """The ideal of ``gens`` in ``ext``, ``ring`` extended by trailing
    helpers, intersected with ``ring``, holding its reduced degrevlex basis.

    Dropping trailing zero exponents keeps degrevlex comparisons, so the
    helper-free part of the elimination basis, projected, is still the
    reduced degrevlex basis, in the same order.  A ``hint`` drives and
    certifies the elimination run as in ``_packed_run``.
    """
    J = Ideal(ext, gens)
    drop = ext.variables[ring.nvars:]
    if hint is None:
        eliminated = elimination_ideal(J, drop)
    else:
        order = elimination_order(ext, drop)
        G = _buchberger(ext, frozenset(J.generators), order, _pair_budget, hint)
        eliminated = _drop_free(ext, drop, G)
    return _holding(ring, [_project(g, ring) for g in eliminated.generators])


def ideal_intersection(J1: Ideal, J2: Ideal) -> Ideal:
    """J1 ∩ J2 via w·J1 + (1−w)·J2, eliminating the helper w."""
    if J1.ring != J2.ring:
        raise ValueError("ideals over different rings")
    ring = J1.ring
    if not J1.generators or not J2.generators:
        return _holding(ring, ())
    ext = ring.extended("_w")
    w = Polynomial.variable(ext, ext.variables[-1])
    one_minus_w = Polynomial.one(ext) - w
    gens = [w * _lift(g, ext) for g in J1.generators]
    gens += [one_minus_w * _lift(g, ext) for g in J2.generators]
    return _eliminate_helpers(ext, gens, ring)


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
        return _holding(J.ring, ())
    else:
        inter = ideal_intersection(J, Ideal(J.ring, (f,)))
        gens = [_exact_divide(g, f) for g in inter.generators]
        G = groebner_basis(Ideal(J.ring, gens))
    return _holding(J.ring, G.elements)


def saturation(J: Ideal, K: Ideal) -> Ideal:
    """(J : K^∞) as its reduced degrevlex basis: from exponent tuples when
    every generator of J and of K is a single term, else by one elimination.

    For K = (k_1, ..., k_r), (J : K^∞) = ∩_j (J : k_j^∞): if K^M·g ⊆ J then
    k_j^M·g ∈ J for each j; conversely, if k_j^M·g ∈ J for every j, each
    product of r(M − 1) + 1 generators of K has some k_j at least M times,
    so K^(r(M−1)+1)·g ⊆ J.  For monomial J = (m_1, ..., m_s) and a term k,
    J : k^∞ is monomial, and a monomial u lies in it iff u·k^N ∈ J for some
    N, iff some m_i divides u·k^N; for large N, k^N exceeds every m_i on
    supp(k), so that holds iff m_i with its exponents on supp(k) set to 0
    divides u.  Those zeroed m_i generate J : k^∞, and monomial ideals
    intersect by pairwise lcms of generators, so ``_monomial_saturation``
    needs no Buchberger run; every other input takes
    ``_rabinowitsch_saturation``.  Either way the result holds its basis,
    so ``groebner_basis`` of the result runs no Buchberger.
    """
    if J.ring != K.ring:
        raise ValueError("ideals over different rings")
    if not K.generators:
        raise ValueError("saturation by the zero ideal")
    if all(len(g.terms) == 1 for g in (*J.generators, *K.generators)):
        return _monomial_saturation(J, K)
    return _rabinowitsch_saturation(J, K)


def _monomial_saturation(J: Ideal, K: Ideal) -> Ideal:
    """(J : K^∞) for J and K generated by single terms (see ``saturation``):
    one part per generator k of K, J's exponents with those on supp(k) set
    to 0, minimalized, folded by minimalized pairwise lcms.  The minimal
    generators of a monomial ideal, monic, are its reduced Groebner basis
    under any order; they come back in ascending degrevlex order, as the
    elimination route returns them."""
    gens = [g.terms[0][0] for g in J.generators]
    result = None
    for k in K.generators:
        keep = tuple(int(not a) for a in k.terms[0][0])
        part = _minimalize([tuple(map(mul, e, keep)) for e in gens])
        if result is None:
            result = part
        elif part != result:
            result = _minimalize([tuple(map(max, a, b)) for a in result for b in part])
    ring = J.ring
    return _holding(ring, [
        Polynomial._canonical(ring, ((e, 1),))
        for e in sorted(result, key=_grevlex_neg_key, reverse=True)
    ])


def _rabinowitsch_saturation(J: Ideal, K: Ideal) -> Ideal:
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
    ring = J.ring
    r = len(K.generators)
    ext = ring.extended("_w", r)
    p = ring.characteristic
    # each w_j·k_j term carries its own w_j, so no two terms share a monomial
    terms = [(ext.zero_exps(), 1)]
    for j, k in enumerate(K.generators):
        w = tuple(int(i == j) for i in range(r))
        terms.extend((e + w, p - c) for e, c in k.terms)
    terms.sort(key=lambda t: _grevlex_neg_key(t[0]))
    rabinowitsch = Polynomial._canonical(ext, tuple(terms))
    gens = [_lift(g, ext) for g in J.generators] + [rabinowitsch]
    return _eliminate_helpers(ext, gens, ring)
