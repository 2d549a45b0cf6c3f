"""Rational maps between projective spaces: graphs, degrees, formulas.

A map P^d -> P^n is given by n+1 forms of one degree.  Its graph lives in
P^d x P^n with bigraded defining ideal obtained by eliminating t from
(y_i - t f_i), in one Buchberger run driven and certified by the known
Hilbert series of that input; each generator g is then checked to vanish
on the graph, g(x, t f) = 0, one y-degree part at a time in the source
ring, in Horner form.  The
projective degrees are the multidegrees of the graph at types (i, d-i).
For maps presented by a Hilbert-Burch matrix or by an odd alternating
matrix there are closed formulas for the whole degree vector, implemented
here next to the elimination route so the two can be played against each
other; their hypothesis G_{d+1} is a bound on Fitting heights, which for
an alternating matrix are read from pfaffian ideals with the same zero
sets as the ideals of minors (a unit Fitting ideal, with empty zero set,
has infinite height and passes).  Every minor and pfaffian of a matrix
comes from one memoized Laplace expansion (``_Expansion``), keyed by
index tuples, so the generators and all Fitting ideals of one G check
share their sub-minors.  The saturated-fiber probe estimates d_0 from the
growth of saturated power pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import mul

from .errors import InvariantViolation, NotMultihomogeneousError, PresentationMismatch
from .groebner import Ideal, _eliminate_helpers, _lift, _Packing, _width_for
from .hilbert import hilbert_polynomial, k_polynomial, quotient_dimension, series_coefficient
from .multigraded import irrelevant_saturation, random_block_form, slice_degree
from .prng import Prng
from .rings import Polynomial, RingSpec, degrevlex_order

@dataclass(frozen=True)
class RationalMapSpec:
    """A rational map P^d -> P^n, d = #source variables - 1, n = #generators - 1."""

    source_ring: RingSpec
    generators: tuple[Polynomial, ...]

    def __post_init__(self):
        ring = self.source_ring
        if ring.r != 1:
            raise ValueError("source must be a single-block ring")
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) < ring.nvars:
            raise ValueError("need at least as many forms as source variables")
        degs = set()
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator outside the source ring")
            if g.is_zero():
                continue
            deg = g.multidegree()
            if deg is None:
                raise ValueError(f"generator {g} is not homogeneous")
            degs.add(deg[0])
        if not degs:
            raise ValueError("generators must not all be zero")
        if len(degs) != 1:
            raise ValueError(f"generators of mixed degrees {sorted(degs)}")
        delta = degs.pop()
        if delta < 1:
            raise ValueError("constant maps are not rational maps of P^d")
        object.__setattr__(self, "_delta", delta)

    @property
    def delta(self) -> int:
        return self._delta

    @property
    def d(self) -> int:
        return self.source_ring.nvars - 1

    @property
    def n(self) -> int:
        return len(self.generators) - 1

    def graph_ring(self) -> RingSpec:
        """The ring of P^d x P^n: the source variables, then one target
        variable per form, named as ``RingSpec.extended`` names new
        variables from the base ``y``."""
        return self.source_ring.extended("y", len(self.generators))


# ---------------------------------------------------------------------------
# Rees ideal and projective degrees


def _check_on_graph(F: RationalMapSpec, gens) -> None:
    """Raise InvariantViolation unless every g(x, y) in gens vanishes on the
    graph of F, i.e. g(x, t*f) = 0.

    The check runs in the source ring and is exact: g(x, t*f) =
    sum_b t^b * g_b(x, f), where g_b is the part of g of y-degree b, so
    every g_b(x, f) must be 0 mod p.  It is evaluated in Horner form: a
    term c*x^a*y^e of y-degree b >= 1 splits as e = e' + e_i, i the last
    index with e_i > 0, and adds c*x^a*f^e' to h_(b,i); then
    g_b(x, f) = sum_i f_i * h_(b,i), the same polynomial as the sum of the
    c*x^a*f^e, so the verdict is unchanged, while powers f^e' are built
    only up to degree b - 1.  A term of y-degree 0 is its own monomial of
    g_0(x, f) = g_0(x), so any such term fails the check.  Monomials are
    the plain packed values ``pack(e) ^ flip`` of ``groebner._Packing``
    under degrevlex, so multiplying two monomials is adding their values.
    The field width holds D, the largest deg_x(term) + delta*deg_y(term)
    over the terms of gens: every x^a*f^e' and every f_i * h_(b,i) has
    degree at most D, so its exponents and degree fit their fields and no
    sum carries into the next field.  The packed powers are built once per
    call, each from a smaller power times one f_i, and shared across gens.
    """
    ring = F.source_ring
    nx = ring.nvars
    p = ring.characteristic
    delta = F.delta
    top = max(
        (sum(e[:nx]) + delta * sum(e[nx:]) for g in gens for e, _ in g.terms),
        default=0,
    )
    pk = _Packing(degrevlex_order(ring), _width_for(top))
    pack, flip = pk.pack, pk.flip
    fs = [{pack(e) ^ flip: c for e, c in f.terms} for f in F.generators]
    f_pow: dict[tuple[int, ...], dict[int, int]] = {(0,) * len(fs): {0: 1}}

    def add_product(acc: dict[int, int], a: dict[int, int], b: dict[int, int]):
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                acc[m] = acc.get(m, 0) + ca * cb

    def f_power(e: tuple[int, ...]) -> dict[int, int]:
        power = f_pow.get(e)
        if power is None:
            i = max(k for k, v in enumerate(e) if v)
            acc: dict[int, int] = {}
            add_product(acc, f_power(e[:i] + (e[i] - 1,) + e[i + 1:]), fs[i])
            power = f_pow[e] = {m: c % p for m, c in acc.items() if c % p}
        return power

    for g in gens:
        hs: dict[tuple[int, int], dict[int, int]] = {}  # (b, i) -> h_(b,i)
        for exps, c in g.terms:
            e = exps[nx:]
            if not any(e):
                raise InvariantViolation(
                    f"Rees generator {g} does not vanish on the graph"
                )
            i = max(k for k, v in enumerate(e) if v)
            h = hs.setdefault((sum(e), i), {})
            xa = pack(exps[:nx]) ^ flip
            for m, fc in f_power(e[:i] + (e[i] - 1,) + e[i + 1:]).items():
                k = xa + m
                h[k] = h.get(k, 0) + c * fc
        by_degree: dict[int, dict[int, int]] = {}
        for (b, i), h in hs.items():
            acc = by_degree.setdefault(b, {})
            add_product(acc, {m: c % p for m, c in h.items() if c % p}, fs[i])
        if any(v % p for acc in by_degree.values() for v in acc.values()):
            raise InvariantViolation(
                f"Rees generator {g} does not vanish on the graph"
            )


def _graph_input(F: RationalMapSpec):
    """(work ring, generators, hint) of the elimination behind
    ``rees_ideal``: the ring of x, y and t, the y_i - t*f_i, and the
    Hilbert-series hint (weights, numerator) of ``groebner._packed_run``.

    With x and t of weight 1 and every y_i of weight delta + 1, each
    y_i - t*f_i is homogeneous of weight delta + 1 (also for f_i = 0), and
    they form a regular sequence: B/(y_i - t*f_i) is K[x, t], each y_i being
    solved for.  Its series is 1 / (1 - z)^(d+2), which over the full
    denominator prod_j (1 - z^w_j) = (1 - z)^(d+2) * (1 - z^(delta+1))^(n+1)
    has numerator (1 - z^(delta+1))^(n+1).
    """
    graph = F.graph_ring()
    ys = graph.blocks[-1]
    work = graph.extended("t")
    t_poly = Polynomial.variable(work, work.variables[-1])
    gens = [
        Polynomial.variable(work, y) - t_poly * _lift(f, work)
        for y, f in zip(ys, F.generators)
    ]
    w = F.delta + 1
    weights = (1,) * F.source_ring.nvars + (w,) * len(ys) + (1,)
    numerator = [0] * (w * len(ys) + 1)
    for k in range(len(ys) + 1):
        numerator[w * k] = (-1) ** k * math.comb(len(ys), k)
    return work, gens, (weights, tuple(numerator))


def rees_ideal(F: RationalMapSpec) -> Ideal:
    """Bigraded defining ideal of the graph of F in P^d x P^n.

    Computed by eliminating t from (y_0 - t f_0, ..., y_n - t f_n) in the
    ring of x, y and t, in one Buchberger run driven by the known Hilbert
    series of that input (``_graph_input``): pairs go by weight, a pair
    whose weight the leading terms already fill is not reduced, and the run
    raises InvariantViolation unless the series numerator of its final
    leading terms is the known one, which proves the basis (see
    ``groebner._packed_run``).  Every returned generator g is checked to
    vanish on the graph, g(x, t*f) = 0, part by y-degree in the source ring
    (``_check_on_graph``), and the ideal is checked to be bigraded.  The
    generators are the reduced degrevlex basis of the ideal and the result
    holds it: t is the trailing variable, so the t-free part of the reduced
    elimination basis, projected, is that basis
    (``groebner._eliminate_helpers``), and ``hilbert_polynomial`` of the
    result runs no second Buchberger.
    """
    work, gens, hint = _graph_input(F)
    result = _eliminate_helpers(work, gens, F.graph_ring(), hint)
    _check_on_graph(F, result.generators)
    try:
        result.require_multihomogeneous()
    except NotMultihomogeneousError as e:
        raise InvariantViolation(f"Rees ideal not bigraded: {e}") from e
    return result


@dataclass(frozen=True)
class ProjectiveDegreeVector:
    degrees: tuple[int, ...]
    method: str


def projective_degrees(
    F: RationalMapSpec,
    method: str = "elimination",
    matrix: "PresentationMatrix | None" = None,
    seed: int = 0,
    trials: int = 10,
) -> ProjectiveDegreeVector:
    """The degree vector (d_0, ..., d_d) of the graph of F.

    method "elimination" reads the Hilbert-polynomial table of the Rees
    ideal at types (i, d-i); "slicing" counts points in randomized
    verified slices; "formula" evaluates the closed formula matching the
    supplied presentation matrix.
    """
    d = F.d
    if method == "elimination":
        return _eliminated_degrees(rees_ideal(F), d)
    if method == "slicing":
        return _sliced_degrees(rees_ideal(F), d, seed, trials)
    if method == "formula":
        if matrix is None:
            raise ValueError("formula method needs a presentation matrix")
        if matrix.kind == "hilbert-burch":
            return formula_perfect_ht2(d, matrix.column_degrees)
        return formula_gorenstein_ht3(d, F.n, matrix.entry_degree, F.delta)
    raise ValueError(f"unknown method {method!r}")


def _eliminated_degrees(J: Ideal, d: int) -> ProjectiveDegreeVector:
    """The "elimination" degree vector, read from J, the Rees ideal of a
    map of P^d, so a caller that holds J builds it once."""
    table = hilbert_polynomial(J).leading_table()
    degrees = tuple(table.value((i, d - i)) for i in range(d + 1))
    return ProjectiveDegreeVector(degrees=degrees, method="elimination")


def _sliced_degrees(J: Ideal, d: int, seed: int, trials: int) -> ProjectiveDegreeVector:
    """The "slicing" degree vector, counted in slices of J, the Rees ideal
    of a map of P^d."""
    out = []
    for i in range(d + 1):
        rep = slice_degree(J, (i, d - i), seed=seed, trials=trials)
        if rep.point_count is None:
            raise InvariantViolation(f"no verified slicing trial at type {(i, d - i)}")
        out.append(rep.point_count)
    return ProjectiveDegreeVector(degrees=tuple(out), method="slicing")


# ---------------------------------------------------------------------------
# Presentation matrices


@dataclass(frozen=True)
class PresentationMatrix:
    """A presentation of the map's base ideal, Hilbert-Burch or alternating."""

    entries: tuple[tuple[Polynomial, ...], ...]
    kind: str

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows or not rows[0]:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        ring = rows[0][0].ring
        if any(e.ring != ring for row in rows for e in row):
            raise ValueError("entries from mixed rings")
        if self.kind == "hilbert-burch":
            if len(rows) != width + 1:
                raise ValueError(
                    f"hilbert-burch matrix must be (n+1) x n, got "
                    f"{len(rows)} x {width}"
                )
            cols: list[int] = []
            for j in range(width):
                degs = set()
                for i in range(len(rows)):
                    e = rows[i][j]
                    if e.is_zero():
                        continue
                    deg = e.multidegree()
                    if deg is None:
                        raise ValueError(f"column {j} is not homogeneous")
                    degs.add(sum(deg))
                if len(degs) != 1:
                    raise ValueError(f"column {j} is not homogeneous")
                cols.append(degs.pop())
            object.__setattr__(self, "_column_degrees", tuple(cols))
        elif self.kind == "alternating":
            if len(rows) != width:
                raise ValueError("alternating matrix must be square")
            if width % 2 == 0:
                raise ValueError("alternating presentation must have odd size")
            degs = set()
            for i in range(width):
                if not rows[i][i].is_zero():
                    raise ValueError("alternating matrix needs a zero diagonal")
                for j in range(i + 1, width):
                    if rows[i][j] + rows[j][i] != Polynomial.zero(ring):
                        raise ValueError(
                            f"entries ({i},{j}) and ({j},{i}) are not opposite"
                        )
                    if rows[i][j].is_zero():
                        continue
                    deg = rows[i][j].multidegree()
                    if deg is None:
                        raise ValueError(f"entry ({i},{j}) is not homogeneous")
                    degs.add(sum(deg))
            if len(degs) > 1:
                raise ValueError(f"mixed entry degrees {sorted(degs)}")
            object.__setattr__(
                self, "_entry_degree", degs.pop() if degs else 0
            )
        else:
            raise ValueError(f"unknown presentation kind {self.kind!r}")

    @property
    def ring(self) -> RingSpec:
        return self.entries[0][0].ring

    @property
    def column_degrees(self) -> tuple[int, ...]:
        if self.kind != "hilbert-burch":
            raise ValueError("column degrees apply to hilbert-burch matrices")
        return self._column_degrees

    @property
    def entry_degree(self) -> int:
        if self.kind != "alternating":
            raise ValueError("entry degree applies to alternating matrices")
        return self._entry_degree


class _Expansion:
    """Every minor and principal pfaffian of one matrix, each expanded once.

    A minor is stored under its (row tuple, column tuple) and a pfaffian
    under its index tuple, all increasing.  The minor on rows r_1 < ... < r_k
    and columns c_1 < ... < c_k expands along its last row,
    sum_j (-1)^(k+j) a[r_k][c_j] * minor(r_1..r_{k-1}; columns without c_j),
    and the pfaffian on s_1 < ... < s_k along its first index,
    sum_{j>1} (-1)^j a[s_1][s_j] * Pf(indices without s_1, s_j), which is 0
    for odd k.  Each smaller minor or pfaffian is read from the table, so a
    family of them shares its sub-expansions.  Only ring operations occur:
    no division, hence no Bareiss step, is needed.
    """

    __slots__ = ("rows", "ring", "_zero", "_minors", "_pfaffians")

    def __init__(self, rows: tuple[tuple[Polynomial, ...], ...]):
        self.rows = rows
        self.ring = rows[0][0].ring
        self._zero = Polynomial.zero(self.ring)
        one = Polynomial.one(self.ring)
        self._minors = {((), ()): one}
        self._pfaffians = {(): one}

    def minor(self, rsel: tuple[int, ...], csel: tuple[int, ...]) -> Polynomial:
        det = self._minors.get((rsel, csel))
        if det is None:
            row, rest, k = self.rows[rsel[-1]], rsel[:-1], len(csel)
            det = self._zero
            for j, c in enumerate(csel):
                a = row[c]
                if a.is_zero():
                    continue
                term = a * self.minor(rest, csel[:j] + csel[j + 1:])
                det = det + term if (k - 1 + j) % 2 == 0 else det - term
            self._minors[rsel, csel] = det
        return det

    def pfaffian(self, keep: tuple[int, ...]) -> Polynomial:
        pf = self._pfaffians.get(keep)
        if pf is None:
            row = self.rows[keep[0]]
            pf = self._zero
            for j in range(1, len(keep)):
                a = row[keep[j]]
                if a.is_zero():
                    continue
                term = a * self.pfaffian(keep[1:j] + keep[j + 1:])
                pf = pf + term if j % 2 == 1 else pf - term
            self._pfaffians[keep] = pf
        return pf


def _regenerated(M: PresentationMatrix, E: _Expansion) -> list[Polynomial]:
    """(-1)^i times the minor (Hilbert-Burch) or the principal pfaffian
    (alternating) of M omitting row i, for each i: the convention under
    which they are the map's generators in order."""
    m = len(M.entries)
    cols = tuple(range(m - 1))
    out: list[Polynomial] = []
    for i in range(m):
        keep = cols[:i] + tuple(range(i + 1, m))
        g = E.minor(keep, cols) if M.kind == "hilbert-burch" else E.pfaffian(keep)
        out.append(g if i % 2 == 0 else -g)
    return out


def maximal_minors(M: PresentationMatrix) -> list[Polynomial]:
    """Signed maximal minors of a Hilbert-Burch matrix, in row order.

    The i-th output is (-1)^i times the minor omitting row i, which is the
    convention under which the minors are the map's generators in order.
    """
    if M.kind != "hilbert-burch":
        raise ValueError("maximal minors expect a hilbert-burch matrix")
    return _regenerated(M, _Expansion(M.entries))


def submaximal_pfaffians(M: PresentationMatrix) -> list[Polynomial]:
    """Signed pfaffians of the principal submatrices omitting one index."""
    if M.kind != "alternating":
        raise ValueError("submaximal pfaffians expect an alternating matrix")
    return _regenerated(M, _Expansion(M.entries))


def random_alternating_matrix(
    ring: RingSpec, size: int, rng: Prng | int
) -> PresentationMatrix:
    """Seeded random alternating matrix with linear entries."""
    if not isinstance(rng, Prng):
        rng = Prng(rng)
    zero = Polynomial.zero(ring)
    rows = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            h = random_block_form(ring, 0, rng)
            rows[i][j] = h
            rows[j][i] = -h
    return PresentationMatrix(
        entries=tuple(tuple(r) for r in rows), kind="alternating"
    )


# ---------------------------------------------------------------------------
# Fitting heights and the G condition


def _scalar_multiple(f: Polynomial, g: Polynomial) -> bool:
    """True when f = c g for a nonzero field scalar c."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    p = f.ring.characteristic
    c = (f.lead_coeff() * pow(g.lead_coeff(), p - 2, p)) % p
    return f == Polynomial.constant(f.ring, c) * g


def _minors_ideal(E: _Expansion, k: int) -> Ideal:
    """I_k, the ideal of the k-minors: row subsets times column subsets in
    ``combinations`` order (zero minors dropped by ``Ideal``); the unit
    ideal for k <= 0 and the zero ideal above the matrix size."""
    m, w = len(E.rows), len(E.rows[0])
    if k <= 0:
        return Ideal(E.ring, (Polynomial.one(E.ring),))
    if k > m or k > w:
        return Ideal(E.ring, ())
    return Ideal(
        E.ring,
        tuple(
            E.minor(rsel, csel)
            for rsel in combinations(range(m), k)
            for csel in combinations(range(w), k)
        ),
    )


def fitting_ideal(M: PresentationMatrix, i: int) -> Ideal:
    """Fitt_i of the presented ideal: minors of size (rows - i)."""
    return _minors_ideal(_Expansion(M.entries), len(M.entries) - i)


def ideal_height(J: Ideal) -> int:
    """Height in a polynomial ring: nvars minus quotient dimension."""
    return J.ring.nvars - quotient_dimension(J)


def _fitting_zero_set(M: PresentationMatrix, E: _Expansion, i: int) -> Ideal:
    """An ideal with the zero set, hence the height, of Fitt_i(M), read
    from E, the expansion of M.

    For an alternating m x m matrix and 1 <= i < m it is Pf_2k, the ideal
    of principal 2k-pfaffians with 2k = j + (j mod 2), j = m - i (see
    ``check_G_condition``).  Otherwise it is Fitt_i itself."""
    m = len(M.entries)
    j = m - i
    if M.kind != "alternating" or j <= 0:
        return _minors_ideal(E, j)
    return Ideal(
        E.ring,
        tuple(E.pfaffian(keep) for keep in combinations(range(m), j + j % 2)),
    )


def check_G_condition(F, M: PresentationMatrix, s: int) -> bool:
    """ht Fitt_i > i for 1 <= i < s, after verifying M presents F.

    F is a RationalMapSpec or a plain sequence of generators (the height
    test makes sense for ideals with fewer generators than variables,
    which are not maps onto a larger target).  The generators regenerated
    from M (signed minors or pfaffians) must match F's in order up to
    nonzero scalars.

    One ``_Expansion`` of M serves the whole call: the regenerated
    generators and every Fitting zero set read their minors or pfaffians
    from it, so each is expanded once.  For a Hilbert-Burch matrix each
    Fitt_i is the ideal of its minors.  For an odd alternating m x m matrix
    no minor is expanded: with j = m - i, Fitt_i = I_j (the j-minors), and
    for 1 <= i < m its height is read from Pf_2k, the ideal of principal
    2k-pfaffians, 2k = j + (j mod 2); Pf_{m-1} holds the regenerated
    pfaffians up to sign and order.  Equal ideals (i = 2l - 1 and 2l share
    Pf_{m+1-2l}) are measured once.  A unit Fitting ideal (Fitt_i for
    i >= m, or a nonzero constant minor) has an empty zero set, so its
    height is infinite by convention and it passes for every i;
    ``ideal_height`` reports it as nvars + 1, above the height nvars of
    every proper ideal.
    Why ht I_j = ht Pf_2k: at every point of the algebraic closure the
    matrix is alternating, so its rank is even, and that rank is the size
    of its largest nonvanishing principal pfaffian.  Hence rank < j iff
    rank < 2k iff every principal 2k-pfaffian vanishes, so
    V(I_j) = V(Pf_2k).  The height of an ideal of a polynomial ring depends
    only on its zero set over the algebraic closure, and extending the
    field does not change it.  (Equivalently: I_{2k-1}, I_2k and Pf_2k have
    the same radical; Buchsbaum-Eisenbud 1977.)
    """
    if isinstance(F, RationalMapSpec):
        declared = F.generators
        source = F.source_ring
    else:
        declared = tuple(F)
        if not declared:
            raise ValueError("no generators")
        source = declared[0].ring
    E = _Expansion(M.entries)
    regen = _regenerated(M, E)
    if len(regen) != len(declared):
        raise PresentationMismatch(
            f"matrix presents {len(regen)} forms, map has {len(declared)}"
        )
    if M.ring != source:
        raise PresentationMismatch("matrix ring differs from the source ring")
    for i, (f, g) in enumerate(zip(declared, regen)):
        if not _scalar_multiple(f, g):
            raise PresentationMismatch(
                f"generator {i}: {f} is not a scalar multiple of the "
                f"regenerated {g}"
            )
    heights: dict[Ideal, int] = {}
    # Fitt_i for i >= m is the unit ideal (its minors have size m - i <= 0),
    # which passes, so s past the m rows adds nothing to test
    for i in range(1, min(s, len(M.entries))):
        J = _fitting_zero_set(M, E, i)
        if J not in heights:
            heights[J] = ideal_height(J)
        # a height above nvars is the unit ideal's, which passes every i
        if heights[J] <= min(i, M.ring.nvars):
            return False
    return True


# ---------------------------------------------------------------------------
# Closed formulas


def elementary_symmetric(values) -> list[int]:
    """All e_0..e_len coefficients, by convolving (1 + v z) factors."""
    es = [1]
    for v in values:
        es = [a + v * b for a, b in zip(es + [0], [0] + es)]
    return es


def formula_perfect_ht2(d: int, mu) -> ProjectiveDegreeVector:
    """Degree vector of a map presented by a Hilbert-Burch matrix with
    column degrees mu: d_i is the elementary symmetric e_{d-i}(mu)."""
    mu = tuple(mu)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if any(not isinstance(m, int) or m < 1 for m in mu):
        raise ValueError("column degrees must be positive integers")
    es = elementary_symmetric(mu)
    degrees = tuple(
        es[d - i] if 0 <= d - i < len(es) else 0 for i in range(d + 1)
    )
    return ProjectiveDegreeVector(degrees=degrees, method="formula")


def _binom(a: int, b: int) -> int:
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def formula_gorenstein_ht3(
    d: int, n: int, D: int, delta: int
) -> ProjectiveDegreeVector:
    """Degree vector of a map presented by an odd alternating matrix of
    uniform entry degree D: trailing degrees are powers of delta, the
    early ones a binomial sum scaled by powers of D."""
    if d < 1:
        raise ValueError("d must be positive")
    if n % 2 != 0:
        raise ValueError("need n+1 odd")
    if D < 1:
        raise ValueError("entry degree must be positive")
    if 2 * delta != D * n:
        raise ValueError(
            f"delta {delta} inconsistent with entry degree {D} and n {n}"
        )
    degrees = []
    for i in range(d + 1):
        if i >= d - 2:
            degrees.append(delta ** (d - i))
            continue
        top = n - d + i
        if top < 0:
            degrees.append(0)
            continue
        acc = sum(_binom(n - 1 - 2 * k, d - i - 1) for k in range(top // 2 + 1))
        degrees.append(D ** (d - i) * acc)
    return ProjectiveDegreeVector(degrees=tuple(degrees), method="formula")


# ---------------------------------------------------------------------------
# Saturated special fiber probe


@dataclass(frozen=True)
class SatFiberTable:
    dims: tuple[int, ...]
    difference_profile: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SatFiberCheck:
    stabilized: bool
    inferred_e: int
    d0_elimination: int
    agree: bool
    table: SatFiberTable


def _differences(seq) -> list[int]:
    return [b - a for a, b in zip(seq, seq[1:])]


def satfiber_dims(F: RationalMapSpec, q_max: int) -> SatFiberTable:
    """dims[q] = dim of the degree-q*delta piece of (I^q : m^inf)."""
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    ring = F.source_ring
    d = F.d
    delta = F.delta
    nonzero = tuple(g for g in F.generators if not g.is_zero())
    dims = [1]
    empty_base = False
    for q in range(1, q_max + 1):
        total = math.comb(q * delta + d, d)
        if empty_base:
            # V(I^q) = V(I) is empty, so (I^q)^sat is the unit ideal too
            dims.append(total)
            continue
        gens_q = tuple(
            reduce(mul, sel, Polynomial.one(ring))
            for sel in combinations_with_replacement(nonzero, q)
        )
        sat = irrelevant_saturation(Ideal(ring, gens_q))
        dims.append(total - series_coefficient(k_polynomial(sat), (q * delta,)))
        empty_base = sat.is_unit_ideal()
    levels = []
    cur = dims
    for _ in range(max(1, d)):
        cur = _differences(cur)
        levels.append(tuple(cur))
    return SatFiberTable(dims=tuple(dims), difference_profile=tuple(levels))


def satfiber_d0_check(F: RationalMapSpec, q_max: int) -> SatFiberCheck:
    """Probe d_0 from growth of the saturated fiber dims.

    The d-th finite differences must be constant over the last
    ceil(q_max/2) values; the stabilized value is compared against the
    elimination d_0.  Non-stabilization is reported, not raised.
    """
    d = F.d
    if q_max < d + 2:
        raise ValueError(f"q_max must be at least d + 2 = {d + 2}")
    table = satfiber_dims(F, q_max)
    diffs = table.difference_profile[d - 1] if d else table.dims
    window = diffs[-min(len(diffs), (q_max + 1) // 2):]
    stabilized = len(set(window)) == 1
    inferred = window[-1]
    d0 = projective_degrees(F, "elimination").degrees[0]
    return SatFiberCheck(
        stabilized=stabilized,
        inferred_e=inferred,
        d0_elimination=d0,
        agree=stabilized and inferred == d0,
        table=table,
    )
