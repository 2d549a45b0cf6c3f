"""Multigraded polynomial rings over prime fields.

A ring is a tensor product of standard graded polynomial blocks,
k[x_{1,0..d_1}] (x) ... (x) k[x_{r,0..d_r}] over F_p, graded by N^r with
every variable of block i sitting in multidegree e_i.  Monomials are bare
exponent tuples over the flattened variable list; polynomials are sparse
term tuples with coefficients in [1, p), kept in descending degrevlex
order, so a polynomial's leading term is its first.  This module also
carries the integer Laurent polynomials used for Hilbert numerators, the
descriptions of the two term orders (degrevlex and block elimination), and
the expression parser.  It compares no monomials under a term order: the
packed key of ``groebner._Packing`` makes every such comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub
from typing import Iterable, Iterator, Union

from .errors import ExponentOverflow, ParseError

MAX_EXPONENT = 2**31 - 1

#: Sentinel multidegree of the zero polynomial (homogeneous of every degree).
DEGREE_ANY = "any"


# Miller-Rabin to these bases decides primality for every n < 2^64
# (Sorenson & Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64.  With n - 1 = d·2^s, d odd,
    n is a strong probable prime to base a when a^d = 1 or
    a^(d·2^r) = -1 mod n for some r < s."""
    if n < 2:
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s is the 2-part of n - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """Block structure and characteristic of the ambient ring."""

    characteristic: int
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        p = self.characteristic
        if isinstance(p, int) and p >= 2**63:
            raise ValueError("characteristic must fit a machine word")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        blocks = tuple(tuple(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not b for b in blocks):
            raise ValueError("need at least one block and every block nonempty")
        flat: list[str] = []
        for b in blocks:
            flat.extend(b)
        if len(set(flat)) != len(flat):
            raise ValueError("variable names must be globally unique")
        for name in flat:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"bad variable name {name!r}")
            if not all(c.isalnum() or c == "_" for c in name):
                raise ValueError(f"bad variable name {name!r}")
        object.__setattr__(self, "_vars", tuple(flat))
        index = {name: i for i, name in enumerate(flat)}
        object.__setattr__(self, "_index", index)
        slices: list[tuple[int, int]] = []
        start = 0
        for b in blocks:
            slices.append((start, start + len(b)))
            start += len(b)
        object.__setattr__(self, "_slices", tuple(slices))

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def nvars(self) -> int:
        return len(self._vars)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        """D = (d_1+1, ..., d_r+1)."""
        return tuple(len(b) for b in self.blocks)

    @property
    def block_slices(self) -> tuple[tuple[int, int], ...]:
        return self._slices

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown identifier {name!r}") from None

    def multidegree_of(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        """Per-block exponent sums of a monomial."""
        return tuple(sum(exps[a:b]) for a, b in self._slices)

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def extended(self, extra: str, count: int = 1) -> "RingSpec":
        """Same ring with one block of ``count`` new variables appended.

        One new variable is named ``extra`` when that name is free.
        Otherwise, and for several, the new variables are the first
        ``count`` of ``extra0``, ``extra1``, ... that are not already
        variables of the ring.
        """
        if count == 1 and extra not in self._index:
            fresh = (extra,)
        else:
            # at most nvars candidates clash, so nvars + count of them suffice
            names = (f"{extra}{k}" for k in range(self.nvars + count))
            fresh = tuple(n for n in names if n not in self._index)[:count]
        return RingSpec(self.characteristic, self.blocks + (fresh,))


# ---------------------------------------------------------------------------
# Term orders

@dataclass(frozen=True, slots=True)
class TermOrder:
    """Global multiplicative monomial order, as a description: the packed
    key of ``groebner._Packing`` compares monomials under it.

    kind "degrevlex": graded reverse lexicographic over all variables,
    earlier declared variables largest.  kind "elim": block elimination
    order, degrevlex on the drop variables first, ties broken by degrevlex
    on the kept variables; every monomial involving a drop variable beats
    every monomial free of them.  ``drop`` is kept as a sorted tuple of
    distinct indices.
    """

    kind: str
    nvars: int
    drop: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("degrevlex", "elim"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        drop = tuple(sorted(set(self.drop)))
        object.__setattr__(self, "drop", drop)
        if self.kind == "degrevlex" and drop:
            raise ValueError("degrevlex takes no drop set")
        if self.kind == "elim" and not drop:
            raise ValueError("elimination order needs a nonempty drop set")
        if any(i < 0 or i >= self.nvars for i in drop):
            raise ValueError("drop index out of range")


def degrevlex_order(ring: RingSpec) -> TermOrder:
    return TermOrder("degrevlex", ring.nvars)


def elimination_order(ring: RingSpec, drop_names: Iterable[str]) -> TermOrder:
    return TermOrder("elim", ring.nvars, (ring.var_index(n) for n in drop_names))


# ---------------------------------------------------------------------------
# Monomial helpers (monomials are plain exponent tuples)


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a | b componentwise."""
    return all(map(le, a, b))


def mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b, assuming b | a."""
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# Polynomials


class Polynomial:
    """Sparse polynomial over F_p with canonically sorted terms.

    ``terms`` is a tuple of (exponents, coefficient) pairs, coefficients in
    [1, characteristic), sorted descending under degrevlex.  The zero
    polynomial has an empty term tuple.  Instances are immutable and
    hashable.

    The constructor validates, merges, reduces and sorts any terms.  The
    private ``_canonical`` skips all of that: its caller guarantees a term
    tuple already in the form above, with distinct exponent tuples of the
    ring's length, entries in [0, MAX_EXPONENT], and no zero coefficient;
    ``Polynomial(ring, terms).terms == terms`` then holds.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, terms: Iterable[tuple[tuple[int, ...], int]]):
        self.ring = ring
        p = ring.characteristic
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in terms:
            c %= p
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != ring.nvars:
                raise ValueError("exponent vector length mismatch")
            if min(exps) < 0:
                raise ValueError("negative exponent in polynomial")
            if max(exps) > MAX_EXPONENT:
                raise ExponentOverflow("exponent exceeds cap")
            v = (acc.get(exps, 0) + c) % p
            if v:
                acc[exps] = v
            else:
                acc.pop(exps, None)
        self.terms = tuple((e, acc[e]) for e in sorted(acc, key=_grevlex_neg_key))
        self._hash = None

    @classmethod
    def _canonical(cls, ring: RingSpec, terms: tuple) -> "Polynomial":
        """A polynomial from a term tuple already in canonical form (see the
        class docstring), taken as it is."""
        poly = object.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: RingSpec) -> "Polynomial":
        return Polynomial(ring, ())

    @staticmethod
    def constant(ring: RingSpec, c: int) -> "Polynomial":
        return Polynomial(ring, ((ring.zero_exps(), c),))

    @staticmethod
    def variable(ring: RingSpec, name: str) -> "Polynomial":
        i = ring.var_index(name)
        exps = tuple(1 if j == i else 0 for j in range(ring.nvars))
        return Polynomial(ring, ((exps, 1),))

    @staticmethod
    def one(ring: RingSpec) -> "Polynomial":
        return Polynomial.constant(ring, 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (
            len(self.terms) == 1 and self.terms[0][0] == self.ring.zero_exps()
        )

    def lead_term(self) -> tuple[tuple[int, ...], int]:
        """(exponents, coefficient) of the leading term under degrevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def lead_exps(self) -> tuple[int, ...]:
        return self.lead_term()[0]

    def lead_coeff(self) -> int:
        return self.lead_term()[1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Polynomial(self.ring, self.terms + o.terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, ((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Polynomial(self.ring, self.terms + tuple((e, -c) for e, c in o.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        p = self.ring.characteristic
        acc: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms:
            for eb, cb in o.terms:
                e = tuple(map(add, ea, eb))
                v = (acc.get(e, 0) + ca * cb) % p
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        if acc and max(map(max, acc)) > MAX_EXPONENT:
            raise ExponentOverflow("exponent exceeds cap")
        return Polynomial._canonical(
            self.ring, tuple((e, acc[e]) for e in sorted(acc, key=_grevlex_neg_key))
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    # -- grading -------------------------------------------------------------

    def multidegree(self) -> Union[tuple[int, ...], str, None]:
        """Common multidegree of all terms, DEGREE_ANY for 0, None if mixed."""
        if not self.terms:
            return DEGREE_ANY
        degs = {self.ring.multidegree_of(e) for e, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- evaluation ----------------------------------------------------------

    def substitute(self, ring: RingSpec, images: list["Polynomial"]) -> "Polynomial":
        """Image under the ring map sending variable i to images[i]."""
        if len(images) != self.ring.nvars:
            raise ValueError("need one image per variable")
        out = Polynomial.zero(ring)
        for exps, c in self.terms:
            term = Polynomial.constant(ring, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * images[i] ** e
            out = out + term
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self})"


def _grevlex_neg_key(exps: tuple[int, ...]):
    """Degrevlex key negated: ascending order on it is descending degrevlex."""
    return (-sum(exps), exps[::-1])


# ---------------------------------------------------------------------------
# Integer Laurent polynomials in r series variables


class LaurentPolyZ:
    """Laurent polynomial over Z in the r series variables t_1..t_r.

    Exponents may be negative (module shifts); coefficients are unbounded
    Python integers.  Canonical form: terms sorted lexicographically by
    exponent vector, no zero coefficients.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Iterable[tuple[tuple[int, ...], int]]):
        self.r = r
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in terms:
            if c == 0:
                continue
            exps = tuple(exps)
            if len(exps) != r:
                raise ValueError("exponent vector length mismatch")
            v = acc.get(exps, 0) + c
            if v:
                acc[exps] = v
            else:
                acc.pop(exps, None)
        self.terms = tuple((e, acc[e]) for e in sorted(acc))

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __sub__(self, other: "LaurentPolyZ") -> "LaurentPolyZ":
        return LaurentPolyZ(
            self.r, self.terms + tuple((e, -c) for e, c in other.terms)
        )

    def shifted(self, by: tuple[int, ...]) -> "LaurentPolyZ":
        """Multiply by the monomial t^by."""
        return LaurentPolyZ(
            self.r,
            ((tuple(x + y for x, y in zip(e, by)), c) for e, c in self.terms),
        )

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.r
        return tuple(min(e[i] for e, _ in self.terms) for i in range(self.r))

    def max_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.r
        return tuple(max(e[i] for e, _ in self.terms) for i in range(self.r))

    def coarsened(self) -> "LaurentPolyZ":
        """Substitute every t_i by a single t (total-degree coarsening)."""
        return LaurentPolyZ(1, (((sum(e),), c) for e, c in self.terms))

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolyZ)
            and self.r == other.r
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.r, self.terms))

    def __repr__(self):
        return f"LaurentPolyZ({self.r}, {self.terms})"


# ---------------------------------------------------------------------------
# Parser and renderer

_TOKEN_OPS = set("+-*^()")


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            yield ("op", ch)
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j])
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    yield ("end", "")


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := factor ('*' factor)*, factor := '-' factor | atom ('^' int)?,
    atom := int | name | '(' expr ')'.  Implicit multiplication is an error.
    """

    def __init__(self, text: str, ring: RingSpec):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.ring = ring

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}")

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            elif kind in ("int", "name") or (kind == "op" and val == "("):
                raise ParseError(
                    f"implicit multiplication before {val!r} is not allowed"
                )
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.factor()
        return self.power()

    def power(self) -> Polynomial:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val = self.next()
            if kind == "op" and val == "-":
                kind2, val2 = self.next()
                if kind2 == "int":
                    raise ParseError(f"negative exponent -{val2}")
                raise ParseError("malformed exponent")
            if kind != "int":
                raise ParseError(f"exponent must be an integer literal, found {val!r}")
            e = int(val)
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} exceeds cap {MAX_EXPONENT}")
            return base**e
        return base

    def atom(self) -> Polynomial:
        kind, val = self.next()
        if kind == "int":
            return Polynomial.constant(self.ring, int(val))
        if kind == "name":
            return Polynomial.variable(self.ring, val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val or 'end of input'!r}")


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse an expression over the ring's variables into canonical form."""
    return _Parser(text, ring).parse()


def render_polynomial(p: Polynomial) -> str:
    """Canonical rendering: '*' and '^', descending terms, no unary plus.

    Coefficients above characteristic/2 are shown balanced, e.g. p-1 shows
    as a subtracted term, so small integer identities read naturally.
    """
    if not p.terms:
        return "0"
    ph = p.ring.characteristic
    parts: list[str] = []
    for exps, c in p.terms:
        balanced = c if c <= ph // 2 else c - ph
        mono = "*".join(
            p.ring.variables[i] + (f"^{e}" if e != 1 else "")
            for i, e in enumerate(exps)
            if e != 0
        )
        mag = abs(balanced)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if balanced > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if balanced > 0 else f" - {body}")
    return "".join(parts)
