"""Ring descriptors of truncated monoid power series.

A ring descriptor pins down everything about a level of a tower: the divided
monoid part Q^(i), whose scale base is the prime, the free part (N^r) at its
own level, the precision N that reports carry, the rational degree cutoff D,
an optional relation theta = p - f, and (for residue rings) a monomial ideal.

The library reads p and f through f-bar = f mod p alone (f_bar).  In Kato's
normal form f = c x^w + p h with c prime to p and h in the maximal ideal, so
p (1 - h) = c x^w: p is x^w times a unit, I_0 = (p) = (x^w), and every term
of p lies in w + M.  No series is canonicalised: the tests' series oracle
(tests/series_oracle.py) writes coefficients as base-p digits.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import islice
from math import floor

from .coeffring import require_prime
from .monoid import (
    AffineMonoid,
    InputError,
    MonoidElem,
    count_upto,
    graded_order,
    in_gp,
    json_int,
    member_test,
    pack,
    term_from_json,
    term_json,
    unpack,
    walk,
)
from .record import record, replace


class NonMonomialReduction(InputError):
    pass


class InvariantViolation(InputError):
    pass


@record
class SeriesRingDesc:
    """Descriptor of one truncated ring C(k)[[Q^(i) + (N^r)^(i)]]/(theta).

    Exponents are combined vectors of length ambient_rank + free_rank; the
    monoid part is sliced off the front; p is its scale base.  A ring without
    a relation has F_p coefficients and may quotient by a monomial ideal
    (quotient_exps); mixed rings carry the Kato relation theta = p - f.

    Every exponent of the ring lives at or above one level L (the finer of
    the monoid and free levels).  Its degree in steps of p^-L is the sum of
    its coordinates at L, and it is within the cutoff iff that sum is
    <= cap = floor(D p^L).  Inside the ring an exponent is one int, its
    coordinates at L packed as in monoid.pack with W + 1 bits per
    coordinate: int order is the term order (degree, coordinates), the
    cutoff test is one comparison with the packed cutoff, a product of
    monomials is an int sum and a rescale by p^m an int product.  W is
    bit_length(cap), or the top level's in a tower (TowerDesc widens its
    levels to one W).  W is no field: rings that differ in it alone are
    equal, so a packed exponent is read only in the layout that packed it.
    MonoidElem is the API and JSON form; coords() and elem() convert.
    Membership is decided from the generators, by monoid.member_test on the
    coordinates, without the support.  in_ring(v), nonzero(v) (e^v is a
    nonzero monomial: within the cutoff, and v - q is in the ring for no
    quotient monomial q) and live(v) are closures each ring builds on first
    use, and nonzero_mod(ws) builds one for "e^v is nonzero modulo the
    e^w".  live(v), which is nonzero(v), and nonzero_mod need v to be an
    exponent of the ring: then v - w is in the group of the exponent monoid
    for each w in the group, and the facet-only part of the test decides
    it.  The support is a prefix of one walk over the generators
    (monoid.walk), which every ring with the same generators at its level
    and the same W shares, and a loop that stops at a degree asks for the
    basis only up to it.
    """

    monoid_part: AffineMonoid
    free_rank: int
    free_level: int
    precision: int
    cutoff: int | Fraction
    relation_f: tuple[tuple[MonoidElem, int], ...] | None = None
    quotient_exps: tuple[MonoidElem, ...] = ()

    def __post_init__(self):
        require_prime(self.p, InvariantViolation)
        if self.free_rank < 0 or self.free_level < 0:
            raise InvariantViolation("free part data must be nonnegative")
        if any(x < 0 for g in self.monoid_part.generators for x in g):
            raise InvariantViolation("the support walk needs monoid generators in N^d; "
                                     "`ptlab monoid embed` maps a saturated Q into N^facets")
        if self.precision < 1:
            raise InvariantViolation("precision must be >= 1")
        object.__setattr__(self, "cutoff", _as_rational(self.cutoff))
        if self.cutoff <= 0:
            raise InvariantViolation("degree cutoff must be positive")
        if self.relation_f is not None:
            for e, c in self.relation_f:
                if sum(e.coords) <= 0:
                    raise InvariantViolation("relation f must have positive degree terms")
                v = self._vec(e)
                if v is None or not self.structural_contains(v):
                    raise InvariantViolation("relation exponent outside the ring monoid")
            terms = tuple(sorted(self.relation_f, key=lambda t: self.key(t[0])))
            object.__setattr__(self, "relation_f", terms)
        if self.quotient_exps:
            if self.relation_f is not None:
                raise InvariantViolation("monomial quotients live in residue rings")
            if any(len(q.coords) != self.width or min(q.coords, default=0) < 0
                   for q in self.quotient_exps):
                raise InvariantViolation("quotient monomials need the ring's width "
                                         "and nonnegative coordinates")
            # quotient monomials may be finer than the ring: order them at
            # the finest level among the ring and its quotients
            lv = max(self.level, *(q.level for q in self.quotient_exps))
            object.__setattr__(
                self, "quotient_exps",
                tuple(sorted(self.quotient_exps, key=lambda e: graded_order(e.at_level(lv)))),
            )
        object.__setattr__(self, "_field", self.cap.bit_length() + 1)

    def _refield(self, field: int) -> SeriesRingDesc:
        """The same ring with field bits per packed coordinate; the fields are
        copied, not validated again."""
        if field == self._field:
            return self
        out = object.__new__(SeriesRingDesc)
        for k in self.__record_fields__:
            object.__setattr__(out, k, getattr(self, k))
        object.__setattr__(out, "_field", field)
        return out

    @cached_property
    def p(self) -> int:
        return self.monoid_part.scale_base

    @cached_property
    def level(self) -> int:
        return max(self.monoid_part.level, self.free_level)

    @cached_property
    def cap(self) -> int:
        return floor(self.cutoff * self.p ** self.level)

    def key(self, e: MonoidElem) -> tuple[int, tuple[int, ...]]:
        return graded_order(e.at_level(self.level))

    @cached_property
    def width(self) -> int:
        return self.monoid_part.ambient_rank + self.free_rank

    @cached_property
    def _shift(self) -> int:
        """The position of the degree field in a packed exponent."""
        return self.width * self._field

    @cached_property
    def _lim(self) -> int:
        """The packed cutoff: a packed exponent is within it iff it is below."""
        return (self.cap + 1) << self._shift

    @cached_property
    def _guards(self) -> int:
        """The guard bit of every coordinate field."""
        return sum(1 << (k * self._field - 1) for k in range(1, self.width + 1))

    zero_exp = 0  # the packed exponent of 1

    def pack(self, v: tuple[int, ...]) -> int:
        """The packed exponent of coordinates v at the ring's level."""
        return pack(v, self._field)

    def unpack(self, v: int) -> tuple[int, ...]:
        return unpack(v, self._field, self.width)

    def vec_at(self, v: tuple[int, ...], level: int) -> tuple[int, ...] | None:
        """The coordinates v at the given level, at the ring's level; None if
        they are finer than the ring."""
        shift = self.level - level
        if shift == 0:
            return v
        f = self.p ** abs(shift)
        if shift > 0:
            return tuple(x * f for x in v)
        return None if any(x % f for x in v) else tuple(x // f for x in v)

    def rescale(self, v: int, level: int) -> int | None:
        """The packed exponent v of the given level at the ring's level (one
        int product when the ring is finer); None if it is finer than the ring."""
        shift = self.level - level
        if shift >= 0:
            return v * self.p ** shift
        w = self.vec_at(self.unpack(v), level)
        return None if w is None else self.pack(w)

    def scaler(self, level: int):
        """rescale(., level) as one closure: one int product when the ring is
        at the level or finer."""
        shift = self.level - level
        return (self.p ** shift).__mul__ if shift >= 0 else partial(self.rescale, level=level)

    def _vec(self, e: MonoidElem) -> tuple[int, ...] | None:
        """The coordinates of e at the ring's level; None for the wrong width
        or an e finer than the ring."""
        return self.vec_at(e.coords, e.level) if len(e.coords) == self.width else None

    def coords(self, e: MonoidElem) -> int | None:
        """e packed at the ring's level; None for the wrong width or an e finer than the ring."""
        v = self._vec(e)
        return None if v is None else self.pack(v)

    def elem(self, v: int) -> MonoidElem:
        return MonoidElem(self.unpack(v), self.level, self.p)

    def structural_contains(self, v: tuple[int, ...]) -> bool:
        """v, coordinates at the ring's level of any degree, is an exponent of
        the ring: decided from the generators, without the support."""
        test = self._member[0]
        return len(v) == self.width and min(v, default=0) >= 0 and (test is None or test(v))

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Generators of the ring's exponent monoid at the ring's level: the
        monoid's generators and the free unit vectors."""
        d, r = self.monoid_part.ambient_rank, self.free_rank
        gens = [(g + (0,) * r, self.monoid_part.level) for g in self.monoid_part.generators]
        gens += [(tuple(int(j == k) for j in range(d + r)), self.free_level)
                 for k in range(d, d + r)]
        return tuple(self.vec_at(v, lv) for v, lv in gens)

    @cached_property
    def _member(self):
        """The (full, facet-only) membership tests of the exponent monoid on
        coordinates >= 0 (monoid.member_test): one monoid, Q + N^r, whose
        lattice also carries the divisibility of each part at the ring's level."""
        return member_test(self.generators, self.width, self.p)

    @cached_property
    def _walk(self):
        return walk(self.generators, self._field)

    @cached_property
    def _ideal_gens(self) -> tuple[int, ...]:
        """The quotient monomials packed at the ring's level, those that can
        divide an exponent within the cutoff (one finer than the ring or past
        the cutoff divides none)."""
        return tuple(v for v in map(self._code, self.quotient_exps) if v is not None)

    @cached_property
    def in_ring(self):
        """in_ring(v): the packed exponent v is an exponent of the ring within the cutoff."""
        lim, test, field, n = self._lim, self._member[0], self._field, self.width
        if test is None:
            return lim.__gt__

        def in_ring(v):
            return v < lim and test(unpack(v, field, n))

        return in_ring

    @cached_property
    def nonzero(self):
        """nonzero(v): e^v is a nonzero monomial, for packed coordinates v:
        v is within the cutoff and v - q is in the ring for no quotient
        monomial q, by the full member test."""
        return self._spared(self._ideal_gens, self._member[0])

    @cached_property
    def live(self):
        """live(v): nonzero(v), for v an exponent of the ring."""
        return self.nonzero_mod(self._ideal_gens)

    def nonzero_mod(self, ws):
        """v -> e^v is nonzero modulo the e^w, w in ws: v is within the
        cutoff and no e^w divides e^v, for v an exponent of the ring and
        packed exponents w.  A w in the group of the exponent monoid divides
        v when v - w (in the group too) passes the facet-only member test;
        one outside the group, or None, divides no exponent of the ring."""
        M = AffineMonoid(self.width, self.p, self.level, self.generators)
        ws = [w for w in dict.fromkeys(ws)
              if w is not None and (self.in_ring(w) or in_gp(M, self.elem(w)))]
        return self._spared(ws, self._member[1])

    def _spared(self, ws, test):
        """v -> v is within the cutoff and, for every w in ws, v - w has a
        negative coordinate or fails test (on coordinates; None admits
        all).  Each field of (v | g) - w, g the guard bits, keeps its guard
        bit exactly when it does not borrow."""
        lim, g, field, n = self._lim, self._guards, self._field, self.width

        def spared(v):
            if v >= lim:
                return False
            v |= g
            for w in ws:
                if (d := v - w) & g == g and (test is None or test(unpack(d - g, field, n))):
                    return False
            return True

        return spared

    def _code(self, e: MonoidElem) -> int | None:
        """e packed, when it is within the cutoff with coordinates >= 0 at the
        ring's level (where packing is exact); else None."""
        v = self._vec(e)
        if v is None or min(v, default=0) < 0 or sum(v) > self.cap:
            return None
        return self.pack(v)

    def exp_in_ring(self, e: MonoidElem) -> bool:
        """Validity of a combined exponent (degree cutoff not included)."""
        v = self._vec(e)
        return v is not None and self.structural_contains(v)

    def support(self, upto: int | None = None) -> tuple[int, ...]:
        """The packed exponents of the ring, quotient ideal included, of
        degree at most upto (default the cap), in term order."""
        k = self.cap if upto is None else min(upto, self.cap)
        w = self._walk
        return tuple(islice(w.elements, w.upto(k)))

    def monomial_basis(self, upto: int | None = None) -> tuple[int, ...]:
        """Packed exponents within the cutoff outside the quotient ideal, in
        term order, of degree at most upto (default the cap): the walk's
        elements outside the translates by the quotient monomials, which
        the rings on one walk with the same quotients share.  A ring
        without quotients answers with its support."""
        k = self.cap if upto is None else min(upto, self.cap)
        if not self._ideal_gens:
            return self.support(k)
        return self._walk.outside(tuple((q, q >> self._shift) for q in self._ideal_gens), k)

    def basis_count(self, upto: int | None = None) -> int:
        """len(monomial_basis(upto)) without the walk: H(k) - H(k - deg q)
        for the one quotient monomial q within the cutoff, H(k) without
        one, H = monoid.count_upto on the ring's generators.  The ideal is
        then q + M, and m -> q + m maps the exponents of degree <= k - deg q
        onto its part of degree <= k.  InvariantViolation for more quotient
        monomials within the cutoff, or one that is not an exponent of the
        ring; NotSaturated unless the exponent monoid is saturated."""
        k = self.cap if upto is None else min(upto, self.cap)
        H = partial(count_upto, self.generators, self.width)
        quots = self._ideal_gens
        if not quots:
            return H(k)
        if len(quots) > 1 or not self.in_ring(quots[0]):
            raise InvariantViolation("the basis count needs at most one quotient "
                                     "monomial within the cutoff, an exponent of the ring")
        return H(k) - H(k - (quots[0] >> self._shift))

    def residue_ring(self, *extra: MonoidElem) -> SeriesRingDesc:
        """The char-p ring on the same exponents modulo f-bar (when there is a
        relation with a coefficient prime to p; for f in (p), R/(p, f) =
        R/(p)), the ring's own quotient monomials and the extra ones."""
        quots = set(self.quotient_exps) | set(extra)
        if (fb := f_bar(self)) is not None:
            quots.add(fb[0])
        out = replace(self, relation_f=None, quotient_exps=tuple(quots))
        return out._refield(self._field)

    def to_descriptor(self) -> dict:
        out = {
            "monoid": self.monoid_part.to_descriptor(),
            "free_rank": self.free_rank,
            "free_level": self.free_level,
            "p": self.p,
            "precision": self.precision,
            "cutoff": f"{self.cutoff.numerator}/{self.cutoff.denominator}",
        }
        if self.relation_f is not None:
            out["relation_f"] = [term_json(e, c) for e, c in self.relation_f]
        if self.quotient_exps:
            out["quotient_exponents"] = [e.to_json() for e in self.quotient_exps]
        return out

    @classmethod
    def from_descriptor(cls, d: dict) -> SeriesRingDesc:
        mon = AffineMonoid.from_descriptor(d["monoid"])
        extra = sorted(set(d) - {"monoid", "free_rank", "free_level", "p", "precision",
                                 "cutoff", "relation_f", "quotient_exponents"})
        if extra:
            raise ValueError(f"unknown ring descriptor key {extra[0]!r}")
        p = json_int(d["p"])
        if p != mon.scale_base:
            raise InvariantViolation("prime differs from the monoid scale base")
        rel = None
        if d.get("relation_f") is not None:
            rel = tuple(term_from_json(t, p) for t in d["relation_f"])
        quot = tuple(MonoidElem.from_json(t, p) for t in d.get("quotient_exponents", ()))
        return cls(
            monoid_part=mon,
            free_rank=json_int(d["free_rank"]),
            free_level=json_int(d.get("free_level", mon.level)),
            precision=json_int(d["precision"]),
            cutoff=parse_cutoff(d["cutoff"]),
            relation_f=rel,
            quotient_exps=quot,
        )


def parse_cutoff(x) -> int | Fraction:
    """The degree cutoff D of a descriptor or of the command line: an integer,
    or a string -?N, -?N/M or -?N.M in ASCII digits such as "4", "7/2" or
    "1.5" (see _as_rational); ValueError naming x otherwise."""
    if type(x) not in (int, str):
        raise ValueError(f"cutoff {x!r} must be an integer or a string like '7/2'")
    try:
        return _as_rational(x)
    except ZeroDivisionError:
        raise ValueError(f"cutoff {x!r} has a zero denominator") from None


def _as_rational(x) -> int | Fraction:
    """x as an int when it is integral, else as a Fraction: fractions (with
    decimal and numbers) loads only for a cutoff that is not an integer.  A
    string must be -?N, -?N/M or -?N.M in ASCII digits: Fraction() alone
    would also read "1_0", full-width digits, blanks, "+4" and "1e1"."""
    if type(x) is int or type(x) is str and x.isascii() and x.isdigit():
        return int(x)
    if type(x) is str:
        body = x[1:] if x.startswith("-") else x
        parts = body.split("/" if "/" in body else ".", 1)
        if not all(t.isascii() and t.isdigit() for t in parts):
            raise ValueError(f"cutoff {x!r} is not a rational number")
    from fractions import Fraction
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def f_bar(ring: SeriesRingDesc) -> tuple[MonoidElem, int] | None:
    """f-bar = f mod p as its one term (exponent w, c mod p); None when the
    ring has no relation or f is in (p).  NonMonomialReduction for two or
    more terms."""
    live = [(e, c % ring.p) for e, c in ring.relation_f or () if c % ring.p]
    if len(live) > 1:
        raise NonMonomialReduction(
            "f mod p is not a monomial; declare a monomial order to proceed"
        )
    return live[0] if live else None

