"""Truncated monoid power series with canonical forms modulo theta = p - f.

A ring descriptor pins down everything about a level of a tower: the divided
monoid part Q^(i), the free part (N^r) at its own level, the prime, the input
coefficient precision N, the rational degree cutoff D, an optional relation
theta = p - f, and (for residue rings) a monomial quotient ideal.

Canonical form in a relation ring: coefficients are expanded into base-p
digits over the exact integers and every p is traded for the series f until
all coefficients are digits in [0, p) or the terms leave the cutoff.  Negative
integers expand like p-adic ones (-1 becomes (p-1)(1 + f + f^2 + ...)), which
terminates because f has positive degree.  No reduction mod p^N happens during
normalization; that keeps the truncated ring an honest quotient of
C(k)[[monoid]] and the ring axioms exact at the cutoff.  The precision N is an
input contract for descriptors and shows up in reports; it is not a rewrite
rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor

from .coeffring import is_prime
from .monoid import AffineMonoid, MonoidElem, contains, graded_order, json_int


class RingMismatch(ValueError):
    pass


class NonMonomialReduction(ValueError):
    pass


class InvariantViolation(ValueError):
    pass


@dataclass(frozen=True)
class SeriesRingDesc:
    """Descriptor of one truncated ring C(k)[[Q^(i) + (N^r)^(i)]]/(theta).

    Exponents are combined MonoidElem vectors of length ambient_rank + free_rank;
    the monoid part is sliced off the front.  char_p rings carry F_p
    coefficients and may quotient by a monomial ideal (quotient_exps); mixed
    rings may carry the Kato relation theta = p - f as a term tuple.

    Every exponent of the ring lives at or above one level L (the finer of
    the monoid and free levels), so degrees are compared as integers at L:
    deg(e) counts steps of p^-L and e is within the cutoff iff deg(e) <= cap,
    cap = floor(D p^L).  key(e) is the term order, by degree and then by
    the coordinates at L.
    """

    monoid_part: AffineMonoid
    free_rank: int
    free_level: int
    p: int
    precision: int
    cutoff: Fraction
    relation_f: tuple[tuple[MonoidElem, int], ...] | None = None
    char_p: bool = False
    quotient_exps: tuple[MonoidElem, ...] = ()

    def __post_init__(self):
        if self.p != self.monoid_part.scale_base:
            raise InvariantViolation("prime differs from the monoid scale base")
        try:
            prime = is_prime(self.p)
        except ValueError as exc:  # p beyond the range is_prime decides
            raise InvariantViolation(str(exc)) from exc
        if not prime:
            raise InvariantViolation("p must be a prime")
        if self.free_rank < 0 or self.free_level < 0:
            raise InvariantViolation("free part data must be nonnegative")
        if self.precision < 1:
            raise InvariantViolation("precision must be >= 1")
        object.__setattr__(self, "cutoff", Fraction(self.cutoff))
        if self.cutoff <= 0:
            raise InvariantViolation("degree cutoff must be positive")
        if self.relation_f is not None:
            if self.char_p:
                raise InvariantViolation("relation rings are mixed characteristic")
            for e, c in self.relation_f:
                if e.degree() <= 0:
                    raise InvariantViolation("relation f must have positive degree terms")
                if not self.exp_in_ring(e):
                    raise InvariantViolation("relation exponent outside the ring monoid")
            terms = tuple(sorted(self.relation_f, key=lambda t: self.key(t[0])))
            object.__setattr__(self, "relation_f", terms)
        if self.quotient_exps:
            if not self.char_p:
                raise InvariantViolation("monomial quotients live in residue rings")
            # quotient monomials may be finer than the ring: order them at
            # the finest level among the ring and its quotients
            lv = max(self.level, *(q.level for q in self.quotient_exps))
            object.__setattr__(
                self, "quotient_exps",
                tuple(sorted(self.quotient_exps, key=lambda e: graded_order(e.at_level(lv)))),
            )

    @cached_property
    def level(self) -> int:
        return max(self.monoid_part.level, self.free_level)

    @cached_property
    def cap(self) -> int:
        return floor(self.cutoff * self.p ** self.level)

    def deg(self, e: MonoidElem) -> int:
        """Degree of e in steps of p^-level; ValueError if e is finer than the ring."""
        return sum(e.at_level(self.level))

    def key(self, e: MonoidElem) -> tuple[int, tuple[int, ...]]:
        return graded_order(e.at_level(self.level))

    @property
    def width(self) -> int:
        return self.monoid_part.ambient_rank + self.free_rank

    def exp(self, coords, level: int = 0) -> MonoidElem:
        return MonoidElem(tuple(coords), level, self.p)

    @property
    def zero_exp(self) -> MonoidElem:
        return MonoidElem((0,) * self.width, 0, self.p)

    def split(self, e: MonoidElem) -> tuple[MonoidElem, MonoidElem]:
        d = self.monoid_part.ambient_rank
        return (
            MonoidElem(e.coords[:d], e.level, self.p),
            MonoidElem(e.coords[d:], e.level, self.p),
        )

    def exp_in_ring(self, e: MonoidElem) -> bool:
        """Validity of a combined exponent (degree cutoff not included)."""
        if len(e.coords) != self.width:
            return False
        mpart, fpart = self.split(e)
        if any(x < 0 for x in fpart.coords) or fpart.level > self.free_level:
            return False
        return contains(self.monoid_part, mpart)

    def dominated(self, e: MonoidElem) -> bool:
        """Membership of e in the monomial quotient ideal."""
        return any(self.exp_in_ring(e - q) for q in self.quotient_exps)

    def monomial_basis(self) -> tuple[MonoidElem, ...]:
        return _monomial_basis(self)

    def residue_ring(self, *extra: MonoidElem) -> SeriesRingDesc:
        """The char-p ring on the same exponents modulo f-bar (when there is a
        relation), the ring's own quotient monomials and the extra ones."""
        quots = set(self.quotient_exps) | set(extra)
        if self.relation_f is not None:
            quots.add(reduced_relation_exp(self))
        return replace(self, relation_f=None, char_p=True, quotient_exps=tuple(quots))

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
        if self.char_p:
            out["char_p"] = True
        if self.quotient_exps:
            out["quotient_exponents"] = [e.to_json() for e in self.quotient_exps]
        return out

    @classmethod
    def from_descriptor(cls, d: dict) -> SeriesRingDesc:
        mon = AffineMonoid.from_descriptor(d["monoid"])
        p = json_int(d["p"])
        rel = None
        if d.get("relation_f") is not None:
            rel = tuple(term_from_json(t, p) for t in d["relation_f"])
        quot = tuple(MonoidElem.from_json(t, p) for t in d.get("quotient_exponents", ()))
        char_p = d.get("char_p", False)
        if type(char_p) is not bool:
            raise ValueError(f"char_p must be a JSON boolean, got {char_p!r}")
        num, _, den = str(d["cutoff"]).partition("/")
        return cls(
            monoid_part=mon,
            free_rank=json_int(d["free_rank"]),
            free_level=json_int(d.get("free_level", mon.level)),
            p=p,
            precision=json_int(d["precision"]),
            cutoff=Fraction(int(num), int(den) if den else 1),
            relation_f=rel,
            char_p=char_p,
            quotient_exps=quot,
        )


def term_json(e: MonoidElem, c: int) -> dict:
    """A series term as {"exponent": [..], "level": i, "coeff": c}."""
    return {**e.to_json(), "coeff": int(c)}


def term_from_json(t: dict, base: int) -> tuple[MonoidElem, int]:
    """Inverse of term_json; a missing level means level 0."""
    return MonoidElem.from_json(t, base), json_int(t["coeff"])


def reduced_relation_exp(ring: SeriesRingDesc) -> MonoidElem:
    """The exponent of f-bar = f mod p, which must be a single monomial."""
    if ring.relation_f is None:
        raise NonMonomialReduction("ring has no relation to reduce by")
    live = [(e, c % ring.p) for e, c in ring.relation_f if c % ring.p != 0]
    if len(live) != 1:
        raise NonMonomialReduction(
            "f mod p is not a monomial; declare a monomial order to proceed"
        )
    return live[0][0]


@lru_cache(maxsize=None)
def _monomial_basis(ring: SeriesRingDesc) -> tuple[MonoidElem, ...]:
    """All valid exponents of degree <= D surviving the monomial quotient."""
    from .monoid import enumerate_elements

    lv = ring.level
    step = ring.p ** (lv - ring.free_level)  # one free-level unit, in level-lv steps
    out = []
    for m in enumerate_elements(ring.monoid_part, ring.cutoff):
        mc = m.at_level(lv)
        for v in _compositions(ring.free_rank, (ring.cap - sum(mc)) // step):
            e = MonoidElem(mc + tuple(x * step for x in v), lv, ring.p)
            if not ring.dominated(e):
                out.append(e)
    return tuple(sorted(out, key=ring.key))


def _compositions(r: int, cap: int):
    if r == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in _compositions(r - 1, cap - head):
            yield (head,) + tail


@dataclass(frozen=True)
class Series:
    """An element in canonical form: sorted terms, coefficients reduced."""

    ring: SeriesRingDesc
    terms: tuple[tuple[MonoidElem, int], ...]

    def coeff(self, e: MonoidElem) -> int:
        for ee, c in self.terms:
            if ee == e:
                return c
        return 0

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_coeff(self) -> int:
        return self.coeff(self.ring.zero_exp)

    def monomials(self) -> tuple[MonoidElem, ...]:
        return tuple(e for e, _ in self.terms)

    def to_json(self) -> list[dict]:
        return [term_json(e, c) for e, c in self.terms]

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e{e!r}" for e, c in self.terms)


def make_series(ring: SeriesRingDesc, raw, validate: bool = False) -> Series:
    """Canonicalize raw (exponent, coefficient) data into a Series.

    Truncation drops exponents beyond D silently; invalid exponents raise only
    under validate=True (internal arithmetic never produces them).
    """
    acc: dict[MonoidElem, int] = {}
    items = raw.items() if isinstance(raw, dict) else raw
    for e, c in items:
        if validate and not ring.exp_in_ring(e):
            raise InvariantViolation(f"exponent {e} is not in the ring monoid")
        if c == 0 or ring.deg(e) > ring.cap:
            continue
        if ring.quotient_exps and ring.dominated(e):
            continue
        acc[e] = acc.get(e, 0) + c

    if ring.char_p:
        norm = {e: c % ring.p for e, c in acc.items()}
    elif ring.relation_f is None:
        pn = ring.p ** ring.precision
        norm = {e: c % pn for e, c in acc.items()}
    else:
        norm = _digit_normalize(ring, acc)
    terms = tuple(
        sorted(((e, c) for e, c in norm.items() if c != 0), key=lambda t: ring.key(t[0]))
    )
    return Series(ring, terms)


def _digit_normalize(ring: SeriesRingDesc, acc: dict[MonoidElem, int]) -> dict[MonoidElem, int]:
    """Rewrite until every coefficient is a base-p digit, trading p for f.

    Smallest degree first; substitution pushes mass to strictly larger degree,
    so one pass over a growing heap terminates and the result is independent
    of the input order.
    """
    p = ring.p
    work = dict(acc)
    heap = [(ring.key(e), e) for e in work]
    heapq.heapify(heap)
    queued = set(work)
    while heap:
        _, e = heapq.heappop(heap)
        queued.discard(e)
        c = work.get(e, 0)
        if 0 <= c < p:
            continue
        d0 = c % p
        rest = (c - d0) // p
        work[e] = d0
        for fe, fc in ring.relation_f:
            e2 = e + fe
            if ring.deg(e2) > ring.cap:
                continue
            work[e2] = work.get(e2, 0) + rest * fc
            if e2 not in queued:
                heapq.heappush(heap, (ring.key(e2), e2))
                queued.add(e2)
    return work


def s_zero(ring: SeriesRingDesc) -> Series:
    return Series(ring, ())


def s_one(ring: SeriesRingDesc) -> Series:
    return make_series(ring, [(ring.zero_exp, 1)])


def s_monomial(ring: SeriesRingDesc, e: MonoidElem, c: int = 1) -> Series:
    return make_series(ring, [(e, c)], validate=True)


def s_const(ring: SeriesRingDesc, c: int) -> Series:
    return make_series(ring, [(ring.zero_exp, c)])


def _same_ring(x: Series, y: Series):
    if x.ring != y.ring:
        raise RingMismatch("series live in different rings")


def s_add(x: Series, y: Series) -> Series:
    _same_ring(x, y)
    acc: dict[MonoidElem, int] = dict(x.terms)
    for e, c in y.terms:
        acc[e] = acc.get(e, 0) + c
    return make_series(x.ring, acc)


def s_neg(x: Series) -> Series:
    return make_series(x.ring, [(e, -c) for e, c in x.terms])


def s_sub(x: Series, y: Series) -> Series:
    return s_add(x, s_neg(y))


def s_mul(x: Series, y: Series) -> Series:
    _same_ring(x, y)
    ring = x.ring
    acc: dict[MonoidElem, int] = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            e = e1 + e2
            if ring.deg(e) > ring.cap:
                continue
            acc[e] = acc.get(e, 0) + c1 * c2
    return make_series(ring, acc)


def s_pow(x: Series, n: int) -> Series:
    out = s_one(x.ring)
    for _ in range(n):
        out = s_mul(out, x)
    return out


def is_unit(x: Series) -> bool:
    """Units are detected on the constant coefficient of the canonical form."""
    return x.constant_coeff % x.ring.p != 0


def reduce_mod_I0(x: Series, target: SeriesRingDesc | None = None) -> Series:
    """Image of x in the mod-p residue ring R/(p, f) = k[[monoid]]/(f-bar).

    The canonical form of a relation ring already has digit coefficients with
    every p traded for f, so reduction is reinterpretation of the same terms
    in the residue ring, which drops everything the f-bar monomial dominates.
    """
    if x.ring.relation_f is None and not x.ring.char_p:
        raise NonMonomialReduction("ring has no relation; nothing to reduce by")
    if x.ring.char_p:
        return x if target is None else make_series(target, x.terms)
    ring = target if target is not None else x.ring.residue_ring()
    return make_series(ring, x.terms)


def frobenius_mod_I0(x: Series) -> Series:
    """The p-power Frobenius on a residue ring: c e^g -> c e^{pg}."""
    if not x.ring.char_p:
        raise InvariantViolation("Frobenius acts on the mod-I0 residue rings")
    return make_series(x.ring, [(e.scale(x.ring.p), c) for e, c in x.terms])


@dataclass(frozen=True)
class TorsionReport:
    """Monomials killed by a power of the tested generator, within the cutoff.

    Products that would leave the degree cutoff are skipped rather than
    counted, so cutoff artifacts never masquerade as torsion; is_zero reports
    whether any honest torsion was found.
    """

    annihilator_basis: tuple[Series, ...]
    is_zero: bool
    bounded_exponent: int | None
    minimal_powers: tuple[int, ...] = ()

    def monomial_exps(self) -> tuple[MonoidElem, ...]:
        return tuple(s.terms[0][0] for s in self.annihilator_basis)


def torsion_annihilator(ring: SeriesRingDesc, g: Series) -> TorsionReport:
    """Power-torsion of the principal ideal (g) on the ring's monomial basis.

    For each basis monomial m, successive products m*g^l are computed while
    they stay inside the cutoff; m is torsion when some product vanishes.  A
    zero generator makes everything 1-torsion, which the axiom layer handles
    through the I = (0) remark rather than here.
    """
    if g.ring != ring:
        raise RingMismatch("generator lives in a different ring")
    found: list[tuple[MonoidElem, int]] = []
    if g.is_zero:
        for m in ring.monomial_basis():
            found.append((m, 1))
    elif min(ring.deg(e) for e, _ in g.terms) == 0:
        # canonical forms put a unit digit on a degree-0 term: g is a unit
        pass
    else:
        gdeg = min(ring.deg(e) for e, _ in g.terms)
        for m in ring.monomial_basis():
            prod = s_monomial(ring, m)
            l = 0
            while ring.deg(m) + (l + 1) * gdeg <= ring.cap:
                prod = s_mul(prod, g)
                l += 1
                if prod.is_zero:
                    found.append((m, l))
                    break
    basis = tuple(s_monomial(ring, m) for m, _ in found)
    powers = tuple(l for _, l in found)
    return TorsionReport(
        annihilator_basis=basis,
        is_zero=not basis,
        bounded_exponent=max(powers) if powers else None,
        minimal_powers=powers,
    )
