"""The power-series algebra of the truncated rings, the tests' reference.

A Series is a ring descriptor and the canonical form of its terms, which
ptlab.series.make_series computes; this module adds the ring arithmetic
(s_add, s_neg, s_mul, s_pow), units, reduction modulo I_0 = (p) and the
degree and quotient-ideal membership of MonoidElem exponents.  The library
decides every verdict on exponents; the tests compare those verdicts with
the products and powers computed here.
"""

from heapq import heapify, heappop, heappush

from ptlab import series
from ptlab.monoid import MonoidElem, term_json
from ptlab.record import record
from ptlab.series import SeriesRingDesc, coeff_map, ideal_generator


class RingMismatch(ValueError):
    pass


@record
class Series:
    """An element in canonical form: terms (packed exponent at ring.level,
    coefficient) in term order, coefficients reduced."""

    ring: SeriesRingDesc
    terms: tuple[tuple[int, int], ...]

    def coeff(self, e: MonoidElem) -> int:
        return dict(self.terms).get(self.ring._code(e), 0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_coeff(self) -> int:
        return dict(self.terms).get(self.ring.zero_exp, 0)

    def exp_terms(self) -> tuple[tuple[MonoidElem, int], ...]:
        """The terms with MonoidElem exponents."""
        return tuple((self.ring.elem(v), c) for v, c in self.terms)

    def to_json(self) -> list[dict]:
        return [term_json(e, c) for e, c in self.exp_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*e{e!r}" for e, c in self.exp_terms())


def make_series(ring: SeriesRingDesc, raw) -> Series:
    """The Series of raw (packed exponent, coefficient) data."""
    return Series(ring, series.make_series(ring, raw))


def s_zero(ring: SeriesRingDesc) -> Series:
    return Series(ring, ())


def s_one(ring: SeriesRingDesc) -> Series:
    return make_series(ring, [(ring.zero_exp, 1)])


def s_from_terms(ring: SeriesRingDesc, terms) -> Series:
    """The series of (MonoidElem, coefficient) pairs; InvariantViolation for
    an exponent outside the ring."""
    return make_series(ring, coeff_map(ring, terms))


def s_monomial(ring: SeriesRingDesc, e: MonoidElem, c: int = 1) -> Series:
    return s_from_terms(ring, [(e, c)])


def s_const(ring: SeriesRingDesc, c: int) -> Series:
    return make_series(ring, [(ring.zero_exp, c)])


def _same_ring(x: Series, ring: SeriesRingDesc):
    if x.ring != ring:
        raise RingMismatch("series live in different rings")
    if x.ring._field != ring._field:
        raise RingMismatch("series of one ring packed for different towers")


def s_add(x: Series, y: Series) -> Series:
    _same_ring(y, x.ring)
    acc = dict(x.terms)
    for v, c in y.terms:
        acc[v] = acc.get(v, 0) + c
    return make_series(x.ring, acc)


def s_neg(x: Series) -> Series:
    return make_series(x.ring, [(v, -c) for v, c in x.terms])


def s_mul(x: Series, y: Series) -> Series:
    _same_ring(y, x.ring)
    lim = x.ring._lim
    acc: dict[int, int] = {}
    for v1, c1 in x.terms:
        room = lim - v1
        for v2, c2 in y.terms:
            if v2 >= room:
                break  # y's terms come in term order
            v = v1 + v2
            acc[v] = acc.get(v, 0) + c1 * c2
    return make_series(x.ring, acc)


def s_pow(x: Series, n: int) -> Series:
    out = s_one(x.ring)
    for _ in range(n):
        out = s_mul(out, x)
    return out


def is_unit(x: Series) -> bool:
    """Units are detected on the constant coefficient of the canonical form."""
    return x.constant_coeff % x.ring.p != 0


def reduce_mod_I0(x: Series) -> Series:
    """Image of x in the mod-p residue ring R/(p, f) = k[[monoid]]/(f-bar).

    The canonical form of a relation ring already has digit coefficients with
    every p traded for f, so reduction is reinterpretation of the same terms
    in the residue ring (same exponents, same level), which drops everything
    the f-bar monomial dominates.  A ring without a relation is of
    characteristic p already.
    """
    if x.ring.relation_f is None:
        return x
    return make_series(x.ring.residue_ring(), x.terms)


def heap_series(ring: SeriesRingDesc, raw) -> tuple[tuple[int, int], ...]:
    """The canonical form of raw (packed exponent, coefficient) data in a
    relation ring, with the digits normalised by a heap: the smallest pending
    exponent is rewritten first, and an exponent a carry creates is pushed
    the first time it appears, as in Monagan-Pearce division.  The reference
    for ptlab.series.make_series, which sweeps the degrees instead."""
    p, lim = ring.p, ring._lim
    work: dict[int, int] = {}
    for v, c in raw:
        if c and v < lim:
            work[v] = work.get(v, 0) + c
    heap = list(work)
    heapify(heap)
    while heap:
        v = heappop(heap)
        c = work[v]
        if 0 <= c < p:
            continue
        d0 = c % p
        work[v] = d0
        for fv, fc in ring._relation_terms:
            v2 = v + fv
            if v2 >= lim:
                break  # relation terms come in term order
            if v2 not in work:
                heappush(heap, v2)
            work[v2] = work.get(v2, 0) + (c - d0) // p * fc
    return tuple(sorted((v, c) for v, c in work.items() if c))


def deg(ring: SeriesRingDesc, e: MonoidElem) -> int:
    """Degree of e in steps of p^-level; ValueError if e is finer than the ring."""
    return sum(e.at_level(ring.level))


def dominated(ring: SeriesRingDesc, e: MonoidElem) -> bool:
    """Membership of e in the monomial quotient ideal."""
    return any(ring.exp_in_ring(e - q) for q in ring.quotient_exps)


def generator(ring: SeriesRingDesc, terms):
    """The canonical I_0 generator of (MonoidElem, coefficient) pairs, the
    base_ideal of a TowerDesc: (exponent, coefficient) or None."""
    return ideal_generator(ring, coeff_map(ring, terms))


def inseparability_failures(T, i: int):
    """The failures of axioms (b) and (c) at level i, each row decided from
    its definition by series, in basis order.

    t-bar_i sends each basis monomial of S_i whose image is within the cutoff
    to a series of S_{i+1}: (b) fails at one whose image is zero ("vanishes")
    or the image of an earlier one ("collides").  (c) fails at a basis
    monomial of S_{i+1} whose p-th power is neither zero (in the ideal or
    past the cutoff) nor any of those images.  Returns ([(kind, MonoidElem)],
    [MonoidElem])."""
    Si, Si1 = T.residue(i), T.residue(i + 1)
    t = T.transitions[i]
    images = []
    for v in Si.monomial_basis():
        w = MonoidElem(t.act(Si.unpack(v)), Si.level, T.p)
        if deg(Si1, w) <= Si1.cap:
            images.append((Si.elem(v), s_monomial(Si1, w)))
    bad_b, first = [], {}
    for e, x in images:
        if x.is_zero:
            bad_b.append(("vanishes", e))
        elif x.terms in first:
            bad_b.append(("collides", e))
        else:
            first[x.terms] = e
    reached = {x.terms for _, x in images}
    bad_c = []
    for d in map(Si1.elem, Si1.monomial_basis()):
        y = s_pow(s_monomial(Si1, d), T.p)
        if not y.is_zero and y.terms not in reached:
            bad_c.append(d)
    return bad_b, bad_c
