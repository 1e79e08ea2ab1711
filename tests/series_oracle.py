"""The power-series algebra of the truncated rings, the tests' reference.

A Series is a ring descriptor and the canonical form of its terms
(make_series): truncated at the cutoff and the quotient ideal, with
coefficients mod p in a ring without a relation and base-p digits in one
with the relation p = f (heap_series).  This module adds the ring
arithmetic (s_add, s_neg, s_mul, s_pow), units, reduction modulo
I_0 = (p), the degree and quotient-ideal membership of MonoidElem
exponents, the tower maps F_i and t-bar_i on series, and the decision of
axioms (a) to (d) from their definitions.  The library decides every
verdict on exponents, and reads p only through f-bar; the tests compare
those verdicts with the products and powers computed here.
"""

from heapq import heapify, heappop, heappush

from ptlab.monoid import MonoidElem, term_json
from ptlab.record import record
from ptlab.series import InvariantViolation, SeriesRingDesc


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
    """The Series of raw (packed exponent, coefficient) data: its terms in
    term order, with nonzero reduced coefficients.  Truncation drops
    exponents beyond D and the quotient ideal; nothing is validated
    (coeff_map is the validating entry for MonoidElem exponents)."""
    acc: dict[int, int] = {}
    for v, c in raw.items() if isinstance(raw, dict) else raw:
        if c and ring.nonzero(v):
            acc[v] = acc.get(v, 0) + c
    if ring.relation_f is not None:
        return Series(ring, heap_series(ring, acc.items()))
    return Series(ring, tuple(sorted((v, c % ring.p) for v, c in acc.items() if c % ring.p)))


def coeff_map(ring: SeriesRingDesc, terms) -> dict[int, int]:
    """(MonoidElem, coefficient) pairs as {packed exponent: coefficient},
    with the coefficients of one exponent summed and the exponents past the
    cutoff dropped; InvariantViolation for an exponent outside the ring."""
    out: dict[int, int] = {}
    for e, c in terms:
        if not ring.exp_in_ring(e):
            raise InvariantViolation(f"exponent {e} is not in the ring monoid")
        v = ring._code(e)
        if v is not None:  # else beyond the cutoff
            out[v] = out.get(v, 0) + c
    return out


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
    relation ring: every coefficient a base-p digit, each p traded for f.
    A coefficient c at v keeps its digit d = c mod p and carries (c - d)/p
    times f to the exponents v + w of f's terms, dropping a carry past the
    cutoff.  The smallest pending exponent is rewritten first, and an
    exponent a carry creates is pushed the first time it appears, as in
    Monagan-Pearce division.  Negative integers expand like p-adic ones,
    which terminates because every term of f has positive degree."""
    p, lim = ring.p, ring._lim
    f = [(ring.coords(e), c) for e, c in ring.relation_f]
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
        for fv, fc in f:
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
    """The canonical form of (MonoidElem, coefficient) pairs as a TowerDesc
    base_ideal: its one term, or None for zero; InvariantViolation for more."""
    out = make_series(ring, coeff_map(ring, terms)).exp_terms()
    if len(out) > 1:
        raise InvariantViolation("the base ideal generator must be a monomial or zero")
    return out[0] if out else None


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


# The tower maps on series.  F_i: S_{i+1} -> S_i sends c e^v to c^p e^{pv},
# and t-bar_i: S_i -> S_{i+1} applies the transition term by term.


def series_frob(T, i, x):
    """F_i on a series of S_{i+1}; a term whose image is finer than S_i is
    no exponent of S_i, so it maps to zero."""
    Si = T.residue(i)
    if x.ring != T.residue(i + 1):
        raise InvariantViolation("argument must live in S_{i+1}")
    # p * v at S_{i+1}'s level is v at one level coarser
    terms = ((Si.rescale(v, x.ring.level - 1), pow(c, T.p, T.p)) for v, c in x.terms)
    return make_series(Si, [(w, c) for w, c in terms if w is not None])


def series_t_bar(T, i, x):
    """t-bar_i on a series of S_i."""
    t, Si1 = T.transitions[i], T.residue(i + 1)
    return make_series(Si1, [(t.on_packed(x.ring, Si1)(v), c) for v, c in x.terms])


def ideal_failures(T):
    """Axiom (a), p in I_0, decided on p's canonical series in R_0: its
    terms (MonoidElem, coefficient), in term order, outside g + M for the
    I_0 generator x^g, or all of them for I_0 = (0), where p must be zero."""
    R0, g = T.levels[0], T.ideal_exp()
    return [(e, c) for e, c in s_const(R0, T.p).exp_terms()
            if g is None or not R0.exp_in_ring(e - g)]


def projection_failures(T, i: int):
    """Axiom (d) at level i: the basis monomials of S_i, in basis order,
    that series_frob sends no basis monomial of S_{i+1} to."""
    Si, Si1 = T.residue(i), T.residue(i + 1)
    hit = {series_frob(T, i, Series(Si1, ((d, 1),))).terms for d in Si1.monomial_basis()}
    return [Si.elem(mu) for mu in Si.monomial_basis() if ((mu, 1),) not in hit]
