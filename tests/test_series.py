"""Truncated series arithmetic: carries, relations, residue reduction."""

import itertools
import re
import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from ptlab.monoid import (
    AffineMonoid,
    MonoidElem,
    contains,
    graded_order,
    term_from_json,
    term_json,
    walk,
)
from ptlab.record import replace
from ptlab.series import (
    InvariantViolation,
    NonMonomialReduction,
    SeriesRingDesc,
    f_bar,
    parse_cutoff,
)
from ptlab.tower import _torsion

from fixtures import torsion_oracle
from series_oracle import (
    RingMismatch,
    deg,
    dominated,
    generator,
    heap_series,
    is_unit,
    make_series,
    reduce_mod_I0,
    s_add,
    s_const,
    s_from_terms,
    s_monomial,
    s_mul,
    s_neg,
    s_one,
    s_zero,
)

TRIV = AffineMonoid(0, 2, 0, ())

# Z_2[[x1,x2]]/(2 - x1) at precision 2, degree 4
MIXED = SeriesRingDesc(
    monoid_part=TRIV, free_rank=2, free_level=0, precision=2,
    cutoff=Fraction(4), relation_f=((MonoidElem((1, 0), 0, 2), 1),),
)

# F_2[x,y]/(x^2 y) truncated at degree 4
CHARP = SeriesRingDesc(
    monoid_part=TRIV, free_rank=2, free_level=0, precision=1,
    cutoff=Fraction(4), quotient_exps=(MonoidElem((2, 1), 0, 2),),
)

RINGS = {"mixed": MIXED, "charp": CHARP}


def series_strategy(ring, max_terms=4):
    basis = [e for e in (ring.zero_exp,) + ring.monomial_basis()]
    term = st.tuples(st.sampled_from(basis), st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(lambda ts: make_series(ring, ts))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_axioms(name):
    ring = RINGS[name]

    @settings(deadline=None, max_examples=80)
    @given(series_strategy(ring), series_strategy(ring), series_strategy(ring))
    def check(x, y, z):
        assert s_add(x, y) == s_add(y, x)
        assert s_mul(x, y) == s_mul(y, x)
        assert s_add(s_add(x, y), z) == s_add(x, s_add(y, z))
        assert s_mul(s_mul(x, y), z) == s_mul(x, s_mul(y, z))
        assert s_mul(x, s_add(y, z)) == s_add(s_mul(x, y), s_mul(x, z))
        assert s_add(x, s_zero(ring)) == x
        assert s_mul(x, s_one(ring)) == x
        assert s_add(x, s_neg(x)) == s_zero(ring)

    check()
    other = CHARP if ring is MIXED else MIXED
    with pytest.raises(RingMismatch):
        s_mul(s_one(ring), s_one(other))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_canonicalization_is_order_independent(name):
    """Carry normalization is confluent under shuffled term insertion."""
    ring = RINGS[name]
    rng = random.Random(363)
    basis = (ring.zero_exp,) + ring.monomial_basis()
    for _ in range(60):
        terms = [(rng.choice(basis), rng.randint(-9, 9)) for _ in range(rng.randint(0, 6))]
        ref = make_series(ring, terms)
        for _ in range(4):
            rng.shuffle(terms)
            assert make_series(ring, terms) == ref
        cut = rng.randint(0, len(terms))
        assert s_add(make_series(ring, terms[:cut]), make_series(ring, terms[cut:])) == ref


@st.composite
def relation_rings(draw):
    """A mixed ring C(k)[[Q + N^r]]/(p - f) with a monoid part (none, N^1 or
    the A1 cone), a free part at level 0 or 1 and an f of one to three
    terms: the first with a unit coefficient or a multiple of p, the others,
    at any exponent, with multiples of p, so f-bar is one monomial or zero."""
    p = draw(st.sampled_from((2, 3, 5)))
    rank, gens = draw(st.sampled_from(((0, ()), (1, ((1,),)), (2, ((2, 0), (1, 1), (0, 2))))))
    free_rank = draw(st.integers(1 if rank == 0 else 0, 2))
    base = SeriesRingDesc(
        monoid_part=AffineMonoid(rank, p, 0, gens), free_rank=free_rank,
        free_level=draw(st.integers(0, 1)), precision=1, cutoff=draw(st.integers(2, 4)),
    )
    exps = st.sampled_from(base.monomial_basis()[1:])
    p_multiples = st.integers(-2, 3).filter(bool).map(lambda k: k * p)
    coeffs = st.one_of(st.integers(1, p * p).filter(lambda c: c % p), p_multiples)
    lead = draw(st.tuples(exps, coeffs))
    rest = draw(st.lists(st.tuples(exps, p_multiples), max_size=2))
    return replace(base, relation_f=tuple((base.elem(v), c) for v, c in [lead, *rest]))


@settings(deadline=None, max_examples=200)
@given(relation_rings())
def test_p_is_x_to_the_w_times_a_unit(ring):
    """f = c x^w + p h makes p (1 - h) = c x^w: the oracle's canonical form
    of p leads with (w, c mod p), the term f_bar reads, and every term lies
    in w + M.  With f in (p), or w past the cutoff, p is 0 in the window."""
    terms = heap_series(ring, [(ring.zero_exp, ring.p)])
    fb = f_bar(ring)
    if fb is None or ring._code(fb[0]) is None:
        assert terms == ()
        return
    w, c = fb
    assert terms[0] == (ring.coords(w), c)
    assert all(ring.exp_in_ring(ring.elem(v) - w) for v, _ in terms)


def test_relation_trades_p_for_f():
    # 2 = x1, 4 = x1^2, and a coefficient 3 splits into digit + carry
    x1 = MonoidElem((1, 0), 0, 2)
    assert s_const(MIXED, 2) == s_monomial(MIXED, x1)
    assert s_const(MIXED, 4) == s_monomial(MIXED, MonoidElem((2, 0), 0, 2))
    three = s_const(MIXED, 3)
    assert three.constant_coeff == 1
    assert three.coeff(x1) == 1
    # so 3 = 1 + x1 is no TowerDesc base ideal
    with pytest.raises(InvariantViolation, match="monomial or zero"):
        generator(MIXED, [(MonoidElem((0, 0), 0, 2), 3)])
    # canonical coefficients are base-p digits
    for s in (three, s_const(MIXED, 7), s_monomial(MIXED, x1, 5)):
        assert all(0 <= c < MIXED.p for _, c in s.terms)


def test_relation_respects_cutoff():
    deep = s_monomial(MIXED, MonoidElem((4, 0), 0, 2), 1)
    assert s_mul(deep, s_const(MIXED, 2)).is_zero  # 2*x1^4 = x1^5 leaves D = 4


@settings(deadline=None, max_examples=80)
@given(series_strategy(MIXED), series_strategy(MIXED))
def test_reduce_mod_I0_is_a_ring_map(x, y):
    rx, ry = reduce_mod_I0(x), reduce_mod_I0(y)
    assert reduce_mod_I0(s_add(x, y)) == s_add(rx, ry)
    assert reduce_mod_I0(s_mul(x, y)) == s_mul(rx, ry)


def test_reduce_mod_I0_kills_the_relation_direction():
    x1 = MonoidElem((1, 0), 0, 2)
    r = reduce_mod_I0(s_monomial(MIXED, x1))
    assert r.is_zero
    assert reduce_mod_I0(s_const(MIXED, 2)).is_zero
    assert not reduce_mod_I0(s_monomial(MIXED, MonoidElem((0, 1), 0, 2))).is_zero


def test_units():
    x2 = MonoidElem((0, 1), 0, 2)
    assert is_unit(s_one(MIXED))
    assert is_unit(s_const(MIXED, 3))
    assert not is_unit(s_const(MIXED, 2))      # p became x1
    assert not is_unit(s_monomial(MIXED, x2))
    assert is_unit(s_add(s_one(CHARP), s_monomial(CHARP, x2)))


def test_quotient_ideal_membership():
    xxy = MonoidElem((2, 1), 0, 2)
    assert s_monomial(CHARP, xxy).is_zero
    assert dominated(CHARP, MonoidElem((3, 1), 0, 2))
    assert not dominated(CHARP, MonoidElem((1, 1), 0, 2))
    assert CHARP.coords(xxy) not in CHARP.monomial_basis()


def test_torsion_annihilator_quotient_plane():
    x = CHARP.coords(MonoidElem((1, 0), 0, 2))
    found = set(map(CHARP.elem, _torsion(CHARP, x)))
    assert MonoidElem((0, 1), 0, 2) in found        # y * x^2 = 0
    assert MonoidElem((1, 1), 0, 2) in found        # xy * x = 0
    assert MonoidElem((1, 0), 0, 2) not in found    # x is never killed


def test_torsion_annihilator_degenerate_generators():
    """1 kills nothing; I_0 = (0), a generator in the quotient ideal and one
    past the cutoff are zero and kill the whole basis."""
    assert _torsion(CHARP, CHARP.zero_exp) == ()
    for g in (None, CHARP.coords(MonoidElem((3, 1), 0, 2)), CHARP.pack((5, 0))):
        assert _torsion(CHARP, g) == CHARP.monomial_basis()


def test_f_bar():
    x1, x2 = MonoidElem((1, 0), 0, 2), MonoidElem((0, 1), 0, 2)
    assert f_bar(MIXED) == (x1, 1)
    # the coefficient is reduced mod p, and multiples of p drop out
    assert f_bar(replace(MIXED, relation_f=((x1, 4), (x2, 3)))) == (x2, 1)
    for c in (0, 2, -4):   # f in (p)
        assert f_bar(replace(MIXED, relation_f=((x1, c),))) is None
    assert f_bar(CHARP) is None
    with pytest.raises(NonMonomialReduction):
        f_bar(replace(MIXED, relation_f=((x1, 1), (x2, 1))))


def test_residue_of_f_in_p_adds_no_quotient():
    """For f in (p), R/(p, f) = R/(p): no coefficient of f is prime to p, so
    the residue ring has no f-bar monomial to quotient by."""
    for c in (0, 2, 4):
        ring = replace(MIXED, relation_f=((MonoidElem((1, 0), 0, 2), c),))
        assert ring.residue_ring().quotient_exps == ()


def test_term_json_roundtrip():
    for e, c in ((MonoidElem((1, 3), 2, 2), 1), (MonoidElem((0, 1), 1, 2), -5),
                 (MonoidElem((2, 0), 0, 2), 7)):
        t = term_json(e, c)
        assert t == {"exponent": list(e.coords), "level": e.level, "coeff": c}
        assert term_from_json(t, 2) == (e, c)
    assert term_from_json({"exponent": [1, 0], "coeff": 3}, 2) == (MonoidElem((1, 0), 0, 2), 3)
    with pytest.raises(ValueError):
        term_from_json({"exponent": [1, 0], "coeff": "x"}, 2)


def test_residue_ring_quotients():
    fbar = MonoidElem((1, 0), 0, 2)
    g = MonoidElem((0, 1), 1, 2)
    S = MIXED.residue_ring()
    assert S.relation_f is None and S.quotient_exps == (fbar,)
    # extra monomials join f-bar once each, in sort_key order
    assert MIXED.residue_ring(g, fbar, g).quotient_exps == (g, fbar)
    # a char-p ring keeps its own quotients
    assert S.residue_ring() == S
    assert S.residue_ring(g).quotient_exps == (g, fbar)


def test_make_series_validation():
    bad = MonoidElem((1, 0, 0), 0, 2)
    with pytest.raises(InvariantViolation):
        s_from_terms(MIXED, [(bad, 1)])
    neg = MonoidElem((-1, 0), 0, 2)
    with pytest.raises(InvariantViolation):
        s_monomial(MIXED, neg)


def test_ring_descriptor_invariants():
    # a descriptor's prime is its monoid's scale base, and a ring is of
    # characteristic p when it has no relation: char_p is no key of its own
    with pytest.raises(InvariantViolation, match="prime differs from the monoid scale base"):
        SeriesRingDesc.from_descriptor({**MIXED.to_descriptor(), "p": 3})
    with pytest.raises(ValueError, match="'char_p'"):
        SeriesRingDesc.from_descriptor({**CHARP.to_descriptor(), "char_p": True})
    with pytest.raises(InvariantViolation):
        SeriesRingDesc(monoid_part=TRIV, free_rank=1, free_level=0,
                       precision=2, cutoff=Fraction(0))
    # a quotient monomial is a monomial of some ring: no negative coordinate
    with pytest.raises(InvariantViolation, match="nonnegative coordinates"):
        replace(CHARP, quotient_exps=(MonoidElem((-1, 2), 0, 2),))
    for q in (4, 10**25 + 13):   # p must be a prime, decided by is_prime
        with pytest.raises(InvariantViolation):
            SeriesRingDesc(monoid_part=AffineMonoid(0, q, 0, ()), free_rank=1, free_level=0,
                           precision=2, cutoff=Fraction(4))


def test_ring_descriptor_roundtrip():
    for ring in RINGS.values():
        assert SeriesRingDesc.from_descriptor(ring.to_descriptor()) == ring
    # integers must be JSON integers, not truncated floats or bools, and a
    # cutoff denominator nonzero
    for ring, key, bad in ((MIXED, "precision", 2.7), (MIXED, "free_rank", True),
                           (MIXED, "p", 2.0), (MIXED, "cutoff", "7/0")):
        d = {**ring.to_descriptor(), key: bad}
        with pytest.raises(ValueError):
            SeriesRingDesc.from_descriptor(d)


def test_descriptor_cutoff_parses_like_the_command_line():
    d = MIXED.to_descriptor()
    for text, want in (("1.5", Fraction(3, 2)), ("7/2", Fraction(7, 2)), (3, Fraction(3))):
        assert SeriesRingDesc.from_descriptor({**d, "cutoff": text}).cutoff == want
        assert parse_cutoff(text) == want
    assert parse_cutoff("1.5") == parse_cutoff("3/2") == Fraction(3, 2)
    for bad, msg in (("7/0", "cutoff '7/0' has a zero denominator"),
                     ("1/0", "cutoff '1/0' has a zero denominator"),
                     ("abc", "cutoff 'abc' is not a rational number"),
                     *((bad, re.escape(f"cutoff {bad!r} is not a rational number"))
                       for bad in ("1_0", "\uff14", " 4", "+4", "4/1_0", "1e1", ".5", "5.", "")),
                     (1.5, "cutoff 1.5 must be an integer or a string"),
                     (True, "cutoff True must be an integer or a string")):
        with pytest.raises(ValueError, match=msg):
            SeriesRingDesc.from_descriptor({**d, "cutoff": bad})
        with pytest.raises(ValueError, match=msg):
            parse_cutoff(bad)
    # "0" and "-1" parse; the ring refuses them
    assert parse_cutoff("0") == 0
    for bad in ("0", "-1"):
        with pytest.raises(InvariantViolation, match="degree cutoff must be positive"):
            SeriesRingDesc.from_descriptor({**d, "cutoff": bad})
    # a ring normalises its cutoff: an integral one is held as an int, however given
    cutoffs = (4, "4", "4/1", "4.0", Fraction(4), parse_cutoff("4"), parse_cutoff("8/2"),
               parse_cutoff("4/1"), parse_cutoff("4.0"))
    rings = [replace(MIXED, cutoff=c) for c in cutoffs]
    assert all(r == rings[0] for r in rings)
    assert len({hash(r) for r in rings}) == 1
    assert {type(r.cutoff) for r in rings} == {int}
    assert type(parse_cutoff("7/2")) is Fraction
    assert type(replace(MIXED, cutoff="7/2").cutoff) is Fraction
    # a ring given a string reads it by the same grammar
    for bad in ("1_0", "\uff14", " 4", "+4", "4/1_0", "1e1"):
        with pytest.raises(ValueError, match="is not a rational number"):
            replace(MIXED, cutoff=bad)


# ---------------------------------------------------------------------------
# the integer degree scale, on rings whose monoid and free levels differ.
# The oracle works in Fractions: exponents are (a, b, c) with (a, b) in the
# A1 cone <(2,0),(1,1),(0,2)> read at level ml and c in N read at level fl.

A1_GENS = ((2, 0), (1, 1), (0, 2))
SCALES = [(p, ml, fl, D) for p in (2, 3) for ml, fl in ((0, 2), (2, 0), (0, 1))
          for D in (Fraction(7, 3), Fraction(5, 2))]


def scale_ring(p, ml, fl, D, **kw):
    ring = SeriesRingDesc(monoid_part=AffineMonoid(2, p, ml, A1_GENS), free_rank=1,
                          free_level=fl, precision=2, cutoff=D, **kw)
    assert ring.level == max(ml, fl)
    assert ring.cap == floor(D * p ** ring.level)
    return ring


def fracs(e):
    return tuple(Fraction(x, e.base ** e.level) for x in e.coords)


def frac_key(fr):
    return sum(fr), fr


def in_scale_ring(fr, p, ml, fl):
    x, y, z = fr[0] * p ** ml, fr[1] * p ** ml, fr[2] * p ** fl
    return (all(v.denominator == 1 and v >= 0 for v in (x, y, z))
            and (x + y).numerator % 2 == 0)


def brute_exps(p, ml, fl, bound):
    """Every exponent of degree <= bound, in Fraction (degree, coordinates) order."""
    out = []
    for x in range(int(bound * p ** ml) + 1):
        for y in range(int(bound * p ** ml) + 1 - x):
            for z in range(int(bound * p ** fl) + 1):
                fr = (Fraction(x, p ** ml), Fraction(y, p ** ml), Fraction(z, p ** fl))
                if (x + y) % 2 == 0 and sum(fr) <= bound:
                    out.append(fr)
    return sorted(out, key=frac_key)


@pytest.mark.parametrize("p,ml,fl,D", SCALES)
def test_degree_scale_basis_and_order(p, ml, fl, D):
    ring = scale_ring(p, ml, fl, D)
    L = ring.level
    basis = [ring.elem(v) for v in ring.monomial_basis()]
    assert [fracs(e) for e in basis] == brute_exps(p, ml, fl, D)
    for e in basis:
        assert Fraction(deg(ring, e), p ** L) == sum(fracs(e))
    # key orders like the Fractions, also past the cutoff
    wide = [MonoidElem(tuple(int(v * p ** L) for v in fr), L, p)
            for fr in brute_exps(p, ml, fl, D + 1)]
    shuffled = wide[:]
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled, key=ring.key) == wide
    with pytest.raises(ValueError):
        deg(ring, MonoidElem((1, 1, 1), L + 1, p))


@pytest.mark.parametrize("p,ml,fl,D", SCALES)
def test_degree_scale_truncation(p, ml, fl, D):
    ring = scale_ring(p, ml, fl, D)
    L = ring.level
    wide = brute_exps(p, ml, fl, D + 1)

    def elem(fr):
        return MonoidElem(tuple(int(v * p ** L) for v in fr), L, p)

    def expected(pairs):
        acc = {}
        for fr, c in pairs:
            if sum(fr) <= D:
                acc[fr] = acc.get(fr, 0) + c
        return sorted(((fr, c % p) for fr, c in acc.items() if c % p),
                      key=lambda t: frac_key(t[0]))

    rng = random.Random(17)
    for _ in range(30):
        xs = [(rng.choice(wide), rng.randint(-30, 30)) for _ in range(rng.randint(0, 6))]
        ys = [(rng.choice(wide), rng.randint(-30, 30)) for _ in range(rng.randint(0, 6))]
        x = make_series(ring, [(ring.coords(elem(fr)), c) for fr, c in xs])
        y = make_series(ring, [(ring.coords(elem(fr)), c) for fr, c in ys])
        assert [(fracs(e), c) for e, c in x.exp_terms()] == expected(xs)
        prod = [(tuple(a + b for a, b in zip(f1, f2)), c1 * c2)
                for f1, c1 in expected(xs) for f2, c2 in expected(ys)]
        assert [(fracs(e), c) for e, c in s_mul(x, y).exp_terms()] == expected(prod)

    # with a relation, digit normalization also stays below D, in order
    f = ((elem((0, 0, Fraction(1, p ** fl))), 1), (elem((Fraction(1, p ** ml),) * 2 + (0,)), 1))
    rel = scale_ring(p, ml, fl, D, relation_f=f)
    for _ in range(10):
        x = make_series(rel, [(rel.coords(elem(rng.choice(wide))), rng.randint(-30, 30))
                              for _ in range(4)])
        keys = [frac_key(fracs(e)) for e, _ in x.exp_terms()]
        assert keys == sorted(keys) and all(k[0] <= D for k in keys)


@pytest.mark.parametrize("p,ml,fl,D", SCALES)
def test_degree_scale_torsion(p, ml, fl, D):
    quots = (MonoidElem((1, 1, 0), 0, p), MonoidElem((0, 0, 1), 0, p))
    ring = scale_ring(p, ml, fl, D, quotient_exps=quots)

    def dominated(fr):
        return any(in_scale_ring(tuple(a - b for a, b in zip(fr, fracs(q))), p, ml, fl)
                   for q in quots)

    basis = [fr for fr in brute_exps(p, ml, fl, D) if not dominated(fr)]
    assert [fracs(ring.elem(v)) for v in ring.monomial_basis()] == basis
    # a p^L-th root of a quotient monomial, L the ring's level
    g = MonoidElem((1, 1, 0), ml, p) if ml else MonoidElem((0, 0, 1), fl, p)
    gf = fracs(g)
    want = []
    for m in basis:
        l = 1
        while sum(m) + l * sum(gf) <= D:
            if dominated(tuple(a + l * b for a, b in zip(m, gf))):
                want.append((m, l))
                break
            l += 1
    assert [fracs(ring.elem(m)) for m in _torsion(ring, ring.coords(g))] == [m for m, _ in want]
    assert want[0][0] == (0, 0, 0)   # g^(p^level) is a quotient monomial


# ---------------------------------------------------------------------------
# torsion on exponents.  The oracle is the per-monomial product loop
# (fixtures.torsion_oracle): m*g, m*g^2, ... by s_mul while deg m + l deg g
# stays within the cutoff.


TORSION_RINGS = {
    "relation": MIXED,
    "relation A1 p=3": scale_ring(3, 0, 1, Fraction(5, 2),
                                  relation_f=((MonoidElem((0, 0, 1), 1, 3), 1),)),
    "relation A1 two-term f": scale_ring(2, 0, 1, Fraction(5, 2), relation_f=(
        (MonoidElem((0, 0, 1), 1, 2), 1), (MonoidElem((1, 1, 0), 0, 2), 1))),
    "char p plane": SeriesRingDesc(monoid_part=TRIV, free_rank=2, free_level=0, precision=1,
                                   cutoff=Fraction(6)),
    "char p A1": scale_ring(3, 1, 0, Fraction(7, 3)),
    "char p quotient": CHARP,
    "char p A1 quotients": scale_ring(2, 1, 0, Fraction(5, 2), quotient_exps=(
        MonoidElem((1, 1, 0), 0, 2), MonoidElem((0, 0, 1), 0, 2))),
}


def materialised_ideal(ring):
    """The points of the quotient ideal within the cutoff, from the whole
    support: s + q for every exponent s and quotient monomial q."""
    support = ring.support()
    quots = [v for v in map(ring.coords, ring.quotient_exps) if v is not None]
    return sorted({s + q for q in quots for s in support if s + q < ring._lim})


@st.composite
def torsion_generators(draw, ring):
    """(packed g, the series e^g): zero, a basis monomial (1 included) or,
    when the ring has a quotient ideal, a member of it."""
    ideal = materialised_ideal(ring)
    kinds = ("zero", "monomial", "ideal") if ideal else ("zero", "monomial")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return None, s_zero(ring)
    v = draw(st.sampled_from(ring.monomial_basis() if kind == "monomial" else ideal))
    return v, make_series(ring, [(v, 1)])


@pytest.mark.parametrize("name", sorted(TORSION_RINGS))
def test_torsion_annihilator_matches_the_product_loop(name):
    ring = TORSION_RINGS[name]

    @settings(deadline=2000, max_examples=40)
    @given(torsion_generators(ring))
    def check(gen):
        v, g = gen
        assert list(_torsion(ring, v)) == torsion_oracle(ring, g)

    check()


# ---------------------------------------------------------------------------
# membership decided from the generators.  in_ring and nonzero never read
# the support; the oracle is the materialised walk: the support up to the
# cap, and the support translated by each quotient monomial.  The rings are
# the torsion rings, every level and residue ring of the oracle towers, and
# three more: a non-saturated monoid (decided by monoid.contains), the
# Veronese cone V(2,3), whose lattice has index 3 in Z^2 (a congruence), a
# cone with a facet that no coordinate gives, and a free part coarser than
# the ring.

V23_GENS = ((3, 0), (2, 1), (1, 2), (0, 3))


def membership_rings():
    from test_tower import oracle_towers

    rings = dict(TORSION_RINGS)
    rings["non-saturated <2,3> + N"] = SeriesRingDesc(
        monoid_part=AffineMonoid(1, 2, 0, ((2,), (3,))), free_rank=1, free_level=0,
        precision=1, cutoff=Fraction(9, 2),
        quotient_exps=(MonoidElem((3, 1), 0, 2), MonoidElem((3, 0), 1, 2)))
    rings["V(2,3)"] = SeriesRingDesc(
        monoid_part=AffineMonoid(2, 2, 0, V23_GENS), free_rank=1, free_level=0,
        precision=1, cutoff=Fraction(7), quotient_exps=(MonoidElem((2, 1, 1), 0, 2),))
    rings["<(1,0),(1,1)>, facet x >= y"] = SeriesRingDesc(
        monoid_part=AffineMonoid(2, 3, 0, ((1, 0), (1, 1))), free_rank=1, free_level=0,
        precision=1, cutoff=Fraction(3), quotient_exps=(MonoidElem((2, 1, 0), 0, 3),))
    rings["V(2,3) at level 1, free level 0"] = SeriesRingDesc(
        monoid_part=AffineMonoid(2, 3, 1, V23_GENS), free_rank=2, free_level=0,
        precision=2, cutoff=Fraction(5, 3))
    for name, T in oracle_towers().items():
        for i in range(T.depth + 1):
            rings[f"{name} R{i}"] = T.levels[i]
            rings[f"{name} S{i}"] = T.residue(i)
    return rings


MEMBERSHIP_RINGS = membership_rings()


@st.composite
def ring_points(draw, ring, support):
    """Coordinates >= 0 at the ring's level: a member of the support, or a
    vector of a drawn degree below the cap, at it or past it, so most draws
    of a constrained ring fall outside it."""
    cap, n = ring.cap, ring.width
    if draw(st.booleans()):
        return ring.unpack(draw(st.sampled_from(support)))
    k = draw(st.sampled_from((max(cap - 1, 0), cap, cap + 1, cap + 2, draw(st.integers(0, cap)))))
    cuts = sorted(draw(st.lists(st.integers(0, k), min_size=n - 1, max_size=n - 1))) if n else []
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [k])) if n else ()


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_RINGS))
def test_implicit_membership_matches_the_walk(name):
    ring = MEMBERSHIP_RINGS[name]
    support = ring.support()
    members, ideal = set(support), set(materialised_ideal(ring))

    basis = ring.monomial_basis()
    assert basis == tuple(u for u in support if u not in ideal)

    @settings(deadline=None, max_examples=40)
    @given(ring_points(ring, support), st.integers(-1, ring.cap + 1))
    def check(v, k):
        pv = ring.pack(v)
        within = sum(v) <= ring.cap
        assert ring.in_ring(pv) == (within and pv in members)
        assert ring.structural_contains(v) == (pv in members) or not within
        assert ring.nonzero(pv) == (within and pv not in ideal)
        # a loop that stops at degree k reads the prefix of the full basis
        assert ring.support(k) == tuple(u for u in support if u >> ring._shift <= k)
        assert ring.monomial_basis(k) == tuple(u for u in basis if u >> ring._shift <= k)

    check()


def test_implicit_membership_paths():
    """The non-saturated monoid is decided by contains, V(2,3) by a
    congruence, <(1,0),(1,1)> by its facet x >= y, and a coarser free part
    by its lattice."""
    from ptlab.monoid import is_saturated

    R = MEMBERSHIP_RINGS["non-saturated <2,3> + N"]
    assert not is_saturated(R.monoid_part)
    assert [R.in_ring(R.pack((a, 0))) for a in range(5)] == [True, False, True, True, True]
    V = MEMBERSHIP_RINGS["V(2,3)"]
    # (1, 2) and (2, 1) are generators; (1, 1) and (2, 0) lie in the cone,
    # off the lattice a + b = 0 mod 3
    assert [V.in_ring(V.pack(v)) for v in ((1, 2, 0), (2, 1, 4), (1, 1, 0), (2, 0, 0))] == [
        True, True, False, False]
    F = MEMBERSHIP_RINGS["<(1,0),(1,1)>, facet x >= y"]
    assert [F.in_ring(F.pack(v)) for v in ((2, 1, 0), (1, 2, 0), (0, 1, 0), (0, 0, 1))] == [
        True, False, False, True]
    C = MEMBERSHIP_RINGS["V(2,3) at level 1, free level 0"]
    assert C.level == 1 and C.in_ring(C.pack((0, 0, 3, 0))) and not C.in_ring(C.pack((0, 0, 1, 0)))
    # past the cap nothing is in the ring, also a multiple of a generator
    assert not V.in_ring(V.pack((3 * V.cap, 0, 0))) and V.structural_contains((3 * V.cap, 0, 0))


# ---------------------------------------------------------------------------
# bases counted and compared without the walk.  monoid.count_upto counts a
# saturated monoid by degree over a half-open decomposition of its
# triangulation, basis_count subtracts the translate by the one quotient
# monomial, and same_basis compares two quotient ideals on their generators;
# the oracle is the walk.  The rings are the saturated membership rings with
# at most one quotient monomial, and cones with simplices of volume > 1
# (V(2,3), V(3,3), the facet x >= y with a coarser free part) or several
# simplices (the Segre cones).

V33_GENS = tuple((a, b, 3 - a - b) for a in range(4) for b in range(4 - a))


def segre(m, n):
    return tuple(tuple(int(i == a) for i in range(m)) + tuple(int(j == b) for j in range(n))
                 for a in range(m) for b in range(n))


def count_rings():
    rings = {name: R for name, R in MEMBERSHIP_RINGS.items()
             if len(R._ideal_gens) <= 1 and name != "non-saturated <2,3> + N"}
    rings["V(3,3)"] = SeriesRingDesc(
        monoid_part=AffineMonoid(3, 2, 0, V33_GENS), free_rank=0, free_level=0,
        precision=1, cutoff=Fraction(10), quotient_exps=(MonoidElem((1, 1, 4), 0, 2),))
    rings["Segre 2x3 + N"] = SeriesRingDesc(
        monoid_part=AffineMonoid(5, 3, 0, segre(2, 3)), free_rank=1, free_level=1,
        precision=1, cutoff=Fraction(5, 3),
        quotient_exps=(MonoidElem((1, 1, 0, 1, 0, 1), 0, 3),))
    rings["Segre 3x3"] = SeriesRingDesc(
        monoid_part=AffineMonoid(6, 2, 0, segre(3, 3)), free_rank=0, free_level=0,
        precision=1, cutoff=Fraction(6))
    rings["<(1,0),(1,1)> + N^2 at level 1, free level 0"] = SeriesRingDesc(
        monoid_part=AffineMonoid(2, 2, 1, ((1, 0), (1, 1))), free_rank=2, free_level=0,
        precision=1, cutoff=Fraction(3),
        quotient_exps=(MonoidElem((3, 1, 2, 0), 1, 2),))
    return rings


COUNT_RINGS = count_rings()


@pytest.mark.parametrize("name", sorted(COUNT_RINGS))
def test_count_matches_the_walk(name):
    from ptlab.monoid import count_upto

    ring = COUNT_RINGS[name]
    assert all(count_upto(ring.generators, ring.width, k) == len(ring.support(k))
               and ring.basis_count(k) == len(ring.monomial_basis(k))
               for k in range(-1, ring.cap + 1))
    assert ring.basis_count() == len(ring.monomial_basis())


def test_count_rings_have_large_simplices_and_quotients():
    from ptlab.monoid import _half_open

    vols = {name: [len(pts) for _, pts in _half_open(R.generators, R.width)]
            for name, R in COUNT_RINGS.items()}
    assert vols["V(2,3)"] == [3] and vols["V(3,3)"] == [9] and len(vols["Segre 3x3"]) > 1
    assert sum(bool(R._ideal_gens) for R in COUNT_RINGS.values()) >= 10


@st.composite
def saturated_rings(draw):
    """A ring on the saturation of a few drawn generators in N^n, n <= 3,
    with a free part at either level and one quotient monomial drawn from its
    support, or none."""
    from ptlab.monoid import saturate

    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    gens = tuple(draw(st.lists(vec, min_size=1, max_size=4)))
    Q = saturate(AffineMonoid(n, 2, draw(st.integers(0, 1)), gens))
    ring = SeriesRingDesc(monoid_part=Q, free_rank=draw(st.integers(0, 1)),
                          free_level=draw(st.integers(0, 1)), precision=1,
                          cutoff=Fraction(draw(st.integers(1, 12)), 2))
    if draw(st.booleans()):
        ring = replace(ring, quotient_exps=(ring.elem(draw(st.sampled_from(ring.support()))),))
    return ring


@settings(deadline=None, max_examples=60)
@given(saturated_rings())
def test_count_of_a_saturated_ring_matches_the_walk(ring):
    from ptlab.monoid import count_upto

    for k in range(ring.cap + 1):
        assert count_upto(ring.generators, ring.width, k) == len(ring.support(k))
        assert ring.basis_count(k) == len(ring.monomial_basis(k))


def test_count_refusals():
    from ptlab.monoid import NotSaturated, count_upto

    R = MEMBERSHIP_RINGS["non-saturated <2,3> + N"]
    with pytest.raises(NotSaturated):
        count_upto(R.generators, R.width, 3)
    assert count_upto(R.generators, R.width, -1) == 0
    # two quotient monomials within the cutoff, or one outside the ring
    two = MEMBERSHIP_RINGS["char p A1 quotients"]
    V = MEMBERSHIP_RINGS["V(2,3)"]
    for ring in (two, replace(V, quotient_exps=(MonoidElem((1, 1, 0), 0, 2),))):
        with pytest.raises(InvariantViolation):
            ring.basis_count()


def in_gp(R, v):
    """The coordinates v lie in the group of R's exponent monoid."""
    from ptlab.monoid import in_gp as monoid_in_gp

    return monoid_in_gp(AffineMonoid(R.width, R.p, R.level, R.generators), R.elem(R.pack(v)))


def test_same_basis_matches_the_walk():
    """same_basis agrees with comparing the walked bases, on each count ring
    against itself with one more quotient monomial: one of its own basis
    (different), one in its ideal (redundant), and one off its lattice,
    which is inert."""
    seen = set()
    for name, R in sorted(COUNT_RINGS.items()):
        if R.relation_f is not None:
            R = replace(R, relation_f=None)
        basis, ideal = R.monomial_basis(), materialised_ideal(R)
        off = [R.pack(v) for v in itertools.product(range(2), repeat=R.width)
               if not in_gp(R, v)][:1]
        extras = {"basis": [basis[len(basis) // 2]], "ideal": ideal[:1], "inert": off}
        for kind, qs in extras.items():
            for q in qs:
                other = replace(R, quotient_exps=R.quotient_exps + (R.elem(q),))
                other = other._refield(R._field)
                want = other.monomial_basis() == basis
                assert R.same_basis(other) == other.same_basis(R) == want, (name, R.elem(q))
                seen.add((kind, want))
    assert seen == {("basis", False), ("ideal", True), ("inert", True)}


def test_same_basis_refuses_a_quotient_in_the_group_outside_the_ring():
    """On <(1,0),(1,1)> the monomial (0,1) is in the lattice but past the
    facet x >= y: it kills (1,1) = (0,1) + (1,0), so its ideal is not
    principal, and same_basis refuses it; rings on other generators or
    another layout are refused too."""
    F = MEMBERSHIP_RINGS["<(1,0),(1,1)>, facet x >= y"]
    hole = replace(F, quotient_exps=F.quotient_exps + (MonoidElem((0, 1, 0), 0, 3),))
    with pytest.raises(InvariantViolation):
        hole.same_basis(F)
    for other in (MEMBERSHIP_RINGS["V(2,3)"], F._refield(F._field + 1)):
        with pytest.raises(InvariantViolation):
            F.same_basis(other)


# ---------------------------------------------------------------------------
# membership by lookup: below the cutoff a ring answers exp_in_ring and
# dominated from its sorted support and its set of quotient-ideal points.  The
# oracle asks monoid.contains directly, for exponents below the cutoff, above
# it and finer than the ring, on rings whose residue rings carry a quotient
# monomial in the ring, one at the ring's level outside it, and one finer.

LOOKUP_MONOIDS = {
    "A1": (2, A1_GENS),
    "quadric": (4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))),
    "N2": (2, ((1, 0), (0, 1))),
}


def lookup_rings():
    out = []
    for name, (rank, gens) in sorted(LOOKUP_MONOIDS.items()):
        for p in (2, 3):
            for ml, r, fl in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)):
                R = SeriesRingDesc(monoid_part=AffineMonoid(rank, p, ml, gens), free_rank=r,
                                   free_level=fl, precision=2, cutoff=Fraction(5, 2))
                L = R.level
                q_in = MonoidElem(gens[0] + (0,) * r, ml, p)
                q_out = MonoidElem((1,) + (0,) * (rank - 1 + r), L, p)
                q_fine = MonoidElem(gens[1] + (1,) * r, L + 1, p)
                out.append((f"{name} p={p} ml={ml} r={r} fl={fl}", R,
                            R.residue_ring(q_in, q_out, q_fine)))
    return out


LOOKUP_RINGS = lookup_rings()


def oracle_in_ring(ring, e):
    d = ring.monoid_part.ambient_rank
    if len(e.coords) != ring.width:
        return False
    free = MonoidElem(e.coords[d:], e.level, e.base)
    return (min(free.coords, default=0) >= 0 and free.level <= ring.free_level
            and contains(ring.monoid_part, MonoidElem(e.coords[:d], e.level, e.base)))


def oracle_dominated(ring, e):
    return any(oracle_in_ring(ring, e - q) for q in ring.quotient_exps)


@st.composite
def ring_exponents(draw, ring):
    """An exponent below the ring's cutoff, above it, or finer than the ring."""
    kind = draw(st.sampled_from(("below", "above", "finer")))
    p, L, w = ring.p, ring.level, ring.width
    lv = L + 1 if kind == "finer" else draw(st.integers(0, L))
    room = floor(ring.cutoff * p ** lv)
    coords = draw(st.lists(st.integers(-1, room), min_size=w, max_size=w))
    while sum(coords) > room:
        coords[coords.index(max(coords))] -= 1
    k = draw(st.integers(0, w - 1))
    if kind == "above":
        coords[k] += room + 1 - sum(coords)
    elif kind == "finer":
        coords[k] = p * coords[k] + 1
    return MonoidElem(tuple(coords), lv, p)


@pytest.mark.parametrize("name,R,S", LOOKUP_RINGS, ids=[c[0] for c in LOOKUP_RINGS])
def test_lookup_membership_matches_contains(name, R, S):
    # the residue ring's basis is the old filter: R's basis minus what dominated kills
    old = [v for v in R.monomial_basis() if not oracle_dominated(S, R.elem(v))]
    assert list(S.monomial_basis()) == old

    @settings(deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        ring = data.draw(st.sampled_from((R, S)))
        e = data.draw(ring_exponents(ring))
        assert ring.exp_in_ring(e) == oracle_in_ring(ring, e)
        assert dominated(ring, e) == oracle_dominated(ring, e)

    check()


def test_ring_and_residue_share_one_support():
    name, R, S = LOOKUP_RINGS[-1]
    assert R._walk is S._walk
    assert S.monomial_basis() and set(S.monomial_basis()) <= set(R.monomial_basis())
    members = {id(v) for v in R.monomial_basis()}
    assert all(id(v) in members for v in S.monomial_basis())


# the support: every exponent of the ring within the cutoff, in term order.
# The oracle walks the whole box [0, cap]^width at the ring's level and keeps
# what structural_contains (monoid membership and the free-level steps) admits.

@st.composite
def support_rings(draw):
    """Generators in N^d (d <= 2, not necessarily saturated), r in {0, 1, 2},
    monoid and free levels drawn apart, D*p^L often not an integer."""
    p = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(0, 2))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=3))
    Q = AffineMonoid(d, p, draw(st.integers(0, 1)), tuple(gens))
    r = draw(st.integers(0, 2))
    D = draw(st.fractions(Fraction(1, 3), 4, max_denominator=3))
    return SeriesRingDesc(monoid_part=Q, free_rank=r, free_level=draw(st.integers(0, 1)),
                          precision=2, cutoff=D)


@settings(deadline=2000, max_examples=120)
@given(support_rings())
@example(SeriesRingDesc(monoid_part=AffineMonoid(1, 2, 1, ((2,), (3,))), free_rank=2,
                        free_level=0, precision=2, cutoff=Fraction(7, 3)))
@example(SeriesRingDesc(monoid_part=AffineMonoid(2, 3, 0, ((1, 0), (0, 1))), free_rank=1,
                        free_level=0, precision=2, cutoff=Fraction(2)))
# sab_d's shape: the monoid part at level 0, the free part at level 2
@example(SeriesRingDesc(monoid_part=AffineMonoid(1, 2, 0, ((1,),)), free_rank=1,
                        free_level=2, precision=2, cutoff=Fraction(4)))
def test_support_matches_box_enumeration(ring):
    box = [v for v in itertools.product(range(ring.cap + 1), repeat=ring.width)
           if sum(v) <= ring.cap and ring.structural_contains(v)]
    assert [ring.elem(v).at_level(ring.level) for v in ring.support()] == sorted(box, key=graded_order)
    assert ring._walk is walk(ring.generators, ring._field)


def test_in_ring_answers_within_the_cutoff():
    """in_ring answers within the cutoff, where a packed exponent unpacks
    exactly; past it the fields overflow.  exp_in_ring and
    structural_contains decide on exact coordinates at any degree."""
    ring = SeriesRingDesc(monoid_part=AffineMonoid(2, 2, 0, ((2, 0), (3, 0), (0, 1))),
                          free_rank=0, free_level=0, precision=2, cutoff=Fraction(3))
    assert ring._field == 3
    assert ring.exp_in_ring(MonoidElem((9, 0), 0, 2)) and ring.structural_contains((9, 0))
    assert ring.unpack(ring.pack((9, 0))) == (1, 0)
    assert not ring.in_ring(ring.pack((9, 0)))
    within = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 3))
    assert [ring.in_ring(ring.pack(v)) for v in within] == [True, False, True, True,
                                                           True, False, True, True]


@settings(deadline=2000, max_examples=60)
@given(support_rings(), st.integers(1, 3))
def test_widened_support_unpacks_to_the_same_exponents(ring, extra):
    """A tower packs its levels with its top level's wider fields; the
    exponents and their order stay those of the ring's own layout."""
    wide = ring._refield(ring._field + extra)
    assert [wide.elem(v) for v in wide.support()] == [ring.elem(v) for v in ring.support()]


# packed exponents against the tuple oracle.  A ring N^n at one level packs
# its coordinates with field = W + 1 bits each, W >= bit_length(cap) (a tower
# may widen W past the ring's own); below, "within" means degree <= cap.

@st.composite
def packed_rings(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    ring = SeriesRingDesc(monoid_part=AffineMonoid(0, p, 0, ()), free_rank=draw(st.integers(1, 4)),
                          free_level=draw(st.integers(0, 2)), precision=2,
                          cutoff=draw(st.fractions(Fraction(1, 2), 9, max_denominator=3)))
    return ring._refield(ring._field + draw(st.integers(0, 2)))


def vectors(ring, room, hi=None):
    """Coordinate vectors with entries in [0, hi] (default room) and sum <= room."""
    hi = room if hi is None else hi
    return st.lists(st.integers(0, hi), min_size=ring.width, max_size=ring.width).map(
        lambda v: tuple(v) if sum(v) <= room else _shrink(v, room))


def _shrink(v, room):
    while sum(v) > room:
        v[v.index(max(v))] -= 1
    return tuple(v)


@settings(deadline=None, max_examples=150)
@given(packed_rings(), st.data())
def test_packed_exponents_match_the_tuple_oracle(ring, data):
    cap, p, L = ring.cap, ring.p, ring.level
    W = ring._field - 1
    v, w = data.draw(vectors(ring, cap)), data.draw(vectors(ring, cap))
    pv, pw = ring.pack(v), ring.pack(w)
    # round trip through the boundary, and term order
    assert ring.unpack(pv) == v and ring.elem(pv) == MonoidElem(v, L, p)
    assert ring.coords(ring.elem(pv)) == pv and (pv >> ring._shift) == sum(v)
    assert (pv < pw) == (graded_order(v) < graded_order(w))
    assert (pv < ring._lim) and ring.pack(tuple(x + (k == 0) * (cap + 1 - sum(v))
                                             for k, x in enumerate(v))) >= ring._lim
    # add, within the fields' W bits, and the cutoff test on the sum
    a, b = data.draw(vectors(ring, 10 ** 9, 2 ** W - 1)), data.draw(vectors(ring, 10 ** 9, 2 ** W - 1))
    s = tuple(x + y for x, y in zip(a, b))
    assert ring.pack(a) + ring.pack(b) == ring.pack(s) and ring.unpack(ring.pack(s)) == s
    assert (ring.pack(a) + ring.pack(b) < ring._lim) == (sum(s) <= cap)
    # subtraction: a borrow in any field is "not in the ring", so e^w does
    # not divide e^v; without one the difference is the int difference
    if data.draw(st.booleans()):
        w = tuple(data.draw(st.integers(0, x)) for x in v)
        pw = ring.pack(w)
    diff = tuple(x - y for x, y in zip(v, w))
    assert ring.nonzero_mod([pw])(pv) == (min(diff) < 0)
    assert min(diff) < 0 or pv - pw == ring.pack(diff)
    # rescale by p^k from a coarser level (an int product) and from a finer
    # one (exact division, or None for an image finer than the ring)
    k = data.draw(st.integers(1, 2))
    if L >= k:
        u = data.draw(vectors(ring, cap // p ** k))
        assert ring.rescale(ring.pack(u), L - k) == ring.pack(ring.vec_at(u, L - k))
        assert ring.vec_at(u, L - k) == tuple(x * p ** k for x in u)
    u = v if data.draw(st.booleans()) else tuple(x - x % p ** k for x in v)
    want = ring.vec_at(u, L + k)
    got = ring.rescale(ring.pack(u), L + k)
    assert got == (None if want is None else ring.pack(want))
    assert (want is None) == any(x % p ** k for x in u)


def test_cold_support_builds_no_monoid_elem(monkeypatch):
    """The support walks the generators of Q + N^r in packed ints, and
    membership is decided on them."""
    from ptlab import monoid
    from ptlab.logreg import build_tower, preset

    R = build_tower(preset("quadric", 3), 2, Fraction(4), 2).levels[-1]
    R.__dict__.pop("_walk", None)
    monoid.walk.cache_clear()
    calls = []
    original = MonoidElem.__post_init__

    def counting(self):
        calls.append(self.coords)
        original(self)

    monkeypatch.setattr(MonoidElem, "__post_init__", counting)
    assert len(R.support()) == 2470
    assert all(map(R.in_ring, R.support()))
    assert calls == []


def test_hot_path_builds_no_monoid_elem(monkeypatch):
    """With a warm basis, arithmetic and torsion work on int tuples only."""
    from ptlab.logreg import build_tower, preset

    T = build_tower(preset("quadric", 2), 1, Fraction(4), 2)
    R, S = T.levels[1], T.residue(1)
    gexp = T.ideal_exp()
    g = R.coords(gexp)
    xs = [make_series(ring, [(v, 3) for v in ring.monomial_basis()[:8]]) for ring in (R, S)]
    calls = []
    original = MonoidElem.__post_init__

    def counting(self):
        calls.append(self.coords)
        original(self)

    monkeypatch.setattr(MonoidElem, "__post_init__", counting)
    for x, ring in zip(xs, (R, S)):
        s_mul(x, x)
        s_add(x, s_neg(x))
        make_series(ring, [(v, -5) for v in ring.monomial_basis()])
        _torsion(ring, g)
    assert calls == []
