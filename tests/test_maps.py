"""The membership closures of a ring and the maps of a tower, against the
helpers they replaced.

SeriesRingDesc builds in_ring, nonzero and live once per ring, and
TowerDesc builds F_i, t-bar_i, Frobenius and the root tuples once per level.
live and nonzero_mod skip the lattice equations and congruences for arguments
that are exponents of the ring, and the tower maps use live when every
exponent they meet is one.  The oracles below are the earlier helpers, one
call chain per question, each with the full member test.  They are compared
on every level and residue ring of the oracle towers (the sabotaged towers
among them), on the 86 membership rings and the lookup rings of
test_series (whose quotient monomials include ones outside the group), on a
tower whose F_0 leaves the monoid of S_0, and on two whose levels share
their generators at one level, so the last three take the full test.  An
image or pillar finer than its ring is no exponent of it, so the maps and
the oracles read it as zero, and the series path gives the tilt checks'
reports on those towers and on one whose levels skip a level.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from ptlab.monoid import AffineMonoid, MonoidElem
from ptlab.series import SeriesRingDesc
from ptlab.tower import (
    TowerDesc,
    Transition,
    _lift,
    _pillar_tilt,
    frobenius_identities,
    inverse_perfection_is_perfect,
    tilt_mod_pillar_iso,
    verify_exactstilt,
)

from series_oracle import generator
from test_series import LOOKUP_RINGS, MEMBERSHIP_RINGS
from test_tower import (
    oracle_towers,
    series_frobenius_identities,
    series_inverse_perfection,
    series_tilt_mod_pillar_iso,
    series_verify_exactstilt,
)


# ---------------------------------------------------------------------------
# the oracles: each question asked through the full member test


def oracle_in_ring(ring, v):
    """SeriesRingDesc.in_ring: v within the cutoff, in the exponent monoid."""
    return v < ring._lim and ring.structural_contains(ring.unpack(v))


def _sub(ring, v, w):
    """v - w for exponents within the cutoff; None when a coordinate borrows."""
    g = ring._guards
    t = (v | g) - w
    return t - g if t & g == g else None


def oracle_in_ideal(ring, v):
    """The earlier SeriesRingDesc.in_ideal: v - q in the ring for a quotient monomial q."""
    for q in ring._ideal_gens:
        d = _sub(ring, v, q)
        if d is not None and oracle_in_ring(ring, d):
            return True
    return False


def oracle_live(ring, v):
    """v if e^v is a nonzero monomial of ring, else None (and None -> None)."""
    return v if v is not None and v < ring._lim and not oracle_in_ideal(ring, v) else None


def oracle_divides(ring, w, v):
    d = _sub(ring, v, w)
    return d is not None and oracle_in_ring(ring, d)


def _into(ring, v, level):
    """v of the given level at ring's level; None (zero) when it is finer than ring."""
    return None if v is None else ring.rescale(v, level)


def oracle_frob_down(T, i, v):
    """F_i on e^v of S_{i+1}."""
    Si = T.residue(i)
    return oracle_live(Si, _into(Si, v, T.residue(i + 1).level - 1))


def oracle_t_bar(T, i, v):
    """t-bar_i on e^v of S_i."""
    if v is None:
        return None
    Si, Si1, t = T.residue(i), T.residue(i + 1), T.transitions[i]
    if t.matrix is not None:
        v = Si1.pack(t.act(Si.unpack(v)))
    return oracle_live(Si1, _into(Si1, v, Si.level))


def oracle_roots(T, j, v, level, depth):
    roots = []
    for l in range(depth + 1):
        ring = T.residue(j + l)
        w = ring.rescale(v, level + l)
        if w is None or not oracle_in_ring(ring, w):
            return None
        roots.append(w)
    return tuple(roots)


# ---------------------------------------------------------------------------
# the rings and towers


def non_closed_tower():
    """<2> at level 0 under <1/2> at level 1, I_0 = (x^4): F_0 reads the
    level-1 generator x^{1/2} as x, which is not in <2>."""
    R0, R1 = (SeriesRingDesc(monoid_part=AffineMonoid(1, 2, i, ((2 - i,),)), free_rank=0,
                             free_level=0, precision=1, cutoff=Fraction(6))
              for i in (0, 1))
    return TowerDesc(levels=(R0, R1), transitions=(Transition(),),
                     base_ideal=generator(R0, [(MonoidElem((4,), 0, 2), 1)]))


def constant_tower():
    """F_2[[x]] at level 0 at every level, I_0 = (x^3): the levels share
    their generators, but a root x^{v/2} is an exponent only for even v."""
    levels = (SeriesRingDesc(monoid_part=AffineMonoid(0, 2, 0, ()), free_rank=1, free_level=0,
                             precision=1, cutoff=Fraction(5)),) * 3
    return TowerDesc(levels=levels, transitions=(Transition(),) * 2,
                     base_ideal=generator(levels[0], [(MonoidElem((3,), 0, 2), 1)]))


def even_tower():
    """k[[x^2]] at level 0 at every level, I_0 = (x^4): the levels share
    their generators but do not step by one level, so the root x^{v/2} is
    an exponent of the next level only for v in 4N, not for every v."""
    levels = (SeriesRingDesc(monoid_part=AffineMonoid(1, 2, 0, ((2,),)), free_rank=0,
                             free_level=0, precision=1, cutoff=Fraction(9)),) * 3
    return TowerDesc(levels=levels, transitions=(Transition(),) * 2,
                     base_ideal=generator(levels[0], [(MonoidElem((4,), 0, 2), 1)]))


TOWERS = {**oracle_towers(), "non-closed": non_closed_tower(), "constant": constant_tower(),
          "even": even_tower()}
RINGS = {**MEMBERSHIP_RINGS,
         **{f"{name} {kind}": R for name, *rs in LOOKUP_RINGS for kind, R in zip("RS", rs)},
         **{f"{name} {kind}{i}": R for name, T in TOWERS.items() for i in range(T.depth + 1)
            for kind, R in (("R", T.levels[i]), ("S", T.residue(i)))}}
SUPPORTS = {id(R): R.support() for R in RINGS.values()}


# The points come from a Random seeded by Hypothesis, so one example checks
# every ring and tower level many times over: the sweep takes about a second.
EXAMPLES, POINTS = 12, 12


def exponent(rng, ring, past=True):
    """A packed exponent of ring: one within the cutoff, or (if past) a sum
    of two, which may be past it."""
    support = SUPPORTS[id(ring)]
    v = rng.choice(support)
    return v + rng.choice(support) if past and rng.random() < 0.5 else v


def point(rng, ring):
    """Packed coordinates >= 0: an exponent, an exponent minus a generator
    (a point of the lattice that may lie outside the ring), or any vector of
    degree up to two past the cap (most of them off the lattice)."""
    kind = rng.choice(("exponent", "difference", "vector"))
    n = ring.width
    if kind != "vector":
        v = ring.unpack(exponent(rng, ring))
        if kind == "difference" and ring.generators:
            d = tuple(a - b for a, b in zip(v, rng.choice(ring.generators)))
            v = d if min(d, default=0) >= 0 else v
        return ring.pack(v)
    k = rng.randint(0, ring.cap + 2)
    cuts = sorted(rng.randint(0, k) for _ in range(n - 1)) if n else []
    return ring.pack(tuple(b - a for a, b in zip([0] + cuts, cuts + [k])) if n else ())


def check_ring(ring, rng):
    for _ in range(POINTS):
        v = point(rng, ring)
        assert ring.in_ring(v) == oracle_in_ring(ring, v)
        assert ring.nonzero(v) == (oracle_live(ring, v) is not None)
        v = exponent(rng, ring)
        assert ring.live(v) == (oracle_live(ring, v) is not None)
        w = exponent(rng, ring, past=False)
        assert ring.nonzero_mod([w])(v) == (v < ring._lim and not oracle_divides(ring, w, v))
        # by points within the cutoff: none outside the monoid's group
        ws = [w, *(u for u in (point(rng, ring), point(rng, ring)) if u < ring._lim)]
        assert ring.nonzero_mod(ws)(v) == (v < ring._lim and
                                           not any(oracle_divides(ring, u, v) for u in ws))


def check_tower(T, rng):
    for i in range(T.depth + 1):
        Si = T.residue(i)
        for _ in range(POINTS):
            v = exponent(rng, Si) if rng.random() < 0.9 else None
            assert T.frob[i](v) == (None if v is None else oracle_live(Si, T.p * v))
            if i < T.depth:
                assert T.t_bar[i](v) == oracle_t_bar(T, i, v)
                d = exponent(rng, T.residue(i + 1)) if rng.random() < 0.9 else None
                assert T.F[i](d) == oracle_frob_down(T, i, d)
                # t-bar_i also reads F_i's images, which need not be exponents of S_i
                assert T.t_bar[i](T.F[i](d)) == oracle_t_bar(T, i, oracle_frob_down(T, i, d))
            m = rng.randint(0, T.depth - i)
            mu = rng.choice(SUPPORTS[id(Si)])
            assert T.roots(i, m)(mu) == oracle_roots(T, i, mu, Si.level, m)
            # an exponent of S_{i+m} read p^m times coarser, at S_i's level
            top = T.residue(i + m)
            d, level = rng.choice(SUPPORTS[id(top)]), top.level - m
            w = _into(Si, d, level)
            assert _lift(top, Si, level)(d) == (w if w is not None and oracle_in_ring(Si, w)
                                                else None)


@settings(max_examples=EXAMPLES, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(st.integers(0, 2 ** 32))
def test_closures_match_the_full_test_oracles(seed):
    """Every closure answers as its oracle, on every ring and tower level in
    each example."""
    rng = random.Random(seed)
    for R in RINGS.values():
        check_ring(R, rng)
    for T in TOWERS.values():
        check_tower(T, rng)


def test_towers_take_both_kinds_of_liveness():
    """The closures of live where every exponent the maps meet is one of its
    ring, the full test where F_0 leaves S_0's monoid (non-closed) or a
    pillar component is not in its ring (f, constant, even)."""
    full = {name for name, T in TOWERS.items() if T._alive[0] is not T.residue(0).live}
    assert full == {"f", "non-closed", "constant", "even"}
    assert len(MEMBERSHIP_RINGS) == 89 and len(RINGS) == 153


def skipping_tower():
    """F_2[[x]] under F_2[[x^{1/4}]], I_0 = (x^3): the levels skip one, so
    F_0 reads x^{1/4} as x^{1/2}, which S_0 does not hold."""
    R0, R1 = (SeriesRingDesc(monoid_part=AffineMonoid(1, 2, lv, ((1,),)), free_rank=0,
                             free_level=0, precision=1, cutoff=Fraction(5))
              for lv in (0, 2))
    return TowerDesc(levels=(R0, R1), transitions=(Transition(),),
                     base_ideal=generator(R0, [(MonoidElem((3,), 0, 2), 1)]))


def test_an_image_finer_than_its_ring_is_zero():
    """F_0 of the skipping tower sends x^{1/4}, whose image x^{1/2} is no
    exponent of S_0, to zero, so the identity t-bar(F(e^d)) = e^{2d} fails
    there, and the tilt pillar component x^{3/2} is no exponent of the
    level-0 ring of the constant tower, so it is zero."""
    T = skipping_tower()
    S0, S1 = T.residue(0), T.residue(1)
    assert T.F[0](S1.pack((1,))) is None and T.F[0](S1.pack((2,))) == S0.pack((1,))
    assert {"exponent": [1], "level": 2} in frobenius_identities(T, 0)["witnesses"]
    C = constant_tower()
    assert _pillar_tilt(C, 0, 1) == [C.residue(0).pack((3,)), None]


def test_the_series_path_reads_a_finer_exponent_as_zero():
    """On the towers whose maps or pillars meet exponents finer than their
    rings, the Frobenius identities, verify_exactstilt, tilt_mod_pillar_iso
    and inverse perfection give the series path's reports."""
    towers = {"non-closed": non_closed_tower(), "constant": constant_tower(),
              "even": even_tower(), "skipping": skipping_tower()}
    for name, T in towers.items():
        for i in range(T.depth):
            assert frobenius_identities(T, i) == series_frobenius_identities(T, i), (name, i)
        for j in range(T.depth + 1):
            assert verify_exactstilt(T, j) == series_verify_exactstilt(T, j), (name, j)
            assert tilt_mod_pillar_iso(T, j) == series_tilt_mod_pillar_iso(T, j), (name, j)
        assert inverse_perfection_is_perfect(T) == series_inverse_perfection(T), name
