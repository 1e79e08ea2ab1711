"""Deliberately broken towers, each named after the axiom it breaks.

Every fixture returns (tower, expected) where expected maps axiom letters to
the pass verdict the verification report must show.  The (b) fixture also
pins its forced (c) failure: once some basis monomial has a vanishing
transition image, counting shows the Frobenius image set cannot be covered,
so a lone (b) break is impossible and the expectation records both (as does
the f_power fixture, whose transition also breaks (b)).

elements() lists a monoid's elements for the monoid tests,
torsion_oracle() a ring's power-torsion by series products for the torsion
tests, and snf_diagonal() the invariant factors of a matrix for the lattice
tests.
"""

from fractions import Fraction
from math import floor

from ptlab.intlat import dims, snf
from ptlab.logreg import build_tower, preset_unramified
from ptlab.monoid import AffineMonoid, MonoidElem, unpack, walk
from ptlab.record import replace
from ptlab.series import SeriesRingDesc, ideal_generator
from ptlab.tower import TowerDesc, Transition

from series_oracle import deg, generator, make_series, s_mul

DEPTH = 2
D = Fraction(4)
N = 2

ALL_PASS = {a: True for a in "abcdefg"}


def elements(Q, max_degree):
    """The elements of Q of degree <= max_degree, in graded_order, as MonoidElem."""
    cap = floor(Fraction(max_degree) * Q.scale_base ** Q.level)
    field = cap.bit_length() + 1
    w = walk(Q.generators, field)
    return [Q.elem(unpack(c, field, Q.ambient_rank)) for c in w.elements[:w.upto(cap)]]


def snf_diagonal(M) -> tuple[int, ...]:
    """The nonzero diagonal of the Smith form, in chain order."""
    _, D, _ = snf(M)
    return tuple(D[i][i] for i in range(min(dims(D))) if D[i][i] != 0)


def torsion_oracle(ring, g):
    """The basis exponents m with m*g^l = 0 for some l >= 1, for g zero or
    a monomial with coefficient 1: m*g, m*g^2, ... by s_mul while
    deg m + l deg g stays within the cutoff."""
    if g.is_zero:
        return list(ring.monomial_basis())
    gdeg = deg(ring, ring.elem(g.terms[0][0]))
    if gdeg == 0:
        return []  # g = 1
    found = []
    for m in ring.monomial_basis():
        prod, l = make_series(ring, [(m, 1)]), 0
        dm = deg(ring, ring.elem(m))
        while dm + (l + 1) * gdeg <= ring.cap:
            prod, l = s_mul(prod, g), l + 1
            if prod.is_zero:
                found.append(m)
                break
    return found


def _unram_tower(p=2):
    return build_tower(preset_unramified(p, 2), DEPTH, D, N)


def sab_a():
    """Base ideal (x2) misses p: only (a) fails."""
    T = _unram_tower()
    R0 = T.levels[0]
    bad = generator(R0, [(R0.exp((0, 1)), 1)])
    return replace(T, base_ideal=bad), {**ALL_PASS, "a": False}


def sab_b():
    """Transition absorbs x1 into x2, so x2-images vanish mod I0.

    (c) fails with it: the surviving image set is too small to contain every
    Frobenius image, by counting.
    """
    T = _unram_tower()
    absorb = Transition(((1, 1), (0, 1)))
    return replace(T, transitions=(absorb,) * DEPTH), {**ALL_PASS, "b": False, "c": False}


def sab_c():
    """Transition doubles the x2-exponent: injective, but Frobenius images
    of genuinely new level-(i+1) monomials have no preimage."""
    T = _unram_tower()
    twist = Transition(((1, 0), (0, 2)))
    return replace(T, transitions=(twist,) * DEPTH), {**ALL_PASS, "c": False}


def sab_f_power():
    """Transition squares x1, the p-direction of the pillar: t(f_i) = f_i^2 is
    not f_{i+1}^p, so I_{i+1}^p = I_i R_{i+1} fails in (f).

    At level 1, x1^{1/2} goes to x1 in S_2, which kills it: (b) fails, and
    (c) with it by counting, as in sab_b.
    """
    T = _unram_tower()
    square = Transition(((2, 0), (0, 1)))
    return (replace(T, transitions=(square,) * DEPTH),
            {**ALL_PASS, "b": False, "c": False, "f": False})


def _half_fixed_levels(monoid_is_relation: bool):
    """Levels with one divided free coordinate and one frozen monoid
    coordinate; the relation sits on the free side or the frozen side."""
    Q = AffineMonoid(ambient_rank=1, scale_base=2, level=0, generators=((1,),))
    levels = []
    for i in range(DEPTH + 1):
        if monoid_is_relation:
            rel_exp = MonoidElem((1, 0), 0, 2)  # frozen monoid coordinate
        else:
            rel_exp = MonoidElem((0, 1), 0, 2)  # divided free coordinate
        levels.append(SeriesRingDesc(
            monoid_part=Q,
            free_rank=1,
            free_level=i,
            p=2,
            precision=N,
            cutoff=D,
            relation_f=((rel_exp, 1),),
        ))
    R0 = levels[0]
    base = ideal_generator(R0, [(R0.zero_exp, 2)])
    return TowerDesc(
        levels=tuple(levels),
        transitions=(Transition(),) * DEPTH,
        base_ideal=base,
        depth=DEPTH,
    )


def sab_d():
    """The frozen monoid coordinate has no p-th root, so the Frobenius
    projections miss it; the pillar direction is still divided, so (f) holds."""
    return _half_fixed_levels(monoid_is_relation=False), {**ALL_PASS, "d": False}


def sab_e():
    """Base ideal (1) is the unit ideal: only Zariskian locality fails.

    The residue rings collapse to zero, which makes the other probes pass
    vacuously; the exponent-zero pillar chain still exists.
    """
    T = _unram_tower()
    R0 = T.levels[0]
    return replace(T, base_ideal=generator(R0, [(R0.exp((0, 0)), 1)])), {**ALL_PASS, "e": False}


def sab_f():
    """The relation direction is frozen, so no monomial pillar chain exists;
    (d) survives because the residue rings kill that direction."""
    return _half_fixed_levels(monoid_is_relation=True), {**ALL_PASS, "f": False}


def sab_g():
    """Equal characteristic k[x^{1/2^i}, y^{1/2^i}]/(x^2 y) with I0 = (x):
    y is power-torsion but x*y is not zero, so torsion is not killed by I0."""
    Q = AffineMonoid(ambient_rank=0, scale_base=2, level=0, generators=())
    quot = MonoidElem((2, 1), 0, 2)
    levels = []
    for i in range(DEPTH + 1):
        levels.append(SeriesRingDesc(
            monoid_part=Q,
            free_rank=2,
            free_level=i,
            p=2,
            precision=N,
            cutoff=D,
            relation_f=None,
            char_p=True,
            quotient_exps=(quot,),
        ))
    R0 = levels[0]
    T = TowerDesc(
        levels=tuple(levels),
        transitions=(Transition(),) * DEPTH,
        base_ideal=generator(R0, [(R0.exp((1, 0)), 1)]),
        depth=DEPTH,
    )
    return T, {**ALL_PASS, "g": False}


SABOTAGE = {
    "a": sab_a,
    "b": sab_b,
    "c": sab_c,
    "d": sab_d,
    "e": sab_e,
    "f": sab_f,
    "f_power": sab_f_power,
    "g": sab_g,
}
