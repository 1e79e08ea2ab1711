"""Deliberately broken towers, each named after the axiom it breaks.

Every fixture returns (tower, expected) where expected maps axiom letters to
the pass verdict the verification report must show.  (b) and (c) are read
off the whole image of t-bar, each from its own definition: the transitions
of sab_b, sab_f_power and sab_b_collides break both, each docstring says
why, while sab_f_compatible breaks (b) alone.

BRANCHES holds towers that each fail one branch of a row, told apart by the
row's note, that the SABOTAGE towers leave untried.

elements() lists a monoid's elements for the monoid tests, verify_axioms()
composes a tower's axiom report, torsion_oracle() finds a ring's
power-torsion by series products for the torsion tests, and snf_diagonal()
gives the invariant factors of a matrix for the lattice tests.
"""

from fractions import Fraction
from math import floor

from ptlab.intlat import dims, snf
from ptlab.logreg import build_tower, preset_unramified
from ptlab.monoid import AffineMonoid, MonoidElem, unpack, walk
from ptlab.record import replace
from ptlab.series import SeriesRingDesc, f_bar
from ptlab.tower import TowerDesc, Transition, verify_perfectoid, verify_purely_inseparable

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
    return [MonoidElem(unpack(c, field, Q.ambient_rank), Q.level, Q.scale_base)
            for c in w.elements[:w.upto(cap)]]


def verify_axioms(T) -> dict:
    """The axiom rows (a)-(g) of T and their verdict, composed as `tower
    verify` composes them, without its Frobenius identity rows."""
    a, b = verify_purely_inseparable(T), verify_perfectoid(T)
    return {"axioms": a["axioms"] + b["axioms"], "all_pass": a["all_pass"] and b["all_pass"],
            "cutoff": T.cutoff_info()}


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
    bad = generator(R0, [(MonoidElem((0, 1), 0, 2), 1)])
    return replace(T, base_ideal=bad), {**ALL_PASS, "a": False}


def sab_b():
    """Transition absorbs x1 into x2, so x2-images vanish mod I0.

    (c) fails with it: t-bar sends x1^a x2^b to x1^(a+b) x2^b, so no image
    is x2, the Frobenius image of x2^{1/2}.
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

    At level 1, x1^{1/2} goes to x1 in S_2, which kills it: (b) fails.  (c)
    fails with it: every image of t-bar_1 has an integral x1-exponent, and
    x1^{1/2}, the Frobenius image of x1^{1/4}, has none.
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
            precision=N,
            cutoff=D,
            relation_f=((rel_exp, 1),),
        ))
    R0 = levels[0]
    base = f_bar(R0)
    return TowerDesc(
        levels=tuple(levels),
        transitions=(Transition(),) * DEPTH,
        base_ideal=base,
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
    one = generator(R0, [(MonoidElem((0, 0), 0, 2), 1)])
    return replace(T, base_ideal=one), {**ALL_PASS, "e": False}


def sab_f():
    """The relation direction is frozen, so no monomial pillar chain exists;
    (d) survives because the residue rings kill that direction."""
    return _half_fixed_levels(monoid_is_relation=True), {**ALL_PASS, "f": False}


def _charp_tower(quotients, transitions=(Transition(),) * DEPTH):
    """Equal characteristic k[x^{1/2^i}, y^{1/2^i}] with I0 = (x), level i
    carrying the monomial quotients quotients[i], with the given transitions
    (inclusions by default)."""
    Q = AffineMonoid(ambient_rank=0, scale_base=2, level=0, generators=())
    levels = []
    for i in range(DEPTH + 1):
        levels.append(SeriesRingDesc(
            monoid_part=Q,
            free_rank=2,
            free_level=i,
            precision=N,
            cutoff=D,
            relation_f=None,
            quotient_exps=quotients[i],
        ))
    R0 = levels[0]
    return TowerDesc(
        levels=tuple(levels),
        transitions=transitions,
        base_ideal=generator(R0, [(MonoidElem((1, 0), 0, 2), 1)]),
    )


def sab_g():
    """Equal characteristic k[x^{1/2^i}, y^{1/2^i}]/(x^2 y) with I0 = (x):
    y is power-torsion but x*y is not zero, so torsion is not killed by I0."""
    quot = MonoidElem((2, 1), 0, 2)
    return _charp_tower(((quot,),) * (DEPTH + 1)), {**ALL_PASS, "g": False}


def sab_b_collides():
    """Transition sends x2 to 1, so t-bar sends 1 and x2 to one monomial:
    injectivity fails by a collision, not a vanishing image.  (c) fails with
    it: every image is a power of x1, and x2, the Frobenius image of
    x2^{1/2}, is none.  The pillar x1^{1/2^i} is fixed, so (f) holds."""
    T = _unram_tower()
    drop = Transition(((1, 0), (0, 0)))
    return replace(T, transitions=(drop,) * DEPTH), {**ALL_PASS, "b": False, "c": False}


def sab_f_kernel():
    """R_0 alone carries y^2, so Frobenius S_1 -> S_0 kills y although y is
    no multiple of the level-1 pillar: the kernel identity of (f) fails.
    (c) fails with it: y^2 is a Frobenius image in S_1, and t-bar_0 cannot
    reach it from S_0, where it is zero."""
    return (_charp_tower(((MonoidElem((0, 2), 0, 2),), (), ())),
            {**ALL_PASS, "c": False, "f": False})


def sab_f_compatible():
    """Z_2[[x1^{1/2^i}, x2^{1/2^i}]]/(2 - f_i) with f_0 = f_1 = x1 and
    f_2 = x1^{1/4}: the level-2 pillar x1^{1/4} is zero in S_2 while
    F_1 should send it to the live x1^{1/2} of S_1, so pillar compatibility
    in (f) fails.  x1^{1/2} also vanishes under t-bar_1, so (b) fails, and
    its p-th root is gone, so (d) fails.  (c) holds: S_2 kills x1^{1/4}, so
    its Frobenius images are the x2^{b/2}, which t-bar_1 reaches from S_1."""
    rels = (MonoidElem((1, 0), 0, 2), MonoidElem((1, 0), 0, 2), MonoidElem((1, 0), 2, 2))
    levels = tuple(SeriesRingDesc(monoid_part=AffineMonoid(0, 2, 0, ()), free_rank=2,
                                  free_level=i, precision=N, cutoff=D,
                                  relation_f=((rel, 1),))
                   for i, rel in enumerate(rels))
    R0 = levels[0]
    T = TowerDesc(levels=levels, transitions=(Transition(),) * DEPTH,
                  base_ideal=f_bar(R0))
    return T, {**ALL_PASS, "b": False, "d": False, "f": False}


def sab_g_scaled():
    """R_1 alone carries x y^{1/2}, a multiple of x, so y^{1/2} is torsion of
    x at level 1 and killed by I0, but its p-th power y has no torsion
    partner in R_0: the upward p-scaling of (g) fails, and nothing else."""
    return _charp_tower(((), (MonoidElem((2, 1), 1, 2),), ())), {**ALL_PASS, "g": False}


def sab_g_divided():
    """R_0 alone carries x y, so y is torsion of x at level 0 and killed by
    I0, but y^{1/2} is no torsion of R_1: the downward p-division of (g)
    fails, and nothing else."""
    return _charp_tower(((MonoidElem((1, 1), 0, 2),), (), ())), {**ALL_PASS, "g": False}


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

# Towers that fail a branch of a row that no SABOTAGE tower fails: the
# collision of (b), the pillar compatibility and the kernel identity of (f),
# and both p-scaling checks of (g).  They are kept apart because the oracle
# tests over SABOTAGE pin how many rings and refusals they meet.
BRANCHES = {
    "b_collides": sab_b_collides,
    "f_kernel": sab_f_kernel,
    "f_compatible": sab_f_compatible,
    "g_scaled": sab_g_scaled,
    "g_divided": sab_g_divided,
}
