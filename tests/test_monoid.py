"""Affine monoids, division levels, exactness, graded pieces."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ptlab import intlat, monoid
from ptlab.classgroup import class_group
from ptlab.monoid import (
    AffineMonoid,
    MonoidElem,
    NotSaturated,
    NotSharp,
    NotSubmonoid,
    cone_contains,
    contains,
    dimension,
    exact_embed_Nd,
    facet_normals,
    graded_decomposition,
    gp_basis,
    in_gp,
    is_exact_submonoid,
    json_int,
    is_saturated,
    is_sharp,
    layer_quotient,
    member_test,
    p_divide,
    preset,
    saturate,
    walk,
)

from fixtures import elements, snf_diagonal

QUADRIC = AffineMonoid(4, 2, 0, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)))


def Nd(d, p=2):
    gens = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return AffineMonoid(d, p, 0, gens)


def test_elem_levels_and_arithmetic():
    e = MonoidElem((2, 4), 1, 2)
    # canonical form strips common p factors out of the level
    assert e == MonoidElem((1, 2), 0, 2)
    assert sum(e.coords) == 3
    f = MonoidElem((1, 0), 1, 2)
    assert (e + f).at_level(1) == (3, 4)
    assert (e - f) == MonoidElem((1, 4), 1, 2)
    assert e.scale(2) == MonoidElem((2, 4), 0, 2)
    assert f.divide(1) == MonoidElem((1, 0), 2, 2)


def test_elem_rejects_bad_data():
    with pytest.raises(ValueError):
        MonoidElem((1,), -1, 2)
    with pytest.raises(ValueError):
        MonoidElem((1,), 0, 1)


def test_quadric_basic_invariants():
    assert is_sharp(QUADRIC)
    assert is_saturated(QUADRIC)
    assert dimension(QUADRIC) == 3
    assert len(facet_normals(QUADRIC)) == 4
    # x*z = y*w inside the cone: (1,1,0,0)+(0,0,1,1) = (1,0,0,1)+(0,1,1,0)
    assert QUADRIC.elem((1, 1, 1, 1)) == QUADRIC.gen_elems()[0] + QUADRIC.gen_elems()[1]


def test_layer_quotients():
    for p in (2, 3):
        for d in range(1, 5):
            G = layer_quotient(Nd(d, p))
            assert G.invariant_factors == (p,) * d
        assert layer_quotient(
            AffineMonoid(4, p, 0, QUADRIC.generators)
        ).torsion_order() == p ** 3


def test_p_divide_chain():
    Q = Nd(2)
    Q2 = p_divide(Q, 2)
    assert Q2.level == 2
    assert contains(Q2, MonoidElem((1, 3), 2, 2))
    assert not contains(Q, MonoidElem((1, 0), 1, 2))
    with pytest.raises(ValueError):
        p_divide(Q, -1)


def test_saturation_of_numerical_semigroup():
    Q = AffineMonoid(1, 2, 0, ((2,), (3,)))
    assert not is_saturated(Q)
    S = saturate(Q)
    assert is_saturated(S)
    assert contains(S, MonoidElem((1,), 0, 2))


def test_random_saturations_stay_saturated():
    rng = random.Random(424)
    for _ in range(15):
        while True:
            u = (rng.randint(1, 4), rng.randint(0, 3))
            v = (rng.randint(0, 3), rng.randint(1, 4))
            if gcd(*u) == 1 and gcd(*v) == 1 and 0 < abs(u[0] * v[1] - u[1] * v[0]) <= 4:
                break
        S = saturate(AffineMonoid(2, 2, 0, (u, v)))
        assert is_saturated(S)
        for g in S.gen_elems():
            assert cone_contains(S, g.coords)


def test_exactness_along_division_chain():
    for Q in (Nd(2), Nd(3), QUADRIC):
        for i in range(3):
            assert is_exact_submonoid(p_divide(Q, i), p_divide(Q, i + 1))


def test_numerical_semigroup_not_exact_in_N():
    num = AffineMonoid(1, 2, 0, ((2,), (3,)))
    N = AffineMonoid(1, 2, 0, ((1,),))
    assert not is_exact_submonoid(num, N)
    with pytest.raises(NotSubmonoid):
        is_exact_submonoid(N, num)


def test_graded_zero_component_is_submonoid():
    """The degree-zero piece of Q^(1) over Q is Q itself."""
    for Q, bound in ((Nd(2), Fraction(2)), (QUADRIC, Fraction(1))):
        dec = graded_decomposition(Q, p_divide(Q, 1))
        for v in elements(p_divide(Q, 1), bound):
            assert dec.is_zero_class(v) == contains(Q, v)


def test_facet_embedding_quadric():
    rows = exact_embed_Nd(QUADRIC)
    assert rows == ((0, 0, 1, 0), (0, 1, 0, 0), (1, -1, 1, 0), (1, 0, 0, 0))
    # generators land in N^4 with at least one zero pairing each (they lie on facets)
    for g in QUADRIC.gen_elems():
        vals = [sum(n[i] * g.coords[i] for i in range(4)) for n in rows]
        assert all(v >= 0 for v in vals)
        assert 0 in vals


def test_facet_embedding_needs_sharp():
    full = AffineMonoid(1, 2, 0, ((1,), (-1,)))
    with pytest.raises(NotSharp):
        exact_embed_Nd(full)


def test_gp_membership():
    Q = AffineMonoid(2, 2, 0, ((2, 0), (1, 1), (0, 2)))
    assert in_gp(Q, MonoidElem((1, 1), 0, 2))
    assert not in_gp(Q, MonoidElem((1, 0), 0, 2))
    cols = gp_basis(Q)
    assert len(cols) == 2      # ambient coordinates
    assert len(cols[0]) == 2   # rank two


def test_one_smith_form_per_monoid():
    """gp_basis, in_gp and member_test of one monoid read one Smith form, that
    of its generator matrix (the quadric's cones are unimodular, so its
    saturation check factors no cone matrix)."""
    for mod in (intlat, monoid):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    Q = QUADRIC
    assert intlat.dims(gp_basis(Q)) == (4, 3)
    assert in_gp(Q, Q.elem((2, 1, 0, 1)))
    assert not in_gp(Q, Q.elem((1, 0, 0, 0)))
    full, _ = member_test(Q.generators, Q.ambient_rank, Q.scale_base)
    assert full((2, 1, 0, 1)) and not full((1, 0, 0, 0))
    assert intlat._snf.cache_info().misses == 1


def test_descriptor_roundtrip():
    for Q in (QUADRIC, Nd(3, 3), p_divide(Nd(2), 1)):
        assert AffineMonoid.from_descriptor(Q.to_descriptor()) == Q


def test_elem_json_roundtrip():
    for e in (MonoidElem((3, 0, 5), 2, 3), MonoidElem((1, 1), 1, 2), MonoidElem((4,), 0, 2)):
        t = e.to_json()
        assert t == {"exponent": list(e.coords), "level": e.level}
        assert MonoidElem.from_json(t, e.base) == e
    # a missing level means level 0; levels are canonicalised on the way in
    assert MonoidElem.from_json({"exponent": [2, 0]}, 2) == MonoidElem((2, 0), 0, 2)
    assert MonoidElem.from_json({"exponent": [2, 4], "level": 1}, 2) == MonoidElem((1, 2), 0, 2)


def test_preset_table():
    assert preset("quadric", 2) == QUADRIC
    assert preset("Nd", 3, 3) == Nd(3, 3)
    assert preset("Nd", 5) == AffineMonoid(0, 5, 0, ())
    assert preset("A1", 3) == AffineMonoid(2, 3, 0, ((2, 0), (1, 1), (0, 2)))
    with pytest.raises(ValueError):
        preset("nosuch", 2)


# -- exact enumeration and membership against brute force ----------------------


@st.composite
def small_monoids(draw):
    """Generators in N^d, d <= 3, entries <= 3, at level 0 or 1."""
    d = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=4))
    return AffineMonoid(d, draw(st.sampled_from((2, 3))), draw(st.integers(0, 1)), tuple(gens))


def brute_elements(Q, cap):
    """Level-Q.level coordinates of every element of Q of degree <= cap.

    Every coefficient vector that keeps each generator's own contribution
    within degree cap is summed; all generators lie in N^d, so no element of
    degree <= cap needs more.
    """
    gens = [g for g in Q.generators if any(g)]
    out = set()
    for coeffs in itertools.product(*(range(cap // sum(g) + 1) for g in gens)):
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(Q.ambient_rank))
        if sum(v) <= cap:
            out.add(v)
    return out


def simplex_walk(Q, max_degree):
    """The ambient-simplex walk filtered through exact (brute-force) membership."""
    cap = int(max_degree * Q.scale_base ** Q.level)
    members = brute_elements(Q, cap)
    out = []
    for v in itertools.product(range(cap + 1), repeat=Q.ambient_rank):
        if sum(v) <= cap and v in members:
            out.append(Q.elem(v))
    # the term order in Fractions: degree, then coordinates
    def fracs(e):
        return tuple(Fraction(x, e.base ** e.level) for x in e.coords)
    return sorted(out, key=lambda e: (sum(fracs(e)), fracs(e)))


@settings(deadline=None, max_examples=150)
@given(small_monoids(), st.fractions(0, 3, max_denominator=3))
def test_enumerate_matches_simplex_walk(Q, max_degree):
    assert elements(Q, max_degree) == simplex_walk(Q, max_degree)


@settings(deadline=None, max_examples=100)
@given(small_monoids())
def test_contains_matches_brute_force_in_a_box(Q):
    box = 4
    members = brute_elements(Q, box * Q.ambient_rank)
    for v in itertools.product(range(box + 1), repeat=Q.ambient_rank):
        assert contains(Q, Q.elem(v)) == (v in members), v
    # an element finer than Q's level is never in Q
    assert not contains(Q, MonoidElem((1,) * Q.ambient_rank, Q.level + 1, Q.scale_base))


def test_numerical_semigroup_membership_is_exact():
    Q = AffineMonoid(1, 2, 0, ((2,), (3,)))
    assert contains(Q, MonoidElem((30,), 0, 2))
    assert not contains(Q, MonoidElem((1,), 0, 2))
    elems = elements(Q, 30)
    assert len(elems) == 30
    assert [e.coords[0] for e in elems] == [0] + list(range(2, 31))


def test_enumeration_is_memoised_and_needs_Nd():
    walk.cache_clear()
    w = walk(QUADRIC.generators, 3)
    assert w is walk(QUADRIC.generators, 3)
    # the walk goes as far as it is asked and keeps what it found
    n = w.upto(2)
    assert w.degree == 2 and w.upto(1) < n == w.upto(2) == len(w.elements)
    with pytest.raises(ValueError):
        walk(((1, 0), (-1, 1)), 3)
    # membership needs no N^d: a non-saturated monoid outside it peels its
    # facet pairings
    assert contains(AffineMonoid(1, 2, 0, ((-2,), (-3,))), MonoidElem((-5,), 0, 2))


def test_membership_outside_Nd_on_facet_pairings():
    """Q = <(1,-1),(0,2),(0,3)> is sharp, not saturated ((0,1) is missing),
    and leaves N^d; membership is decided on its facet pairings."""
    Q = AffineMonoid(2, 2, 0, ((1, -1), (0, 2), (0, 3)))
    assert not is_saturated(Q)
    assert contains(Q, MonoidElem((0, 5), 0, 2))
    assert not contains(Q, MonoidElem((0, 1), 0, 2))
    assert contains(Q, MonoidElem((2, 0), 0, 2))          # 2(1,-1) + (0,2)
    assert not contains(Q, MonoidElem((-1, 1), 0, 2))     # outside the cone
    assert not contains(Q, MonoidElem((1, 0), 1, 2))      # off the lattice
    with pytest.raises(NotSaturated):
        is_exact_submonoid(AffineMonoid(2, 2, 0, ((1, -1),)), Q)


def test_json_int_rejects_non_integers():
    assert json_int(-3) == -3
    for bad in (True, 1.7, 2.0, "1", None):
        with pytest.raises(ValueError):
            json_int(bad)
    with pytest.raises(ValueError):
        MonoidElem.from_json({"exponent": [1.5, 0]}, 2)
    with pytest.raises(ValueError):
        AffineMonoid.from_descriptor({"ambient_rank": 1, "scale_base": 2, "generators": [[True]]})
    with pytest.raises(ValueError):
        AffineMonoid(-2, 2, 0, ())


# -- exact saturation against brute force -----------------------------------


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _minors(cols, r, d):
    """Every r x r minor of the d-row matrix with the given columns."""
    for rows in itertools.combinations(range(d), r):
        for cs in itertools.combinations(cols, r):
            yield _det([[c[i] for c in cs] for i in rows])


def _linear(f, d):
    """The coefficient vector of a function of x in Z^d that is linear in x."""
    return [f(tuple(int(i == k) for k in range(d))) for i in range(d)]


def cone_gp_points(gens, d, cap):
    """Points of cone(gens) cap Z-span(gens) of degree <= cap, for gens in N^d.

    Cone membership is Caratheodory's theorem: x is in the cone iff it is a
    nonnegative combination of r = rank linearly independent generators,
    solved by Cramer's rule.  For x in the span, the lattice spanned by the
    generators and x contains Z-span(gens) with the same rank and index
    gcd of r x r minors without x / gcd with x, so x is in Z-span(gens) iff
    the two gcds agree.  The Cramer numerators and the minors with x are
    linear in x, so each is one coefficient vector, found once by cofactor
    expansion, and a point costs a few dot products.
    """
    gens = [g for g in gens if any(g)]
    r = max((k for k in range(1, d + 1) if any(_minors(gens, k, d))), default=0)
    if r == 0:
        return {(0,) * d}
    index = gcd(*_minors(gens, r, d))
    pieces = []
    for T in itertools.combinations(gens, r):
        for R in itertools.combinations(range(d), r):
            D = _det([[t[i] for t in T] for i in R])
            if D:
                nums = [_linear(lambda x, j=j: _det([[x[i] if k == j else t[i]
                                                      for k, t in enumerate(T)] for i in R]), d)
                        for j in range(r)]
                pieces.append((T, D, nums))
                break
    # gcd of every minor with x: index and the distinct nonzero linear forms
    forms = {tuple(_linear(lambda x: _det([[c[i] for c in S + (x,)] for i in rows]), d))
             for rows in itertools.combinations(range(d), r)
             for S in itertools.combinations(gens, r - 1)}
    forms = [f for f in forms if any(f)]

    def in_cone(x):
        for T, D, cofs in pieces:
            nums = [_dot(c, x) for c in cofs]
            if all(n * D >= 0 for n in nums) and all(
                    D * x[i] == sum(n * t[i] for n, t in zip(nums, T)) for i in range(d)):
                return True
        return False

    return {x for x in itertools.product(range(cap + 1), repeat=d)
            if sum(x) <= cap and in_cone(x) and gcd(index, *(_dot(f, x) for f in forms)) == index}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _coords(Q, cap):
    """Level-Q.level coordinates of the elements of Q of degree <= cap there."""
    return {e.at_level(Q.level) for e in elements(Q, Fraction(cap, Q.scale_base ** Q.level))}


def is_sum_of(h, gens):
    """h in N^d is a sum of the vectors gens, each in N^d: a memoised search
    that subtracts one nonzero generator at a time, so it visits at most the
    points of the box [0, h]."""
    gens = [g for g in gens if any(g)]

    @lru_cache(maxsize=None)
    def reach(v):
        return not any(v) or any(
            all(a >= b for a, b in zip(v, g)) and reach(tuple(a - b for a, b in zip(v, g)))
            for g in gens)

    return reach(tuple(h))


@settings(deadline=None, max_examples=100)
@given(small_monoids())
# a cone whose Hilbert basis has 15 elements: summing every coefficient
# vector of the 14 others took seconds for h = (1, 5, 3) alone
@example(AffineMonoid(3, 2, 0, ((3, 1, 0), (0, 3, 1), (1, 3, 3), (1, 1, 0))))
def test_saturation_matches_brute_force(Q):
    # every gap point of cone cap Q^gp lies in the generator box, whose
    # points have degree <= S = the total degree of all generators
    S = sum(sum(g) for g in Q.generators)
    sat = cone_gp_points(Q.generators, Q.ambient_rank, S)
    assert is_saturated(Q) == (_coords(Q, S) == sat)
    H = saturate(Q)
    assert is_saturated(H)
    assert all(contains(H, g) for g in Q.gen_elems())
    assert _coords(H, S) == sat
    # a saturated Q comes back as given; otherwise the result is the Hilbert basis
    assert all(is_sum_of(g, H.generators) for g in Q.generators)
    for i, h in enumerate(H.generators if H is not Q else ()):
        assert not is_sum_of(h, H.generators[:i] + H.generators[i + 1:]), (H.generators, h)
    assert saturate(H) == H


def test_saturation_of_a_thin_cone():
    Q = AffineMonoid(2, 2, 0, ((1, 0), (1, 8), (2, 9)))
    assert not is_saturated(Q)
    assert set(saturate(Q).generators) == {(1, k) for k in range(9)}


def test_veronese_3_3_is_saturated():
    gens = tuple(c for c in itertools.product(range(4), repeat=3) if sum(c) == 3)
    assert is_saturated(AffineMonoid(3, 2, 0, gens))


def test_saturated_cone_outside_Nd():
    Q = AffineMonoid(2, 2, 0, ((1, -1), (1, 1), (1, 0)))
    assert is_saturated(Q)
    assert saturate(Q) is Q
    assert class_group(Q).group.describe() == "Z/2"


def test_exactness_needs_saturated_ambient():
    with pytest.raises(NotSaturated):
        is_exact_submonoid(AffineMonoid(1, 2, 0, ((4,),)), AffineMonoid(1, 2, 0, ((2,), (3,))))


def test_saturation_needs_sharp():
    Z = AffineMonoid(1, 2, 0, ((1,), (-1,)))
    with pytest.raises(NotSharp):
        is_saturated(Z)
    with pytest.raises(NotSharp):
        saturate(Z)


# -- the triangulation against the algorithms it replaced -----------------------

# the cones outside N^d used above
OUTSIDE_ND = (((1, -1), (0, 2), (0, 3)), ((1, -1), (1, 1), (1, 0)), ((-2,), (-3,)),
              ((1, 0), (-1, 1)), ((1,), (-1,)))
# saturated cones that the triangulation splits into several simplicial cones
# (the quadric, the Segre cone of P^1 x P^2, the cone over a lattice hexagon
# with its centre) or into cones of volume > 1 (the Veronese cone V(3,2))
HEXAGON = ((2, 1, 1), (1, 2, 1), (0, 2, 1), (0, 1, 1), (1, 0, 1), (2, 0, 1))
SATURATED = (QUADRIC.generators,
             tuple(c for c in itertools.product(range(3), repeat=3) if sum(c) == 2),
             tuple(tuple(int(k in (i, 2 + j)) for k in range(5))
                   for i in range(2) for j in range(3)),
             HEXAGON + ((1, 1, 1),))
# not saturated: the hexagon without its centre, and a thin cone
NOT_SATURATED = (HEXAGON, ((1, 0), (1, 8), (2, 9)))


def _monoid(gens):
    return AffineMonoid(len(gens[0]), 2, 0, tuple(gens))


def cones():
    return st.one_of(small_monoids(),
                     st.sampled_from(OUTSIDE_ND + SATURATED + NOT_SATURATED).map(_monoid))


def _rank(rows):
    rows = [r for r in rows if any(r)]
    return len(snf_diagonal(intlat.intmatrix(rows))) if rows else 0


def all_pairs_rays(constraints, n):
    """Double description without an adjacency test: every positive ray is
    combined with every negative one, and a final filter keeps the rays whose
    tight constraints, with the lineality space, have rank n - 1."""
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = []
    live = [a for a in constraints if any(a)]
    for a in live:
        pivot = next((l for l in lin if _dot(a, l) != 0), None)
        if pivot is not None:
            pa = _dot(a, pivot)
            if pa < 0:
                pivot, pa = tuple(-x for x in pivot), -pa

            def project(v):
                return _primitive(tuple(v[k] * pa - pivot[k] * _dot(a, v) for k in range(n)))

            lin = [w for w in (project(l) for l in lin
                               if l is not pivot and l != tuple(-x for x in pivot)) if any(w)]
            rays = [w for w in map(project, rays) if any(w)] + [pivot]
        else:
            pos = [r for r in rays if _dot(a, r) > 0]
            neg = [r for r in rays if _dot(a, r) < 0]
            rays = pos + [r for r in rays if _dot(a, r) == 0] + [
                _primitive(tuple(-_dot(a, rn) * rp[k] + _dot(a, rp) * rn[k] for k in range(n)))
                for rp in pos for rn in neg]
        rays = list(dict.fromkeys(rays))
    base = _rank(lin)
    rays = [r for r in rays if not (lin and _rank(lin + [r]) == base)
            and _rank([a for a in live if _dot(a, r) == 0] + lin) == n - 1]
    return tuple(lin), tuple(sorted(rays))


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def box_gap(gens, n):
    """Every nonzero lattice point of cone cap Q^gp in the generator box
    prod_k [sum_g min(g_k, 0), sum_g max(g_k, 0)] that is outside Q, in
    lexicographic order; facets from all_pairs_rays."""
    _, rays = all_pairs_rays(gens, n)
    images = tuple(tuple(_dot(r, g) for r in rays) for g in gens if any(g))
    if not all(map(any, images)):
        raise NotSharp("monoid is not sharp")
    basis = intlat.lattice_basis(tuple(tuple(g[i] for g in gens) for i in range(n)))
    box = [range(sum(min(g[k], 0) for g in gens), sum(max(g[k], 0) for g in gens) + 1)
           for k in range(n)]
    gap = []
    for v in itertools.product(*box):
        pv = tuple(_dot(r, v) for r in rays)
        if (any(v) and min(pv, default=0) >= 0 and intlat.in_lattice(basis, v) is not None
                and not monoid._generated(images, pv)):
            gap.append(v)
    return gap


def box_saturate(Q):
    """The Hilbert basis of cone cap Q^gp from Q's generators and box_gap."""
    gap = box_gap(Q.generators, Q.ambient_rank)
    if not gap:
        return Q
    _, rays = all_pairs_rays(Q.generators, Q.ambient_rank)
    cands = list(dict.fromkeys(g for g in Q.generators if any(g))) + gap
    images = [tuple(_dot(r, c) for r in rays) for c in cands]
    keep = tuple(c for i, c in enumerate(cands)
                 if not monoid._generated(tuple(images[:i] + images[i + 1:]), images[i]))
    return AffineMonoid(Q.ambient_rank, Q.scale_base, Q.level, keep)


@st.composite
def constraint_systems(draw):
    """Up to 6 constraints in Z^n, n <= 4, entries in [-2, 2], sometimes
    with an equation (a constraint and its negation)."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=6))
    if rows and draw(st.booleans()):
        rows.append(tuple(-x for x in rows[0]))
    return tuple(rows), n


@settings(deadline=None, max_examples=300)
@given(st.one_of(constraint_systems(), cones().map(lambda Q: (Q.generators, Q.ambient_rank))))
def test_double_description_matches_all_pairs(system):
    assert monoid._ineq_cone_rays(*system) == all_pairs_rays(*system)


@settings(deadline=None, max_examples=100)
@given(cones())
def test_gap_and_saturation_match_the_box_oracle(Q):
    n = Q.ambient_rank
    try:
        box = box_gap(Q.generators, n)
    except NotSharp:
        with pytest.raises(NotSharp):
            monoid._saturation_gap(Q.generators, n)
        return
    gap = monoid._saturation_gap(Q.generators, n)
    assert list(gap) == sorted(set(gap)) and set(gap) <= set(box)
    assert is_saturated(Q) == (not box)
    assert saturate(Q) == box_saturate(Q)
