"""Affine monoids, division levels, exactness, graded pieces."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

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
    enumerate_elements,
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
    p_divide,
    preset,
    saturate,
)

QUADRIC = AffineMonoid(4, 2, 0, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)))


def Nd(d, p=2):
    gens = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return AffineMonoid(d, p, 0, gens)


def test_elem_levels_and_arithmetic():
    e = MonoidElem((2, 4), 1, 2)
    # canonical form strips common p factors out of the level
    assert e == MonoidElem((1, 2), 0, 2)
    assert e.degree() == 3
    f = MonoidElem((1, 0), 1, 2)
    assert (e + f).at_level(1) == (3, 4)
    assert (e - f) == MonoidElem((1, 4), 1, 2)
    assert e.scale(2) == MonoidElem((2, 4), 0, 2)
    assert f.divide(1) == MonoidElem((1, 0), 2, 2)
    assert MonoidElem((0, 0), 3, 2).is_zero


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
        for v in enumerate_elements(p_divide(Q, 1), bound):
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
    return sorted(out, key=lambda e: (e.degree(),
                                      tuple(Fraction(x, e.base ** e.level) for x in e.coords)))


@settings(deadline=None, max_examples=150)
@given(small_monoids(), st.fractions(0, 3, max_denominator=3))
def test_enumerate_matches_simplex_walk(Q, max_degree):
    assert list(enumerate_elements(Q, max_degree)) == simplex_walk(Q, max_degree)


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
    elems = enumerate_elements(Q, 30)
    assert len(elems) == 30
    assert [e.coords[0] for e in elems] == [0] + list(range(2, 31))


def test_enumeration_is_memoised_and_needs_Nd():
    assert enumerate_elements(QUADRIC, 2) is enumerate_elements(QUADRIC, Fraction(5, 2))
    with pytest.raises(ValueError):
        enumerate_elements(AffineMonoid(2, 2, 0, ((1, 0), (-1, 1))), 2)
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


def cone_gp_points(gens, d, cap):
    """Points of cone(gens) cap Z-span(gens) of degree <= cap, for gens in N^d.

    Cone membership is Caratheodory's theorem: x is in the cone iff it is a
    nonnegative combination of r = rank linearly independent generators,
    solved by Cramer's rule.  For x in the span, the lattice spanned by the
    generators and x contains Z-span(gens) with the same rank and index
    gcd of r x r minors without x / gcd with x, so x is in Z-span(gens) iff
    the two gcds agree.
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
                pieces.append((T, R, D))
                break

    def in_cone(x):
        for T, R, D in pieces:
            nums = [_det([[x[i] if k == j else t[i] for k, t in enumerate(T)] for i in R])
                    for j in range(r)]
            if all(n * D >= 0 for n in nums) and all(
                    D * x[i] == sum(n * t[i] for n, t in zip(nums, T)) for i in range(d)):
                return True
        return False

    return {x for x in itertools.product(range(cap + 1), repeat=d)
            if sum(x) <= cap and in_cone(x) and gcd(*_minors(gens + [x], r, d)) == index}


def _coords(Q, cap):
    """Level-Q.level coordinates of the elements of Q of degree <= cap there."""
    return {e.at_level(Q.level) for e in enumerate_elements(Q, Fraction(cap, Q.scale_base ** Q.level))}


@settings(deadline=None, max_examples=100)
@given(small_monoids())
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
    for i, h in enumerate(H.generators if H is not Q else ()):
        others = AffineMonoid(Q.ambient_rank, 2, 0, H.generators[:i] + H.generators[i + 1:])
        assert h not in brute_elements(others, sum(h)), (H.generators, h)
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
