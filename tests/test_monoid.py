"""Affine monoids, division levels, exactness, graded pieces."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ptlab.monoid import (
    AffineMonoid,
    MonoidElem,
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
        dec = graded_decomposition(Q, p_divide(Q, 1), degree_bound=2)
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
    return sorted(out, key=lambda e: e.sort_key())


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
    # a non-saturated monoid outside N^d has no exact membership walk
    with pytest.raises(ValueError):
        contains(AffineMonoid(1, 2, 0, ((-2,), (-3,))), MonoidElem((-5,), 0, 2))
