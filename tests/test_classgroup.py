"""Divisor class groups from facet pairings, with an independent SNF oracle."""

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from ptlab.classgroup import (
    class_group,
    ell_primary,
    pairing_matrix,
    prime_to_p_report,
)
from ptlab.intlat import FinAbelianGroup
from ptlab.monoid import AffineMonoid, NotSaturated, NotSharp

QUADRIC = AffineMonoid(4, 2, 0, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)))
A1 = AffineMonoid(2, 2, 0, ((2, 0), (1, 1), (0, 2)))
SIMPLICIAL = AffineMonoid(3, 2, 0, ((1, 0, 0), (0, 1, 0), (1, 1, 2)))


def Nd(d):
    gens = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return AffineMonoid(d, 2, 0, gens)


def snf_oracle(M):
    """Cokernel invariants of the pairing matrix, via sympy's Smith form."""
    rows = len(M)
    cols = len(M[0]) if M else 0
    sm = smith_normal_form(sympy.Matrix([list(r) for r in M]))
    diag = [abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i] != 0]
    return FinAbelianGroup(
        free_rank=rows - len(diag),
        invariant_factors=tuple(d for d in sorted(diag) if d > 1),
    )


def test_free_monoids_have_trivial_class_group():
    for d in (1, 2, 3, 4):
        assert class_group(Nd(d)).group.is_trivial


def test_quadric_class_group_is_Z():
    rep = class_group(QUADRIC)
    assert rep.group.describe() == "Z"
    assert rep.torsion_order == 1
    assert rep.facet_count == 4
    assert pairing_matrix(QUADRIC) == ((0, 0, 1), (1, -1, 0), (0, 1, 1), (1, 0, 0))


def test_A1_class_group_is_Z2():
    rep = class_group(A1)
    assert rep.group.describe() == "Z/2"
    assert pairing_matrix(A1) == ((1, -2), (1, 0))
    assert rep.ell_primary[2].describe() == "Z/2"


def test_simplicial_example_trivial():
    assert class_group(SIMPLICIAL).group.is_trivial


def test_matches_brute_force_snf_oracle():
    for Q in (QUADRIC, A1, SIMPLICIAL, Nd(3)):
        mine = class_group(Q).group
        oracle = snf_oracle(pairing_matrix(Q))
        assert mine.free_rank == oracle.free_rank
        assert mine.invariant_factors == oracle.invariant_factors


def test_ell_primary_parts():
    G = FinAbelianGroup(0, (12,))
    assert ell_primary(G, 2).describe() == "Z/4"
    assert ell_primary(G, 3).describe() == "Z/3"
    assert ell_primary(G, 5).is_trivial
    H = FinAbelianGroup(1, (2, 6))
    assert ell_primary(H, 2).invariant_factors == (2, 2)


def test_prime_to_p_reports():
    rep = prime_to_p_report(FinAbelianGroup(1, (2,)), 2)
    assert rep == {"prime_to_p_order": 1, "support": [], "components": {},
                   "finite": True}
    rep6 = prime_to_p_report(FinAbelianGroup(0, (6,)), 2)
    assert rep6["prime_to_p_order"] == 3
    assert rep6["support"] == [3]
    assert rep6["components"] == {"3": "Z/3"}
    assert rep6["finite"]


def test_report_json_is_plain_data():
    payload = class_group(A1).to_json()
    assert payload["group"] == "Z/2"
    assert payload["torsion_order"] == 2
    assert payload["facet_count"] == 2
    assert payload["ell_primary"] == {"2": "Z/2"}


def test_guards():
    full = AffineMonoid(1, 2, 0, ((1,), (-1,)))
    with pytest.raises(NotSharp):
        class_group(full)
    numeric = AffineMonoid(1, 2, 0, ((2,), (3,)))
    with pytest.raises(NotSaturated):
        class_group(numeric)
