"""Exact integer linear algebra: normal forms, lattices, quotients."""

import random
from math import prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from ptlab.intlat import (
    FinAbelianGroup,
    SubLatticeNotContained,
    abelian_quotient,
    det,
    dims,
    identity,
    in_lattice,
    lattice_basis,
    mat_mul,
    mat_vec,
    snf,
    transpose,
)

from algebra_oracle import kernel
from fixtures import snf_diagonal


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_snf_frozen_examples():
    assert snf_diagonal(((2, 4, 4), (-6, 6, 12), (10, 4, 16))) == (2, 2, 156)
    assert snf_diagonal(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == (1, 3)
    assert snf_diagonal(((6, 0), (0, 10), (0, 0))) == (2, 30)
    assert snf_diagonal(((2, 0), (0, 6))) == (2, 6)
    assert snf_diagonal(((0, 0), (0, 0))) == ()
    with pytest.raises(ValueError, match="ragged matrix"):
        snf(((1, 2), (3,)))


def test_snf_random_small_matrices():
    """U*M*V = D exactly, unimodular transforms, divisibility chain."""
    rng = random.Random(1060078)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = rand_matrix(rng, rows, cols)
        U, D, V = snf(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert det(U) in (1, -1)
        assert det(V) in (1, -1)
        diag = [D[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(((1, 2),), ((1, 2),))
    with pytest.raises(ValueError, match="non-square"):
        det(((1, 2),))


def test_snf_matches_sympy():
    rng = random.Random(77)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = rand_matrix(rng, rows, cols, -6, 6)
        sm = smith_normal_form(sympy.Matrix([list(r) for r in M]))
        oracle = tuple(
            sorted(abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i] != 0)
        )
        assert tuple(sorted(snf_diagonal(M))) == oracle


def sympy_invariants(M):
    """(rank, product of the nonzero invariant factors) of M, by sympy."""
    if not M or not M[0]:
        return 0, 1
    sm = smith_normal_form(sympy.Matrix([list(r) for r in M]))
    diag = [abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i] != 0]
    return len(diag), prod(diag)


def with_column(M, v):
    return tuple(row + (x,) for row, x in zip(M, v))


def test_lattice_questions_match_sympy():
    """v is in the lattice of M iff appending it keeps M's rank and the
    product of its invariant factors; lattice_basis is a basis of it."""
    rng = random.Random(25)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        M = rand_matrix(rng, rows, cols, -6, 6)
        if rng.random() < 0.3:
            v = mat_vec(M, [rng.randint(-4, 4) for _ in range(cols)])
        else:
            v = tuple(rng.randint(-6, 6) for _ in range(rows))
        inv = sympy_invariants(M)
        sol = in_lattice(M, v)
        assert (sol is None) == (sympy_invariants(with_column(M, v)) != inv)
        if sol is not None:
            assert mat_vec(M, sol) == v
        B = lattice_basis(M)
        assert sympy_invariants(B) == inv and dims(B)[1] == inv[0]
        for j in range(inv[0]):
            assert sympy_invariants(with_column(M, [row[j] for row in B])) == inv


def test_in_lattice_roundtrip():
    rng = random.Random(9)
    for _ in range(150):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        M = rand_matrix(rng, rows, cols, -5, 5)
        coeffs = tuple(rng.randint(-4, 4) for _ in range(cols))
        v = tuple(sum(M[i][j] * coeffs[j] for j in range(cols)) for i in range(rows))
        sol = in_lattice(M, v)
        assert sol is not None
        assert tuple(sum(M[i][j] * sol[j] for j in range(cols)) for i in range(rows)) == v
    assert in_lattice(((2, 0), (0, 2)), (1, 0)) is None
    assert in_lattice(((2,), (4,)), (3, 6)) is None
    with pytest.raises(ValueError, match="vector length"):
        in_lattice(((2,), (4,)), (2,))


def test_lattice_basis_and_rank():
    B = lattice_basis(((2, 4), (0, 0)))
    assert dims(B)[1] == 1
    assert in_lattice(B, (2, 0)) is not None
    assert dims(lattice_basis(identity(3)))[1] == 3
    assert dims(lattice_basis(((0, 0), (0, 0))))[1] == 0


def test_kernel_columns_annihilate():
    rng = random.Random(13)
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        M = rand_matrix(rng, rows, cols, -4, 4)
        K = kernel(M)
        kr, kc = len(K), (len(K[0]) if K else 0)
        assert kr == cols
        for j in range(kc):
            v = tuple(K[i][j] for i in range(cols))
            assert mat_vec(M, v) == (0,) * rows
    assert kernel(((1, 1),)) and mat_vec(((1, 1),), (1, -1)) == (0,)


def test_abelian_quotient_frozen():
    assert abelian_quotient(identity(2), ((2, 0), (0, 12))).describe() == "Z/2 + Z/12"
    assert abelian_quotient(identity(2), ((2, 2), (0, 4))).describe() == "Z/2 + Z/4"
    assert abelian_quotient(identity(2), ((1, 0), (0, 1))) == FinAbelianGroup(0)
    G = abelian_quotient(identity(3), ((2, 0), (0, 2), (0, 0)))
    assert G.free_rank == 1 and G.invariant_factors == (2, 2)
    with pytest.raises(SubLatticeNotContained):
        abelian_quotient(((2, 0), (0, 2)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        abelian_quotient(identity(2), ((1, 0, 0),))


def test_fin_abelian_group_contract():
    G = FinAbelianGroup(free_rank=1, invariant_factors=(2, 6))
    assert G.describe() == "Z + Z/2 + Z/6"
    assert G.torsion_order() == 12
    assert FinAbelianGroup(0).describe() == "0"
    with pytest.raises(ValueError):
        FinAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FinAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError, match="free_rank must be nonnegative"):
        FinAbelianGroup(-1)


def test_transpose_involution():
    rng = random.Random(3)
    M = rand_matrix(rng, 3, 2)
    assert transpose(transpose(M)) == M
