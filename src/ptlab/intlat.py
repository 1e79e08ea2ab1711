"""Exact integer matrix normal forms and lattice quotients.

Everything here runs on plain Python ints, so there is no overflow story;
matrices are tuples of row tuples and every function is pure.  The matrices
that show up downstream (generator matrices of monoids and their groupifications)
are desk scale, at most a few dozen rows, so the classical elementary-operation
algorithms with smallest-pivot selection are entirely adequate.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .record import record


class SubLatticeNotContained(ValueError):
    """The alleged sublattice has a generator outside the ambient lattice."""


@record
class FinAbelianGroup:
    """A finitely generated abelian group Z^free_rank + Z/d1 + ... + Z/dk.

    The invariant factors satisfy d1 | d2 | ... | dk with every di >= 2, so the
    representation is unique.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        facs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def torsion_order(self) -> int:
        return prod(self.invariant_factors)

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def intmatrix(rows) -> tuple[tuple[int, ...], ...]:
    """Normalize an iterable of rows into the canonical immutable form."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return out


def dims(M) -> tuple[int, int]:
    r = len(M)
    return r, (len(M[0]) if r else 0)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B):
    ra, ca = dims(A)
    rb, cb = dims(B)
    if ca != rb:
        raise ValueError("shape mismatch")
    Bc = [tuple(row[j] for row in B) for j in range(cb)]
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in Bc) for row in A)


def mat_vec(A, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in A)


def transpose(M):
    r, c = dims(M)
    return tuple(tuple(M[i][j] for i in range(r)) for j in range(c))


def det(M) -> int:
    """Determinant via fraction-free Gaussian elimination (Bareiss)."""
    n, c = dims(M)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _smallest_pivot(a, s, rows, cols):
    """Position of the nonzero entry of least absolute value in the s-block."""
    best = None
    val = None
    for i in range(s, rows):
        for j in range(s, cols):
            if a[i][j] != 0 and (val is None or abs(a[i][j]) < val):
                best, val = (i, j), abs(a[i][j])
    return best


def snf(M):
    """Smith normal form: returns (U, D, V) with U*M*V = D.

    U and V are unimodular; D is diagonal, nonnegative, and its diagonal
    entries form a divisibility chain d1 | d2 | ...  Smallest-pivot selection
    keeps the intermediate entries tame at the sizes we care about.  The
    result is kept per matrix, since every lattice question on a matrix
    reads its Smith form.
    """
    return _snf(intmatrix(M))


@lru_cache(maxsize=None)
def _snf(M):
    rows, cols = dims(M)
    a = [list(row) for row in M]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    def row_op(i, q, s):
        # row_i -= q * row_s, tracked in u
        a[i] = [x - q * y for x, y in zip(a[i], a[s])]
        u[i] = [x - q * y for x, y in zip(u[i], u[s])]

    def col_op(j, q, s):
        for r in range(rows):
            a[r][j] -= q * a[r][s]
        for r in range(cols):
            v[r][j] -= q * v[r][s]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for s in range(min(rows, cols)):
        while True:
            pos = _smallest_pivot(a, s, rows, cols)
            if pos is None:
                break
            if pos != (s, s):
                if pos[0] != s:
                    swap_rows(s, pos[0])
                if pos[1] != s:
                    swap_cols(s, pos[1])
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    q = a[i][s] // a[s][s]
                    row_op(i, q, s)
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    q = a[s][j] // a[s][s]
                    col_op(j, q, s)
                    dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            # pivot must divide the whole remaining block for the chain
            stray = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s] != 0:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_op(s, -1, stray)
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]

    U, D, V = intmatrix(u), intmatrix(a), intmatrix(v)
    assert mat_mul(mat_mul(U, M), V) == D
    return U, D, V


def in_lattice(gens, v):
    """Integer coefficients expressing v in the columns of gens, or None.

    With U*gens*V = D the Smith form and w = U*v, v lies in the lattice
    exactly when w_i = 0 past the rank and D_ii divides w_i before it; the
    coefficients are then V*(w_i / D_ii).
    """
    U, D, V = snf(gens)
    rows, cols = dims(D)
    v = tuple(int(x) for x in v)
    if len(v) != rows:
        raise ValueError("vector length does not match matrix rows")
    t = [0] * cols
    for i, x in enumerate(mat_vec(U, v)):
        d = D[i][i] if i < cols else 0
        if (x % d if d else x) != 0:
            return None
        if d:
            t[i] = x // d
    return mat_vec(V, t)


def lattice_basis(gens):
    """The columns gens*V_j with D_jj != 0 of the Smith form U*gens*V = D:
    a basis of the column lattice."""
    _, D, V = snf(gens)
    GV = mat_mul(intmatrix(gens), V)
    keep = [j for j in range(min(dims(D))) if D[j][j]]
    return tuple(tuple(row[j] for j in keep) for row in GV)


def abelian_quotient(gens, sub_gens) -> FinAbelianGroup:
    """Structure of (column lattice of gens) / (column lattice of sub_gens).

    The columns of sub_gens, written in the basis lattice_basis(gens) of the
    ambient lattice, are the columns of X, and the group is read off the
    diagonal of X's Smith form.  Raises SubLatticeNotContained when some
    column of sub_gens falls outside the ambient lattice.
    """
    gens = intmatrix(gens)
    sub = intmatrix(sub_gens)
    rows, _ = dims(gens)
    srows, scols = dims(sub)
    if srows != rows:
        raise ValueError("ambient dimensions differ")
    basis = lattice_basis(gens)
    _, rank = dims(basis)
    coords = []
    for j in range(scols):
        col = tuple(sub[i][j] for i in range(rows))
        c = in_lattice(basis, col)
        if c is None:
            raise SubLatticeNotContained(f"column {j} of sub_gens is outside the lattice")
        coords.append(c)
    if not coords:
        return FinAbelianGroup(free_rank=rank)
    _, D, _ = snf(transpose(intmatrix(coords)))
    d = [D[i][i] for i in range(min(dims(D))) if D[i][i]]
    return FinAbelianGroup(
        free_rank=rank - len(d),
        invariant_factors=tuple(x for x in d if x > 1),
    )
