"""Algebra that no ptlab command runs, kept as the tests' reference.

- W2(F_p), the length-2 Witt vectors over F_p, with the explicit
  componentwise formulas: addition needs one exact division by p over the
  integers, which is why the carry is computed in Z before reduction.  The
  tests pin W2(F_p) = Z/p^2 against ptlab.coeffring.teichmuller_lift.
- Exactness of a submonoid inclusion and the grading of Z[Q] by
  G = Q^gp / (Qp)^gp that an exact inclusion carries, on the cones and
  Smith forms of ptlab.monoid and ptlab.intlat.
- The integer kernel of a matrix, read off its Smith form.
- Membership in the rational cone of a monoid's generators.
"""

from ptlab import intlat
from ptlab.coeffring import require_prime, teichmuller_lift
from ptlab.intlat import FinAbelianGroup, mat_vec
from ptlab.monoid import (
    AffineMonoid,
    MonoidElem,
    NotSaturated,
    _ineq_cone_rays,
    _rescaled_basis,
    contains,
    facet_normals,
    is_saturated,
)
from ptlab.record import record

# ---------------------------------------------------------------------------
# W2(F_p)


class PrimeMismatch(ValueError):
    pass


@record
class PrimeFieldElem:
    p: int
    value: int

    def __post_init__(self):
        require_prime(self.p, ValueError)
        object.__setattr__(self, "value", self.value % self.p)


@record
class Witt2Elem:
    """(a, b) in W2(k) = k x k with the p-typical ring structure."""

    a: PrimeFieldElem
    b: PrimeFieldElem

    def __post_init__(self):
        if self.a.p != self.b.p:
            raise PrimeMismatch("components over different primes")

    @property
    def p(self) -> int:
        return self.a.p


def w2(p: int, a: int, b: int) -> Witt2Elem:
    return Witt2Elem(PrimeFieldElem(p, a), PrimeFieldElem(p, b))


def w2_add(x: Witt2Elem, y: Witt2Elem) -> Witt2Elem:
    """(a,b) + (c,d) = (a+c, b+d+(a^p+c^p-(a+c)^p)/p).

    The carry term is evaluated over Z, where the division by p is exact, and
    reduced only afterwards.
    """
    if x.p != y.p:
        raise PrimeMismatch(f"{x.p} != {y.p}")
    p = x.p
    a, c = x.a.value, y.a.value
    carry = (a ** p + c ** p - (a + c) ** p) // p
    return w2(p, a + c, x.b.value + y.b.value + carry)


def w2_mul(x: Witt2Elem, y: Witt2Elem) -> Witt2Elem:
    """(a,b) * (c,d) = (ac, a^p d + c^p b)."""
    if x.p != y.p:
        raise PrimeMismatch(f"{x.p} != {y.p}")
    p = x.p
    a, c = x.a.value, y.a.value
    return w2(p, a * c, a ** p * y.b.value + c ** p * x.b.value)


def w2_neg(x: Witt2Elem) -> Witt2Elem:
    return w2_mul(w2_from_int(x.p, -1), x)


def w2_from_int(p: int, n: int) -> Witt2Elem:
    """The image of an integer under Z -> W2(F_p) (matches Z/p^2 digitwise).

    Inverse direction of the standard isomorphism W2(F_p) = Z/p^2 given by
    (a, b) -> teich(a) + p*b.
    """
    n %= p * p
    a = n % p
    b = (n - teichmuller_lift(a, p)) // p
    return w2(p, a, b)


# ---------------------------------------------------------------------------
# integer kernels


def kernel(M):
    """Columns spanning the integer null space of M."""
    M = intlat.intmatrix(M)
    rows, cols = intlat.dims(M)
    _, D, V = intlat.snf(M)
    rank = sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
    return tuple(tuple(V[i][j] for j in range(rank, cols)) for i in range(cols))


# ---------------------------------------------------------------------------
# rational cones


def cone_contains(Q: AffineMonoid, coords) -> bool:
    """Membership in the rational cone of Q's generators (scale-free)."""
    lin, rays = _ineq_cone_rays(Q.generators, Q.ambient_rank)
    return all(_dot(l, coords) == 0 for l in lin) and all(_dot(r, coords) >= 0 for r in rays)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# exact inclusions and their graded decomposition


class NotSubmonoid(ValueError):
    pass


class NotExact(ValueError):
    pass


def is_exact_submonoid(Qp: AffineMonoid, Q: AffineMonoid) -> bool:
    """Exactness of Qp inside a saturated Q: (Qp)^gp cap Q = Qp.

    Then (Qp)^gp cap Q = (Qp)^gp cap cone(Q) is saturated, so a non-saturated
    Qp is never exact; for a saturated Qp, exactness says that cone(Q) cap
    span(Qp^gp) lies in cone(Qp), which double description settles.  Raises
    NotSubmonoid for a generator of Qp outside Q, NotSaturated unless Q is
    saturated.
    """
    if Qp.ambient_rank != Q.ambient_rank or Qp.scale_base != Q.scale_base:
        raise NotSubmonoid("ambient contexts differ")
    for g in Qp.generators:
        e = MonoidElem(g, Qp.level, Qp.scale_base)
        if not contains(Q, e):
            raise NotSubmonoid(f"generator {e} of the submonoid is outside the monoid")
    if not is_saturated(Q):
        raise NotSaturated("exactness needs a saturated ambient monoid")
    if not is_saturated(Qp):
        return False
    n = Q.ambient_rank
    level = max(Q.level, Qp.level)
    # cone(Q) cap span(Qp^gp): constraints are Q's facet inequalities plus
    # both signs of a basis of the annihilator of span(Qp^gp)
    perp = intlat.transpose(kernel(intlat.transpose(_rescaled_basis(Qp, level))))
    constraints = list(facet_normals(Q))
    for row in perp:
        constraints.append(tuple(row))
        constraints.append(tuple(-x for x in row))
    lin, rays = _ineq_cone_rays(tuple(constraints), n)
    for r in list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin]:
        if not cone_contains(Qp, r):
            return False
    return True


@record
class GradedDecomposition:
    """Grading of Z[Q] by G = Q^gp/(Qp)^gp; degree zero is is_zero_class.

    basis is a basis of Q^gp at level; U and diag come from the Smith form
    U X V = D of the Qp^gp basis X in basis coordinates, diag D's diagonal.
    """

    class_group: FinAbelianGroup
    level: int
    basis: tuple
    U: tuple
    diag: tuple

    def class_of(self, x: MonoidElem):
        """Label of x in G; labels are reduced coordinate tuples, additively."""
        if x.level > self.level:
            raise ValueError("element is finer than the grading level")
        t = intlat.in_lattice(self.basis, x.at_level(self.level))
        if t is None:
            raise ValueError("element is outside the ambient groupification")
        u = mat_vec(self.U, t)
        out = []
        for i, val in enumerate(u):
            d = self.diag[i] if i < len(self.diag) else 0
            out.append(val % d if d else val)
        return tuple(out)

    def is_zero_class(self, x: MonoidElem) -> bool:
        return all(v == 0 for v in self.class_of(x))


def graded_decomposition(Qp: AffineMonoid, Q: AffineMonoid) -> GradedDecomposition:
    """Grading of Q by G = Q^gp/(Qp)^gp, with exactness as precondition."""
    if not is_exact_submonoid(Qp, Q):
        raise NotExact("submonoid is not exact in the ambient monoid")
    level = max(Q.level, Qp.level)
    sub = _rescaled_basis(Qp, level)
    basis = intlat.lattice_basis(_rescaled_basis(Q, level))
    coords = [intlat.in_lattice(basis, col) for col in intlat.transpose(sub)]
    U, D, _ = intlat.snf(intlat.transpose(coords))
    diag = tuple(D[i][i] for i in range(min(intlat.dims(D))))
    return GradedDecomposition(intlat.abelian_quotient(_rescaled_basis(Q, level), sub),
                               level, basis, U, diag)
