"""The regularity toolkit: the truncated differential module of the base ring
A = C(k)[[x_1..x_d]], regular systems of parameters of A, and regularity of
Kummer covers of A at the points over its maximal ideal m.

An element of A is a coefficient map {exponent in N^d: coefficient}
(BaseRing.element).  The toolkit reads only its constant, mod p^2, and its
linear coefficients, mod p: the differential module has dimension d+1 in the
unramified mixed case (the class of p joins the coordinate classes), d in
equal characteristic.
"""

from __future__ import annotations

from .coeffring import digit_correction, require_prime
from .monoid import InputError, MonoidElem
from .record import record


class UnsupportedBase(InputError):
    pass


@record
class BaseRing:
    """A = C(F_p)[[x_1..x_d]] (mixed) or F_p[[x_1..x_d]] (equal characteristic)."""

    p: int
    d: int
    mixed: bool = True

    def __post_init__(self):
        require_prime(self.p, UnsupportedBase)
        if self.d < 0:
            raise UnsupportedBase("negative variable count")

    def element(self, terms: list[tuple[MonoidElem, int]]) -> dict[tuple[int, ...], int]:
        """(MonoidElem, coefficient) pairs as the coefficient map of one
        element, the coefficients of one exponent summed; UnsupportedBase
        for an exponent not in N^d.  A MonoidElem holds its level canonical,
        so the exponent [2] at level 1 is x_1 at p = 2 and [1] at level 1 is
        refused."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in terms:
            if e.level or len(e.coords) != self.d or min(e.coords, default=0) < 0:
                raise UnsupportedBase(f"exponent {e} is not in the ring monoid")
            out[e.coords] = out.get(e.coords, 0) + c
        return out


def omega_basis(A: BaseRing) -> tuple[str, ...]:
    """The names of the basis of the truncated differential module, one per
    dimension: dp and the dx_i in the mixed case, the dx_i alone in equal
    characteristic."""
    dx = tuple(f"dx{i + 1}" for i in range(A.d))
    return ("dp", *dx) if A.mixed else dx


def d_class(A: BaseRing, x: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """Class of the element x in the truncated differential module, over F_p.

    Mixed case: (second base-p digit of the constant corrected by the
    Teichmuller defect of the first, then the linear coefficients mod p).
    The correction makes the p-coordinate the honest coefficient of dp: a
    Teichmuller unit constant has zero class.
    """
    lin = tuple(x.get(tuple(int(k == i) for k in range(A.d)), 0) % A.p for i in range(A.d))
    if not A.mixed:
        return lin
    c = x.get((0,) * A.d, 0) % A.p ** 2
    a0 = c % A.p
    a1 = (c - a0) // A.p % A.p
    corrected = (a1 - digit_correction(a0, A.p)) % A.p
    return (corrected, *lin)


def _fp_rank(rows: list[tuple[int, ...]], p: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p != 0:
                f = mat[r][c]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _is_unit(A: BaseRing, x: dict[tuple[int, ...], int]) -> bool:
    """The element x is a unit: its constant is prime to p."""
    return x.get((0,) * A.d, 0) % A.p != 0


def is_maximal_sequence(A: BaseRing, elems) -> bool:
    """True iff elems (elements, as in d_class) is a regular system of
    parameters: no unit among them (a unit generates the unit ideal, not
    m; Matsumura, "Commutative Ring Theory", Thm 14.2) and their
    differential classes form a basis."""
    if any(_is_unit(A, x) for x in elems):
        return False
    dim = len(omega_basis(A))
    classes = [d_class(A, x) for x in elems]
    if len(classes) != dim:
        return False
    return _fp_rank(classes, A.p) == dim


def kummer_regularity(A: BaseRing, f_list, e_list) -> bool:
    """Regularity of A[T_1..T_n]/(T_i^{e_i} - f_i) at the points over m, the
    f_i elements as in d_class.

    Each exponent must exceed 1 for the extension to be a genuine cover.  At
    a point n over m the ring is regular iff the classes of the T_i^{e_i} -
    f_i in n/n^2 are independent.  A non-unit f_i sits at T_i = 0, where
    T_i^{e_i} is in n^2, so it keeps the class of f_i.  A unit f_i with p
    not dividing e_i gives an etale factor (T^e - f is separable mod m, its
    derivative e T^(e-1) a unit where T^e = f): its class has a dT_i part
    no other class has, so it drops out.  A unit f_i with p | e_i keeps the
    class of f_i - [b], [b] the Teichmuller lift of its residue b: at a
    point T_i = [s] + t with s^e = b (s in an extension k of F_p), every
    binomial term e [s]^(e-1) t, ... of ([s] + t)^e lies in p n or n^2, and
    [s]^e = [s^e] = [b], since Teichmuller lifts are multiplicative.  That
    class is the corrected digit in mixed characteristic and the linear
    terms in equal characteristic, the d_class of f_i, and extending the
    scalars to k does not change linear independence.
    """
    if len(f_list) != len(e_list):
        raise UnsupportedBase("one exponent per element")
    for e in e_list:
        if e <= 1:
            raise UnsupportedBase("exponents must exceed 1")
    classes = []
    for x, e in zip(f_list, e_list):
        if _is_unit(A, x) and e % A.p:
            continue  # etale
        classes.append(d_class(A, x))
    if not classes:
        return True
    return _fp_rank(classes, A.p) == len(classes)
