"""Coefficient arithmetic: the primality check of every prime ptlab reads,
F_p, and W2(k).

The length-2 Witt vectors implement the explicit componentwise formulas for a
perfect field of characteristic p: addition needs one exact division by p over
the integers, which is why the middle term is computed in Z before reduction.
Only k = F_p is supported here; general finite fields are an extension point,
not needed by any preset.
"""

from __future__ import annotations

from .record import record


class PrimeMismatch(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin over fixed bases, exact for n below 3.3e24.

    Larger n raise ValueError rather than get a probabilistic answer.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError("primality is only decided below 3.3e24")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int, error: type[ValueError]) -> None:
    """The check of every prime ptlab reads: raises error("p must be a prime")
    unless p is a prime, and error with is_prime's range message beyond it."""
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise error(str(exc)) from None
    if not prime:
        raise error("p must be a prime")


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


def teichmuller_lift(a: int, p: int) -> int:
    """The Teichmuller representative of a mod p^2 (fixed point of x -> x^p)."""
    require_prime(p, ValueError)  # for composite p the iteration can cycle forever
    a %= p
    t = a
    while True:
        t2 = pow(t, p, p * p)
        if t2 == t:
            return t
        t = t2


def digit_correction(a: int, p: int) -> int:
    """eta(a) = (teich(a) - a)/p mod p: the carry between naive and Witt digits.

    Zero for p = 2 and for a in {0, 1} at every prime; this is the exact gap
    between "second base-p digit" and the W2 coordinate of an integer.
    """
    a %= p
    return ((teichmuller_lift(a, p) - a) // p) % p
