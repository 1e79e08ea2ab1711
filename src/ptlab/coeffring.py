"""Coefficient arithmetic: the primality check of every prime ptlab reads,
and the Teichmuller digits of Z/p^2.

teichmuller_lift and digit_correction give the second base-p digit of an
integer its W2(F_p) meaning, which the regularity toolkit reads as the
coefficient of dp.  The W2(F_p) ring itself, with the isomorphism to Z/p^2
that these digits realise, is the tests' reference (tests/algebra_oracle.py).
"""

from __future__ import annotations

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
