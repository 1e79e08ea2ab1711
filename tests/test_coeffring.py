"""Length-two Witt coefficients against the Z/p^2 oracle."""

import itertools

import pytest
import sympy

from ptlab.coeffring import digit_correction, is_prime, teichmuller_lift

from algebra_oracle import PrimeFieldElem, PrimeMismatch, w2, w2_add, w2_from_int, w2_mul, w2_neg

PRIMES = (2, 3, 5)


def to_zp2(x):
    """The standard isomorphism W2(F_p) -> Z/p^2, (a,b) -> teich(a) + p*b."""
    p = x.p
    return (teichmuller_lift(x.a.value, p) + p * x.b.value) % (p * p)


def all_elems(p):
    return [w2(p, a, b) for a in range(p) for b in range(p)]


@pytest.mark.parametrize("p", PRIMES)
def test_w2_is_the_ring_zp2(p):
    """to_zp2 is a bijective ring map, checked exhaustively."""
    elems = all_elems(p)
    assert len({to_zp2(x) for x in elems}) == p * p
    for x, y in itertools.product(elems, repeat=2):
        assert to_zp2(w2_add(x, y)) == (to_zp2(x) + to_zp2(y)) % (p * p)
        assert to_zp2(w2_mul(x, y)) == (to_zp2(x) * to_zp2(y)) % (p * p)
    for n in range(p * p):
        assert to_zp2(w2_from_int(p, n)) == n % (p * p)


@pytest.mark.parametrize("p", PRIMES)
def test_w2_ring_axioms_exhaustive(p):
    elems = all_elems(p)
    zero = w2(p, 0, 0)
    one = w2(p, 1, 0)
    for x in elems:
        assert w2_add(x, zero) == x
        assert w2_mul(x, one) == x
        assert w2_add(x, w2_neg(x)) == zero
    for x, y in itertools.product(elems, repeat=2):
        assert w2_add(x, y) == w2_add(y, x)
        assert w2_mul(x, y) == w2_mul(y, x)
    triples = itertools.product(elems, repeat=3)
    for x, y, z in triples:
        assert w2_add(w2_add(x, y), z) == w2_add(x, w2_add(y, z))
        assert w2_mul(w2_mul(x, y), z) == w2_mul(x, w2_mul(y, z))
        assert w2_mul(x, w2_add(y, z)) == w2_add(w2_mul(x, y), w2_mul(x, z))


@pytest.mark.parametrize("p", PRIMES)
def test_v1_squares_to_zero(p):
    """V1 = 0 x k is a square-zero ideal."""
    for b, d in itertools.product(range(p), repeat=2):
        x, y = w2(p, 0, b), w2(p, 0, d)
        assert w2_mul(x, y) == w2(p, 0, 0)


def test_w2_frozen_additions():
    assert w2_add(w2(2, 1, 0), w2(2, 1, 0)) == w2(2, 0, 1)       # 1+1 = 2 in Z/4
    assert w2_add(w2(3, 1, 0), w2(3, 2, 0)) == w2(3, 0, 0)       # teich(1)+teich(2) = 9 = 0
    assert w2_neg(w2(2, 1, 0)) == w2(2, 1, 1)                    # -1 = 3 = teich(1)+2
    assert w2_from_int(2, 3) == w2(2, 1, 1)
    assert w2_from_int(5, 7) == w2(5, 2, 0)                      # teich(2) = 7 mod 25


def test_teichmuller_fixed_points():
    for p in PRIMES:
        for a in range(p):
            t = teichmuller_lift(a, p)
            assert t % p == a
            assert pow(t, p, p * p) == t
    assert teichmuller_lift(2, 3) == 8
    assert teichmuller_lift(2, 5) == 7
    assert teichmuller_lift(1, 7) == 1


def test_digit_correction_values():
    assert all(digit_correction(a, 2) == 0 for a in range(2))
    assert [digit_correction(a, 3) for a in range(3)] == [0, 0, 2]
    assert digit_correction(0, 5) == 0 and digit_correction(1, 5) == 0
    # eta(2) at p=5: teich(2) = 7, (7-2)/5 = 1
    assert digit_correction(2, 5) == 1


def test_composite_p_is_refused():
    # teichmuller_lift(2, 14) would never return: x -> x^14 mod 196 cycles from 2
    for make in (lambda: PrimeFieldElem(4, 1), lambda: w2_from_int(4, 1),
                 lambda: teichmuller_lift(2, 4), lambda: teichmuller_lift(2, 14)):
        with pytest.raises(ValueError, match="^p must be a prime$"):
            make()


def test_prime_mismatch_raises():
    with pytest.raises(PrimeMismatch):
        w2_add(w2(2, 1, 0), w2(3, 1, 0))
    with pytest.raises(PrimeMismatch):
        w2_mul(w2(2, 1, 0), w2(5, 1, 0))


def test_is_prime_matches_sympy():
    # 3215031751 and 3825123056546413051 are strong pseudoprimes to small bases
    big = [10201, 101 * 103, 2**31 - 1, 2**61 - 1, 3215031751, 3825123056546413051,
           (2**61 - 1) * (2**19 - 1)]
    for n in list(range(-3, 3000)) + big:
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError):
        is_prime(10**25)
