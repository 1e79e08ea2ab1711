"""The regularity toolkit: base rings, the differential module, regular
systems of parameters and Kummer regularity, on elements given as literal
coefficient maps {exponent in N^d: coefficient}."""

import itertools
import random

import pytest

from ptlab.regularity import (
    BaseRing,
    UnsupportedBase,
    d_class,
    is_maximal_sequence,
    kummer_regularity,
    omega_basis,
)


def test_base_ring_guards():
    with pytest.raises(UnsupportedBase):
        BaseRing(4, 2)
    with pytest.raises(UnsupportedBase):
        BaseRing(2, -1)


def test_base_ring_prime_check_is_the_shared_one():
    # the messages of every other prime check, and UnsupportedBase, not a
    # bare ValueError, beyond the range primality is decided in
    with pytest.raises(UnsupportedBase, match="^p must be a prime$"):
        BaseRing(4, 1)
    with pytest.raises(UnsupportedBase, match="^primality is only decided below 3.3e24$"):
        BaseRing(10**25 + 13, 1)


def test_omega_dimensions():
    assert omega_basis(BaseRing(3, 2, mixed=True)) == ("dp", "dx1", "dx2")
    assert omega_basis(BaseRing(3, 2, mixed=False)) == ("dx1", "dx2")


def test_d_class_values():
    A = BaseRing(2, 2, mixed=True)
    assert d_class(A, {(0, 0): 2}) == (1, 0, 0)
    assert d_class(A, {(1, 0): 1}) == (0, 1, 0)
    B = BaseRing(3, 1, mixed=True)
    assert d_class(B, {(0,): 3}) == (1, 0)
    assert d_class(B, {(0,): 4}) == (1, 0)
    # 8 is the Teichmuller lift of 2 mod 9, so its class vanishes
    assert d_class(B, {(0,): 8}) == (0, 0)


def test_maximal_sequences():
    A = BaseRing(2, 2, mixed=True)
    x1, x2, two = {(1, 0): 1}, {(0, 1): 1}, {(0, 0): 2}
    assert is_maximal_sequence(A, [two, x1, x2])
    assert not is_maximal_sequence(A, [x1, x2])             # too short
    assert not is_maximal_sequence(A, [two, x1, x1])        # dependent
    E = BaseRing(2, 2, mixed=False)
    assert is_maximal_sequence(E, [x1, x2])


def test_maximal_sequence_with_a_unit():
    """A unit generates the unit ideal, so it is never part of a regular
    system of parameters (Matsumura, Thm 14.2), whatever its differential
    class.  Z_3[[x1]]: 4 = 1 + 1*3 has the class (1, 0) and x1 the class
    (0, 1), independent, yet (4, x1) = (1); (3, x1) is m.  F_2[[x1]]:
    1 + x1 has the class (1) of x1, yet it is a unit."""
    A = BaseRing(3, 1, mixed=True)
    x1 = {(1,): 1}
    assert d_class(A, {(0,): 4}) == (1, 0) and d_class(A, x1) == (0, 1)
    assert not is_maximal_sequence(A, [{(0,): 4}, x1])
    assert is_maximal_sequence(A, [{(0,): 3}, x1])
    E = BaseRing(2, 1, mixed=False)
    one_plus_x1 = {(0,): 1, (1,): 1}
    assert d_class(E, one_plus_x1) == (1,)
    assert not is_maximal_sequence(E, [one_plus_x1])
    assert is_maximal_sequence(E, [x1])


def test_kummer_regularity_cases():
    A = BaseRing(2, 2, mixed=True)
    x1, x2 = {(1, 0): 1}, {(0, 1): 1}
    x1px1x2 = {(1, 0): 1, (1, 1): 1}
    B = BaseRing(3, 1, mixed=True)
    y = {(1,): 1}
    E = BaseRing(2, 2, mixed=False)
    z12 = {(1, 1): 1}

    assert kummer_regularity(A, [x1, x2], [2, 2])
    assert not kummer_regularity(A, [x1, x1px1x2], [2, 2])  # same class twice
    two = {(0, 0): 2}
    four, eight = {(0,): 4}, {(0,): 8}
    assert kummer_regularity(A, [two, x1], [2, 2])
    assert kummer_regularity(B, [four, y], [3, 3])
    assert kummer_regularity(B, [eight], [2])      # a unit, 3 does not divide 2: etale
    assert not kummer_regularity(B, [eight], [3])  # Teichmuller unit, e = p
    assert not kummer_regularity(E, [z12], [2])             # d(x1 x2) = 0 at the origin


def test_kummer_with_a_unit():
    """Regularity at the points over m.  Z_3[[x1]]: T^2 - 1 and T^2 - 4 are
    separable mod m (2 is prime to 3), so both are etale and regular; beside
    x1 a unit with p not dividing e drops out.  With e = p a unit keeps the
    class of f - [b]^p: 4 - [1]^3 = 3 has the class of p, 8 = [2] has none.
    F_2[[x1]]: 1 + x1 with e = 2 has the class of x1, 1 has none, and with
    e = 3 it is etale.  A unit with p | e and e != p keeps the class of
    f - [b] as well: 1 - [1] = 0 (e = 9) has none, 4 - [1] = 3 (e = 6) that
    of p, and 1 + x1 - 1 (e = 4 over F_2) that of x1."""
    A = BaseRing(3, 1, mixed=True)
    x1 = {(1,): 1}
    one, three, four, eight = ({(0,): c} for c in (1, 3, 4, 8))
    assert kummer_regularity(A, [one], [2]) and kummer_regularity(A, [four], [2])
    assert kummer_regularity(A, [four, x1], [2, 2]) and kummer_regularity(A, [x1, eight], [2, 5])
    assert kummer_regularity(A, [four], [3]) and not kummer_regularity(A, [eight], [3])
    assert not kummer_regularity(A, [four, three], [3, 2])  # both the class of p
    E = BaseRing(2, 1, mixed=False)
    one_plus_x1 = {(0,): 1, (1,): 1}
    assert kummer_regularity(E, [one_plus_x1], [2]) and kummer_regularity(E, [one_plus_x1], [3])
    assert not kummer_regularity(E, [{(0,): 1}], [2])
    assert not kummer_regularity(A, [one], [9])
    assert kummer_regularity(A, [four], [6]) and kummer_regularity(E, [one_plus_x1], [4])


def kummer_oracle(A: BaseRing, f_list, e_list) -> bool | None:
    """Regularity of A[T_1..T_n]/(T_i^{e_i} - f_i) at the points T_i = s_i
    over m with every s_i in F_p, by expanding g_i = (s_i + t_i)^{e_i} - f_i
    mod (p^2, n^2), n = (m, t_1, ..., t_n); None when some f_i has no such
    root.  Mod n^2, (s + t)^e is s^e + e s^(e-1) t over Z/p^2, with only the
    constant kept past p (p t is in n^2), and f_i is its constant mod p^2
    and its linear terms mod p.  The classes of the g_i in n/n^2, on the
    basis (p if mixed, x_1..x_d, t_1..t_n), must be independent over F_p at
    every point, and the verdict may not depend on the point."""
    p, n = A.p, len(f_list)
    zero = (0,) * A.d
    lin = [tuple(int(i == k) for i in range(A.d)) for k in range(A.d)]
    roots = [[s for s in range(p) if (s ** e - x.get(zero, 0)) % p == 0]
             for x, e in zip(f_list, e_list)]
    if not all(roots):
        return None
    verdicts = set()
    for point in itertools.product(*roots):
        rows = []
        for i, (x, e, s) in enumerate(zip(f_list, e_list, point)):
            const = (s ** e - x.get(zero, 0)) % p ** 2
            head = [const // p] if A.mixed else []
            t = [e * s ** (e - 1) if k == i else 0 for k in range(n)]
            rows.append(tuple(v % p for v in head + [-x.get(c, 0) for c in lin] + t))
        # independent iff no nonzero F_p-combination of the rows vanishes
        verdicts.add(not any(all(sum(c * r[k] for c, r in zip(cs, rows)) % p == 0
                                 for k in range(len(rows[0])))
                             for cs in itertools.product(range(p), repeat=n) if any(cs)))
    assert len(verdicts) == 1, (f_list, e_list)
    return verdicts.pop()


def test_kummer_matches_the_expansion_oracle():
    """Every f = c + a x1 (c mod p^2 in mixed, mod p in equal
    characteristic) over Z_p[[x1]] and F_p[[x1]], p = 2, 3, alone with e = 2
    to 9 and in random pairs, wherever the units have their roots in F_p."""
    rng = random.Random(26)
    checked = 0
    for p, mixed in itertools.product((2, 3), (True, False)):
        A = BaseRing(p, 1, mixed=mixed)
        fs = [{(0,): c, (1,): a} for c in range(p ** 2 if mixed else p) for a in range(p)]
        cases = [([f], [e]) for f in fs for e in range(2, 10)]
        cases += [(rng.sample(fs, 2), [rng.randint(2, 9), rng.randint(2, 9)]) for _ in range(200)]
        for f_list, e_list in cases:
            want = kummer_oracle(A, f_list, e_list)
            if want is not None:
                assert kummer_regularity(A, f_list, e_list) == want, (p, mixed, f_list, e_list)
                checked += 1
    assert checked > 1000


def test_kummer_guards():
    A = BaseRing(2, 1, mixed=True)
    one = {(0,): 1}
    with pytest.raises(UnsupportedBase):
        kummer_regularity(A, [one], [1])
    with pytest.raises(UnsupportedBase):
        kummer_regularity(A, [one], [2, 2])
    assert kummer_regularity(A, [], [])
