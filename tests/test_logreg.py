"""Presentations, tower construction, tilt prediction, regularity toolkit."""

import itertools
import random
from fractions import Fraction

import pytest

from ptlab import logreg
from ptlab.logreg import (
    BaseRing,
    InvalidPresentation,
    LogRegPresentation,
    UnsupportedBase,
    build_tower,
    d_class,
    is_maximal_sequence,
    kummer_regularity,
    omega_dim,
    predict_tilt,
    preset,
    verify_tilt,
)
from ptlab.monoid import AffineMonoid, MonoidElem, p_divide
from ptlab.record import replace
from ptlab.series import InvariantViolation, SeriesRingDesc

from fixtures import sab_b
from series_oracle import coefficients, generator, s_const, s_from_terms, s_monomial


def test_presets():
    U = preset("unramified_rlr", 2, d=3)
    assert U.r == 3 and U.Q.ambient_rank == 0
    assert U.f_terms == ((MonoidElem((1, 0, 0), 0, 2), 1),)
    Qd = preset("quadric", 3)
    assert Qd.r == 0 and len(Qd.Q.generators) == 4
    assert Qd.labels == ("x", "y", "z", "w")
    with pytest.raises(InvalidPresentation):
        preset("nosuch", 2)
    with pytest.raises(InvalidPresentation):
        preset("custom", 2)


def test_presentation_validation():
    N1 = AffineMonoid(1, 2, 0, ((1,),))
    full = AffineMonoid(1, 2, 0, ((1,), (-1,)))
    with pytest.raises(InvalidPresentation):
        LogRegPresentation(Q=full, r=0, p=2, f_terms=())
    with pytest.raises(InvalidPresentation):
        LogRegPresentation(Q=N1, r=0, p=3, f_terms=())   # scale base mismatch
    with pytest.raises(InvalidPresentation):
        LogRegPresentation(Q=N1, r=1, p=2,
                           f_terms=((MonoidElem((0, 0), 0, 2), 1),))


def test_presentation_roundtrip():
    for P in (preset("unramified_rlr", 2, d=2), preset("quadric", 3)):
        assert LogRegPresentation.from_descriptor(P.to_descriptor()) == P


def test_level_rings():
    P = preset("unramified_rlr", 2, d=2)
    R0 = P.ring(0, Fraction(4), 2)
    R1 = P.ring(1, Fraction(4), 2)
    assert R0.relation_f is not None and not R0.char_p
    assert R1.free_level == 1
    assert R1.exp_in_ring(MonoidElem((1, 0), 1, 2))
    assert not R0.exp_in_ring(MonoidElem((1, 0), 1, 2))


def test_build_tower_shape():
    P = preset("unramified_rlr", 2, d=2)
    T = build_tower(P, 2, Fraction(4), 2)
    assert T.depth == 2 and len(T.levels) == 3
    assert build_tower(P, 2, 4, 2) == T  # the ring, not build_tower, reads the cutoff
    # the base ideal (p) canonicalizes to the f monomial under p = f
    assert T.base_ideal == (MonoidElem((1, 0), 0, 2), 1)
    assert T.ideal_exp() == MonoidElem((1, 0), 0, 2)


def test_predict_tilt_is_equal_characteristic():
    P = preset("quadric", 2)
    W = predict_tilt(build_tower(P, 2, Fraction(4), 2))
    assert all(r.char_p for r in W.levels)
    assert W.ideal_exp() == MonoidElem((0, 1, 1, 0), 0, 2)
    assert W.base_ideal == (MonoidElem((0, 1, 1, 0), 0, 2), 1)


@pytest.mark.parametrize("name,p", [("unramified_rlr", 2), ("quadric", 3)])
def test_residue_of_R0_is_S0(name, p):
    # f-bar is the I_0 generator in both presets, so S_0 = R_0/(f-bar)
    T = build_tower(preset(name, p), 2, Fraction(3), 2)
    assert T.levels[0].residue_ring() == T.residue(0)
    assert T.residue(0).quotient_exps == (T.ideal_exp(),)


@pytest.mark.parametrize("name,p", [("unramified_rlr", 3), ("quadric", 2)])
def test_predict_tilt_levels_are_the_char_p_rings(name, p):
    P = preset(name, p)
    W = predict_tilt(build_tower(P, 2, Fraction(4), 2))
    expected = tuple(
        SeriesRingDesc(monoid_part=p_divide(P.Q, i), free_rank=P.r, free_level=i, p=p,
                       precision=2, cutoff=Fraction(4), relation_f=None, char_p=True)
        for i in range(3)
    )
    assert W.levels == expected


def test_predict_tilt_without_monomial_fbar_has_zero_ideal():
    N1 = AffineMonoid(1, 2, 0, ((1,),))
    for f in ((), ((MonoidElem((1,), 0, 2), 2),)):
        P = LogRegPresentation(Q=N1, r=0, p=2, f_terms=f)
        W = predict_tilt(build_tower(P, 1, Fraction(2), 2))
        assert W.base_ideal is None and W.ideal_exp() is None


@pytest.mark.parametrize("name,p", [("unramified_rlr", 2), ("quadric", 2)])
def test_verify_tilt_matches(name, p):
    P = preset(name, p)
    rep = verify_tilt(P, build_tower(P, 2, Fraction(4), 2))
    assert rep["all_pass"]
    kinds = {c["check"] for c in rep["checks"]}
    assert kinds == {"basis_match", "dimension", "transition_match", "transition_degree"}
    for c in rep["checks"]:
        assert c["pass"], c


def test_verify_tilt_catches_a_transition_that_is_not_the_inclusion():
    """sab_b's transition sends the generator x2 to x1 x2 on every level."""
    T, _ = sab_b()
    rep = verify_tilt(preset("unramified_rlr", 2, d=2), T)
    failed = {(c["check"], c.get("level")) for c in rep["checks"] if not c["pass"]}
    assert failed == {("transition_match", j) for j in range(T.depth)}
    assert not rep["all_pass"]


def walked_basis_rows(T, Tp):
    """verify_tilt's basis_match rows from the full walked bases of S_j and
    the predicted P_j: the oracle for the rows decided on quotient
    monomials and counted."""
    rows = []
    for j in range(T.depth + 1):
        Sj = T.residue(j)
        Pj = Tp.residue(j)
        src, prd = Sj.monomial_basis(), Pj.monomial_basis()
        missing = extra = []
        if src != prd:
            missing, extra = sorted(set(prd) - set(src)), sorted(set(src) - set(prd))
        rows.append({
            "check": "basis_match",
            "level": j,
            "pass": not missing and not extra,
            "basis_size": len(src),
            "witnesses": [Sj.elem(e).to_json() for e in (missing + extra)[:3]],
        })
    return rows


def basis_rows(rep):
    return [r for r in rep["checks"] if r["check"] == "basis_match"]


def quadric_count(cap):
    """#{m in the quadric cone : deg m <= cap}: (t + 1)^2 elements of degree 2t."""
    K = cap // 2
    return (K + 1) * (K + 2) * (2 * K + 3) // 6


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["unramified_rlr", "quadric"])
def test_tilt_basis_rows_are_the_walked_ones(name, p):
    """basis_size is counted and basis_match decided on quotient monomials,
    as the walk gives them, at depth 1-3; the quadric at p = 5, depth 3
    (5.3 million top exponents) is checked on the closed form instead."""
    P = preset(name, p)
    for depth in (1, 2, 3):
        T = build_tower(P, depth, 4, 2)
        rows = basis_rows(verify_tilt(P, T))
        if (name, p, depth) == ("quadric", 5, 3):
            caps = [T.residue(j).cap for j in range(depth + 1)]
            assert [r["basis_size"] for r in rows] == [
                quadric_count(c) - quadric_count(c - 2 * p ** j) for j, c in enumerate(caps)]
            assert all(r["pass"] and not r["witnesses"] for r in rows)
        else:
            assert rows == walked_basis_rows(T, predict_tilt(T)), (depth, rows)


def test_tilt_basis_rows_on_the_oracle_towers():
    """On every oracle tower verify_tilt gives the walked rows, or refuses a
    tower with two quotient monomials within the cutoff (sab_a's base ideal
    (x2) beside f-bar = x1, sab_e's (1), sab_g's I_0 beside x^2 y)."""
    from test_tower import oracle_towers

    presentations = {"quadric_p3": preset("quadric", 3), "rlr_deep": preset("unramified_rlr", 2, d=3)}
    refused = set()
    for name, T in oracle_towers().items():
        P = presentations.get(name, preset("unramified_rlr", 2))
        if any(len(T.residue(j)._ideal_gens) > 1 for j in range(T.depth + 1)):
            with pytest.raises(InvariantViolation):
                verify_tilt(P, T)
            refused.add(name)
            continue
        assert basis_rows(verify_tilt(P, T)) == walked_basis_rows(T, predict_tilt(T)), name
    assert refused == {"a", "e", "g"}


def _patched_prediction(monkeypatch, change):
    real = logreg.predict_tilt
    monkeypatch.setattr(logreg, "predict_tilt", lambda T: change(real(T)))


def _with_quotient(e):
    """A prediction whose levels also quotient by the monomial e."""
    def change(W):
        levels = tuple(replace(R, quotient_exps=(e,)) for R in W.levels)
        return replace(W, levels=levels, base_ideal=generator(levels[0], [W.base_ideal]))

    return change


def test_tilt_basis_mismatch_reports_the_walked_witnesses(monkeypatch):
    """A predicted ring whose quotient monomial differs from S_j's (x2 for
    x1), or that has one more (x2^3), fails basis_match with exactly the
    witnesses of the full-basis comparison; the other rows are untouched."""
    P = preset("unramified_rlr", 2)
    T = build_tower(P, 2, 4, 2)
    want = verify_tilt(P, T)
    x2 = MonoidElem((0, 1), 0, 2)
    for change in (lambda W: replace(W, base_ideal=generator(W.levels[0], [(x2, 1)])),
                   _with_quotient(MonoidElem((0, 3), 0, 2))):
        with monkeypatch.context() as m:
            _patched_prediction(m, change)
            rep = verify_tilt(P, T)
            rows = basis_rows(rep)
            assert rows == walked_basis_rows(T, logreg.predict_tilt(T))
        assert not rep["all_pass"] and all(not r["pass"] and r["witnesses"] for r in rows)
        assert [r for r in rep["checks"] if r["check"] != "basis_match"] == [
            r for r in want["checks"] if r["check"] != "basis_match"]


def test_tilt_basis_match_ignores_inert_and_redundant_quotients(monkeypatch):
    """A quotient monomial off the quadric's lattice x + z = y + w, such as
    x, divides no exponent, and w^2 lies in the ideal (w) already: neither
    changes the report."""
    P = preset("quadric", 2)
    T = build_tower(P, 2, 4, 2)
    want = verify_tilt(P, T)
    for e in (MonoidElem((1, 0, 0, 0), 0, 2), MonoidElem((0, 2, 2, 0), 0, 2)):
        with monkeypatch.context() as m:
            _patched_prediction(m, _with_quotient(e))
            assert verify_tilt(P, T) == want
            assert basis_rows(want) == walked_basis_rows(T, logreg.predict_tilt(T))


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
    om = omega_dim(BaseRing(3, 2, mixed=True))
    assert om.dim == 3 and om.basis_labels == ("dp", "dx1", "dx2")
    om2 = omega_dim(BaseRing(3, 2, mixed=False))
    assert om2.dim == 2 and om2.basis_labels == ("dx1", "dx2")


def test_d_class_values():
    A = BaseRing(2, 2, mixed=True)
    ring = A.series_ring()
    x1 = coefficients(s_monomial(ring, ring.exp((1, 0))))
    assert d_class(A, coefficients(s_const(ring, 2))) == (1, 0, 0)
    assert d_class(A, x1) == (0, 1, 0)
    B = BaseRing(3, 1, mixed=True)
    rb = B.series_ring()
    assert d_class(B, coefficients(s_const(rb, 3))) == (1, 0)
    assert d_class(B, coefficients(s_const(rb, 4))) == (1, 0)
    # 8 is the Teichmuller lift of 2 mod 9, so its class vanishes
    assert d_class(B, coefficients(s_const(rb, 8))) == (0, 0)


def test_maximal_sequences():
    A = BaseRing(2, 2, mixed=True)
    ring = A.series_ring()
    x1 = coefficients(s_monomial(ring, ring.exp((1, 0))))
    x2 = coefficients(s_monomial(ring, ring.exp((0, 1))))
    two = coefficients(s_const(ring, 2))
    assert is_maximal_sequence(A, [two, x1, x2])
    assert not is_maximal_sequence(A, [x1, x2])             # too short
    assert not is_maximal_sequence(A, [two, x1, x1])        # dependent
    E = BaseRing(2, 2, mixed=False)
    er = E.series_ring()
    assert is_maximal_sequence(E, [coefficients(s_monomial(er, er.exp((1, 0)))),
                                   coefficients(s_monomial(er, er.exp((0, 1))))])


def test_maximal_sequence_with_a_unit():
    """A unit generates the unit ideal, so it is never part of a regular
    system of parameters (Matsumura, Thm 14.2), whatever its differential
    class.  Z_3[[x1]]: 4 = 1 + 1*3 has the class (1, 0) and x1 the class
    (0, 1), independent, yet (4, x1) = (1); (3, x1) is m.  F_2[[x1]]:
    1 + x1 has the class (1) of x1, yet it is a unit."""
    A = BaseRing(3, 1, mixed=True)
    ring = A.series_ring()
    x1 = coefficients(s_monomial(ring, ring.exp((1,))))
    assert d_class(A, coefficients(s_const(ring, 4))) == (1, 0) and d_class(A, x1) == (0, 1)
    assert not is_maximal_sequence(A, [coefficients(s_const(ring, 4)), x1])
    assert is_maximal_sequence(A, [coefficients(s_const(ring, 3)), x1])
    E = BaseRing(2, 1, mixed=False)
    er = E.series_ring()
    one_plus_x1 = coefficients(s_from_terms(er, [(er.exp((0,)), 1), (er.exp((1,)), 1)]))
    assert d_class(E, one_plus_x1) == (1,)
    assert not is_maximal_sequence(E, [one_plus_x1])
    assert is_maximal_sequence(E, [coefficients(s_monomial(er, er.exp((1,))))])


def test_kummer_regularity_cases():
    A = BaseRing(2, 2, mixed=True)
    ring = A.series_ring()
    x1 = coefficients(s_monomial(ring, ring.exp((1, 0))))
    x2 = coefficients(s_monomial(ring, ring.exp((0, 1))))
    x1px1x2 = coefficients(s_from_terms(ring, [(ring.exp((1, 0)), 1), (ring.exp((1, 1)), 1)]))
    B = BaseRing(3, 1, mixed=True)
    rb = B.series_ring()
    y = coefficients(s_monomial(rb, rb.exp((1,))))
    E = BaseRing(2, 2, mixed=False)
    er = E.series_ring()
    z12 = coefficients(s_monomial(er, er.exp((1, 1))))

    assert kummer_regularity(A, [x1, x2], [2, 2])
    assert not kummer_regularity(A, [x1, x1px1x2], [2, 2])  # same class twice
    two = coefficients(s_const(ring, 2))
    four, eight = (coefficients(s_const(rb, c)) for c in (4, 8))
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
    ring = A.series_ring()
    x1 = coefficients(s_monomial(ring, ring.exp((1,))))
    one, three, four, eight = (coefficients(s_const(ring, c)) for c in (1, 3, 4, 8))
    assert kummer_regularity(A, [one], [2]) and kummer_regularity(A, [four], [2])
    assert kummer_regularity(A, [four, x1], [2, 2]) and kummer_regularity(A, [x1, eight], [2, 5])
    assert kummer_regularity(A, [four], [3]) and not kummer_regularity(A, [eight], [3])
    assert not kummer_regularity(A, [four, three], [3, 2])  # both the class of p
    E = BaseRing(2, 1, mixed=False)
    er = E.series_ring()
    one_plus_x1 = coefficients(s_from_terms(er, [(er.exp((0,)), 1), (er.exp((1,)), 1)]))
    assert kummer_regularity(E, [one_plus_x1], [2]) and kummer_regularity(E, [one_plus_x1], [3])
    assert not kummer_regularity(E, [coefficients(s_const(er, 1))], [2])
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
    ring = A.series_ring()
    lin = [ring.coords(ring.exp(tuple(int(i == k) for i in range(A.d)))) for k in range(A.d)]
    roots = [[s for s in range(p) if (s ** e - x.get(ring.zero_exp, 0)) % p == 0]
             for x, e in zip(f_list, e_list)]
    if not all(roots):
        return None
    verdicts = set()
    for point in itertools.product(*roots):
        rows = []
        for i, (x, e, s) in enumerate(zip(f_list, e_list, point)):
            const = (s ** e - x.get(ring.zero_exp, 0)) % p ** 2
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
        ring = A.series_ring()
        fs = [coefficients(s_from_terms(ring, [(ring.exp((0,)), c), (ring.exp((1,)), a)]))
              for c in range(p ** 2 if mixed else p) for a in range(p)]
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
    one = coefficients(s_const(A.series_ring(), 1))
    with pytest.raises(UnsupportedBase):
        kummer_regularity(A, [one], [1])
    with pytest.raises(UnsupportedBase):
        kummer_regularity(A, [one], [2, 2])
    assert kummer_regularity(A, [], [])
