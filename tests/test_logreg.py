"""Presentations, tower construction, tilt prediction."""

from fractions import Fraction

import pytest

from ptlab import logreg
from ptlab.logreg import (
    InvalidPresentation,
    LogRegPresentation,
    build_tower,
    predict_tilt,
    preset,
    verify_tilt,
)
from ptlab.monoid import AffineMonoid, MonoidElem, p_divide
from ptlab.record import replace
from ptlab.series import InvariantViolation, SeriesRingDesc

from fixtures import sab_b
from series_oracle import generator


def test_presets():
    U = preset("unramified_rlr", 2, d=3)
    assert U.r == 3 and U.Q.ambient_rank == 0
    assert U.f_terms == ((MonoidElem((1, 0, 0), 0, 2), 1),)
    Qd = preset("quadric", 3)
    assert Qd.r == 0 and len(Qd.Q.generators) == 4
    assert Qd.p == 3
    with pytest.raises(InvalidPresentation):
        preset("nosuch", 2)
    with pytest.raises(InvalidPresentation):
        preset("custom", 2)


def test_presentation_validation():
    N1 = AffineMonoid(1, 2, 0, ((1,),))
    full = AffineMonoid(1, 2, 0, ((1,), (-1,)))
    with pytest.raises(InvalidPresentation):
        LogRegPresentation(Q=full, r=0, f_terms=())
    with pytest.raises(InvalidPresentation, match="monoid scale base must match p"):
        LogRegPresentation(Q=N1, r=0, f_terms=((MonoidElem((1,), 0, 3), 1),))
    with pytest.raises(InvalidPresentation):
        LogRegPresentation(Q=N1, r=1,
                           f_terms=((MonoidElem((0, 0), 0, 2), 1),))
    # the prime is the monoid's scale base: a descriptor's "p" must be it,
    # also for f = 0 and ahead of a term of degree 0; "labels" is not read
    d = {"monoid": N1.to_descriptor(), "free_rank": 1, "p": 2, "f": [], "labels": ["x"]}
    assert LogRegPresentation.from_descriptor(d) == LogRegPresentation(Q=N1, r=1, f_terms=())
    for f in ([], [{"exponent": [0, 0], "coeff": 1}]):
        with pytest.raises(InvalidPresentation, match="monoid scale base must match p"):
            LogRegPresentation.from_descriptor({**d, "p": 3, "f": f})


def test_presentation_roundtrip():
    for P in (preset("unramified_rlr", 2, d=2), preset("quadric", 3)):
        assert LogRegPresentation.from_descriptor(P.to_descriptor()) == P


def test_level_rings():
    P = preset("unramified_rlr", 2, d=2)
    R0 = P.ring(0, Fraction(4), 2)
    R1 = P.ring(1, Fraction(4), 2)
    assert R0.relation_f is not None and R0.p == 2
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
    assert all(r.relation_f is None for r in W.levels)
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
        SeriesRingDesc(monoid_part=p_divide(P.Q, i), free_rank=P.r, free_level=i,
                       precision=2, cutoff=Fraction(4), relation_f=None)
        for i in range(3)
    )
    assert W.levels == expected


def test_predict_tilt_without_monomial_fbar_has_zero_ideal():
    N1 = AffineMonoid(1, 2, 0, ((1,),))
    for f in ((), ((MonoidElem((1,), 0, 2), 2),)):
        P = LogRegPresentation(Q=N1, r=0, f_terms=f)
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
    witnesses of the full-basis comparison; the other rows are untouched.
    So does one more that is in the group of the monoid but not in it: y on
    the cone <x, xy> (facet x >= y), which kills xy = x * y."""
    x2 = MonoidElem((0, 1), 0, 2)
    rlr = preset("unramified_rlr", 2)
    facet = LogRegPresentation(Q=AffineMonoid(2, 2, 0, ((1, 0), (1, 1))), r=0,
                               f_terms=((MonoidElem((1, 0), 0, 2), 1),))
    cases = [(rlr, lambda W: replace(W, base_ideal=generator(W.levels[0], [(x2, 1)]))),
             (rlr, _with_quotient(MonoidElem((0, 3), 0, 2))),
             (facet, _with_quotient(x2))]
    for P, change in cases:
        T = build_tower(P, 2, 4, 2)
        want = verify_tilt(P, T)
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

