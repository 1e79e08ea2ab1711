"""Acceptance gate: the eleven release criteria, one test per criterion.

Every check is exact (symbolic equality); run with -v to get one pass/fail
line per criterion.  Heavy towers are built once and shared across criteria.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from math import gcd

import sympy
from sympy.matrices.normalforms import smith_normal_form

from ptlab.classgroup import class_group, pairing_matrix, prime_to_p_report
from ptlab.cli import main
from ptlab.coeffring import teichmuller_lift
from ptlab.intlat import FinAbelianGroup
from ptlab.logreg import build_tower, preset, verify_tilt
from ptlab.monoid import (
    AffineMonoid,
    MonoidElem,
    contains,
    is_saturated,
    layer_quotient,
    p_divide,
    saturate,
)
from ptlab.regularity import BaseRing, is_maximal_sequence, kummer_regularity
from ptlab.tower import (
    frobenius_identities,
    tilt_mod_pillar_iso,
    verify_exactstilt,
    verify_perfectoid,
)

from algebra_oracle import (
    graded_decomposition,
    is_exact_submonoid,
    w2,
    w2_add,
    w2_from_int,
    w2_mul,
    w2_neg,
)
from fixtures import SABOTAGE, elements, verify_axioms

DEPTH = 2
D = Fraction(4)
N = 2

# (preset name, p, d); d only matters for the unramified family
PRESETS = (("unramified_rlr", 2, 2), ("unramified_rlr", 2, 3),
           ("quadric", 2, 2), ("quadric", 3, 2))

QUADRIC_GENS = ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))


def Nd_monoid(d, p):
    gens = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    return AffineMonoid(d, p, 0, gens)


@lru_cache(maxsize=None)
def tower(name, p, d):
    return build_tower(preset(name, p, d=d), DEPTH, D, N)


def done(n, slug):
    print(f"criterion {n:02d} ({slug}): PASS")


# -- 1 ----------------------------------------------------------------------


def rand_saturated(rng, p):
    """A random fss monoid of rank <= 3 from a desk-scale pool."""
    kind = rng.choice(("numeric", "cone2", "block3", "perm3"))
    if kind == "numeric":
        a = rng.randint(2, 5)
        b = rng.randint(a + 1, 8)
        return saturate(AffineMonoid(1, p, 0, ((a,), (b,))))
    # primitive 2D rays with small determinant keep the gap search cheap
    while True:
        u = (rng.randint(1, 4), rng.randint(0, 3))
        v = (rng.randint(0, 3), rng.randint(1, 4))
        if gcd(*u) == 1 and gcd(*v) == 1 and 0 < abs(u[0] * v[1] - u[1] * v[0]) <= 4:
            break
    Q2 = saturate(AffineMonoid(2, p, 0, (u, v)))
    if kind == "cone2":
        return Q2
    gens = ((1, 0, 0),) + tuple((0,) + g for g in Q2.generators)
    Q3 = AffineMonoid(3, p, 0, gens)
    if kind == "block3":
        return Q3
    per = list(range(3))
    rng.shuffle(per)
    return AffineMonoid(3, p, 0, tuple(tuple(g[per[k]] for k in range(3)) for g in gens))


def test_criterion_01_monoid_layer_orders():
    for p in (2, 3):
        for d in range(1, 5):
            assert layer_quotient(Nd_monoid(d, p)).invariant_factors == (p,) * d
        quad = AffineMonoid(4, p, 0, QUADRIC_GENS)
        order = layer_quotient(quad).torsion_order()
        assert order == p ** 3
        if p == 2:
            assert order == 8
    rng = random.Random(20260823)
    for _ in range(20):
        p = rng.choice((2, 3))
        S = rand_saturated(rng, p)
        assert is_saturated(S)
        n = layer_quotient(S).torsion_order()
        while n % p == 0:
            n //= p
        assert n == 1
    done(1, "monoid layer orders")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_exactness_suite():
    for Q in (Nd_monoid(2, 2), Nd_monoid(3, 2), AffineMonoid(4, 2, 0, QUADRIC_GENS)):
        for i in range(3):
            assert is_exact_submonoid(p_divide(Q, i), p_divide(Q, i + 1))
    numeric = AffineMonoid(1, 2, 0, ((2,), (3,)))
    assert not is_exact_submonoid(numeric, AffineMonoid(1, 2, 0, ((1,),)))
    for Q, bound in ((Nd_monoid(2, 2), Fraction(2)),
                     (AffineMonoid(4, 2, 0, QUADRIC_GENS), Fraction(1))):
        dec = graded_decomposition(Q, p_divide(Q, 1))
        for v in elements(p_divide(Q, 1), bound):
            assert dec.is_zero_class(v) == contains(Q, v)
    done(2, "exactness suite")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_tower_axioms_and_sabotage():
    for name, p, d in PRESETS:
        rep = verify_axioms(tower(name, p, d))
        assert rep["all_pass"], (name, p, d, rep)
        assert {r["axiom"] for r in rep["axioms"]} == set("abcdefg")
    for letter, build in sorted(SABOTAGE.items()):
        T, expected = build()
        rep = verify_axioms(T)
        got = {}
        for row in rep["axioms"]:
            got[row["axiom"]] = got.get(row["axiom"], True) and row["pass"]
        assert got == expected, (letter, got, expected)
        for row in rep["axioms"]:
            if not row["pass"]:
                assert "witness" in row or "note" in row, (letter, row)
    done(3, "tower axioms and sabotage")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_frobenius_decomposition_identities():
    for name, p, d in PRESETS:
        T = tower(name, p, d)
        for i in range(DEPTH):
            r = frobenius_identities(T, i)
            assert r["t_after_F_is_frobenius"], (name, p, d, i)
            assert r["F_after_t_is_frobenius"], (name, p, d, i)
            assert r["witnesses"] == []
    done(4, "frobenius decomposition identities")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_pillars_and_exact_tilts():
    for name, p, d in PRESETS:
        T = tower(name, p, d)
        gexp = T.ideal_exp()
        for i in range(DEPTH + 1):
            e = T.levels[i].elem(T.pillars[i])
            assert e == gexp.divide(i)
            if i:
                # I_{i+1}^p = I_i R_{i+1} on monomial generators
                assert (MonoidElem(tuple(p * x for x in e.coords), e.level, e.base)
                        == T.levels[i - 1].elem(T.pillars[i - 1]))
        assert [r for r in verify_perfectoid(T)["axioms"] if r["axiom"] == "f"] == [
            {"axiom": "f", "level": -1, "pass": True, "note": "pillar chain with kernel identity"}]
        for j in (0, 1):
            rep = verify_exactstilt(T, j)
            assert rep["all_pass"], (name, p, d, j, rep)
            rows = {row["check"]: row for row in rep["checks"]}
            assert rows["principal"]["pass"]
            assert rows["torsion"]["source_empty"] and rows["torsion"]["tilt_empty"]
    done(5, "pillars and exact tilts")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_tilting_correspondence():
    for name, p, d in PRESETS:
        P = preset(name, p, d=d)
        rep = verify_tilt(P, build_tower(P, DEPTH, D, N))
        assert rep["all_pass"], (name, p, d, rep)
        for c in rep["checks"]:
            assert c["pass"], (name, p, d, c)
    done(6, "tilting correspondence")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_mod_pillar_isomorphism():
    # hand check for the unramified family: the residue basis is the set of
    # monomials below the undivided ideal exponent with total degree <= D,
    # e.g. d=3, j=1: 45 + 36 half-integer exponents
    expected = {
        ("unramified_rlr", 2, 2): {0: 5, 1: 17},
        ("unramified_rlr", 2, 3): {0: 15, 1: 81},
        ("quadric", 2, 2): {0: 9, 1: 41},
        ("quadric", 3, 2): {0: 9, 1: 110},
    }
    for name, p, d in PRESETS:
        sizes = expected[(name, p, d)]
        T = tower(name, p, d)
        for j in (0, 1):
            rep = tilt_mod_pillar_iso(T, j)
            assert rep["bijective"], (name, p, d, j, rep["mismatches"])
            assert rep["basis_size"] == sizes[j], (name, p, d, j, rep["basis_size"])
    done(7, "mod-pillar isomorphism")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_witt_layer():
    for p in (2, 3, 5):
        elems = [w2(p, a, b) for a in range(p) for b in range(p)]
        iso = lambda x: (teichmuller_lift(x.a.value, p) + p * x.b.value) % (p * p)
        assert sorted(iso(x) for x in elems) == list(range(p * p))
        zero, one = w2(p, 0, 0), w2(p, 1, 0)
        for x in elems:
            assert w2_add(x, zero) == x
            assert w2_mul(x, one) == x
            assert w2_add(x, w2_neg(x)) == zero
        for x, y in itertools.product(elems, repeat=2):
            assert w2_add(x, y) == w2_add(y, x)
            assert w2_mul(x, y) == w2_mul(y, x)
            assert iso(w2_add(x, y)) == (iso(x) + iso(y)) % (p * p)
            assert iso(w2_mul(x, y)) == (iso(x) * iso(y)) % (p * p)
        for x, y, z in itertools.product(elems, repeat=3):
            assert w2_add(w2_add(x, y), z) == w2_add(x, w2_add(y, z))
            assert w2_mul(w2_mul(x, y), z) == w2_mul(x, w2_mul(y, z))
            assert w2_mul(x, w2_add(y, z)) == w2_add(w2_mul(x, y), w2_mul(x, z))
        for b, dd in itertools.product(range(p), repeat=2):
            assert w2_mul(w2(p, 0, b), w2(p, 0, dd)) == zero
        for n in range(p * p):
            assert iso(w2_from_int(p, n)) == n
    done(8, "witt layer")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_regularity_criterion():
    """Six frozen Kummer cases against an Eisenstein/valuation oracle.

    Oracle verdicts derived independently: T^e - f is regular at the center
    exactly when the f_i reduce to part of a regular system of parameters,
    i.e. f has valuation 1 along independent directions.  p and x qualify;
    p^2, 2x (in m^2) do not.
    """
    Z2 = BaseRing(2, 0, mixed=True)
    Z3 = BaseRing(3, 0, mixed=True)
    Z2x = BaseRing(2, 1, mixed=True)
    x, two_x = {(1,): 1}, {(1,): 2}

    # f = p^2 is the map {(): 4}, which keeps the 4 that a series with
    # coefficients mod p^2 reduces to 0; d_class reads the constant mod p^2,
    # so the verdict is the one of f = 0
    cases = [
        ("Z_2,  f=p,     e=2", Z2, [{(): 2}], [2], True),
        ("Z_2,  f=p^2,   e=2", Z2, [{(): 4}], [2], False),
        ("Z_3,  f=p,     e=3", Z3, [{(): 3}], [3], True),
        ("Z_2[[x]], f=x, e=2", Z2x, [x], [2], True),
        ("Z_2[[x]], f=px, e=2", Z2x, [two_x], [2], False),
        ("Z_2[[x]], f=(p,x), e=(2,2)", Z2x, [{(0,): 2}, x], [2, 2], True),
    ]
    for label, A, fs, es, oracle in cases:
        assert kummer_regularity(A, fs, es) == oracle, label

    A22 = BaseRing(2, 2, mixed=True)
    rsop = [{(0, 0): 2}, {(1, 0): 1}, {(0, 1): 1}]
    assert is_maximal_sequence(A22, rsop)
    assert is_maximal_sequence(BaseRing(2, 0, mixed=True), [{(): 2}])
    done(9, "regularity criterion")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_class_groups():
    for d in (1, 2, 3, 4):
        assert class_group(Nd_monoid(d, 2)).group == FinAbelianGroup(0)

    A1 = AffineMonoid(2, 2, 0, ((2, 0), (1, 1), (0, 2)))
    rep = class_group(A1)
    M = pairing_matrix(A1)
    sm = smith_normal_form(sympy.Matrix([list(r) for r in M]))
    diag = [abs(int(sm[i, i])) for i in range(min(sm.shape)) if sm[i, i] != 0]
    oracle = FinAbelianGroup(free_rank=len(M) - len(diag),
                             invariant_factors=tuple(v for v in sorted(diag) if v > 1))
    assert rep.group == oracle
    assert rep.group.describe() == "Z/2"

    quad = class_group(AffineMonoid(4, 2, 0, QUADRIC_GENS))
    assert quad.group.describe() == "Z"
    assert quad.torsion_order == 1

    for Q in (A1, AffineMonoid(4, 2, 0, QUADRIC_GENS), Nd_monoid(3, 2)):
        for p in (2, 3):
            r = prime_to_p_report(class_group(Q).group, p)
            assert r["finite"] is True
            assert r["prime_to_p_order"] >= 1
    done(10, "class groups")


# -- 11 ---------------------------------------------------------------------


SUITE = (
    ("tower", "verify", "--preset", "unramified_rlr", "--p", "2", "--d", "2"),
    ("tower", "verify", "--preset", "quadric", "--p", "2"),
    ("tower", "tilt", "--preset", "unramified_rlr", "--p", "2", "--d", "2"),
    ("tower", "tilt", "--preset", "quadric", "--p", "2"),
    ("tower", "exactstilt", "--preset", "unramified_rlr", "--p", "2", "--d", "2"),
    ("tower", "exactstilt", "--preset", "quadric", "--p", "2"),
    ("monoid", "classgroup", "--preset", "A1"),
    ("monoid", "classgroup", "--preset", "quadric"),
    ("monoid", "check", "--preset", "Nd", "--d", "3"),
    ("regularity", "omega", "--p", "3", "--d", "2"),
)


def run_suite_bytes():
    chunks = []
    for argv in SUITE:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        assert code == 0, argv
        text = buf.getvalue()
        json.loads(text)    # every report is valid JSON
        chunks.append(text.encode("utf-8"))
    return b"".join(chunks)


def test_criterion_11_determinism():
    first = run_suite_bytes()
    second = run_suite_bytes()
    assert first == second
    assert first.endswith(b"\n")
    done(11, "determinism")
