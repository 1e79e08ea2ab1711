"""Tower axioms, Frobenius projections, pillars, small tilts."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ptlab.logreg import build_tower, preset
from ptlab.monoid import AffineMonoid, MonoidElem
from ptlab.record import replace
from ptlab.series import InvariantViolation, SeriesRingDesc
from ptlab.tower import (
    PillarNotFound,
    TowerDesc,
    Transition,
    _ideal_coords,
    _torsion,
    frobenius_identities,
    inverse_perfection_is_perfect,
    pillar_system,
    tilt_mod_pillar_iso,
    verify_exactstilt,
    verify_purely_inseparable,
)

from fixtures import (
    BRANCHES,
    DEPTH,
    SABOTAGE,
    _charp_tower,
    sab_c,
    sab_f,
    torsion_oracle,
    verify_axioms,
)
from series_oracle import (
    Series,
    deg,
    dominated,
    inseparability_failures,
    make_series,
    s_add,
    s_monomial,
    s_mul,
    s_one,
    s_pow,
    s_zero,
)


@lru_cache(maxsize=None)
def unram2():
    return build_tower(preset("unramified_rlr", 2), 2, Fraction(4), 2)


@lru_cache(maxsize=None)
def perfect_tower():
    """F_2[[x^{1/2^i}]] with I = (0): every axiom holds without a pillar."""
    triv = AffineMonoid(0, 2, 0, ())
    levels = tuple(
        SeriesRingDesc(monoid_part=triv, free_rank=1, free_level=i,
                       precision=2, cutoff=Fraction(4))
        for i in range(3)
    )
    return TowerDesc(levels=levels, transitions=(Transition(), Transition()),
                     base_ideal=None)


def test_unramified_tower_passes_all_axioms():
    rep = verify_axioms(unram2())
    assert rep["all_pass"]
    assert {r["axiom"] for r in rep["axioms"]} == set("abcdefg")
    for r in rep["axioms"]:
        assert r["pass"], r


def test_zero_ideal_tower_passes_with_remarks():
    rep = verify_axioms(perfect_tower())
    assert rep["all_pass"]
    notes = [r.get("note", "") for r in rep["axioms"]]
    assert any("I0 = (0)" in n for n in notes)


def test_frobenius_identities_both_directions():
    for i in range(2):
        r = frobenius_identities(unram2(), i)
        assert r["t_after_F_is_frobenius"] and r["F_after_t_is_frobenius"]
        assert r["witnesses"] == []


# The Series-level tower maps, the oracle of the checks decided on exponents.
# F_i: S_{i+1} -> S_i sends c e^v to c^p e^{pv}, and t-bar_i: S_i -> S_{i+1}
# applies the transition term by term.  A tuple of the small tilt at home
# level j is a plain tuple of series, component l in S_{j+l}.


def series_frob(T, i, x):
    """F_i on a series of S_{i+1}."""
    Si = T.residue(i)
    if x.ring != T.residue(i + 1):
        raise InvariantViolation("argument must live in S_{i+1}")
    # p * v at S_{i+1}'s level is v at one level coarser
    return make_series(Si, [(Si.rescale(v, x.ring.level - 1), pow(c, T.p, T.p))
                            for v, c in x.terms])


def series_t_bar(T, i, x):
    """t-bar_i on a series of S_i."""
    t, Si1 = T.transitions[i], T.residue(i + 1)
    return make_series(Si1, [(t.on_packed(x.ring, Si1)(v), c) for v, c in x.terms])


def tuple_frob(T, x, home):
    """F componentwise on a tuple at the given home level, landing one level lower."""
    return tuple(series_frob(T, home - 1 + l, c) for l, c in enumerate(x))


def series_frobenius_identities(T, i):
    """The oracle: both identities on one-term series, through series_frob and
    series_t_bar, compared with the canonical e^{pd}."""
    Si, Si1 = T.residue(i), T.residue(i + 1)

    def failures(ring, via):
        for g in ring.monomial_basis():
            e = ring.elem(g)
            pg = MonoidElem(tuple(ring.p * x for x in e.coords), e.level, e.base)
            if (deg(ring, pg) <= ring.cap
                    and via(Series(ring, ((g, 1),))) != make_series(ring, [(ring.coords(pg), 1)])):
                yield ring.elem(g).to_json()

    bad_tf = list(failures(Si1, lambda x: series_t_bar(T, i, series_frob(T, i, x))))
    bad_ft = list(failures(Si, lambda x: series_frob(T, i, series_t_bar(T, i, x))))
    return {"level": i, "t_after_F_is_frobenius": not bad_tf,
            "F_after_t_is_frobenius": not bad_ft, "witnesses": bad_tf + bad_ft,
            "cutoff": T.cutoff_info()}


def test_frobenius_identities_match_the_series_path():
    """Deciding the identities on exponents gives the series path's report on
    every sabotaged tower and level."""
    witnessed = set()
    for name, build in {**SABOTAGE, **BRANCHES}.items():
        T, _ = build()
        for i in range(T.depth):
            want = series_frobenius_identities(T, i)
            assert frobenius_identities(T, i) == want, (name, i)
            if want["witnesses"]:
                witnessed.add(name)
    assert {"b", "c"} <= witnessed


# The series path the tilt checks took before they were decided on exponents:
# tuples of one-term series in the residue rings, multiplied and powered
# componentwise.  Only the values that path decided are recomputed here.


def series_teich(T, j, mu, depth):
    """(e^mu, e^{mu/p}, ...) as a tuple of series, or None when a root is missing."""
    comps = []
    for l in range(depth + 1):
        ring = T.residue(j + l)
        w = ring.coords(MonoidElem(mu.coords, mu.level + l, T.p))
        if w is None or not ring.in_ring(w):
            return None
        comps.append(make_series(ring, [(w, 1)]))
    return tuple(comps)


def series_pillar_tilt(T, j, depth):
    """(f_j mod I0, f_{j+1} mod I0, ...)."""
    g = T.ideal_exp()
    return tuple(make_series(T.residue(j + l), [(T.residue(j + l).coords(
        MonoidElem(g.coords, g.level + j + l, T.p)), 1)]) for l in range(depth + 1))


def full_walk_principal(T, j):
    """The principal row over every exponent of the unquotiented ring of
    S_{j+m}, on MonoidElems: the walk before it stopped at S_j's cutoff."""
    m = T.depth - j
    g = T.ideal_exp()
    Sj, top = T.residue(j), T.residue(j + m)
    bad = None
    for d in top.support():
        e = top.elem(d)
        mu = MonoidElem(tuple(T.p ** m * x for x in e.coords), e.level, e.base)
        if deg(Sj, mu) > Sj.cap:
            continue
        # kernel of pi_j o Phi_0, and the multiples of the tilt pillar
        in_ker = (not Sj.exp_in_ring(mu) or dominated(Sj, mu)
                  or Sj.exp_in_ring(mu - g.divide(j)))
        in_ideal = top.exp_in_ring(e - g.divide(j + m))
        if in_ker != in_ideal:
            bad = e
            break
    return {"check": "principal", "pass": bad is None,
            **({"witness": bad.to_json()} if bad is not None else {})}


def series_ideal(T, R):
    """The I_0 generator as a series of R: zero or a coefficient-1 monomial."""
    gexp = T.ideal_exp()
    return s_zero(R) if gexp is None else s_monomial(R, gexp)


def series_verify_exactstilt(T, j):
    rep = verify_exactstilt(T, j)
    m = T.depth - j
    rows = []
    for row in rep["checks"]:
        if row["check"] == "principal" and T.base_ideal is not None:
            row = full_walk_principal(T, j)
        elif row["check"] == "pillar_power":
            f_j, f_j1 = series_pillar_tilt(T, j, m - 1), series_pillar_tilt(T, j + 1, m - 1)
            ok = all(s_pow(c1, T.p) == series_t_bar(T, j + l, c)
                     for l, (c, c1) in enumerate(zip(f_j, f_j1)))
            row = {**row, "pass": ok}
        elif row["check"] == "torsion":
            source_empty = not torsion_oracle(T.levels[j], series_ideal(T, T.levels[j]))
            empty = row["tilt_empty"]
            if T.base_ideal is not None:
                f = series_pillar_tilt(T, j, m)
                Sj = T.residue(j)
                room = Sj.cap - deg(Sj, Sj.elem(T.pillar_coords(Sj, j)))
                tuples = (series_teich(T, j, Sj.elem(mu), m)
                          for mu in Sj.monomial_basis() if deg(Sj, Sj.elem(mu)) <= room)
                empty = not any(all(s_mul(a, b).is_zero for a, b in zip(te, f))
                                for te in tuples if te is not None)
            row = {**row, "source_empty": source_empty, "tilt_empty": empty,
                   "pass": source_empty == empty}
        rows.append(row)
    return {**rep, "checks": rows, "all_pass": all(r["pass"] for r in rows)}


def series_tilt_mod_pillar_iso(T, j):
    rep = tilt_mod_pillar_iso(T, j)
    Sj = T.residue(j)
    mismatches, matched = [], 0
    for mu in Sj.monomial_basis():
        te = series_teich(T, j, Sj.elem(mu), T.depth - j)
        if te is None:
            mismatches.append({"direction": "section", **Sj.elem(mu).to_json()})
        elif te[0] != Series(Sj, ((mu, 1),)):
            mismatches.append({"direction": "projection", **Sj.elem(mu).to_json()})
        else:
            matched += 1
    mismatches += [x for x in rep["mismatches"] if x["direction"] == "partition"]
    return {**rep, "bijective": not mismatches, "basis_size": matched,
            "mismatches": mismatches}


def series_compatibility_witnesses(pillars):
    T = pillars.tower
    bars = [make_series(T.residue(i), [] if v is None else [(v, 1)])
            for i, v in enumerate(pillars.exps)]
    return [{"level": i, "pass": series_frob(T, i, bars[i + 1]) == bars[i]}
            for i in range(T.depth)]


def oracle_towers():
    """Every sabotaged tower, the perfect tower, the two benchmark windows and
    a tower whose first transition swaps x1 and x2, so t-bar_0 sends the zero
    f-bar_0 = x1 to the nonzero x2."""
    towers = {name: build()[0] for name, build in SABOTAGE.items()}
    swap = Transition(((0, 1), (1, 0)))
    towers["swap"] = replace(unram2(), transitions=(swap, Transition()))
    towers["perfect"] = perfect_tower()
    towers["quadric_p3"] = build_tower(preset("quadric", 3), 2, Fraction(4), 2)
    towers["rlr_deep"] = build_tower(preset("unramified_rlr", 2, 3), 3, Fraction(5), 2)
    return towers


def test_tilt_checks_match_the_series_path():
    """verify_exactstilt, tilt_mod_pillar_iso and the pillar compatibility
    give the series path's reports at every home level; the principal row,
    which stops at S_j's cutoff, gives the full walk's."""
    seen = set()
    for name, T in oracle_towers().items():
        for j in range(T.depth + 1):
            want = series_verify_exactstilt(T, j)
            assert verify_exactstilt(T, j) == want, (name, j)
            seen |= {(r["check"], r["pass"]) for r in want["checks"]}
            seen |= {(k, r[k]) for r in want["checks"] if r["check"] == "torsion"
                     for k in ("source_empty", "tilt_empty")}
            want = series_tilt_mod_pillar_iso(T, j)
            assert tilt_mod_pillar_iso(T, j) == want, (name, j)
            seen |= {("mod_pillar_iso", want["bijective"])}
        try:
            pillars = pillar_system(T)
        except PillarNotFound:
            continue
        want = series_compatibility_witnesses(pillars)
        assert pillars.compatibility_witnesses() == want, name
    # both verdicts of every row the exponents now decide were compared
    assert {(c, v) for c in ("principal", "pillar_power", "source_empty", "tilt_empty",
                             "mod_pillar_iso")
            for v in (True, False)} <= seen


def test_axiom_g_torsion_matches_the_product_loop():
    """Axiom (g)'s torsion sets, read on exponents, are the product loop's at
    every level of every oracle tower.  Some level has a proper torsion set
    (neither empty nor the whole basis), and some level has not."""
    seen = set()
    for name, T in oracle_towers().items():
        for R in T.levels:
            got = _torsion(R, _ideal_coords(T, R))
            assert list(got) == torsion_oracle(R, series_ideal(T, R)), name
            seen.add(0 < len(got) < len(R.monomial_basis()))
    assert seen == {True, False}


def series_inverse_perfection(T):
    """inverse_perfection_is_perfect on tuples of series, with both halves of
    the ring-map row and F(0) = 0 computed."""
    if T.depth < 1:
        return {"checks": [], "all_pass": True, "cutoff": T.cutoff_info()}
    j, m = 1, T.depth - 1
    Sj = T.residue(j)
    samples = [x for x in (series_teich(T, j, Sj.elem(mu), m)
                           for mu in Sj.monomial_basis()[:6]) if x is not None]
    if len(samples) >= 2:
        samples.append(tuple(map(s_add, samples[0], samples[1])))
    ok_shift = all(tuple_frob(T, x, j)[1:] == x[:-1] for x in samples)
    ok_pow = all(tuple(s_pow(c, T.p) for c in x[1:])
                 == tuple(series_t_bar(T, j + l, c) for l, c in enumerate(x[:-1]))
                 for x in samples)
    ok_ring = all(
        tuple_frob(T, tuple(map(op, a, b)), j)
        == tuple(map(op, tuple_frob(T, a, j), tuple_frob(T, b, j)))
        for a in samples[:2] for b in samples[:2] for op in (s_mul, s_add))
    zero = tuple(s_zero(T.residue(j + l)) for l in range(m + 1))
    checks = [
        {"check": "shift_is_inverse_up_to_truncation", "pass": ok_shift},
        {"check": "pth_power_then_shift_is_transition", "pass": ok_pow},
        {"check": "projection_is_ring_map", "pass": ok_ring},
        {"check": "zero_maps_to_zero", "pass": all(c.is_zero for c in tuple_frob(T, zero, j))},
    ]
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks),
            "samples": len(samples), "cutoff": T.cutoff_info()}


def test_inverse_perfection_matches_the_series_path():
    """The exponent sets give the series tuples' report, as a whole dict, on
    the oracle towers and unramified towers of depth 1 and 3; the p-th power
    row both passes and fails among them."""
    towers = oracle_towers()
    for depth in (1, 3):
        towers[f"unramified_depth{depth}"] = build_tower(
            preset("unramified_rlr", 3), depth, Fraction(4), 2)
    seen = set()
    for name, T in towers.items():
        want = series_inverse_perfection(T)
        assert inverse_perfection_is_perfect(T) == want, name
        seen |= {(c["check"], c["pass"]) for c in want["checks"]}
    assert {("pth_power_then_shift_is_transition", v) for v in (True, False)} <= seen


def test_tilt_checks_build_no_series(monkeypatch):
    """inverse_perfection_is_perfect and tilt_mod_pillar_iso decide on
    exponents: past the residue rings, they do not even read f-bar, which
    axiom (a) reads once for p."""
    from ptlab import series, tower

    T = oracle_towers()["quadric_p3"]
    for j in range(T.depth + 1):
        T.residue(j).monomial_basis()
    read = []
    f_bar = series.f_bar

    def counting(ring):
        read.append(ring)
        return f_bar(ring)

    for mod in (series, tower):
        monkeypatch.setattr(mod, "f_bar", counting)
    assert verify_purely_inseparable(T)["all_pass"] and read == [T.levels[0]]
    read.clear()
    inverse_perfection_is_perfect(T)
    for j in range(T.depth + 1):
        tilt_mod_pillar_iso(T, j)
    assert read == []


def test_frobenius_projection_guards():
    """The oracle's F_i sends e^v to e^{pv} and rejects a series of the
    wrong ring."""
    T = unram2()
    e = T.residue(1).elem(T.residue(1).monomial_basis()[1])
    out = series_frob(T, 0, s_monomial(T.residue(1), e))
    assert out.terms and out.exp_terms()[0][0] == MonoidElem(tuple(2 * x for x in e.coords),
                                                             e.level, e.base)
    with pytest.raises(InvariantViolation):
        series_frob(T, 0, s_one(T.residue(0)))    # wrong source ring


def test_pillar_chain_exponents():
    T = unram2()
    pillars = pillar_system(T)
    for i in range(3):
        e = T.levels[i].elem(pillars.exps[i])
        assert e == MonoidElem((1, 0), i, 2)
        if i:
            # I_{i+1}^p = I_i R_{i+1} on monomial generators
            assert (MonoidElem(tuple(2 * x for x in e.coords), e.level, e.base)
                    == T.levels[i - 1].elem(pillars.exps[i - 1]))
    assert all(w["pass"] for w in pillars.compatibility_witnesses())


def test_pillar_chain_row_consults_the_transition():
    """(f)'s I_{i+1}^p = I_i R_{i+1} compares t_i(f_i) with f_{i+1}^p: a
    transition squaring the pillar direction breaks it at every level."""
    T, _ = SABOTAGE["f_power"]()
    rows = [r for r in verify_axioms(T)["axioms"] if r.get("note") == "I_{i+1}^p != I_i R_{i+1}"]
    assert [(r["level"], r["witness"]) for r in rows] == [
        (0, {"exponent": [1, 0], "level": 1}), (1, {"exponent": [1, 0], "level": 2})]
    assert not rows[0]["pass"]
    # the inclusion sends f_i to f_{i+1}^p
    assert not any(r.get("note") == rows[0]["note"] for r in verify_axioms(unram2())["axioms"])


def test_pillar_not_found_on_undividable_ideal():
    Tf, _ = sab_f()
    with pytest.raises(PillarNotFound):
        pillar_system(Tf)


def test_zero_ideal_pillars_are_zero():
    pillars = pillar_system(perfect_tower())
    assert pillars.exps == (None,) * len(pillars.tower.levels)


def test_sabotage_towers_fail_their_axiom():
    for letter, build in sorted(SABOTAGE.items()):
        T, expected = build()
        rep = verify_axioms(T)
        got = {}
        for row in rep["axioms"]:
            got[row["axiom"]] = got.get(row["axiom"], True) and row["pass"]
        assert got == expected, (letter, got)
        failing = [r for r in rep["axioms"] if not r["pass"]]
        assert failing
        for row in failing:
            assert "witness" in row or "note" in row, row


def test_every_failure_branch_has_a_sabotage_tower():
    """Each way a row of (b), (f) and (g) can fail, told apart by its note,
    fails on some SABOTAGE or BRANCHES tower; each BRANCHES tower gives its
    expected verdicts and fails the branch it is named after."""
    notes: dict[str, set] = {}
    for name, build in {**SABOTAGE, **BRANCHES}.items():
        T, expected = build()
        rows = verify_axioms(T)["axioms"]
        got = {}
        for row in rows:
            got[row["axiom"]] = got.get(row["axiom"], True) and row["pass"]
        assert got == expected, (name, got)
        notes[name] = {(r["axiom"], r.get("note")) for r in rows if not r["pass"]}
    assert {("b", "image vanishes"), ("b", "image collides"),
            ("f", "no monomial pillar chain"), ("f", "F(f_{i+1}) != f_i mod I0"),
            ("f", "I_{i+1}^p != I_i R_{i+1}"), ("f", "ker F_i differs from pillar multiples"),
            ("g", None), ("g", "p-scaling does not land in the lower torsion basis"),
            ("g", "lower torsion monomial with no p-divided partner")} <= set().union(*notes.values())
    assert ("b", "image collides") in notes["b_collides"]
    assert ("f", "ker F_i differs from pillar multiples") in notes["f_kernel"]
    assert ("f", "F(f_{i+1}) != f_i mod I0") in notes["f_compatible"]
    assert notes["g_scaled"] == {("g", "p-scaling does not land in the lower torsion basis")}
    assert notes["g_divided"] == {("g", "lower torsion monomial with no p-divided partner")}


def assert_inseparability_matches_the_oracle(T):
    """Rows (b) and (c) of T's report agree with series_oracle's decision from
    their definitions: the verdict, and as witness the first failure, so a
    witness is a genuine one."""
    rows = {(r["axiom"], r["level"]): r for r in verify_purely_inseparable(T)["axioms"]}
    for i in range(T.depth):
        bad_b, bad_c = inseparability_failures(T, i)
        b, c = rows["b", i], rows["c", i]
        assert b["pass"] == (not bad_b), i
        if bad_b:
            kind, e = bad_b[0]
            assert (b["note"], b["witness"]) == (f"image {kind}", e.to_json()), i
        assert c["pass"] == (not bad_c), i
        if bad_c:
            assert c["witness"] == bad_c[0].to_json(), i


@pytest.mark.parametrize("name", sorted({**SABOTAGE, **BRANCHES}))
def test_inseparability_rows_match_the_oracle(name):
    T, _ = {**SABOTAGE, **BRANCHES}[name]()
    assert_inseparability_matches_the_oracle(T)


@st.composite
def charp_towers(draw):
    """fixtures._charp_tower with up to two monomial quotients per level,
    each at that level or a coarser one, and transitions that are inclusions
    or matrices with entries in 0..2, all of which TowerDesc accepts (N^2
    maps into N^2)."""
    quotients = tuple(
        tuple(MonoidElem((draw(st.integers(0, 3)), draw(st.integers(0, 3))),
                         draw(st.integers(0, i)), 2)
              for _ in range(draw(st.integers(0, 2))))
        for i in range(DEPTH + 1))
    entry = st.integers(0, 2)
    matrices = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))
    transitions = tuple(Transition(draw(st.none() | matrices)) for _ in range(DEPTH))
    return _charp_tower(quotients, transitions)


@settings(deadline=None, max_examples=60)
@given(charp_towers())
def test_inseparability_rows_match_the_oracle_on_random_towers(T):
    assert_inseparability_matches_the_oracle(T)


def test_shift_and_qf_frobenius_are_inverse():
    rep = inverse_perfection_is_perfect(unram2())
    assert rep["all_pass"]
    names = {row["check"] for row in rep["checks"] if row["pass"]}
    assert names == {"shift_is_inverse_up_to_truncation", "pth_power_then_shift_is_transition",
                     "projection_is_ring_map", "zero_maps_to_zero"}
    assert rep["samples"] >= 2


def test_tilt_mod_pillar_iso_sizes():
    T = unram2()
    r0 = tilt_mod_pillar_iso(T, 0)
    r1 = tilt_mod_pillar_iso(T, 1)
    assert r0["bijective"] and r0["basis_size"] == 5
    assert r1["bijective"] and r1["basis_size"] == 17
    assert r0["mismatches"] == []


def test_exactstilt_report_shape():
    rep = verify_exactstilt(unram2(), 0)
    assert rep["all_pass"]
    checks = {row["check"] for row in rep["checks"]}
    assert {"principal", "pillar_power", "torsion"} <= checks


def test_transition_matrix_action():
    t = Transition(((1, 1), (0, 1)))
    assert t.act((2, 3)) == (5, 3)
    assert Transition().act((2, 3)) == (2, 3)


# transitions are checked on the generators of R_i's exponent monoid: here
# the A1 cone <(2,0),(1,1),(0,2)> plus one free coordinate, p = 2, D = 4


def a1_ring(ml, fl):
    return SeriesRingDesc(monoid_part=AffineMonoid(2, 2, ml, ((2, 0), (1, 1), (0, 2))),
                          free_rank=1, free_level=fl, precision=1, cutoff=Fraction(4))


def one_step(matrix, src=(0, 0), dst=(0, 0)):
    levels = (a1_ring(*src), a1_ring(*dst))
    return TowerDesc(levels=levels, transitions=(Transition(matrix),),
                     base_ideal=None)


def test_transition_on_generators_accepts_a_monoid_map():
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert one_step(swap).levels[0].generators == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))
    # the inclusion into the next division level
    assert one_step(None, dst=(1, 1)).levels[1].generators == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))


def test_transition_monoid_generator_outside_below_the_cutoff():
    # (1,1) -> (2,1), of degree 3 <= D, is off the A1 lattice
    with pytest.raises(InvariantViolation, match="sends <1,1,0> outside level 1"):
        one_step(((1, 1, 0), (0, 1, 0), (0, 0, 1)))


def test_transition_outside_only_above_the_cutoff():
    # (x, y, z) -> (x + 9y, y, z) leaves A1 exactly when x and y are odd, and
    # then the image has degree >= 11 > D: every in-cutoff image of a basis
    # monomial is inside level 1, yet the map is no monoid map
    t = ((1, 9, 0), (0, 1, 0), (0, 0, 1))
    src = dst = a1_ring(0, 0)
    for v in src.monomial_basis():
        w = dst.vec_at(Transition(t).act(src.elem(v).at_level(src.level)), src.level)
        assert sum(w) > dst.cap or dst.structural_contains(w)
    with pytest.raises(InvariantViolation, match="sends <1,1,0> outside level 1"):
        one_step(t)


def test_transition_image_finer_than_the_next_level():
    # the free coordinate is divided at level 0 but not at level 1: its unit
    # vector has no image at level 1's level
    src, dst = a1_ring(0, 1), a1_ring(0, 0)
    assert Transition().on_packed(src, dst)(src.pack(src.generators[-1])) is None
    with pytest.raises(InvariantViolation, match=r"sends <0,0,1>/2\^1 outside level 1"):
        one_step(None, src=(0, 1), dst=(0, 0))


def test_transition_free_unit_vector_outside():
    # the free unit (0,0,1) -> (1,0,1), whose monoid part is off the A1 lattice
    with pytest.raises(InvariantViolation, match="sends <0,0,1> outside level 1"):
        one_step(((1, 0, 1), (0, 1, 0), (0, 0, 1)))


def test_building_a_tower_computes_no_support():
    from ptlab import monoid

    monoid.walk.cache_clear()
    T = build_tower(preset("quadric", 3), 2, Fraction(4), 2)
    assert monoid.walk.cache_info().currsize == 0
    assert not any("_walk" in R.__dict__ for R in T.levels)


def test_verify_and_exactstilt_walk_the_top_level_to_cap_over_p(capsys):
    """verify and exactstilt read the top level as a prefix up to degree
    cap/p (where p d, or p^m d, leaves the cutoff) and as point queries, so
    the walk the levels share stops there; tilt counts every basis and
    compares them on quotient monomials, and its mod-pillar isomorphism at
    home level 1 reads S_1, up to the same degree."""
    from ptlab import monoid
    from ptlab.cli import main

    P = preset("quadric", 7)
    for action in ("verify", "exactstilt", "tilt"):
        monoid.walk.cache_clear()
        assert main(["tower", action, "--preset", "quadric", "--p", "7", "--depth", "2"]) == 0
        top = build_tower(P, 2, 4, 2).levels[-1]
        assert top.cap == 196
        assert top._walk.degree <= top.cap // 7, action
    capsys.readouterr()


def test_exactstilt_evaluates_few_lattice_tests(capsys, monkeypatch):
    """The roots of a monomial tuple and the lifts of the principal row are
    exponents of their rings when the levels share their generators, and
    live and nonzero_mod skip the lattice part for ring exponents: exactstilt
    on the quadric at p = 3, depth 2 evaluates the lattice equation 31
    times (560 when every root and lift took the full member test)."""
    from ptlab import series
    from ptlab.cli import main

    calls = []
    member_test = series.member_test

    def counting(gens, n, base):
        full, facets = member_test(gens, n, base)
        return (None if full is None else lambda u: calls.append(u) or full(u)), facets

    monkeypatch.setattr(series, "member_test", counting)
    assert main(["tower", "exactstilt", "--preset", "quadric", "--p", "3", "--depth", "2"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 40


def test_tower_descriptor_roundtrip():
    for T in (unram2(), sab_c()[0], perfect_tower()):
        assert TowerDesc.from_descriptor(T.to_descriptor()) == T
    # depth and matrix entries must be JSON integers: 2.0, 1.9 and 1.7 are rejected
    d = sab_c()[0].to_descriptor()
    twisted = [[[x + 0.7 if x == 1 else x for x in row] for row in t] for t in d["transitions"]]
    for bad in ({**d, "depth": 2.0}, {**d, "depth": 1.9}, {**d, "transitions": twisted}):
        with pytest.raises(ValueError):
            TowerDesc.from_descriptor(bad)


def test_levels_share_the_cutoff():
    # cutoff_info reports one D, so a level truncated elsewhere is rejected
    T = unram2()
    short = replace(T.levels[1], cutoff=Fraction(2))
    with pytest.raises(InvariantViolation):
        replace(T, levels=(T.levels[0], short, T.levels[2]))


def test_cutoff_info():
    info = unram2().cutoff_info()
    assert info == {"depth": 2, "D": "4/1", "N": 2}
