"""Towers of truncated rings: inseparability axioms, pillars, small tilts.

A tower is a finite chain R_0 -> ... -> R_m of ring descriptors whose
transitions act on exponents, together with a principal base ideal I_0 in R_0.
All verification happens in the residue rings S_i = R_i/(I_0 + p), whose
monomial bases are finite at the degree cutoff.  Axiom checks never throw:
they return report rows with counterexample witnesses, so deliberately broken
towers are first-class inputs.

Truncation policy: any probe whose defining product or image would leave the
degree cutoff is skipped rather than counted, and every report carries
(depth, D, N).  Nothing is claimed beyond the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .monoid import MonoidElem, json_int
from .series import (
    InvariantViolation,
    Series,
    SeriesRingDesc,
    is_unit,
    make_series,
    reduce_mod_I0,
    s_add,
    s_monomial,
    s_mul,
    s_one,
    s_zero,
    term_from_json,
    torsion_annihilator,
)


class AxiomViolation(ValueError):
    pass


class PillarNotFound(ValueError):
    pass


class IncompatibleComponents(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    """Exponent-linear transition t_i: R_i -> R_{i+1}.

    None means the inclusion (identity on exponent vectors); otherwise an
    integer matrix acts on the coordinate vector, level-equivariantly.
    """

    matrix: tuple[tuple[int, ...], ...] | None = None

    def apply_exp(self, e: MonoidElem) -> MonoidElem:
        if self.matrix is None:
            return e
        coords = tuple(
            sum(row[k] * e.coords[k] for k in range(len(e.coords))) for row in self.matrix
        )
        return MonoidElem(coords, e.level, e.base)

    def apply(self, x: Series, target: SeriesRingDesc) -> Series:
        return make_series(target, [(self.apply_exp(e), c) for e, c in x.terms])


@dataclass(frozen=True)
class TowerDesc:
    """R_0 .. R_depth with transitions and the principal base ideal I_0."""

    levels: tuple[SeriesRingDesc, ...]
    transitions: tuple[Transition, ...]
    base_ideal: Series
    depth: int

    def __post_init__(self):
        if len(self.levels) != self.depth + 1:
            raise InvariantViolation("levels must run R_0 .. R_depth")
        if len(self.transitions) != self.depth:
            raise InvariantViolation("one transition per consecutive pair")
        if self.base_ideal.ring != self.levels[0]:
            raise InvariantViolation("base ideal must live in R_0")
        if any(R.cutoff != self.levels[0].cutoff for R in self.levels):
            raise InvariantViolation("all levels must share the degree cutoff D")
        for i, t in enumerate(self.transitions):
            src, dst = self.levels[i], self.levels[i + 1]
            for e in src.monomial_basis():
                img = t.apply_exp(e)
                # an image finer than dst is outside it at every degree
                if not dst.exp_in_ring(img) and (img.level > dst.level
                                                 or dst.deg(img) <= dst.cap):
                    raise InvariantViolation(
                        f"transition {i} sends {e} outside level {i + 1}"
                    )

    @property
    def p(self) -> int:
        return self.levels[0].p

    def cutoff_info(self) -> dict:
        D = self.levels[0].cutoff
        return {
            "depth": self.depth,
            "D": f"{D.numerator}/{D.denominator}",
            "N": self.levels[0].precision,
        }

    def ideal_exp(self) -> MonoidElem | None:
        """Exponent of the monomial I_0 generator; None for I_0 = (0)."""
        if self.base_ideal.is_zero:
            return None
        if len(self.base_ideal.terms) != 1:
            return None
        return self.base_ideal.terms[0][0]

    def residue(self, i: int) -> SeriesRingDesc:
        return _residue_ring(self, i)

    def transition_bar(self, i: int, x: Series) -> Series:
        """t-bar_i: S_i -> S_{i+1}."""
        return self.transitions[i].apply(x, self.residue(i + 1))

    def to_descriptor(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [r.to_descriptor() for r in self.levels],
            "transitions": [
                None if t.matrix is None else [list(r) for r in t.matrix]
                for t in self.transitions
            ],
            "base_ideal": self.base_ideal.to_json(),
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> TowerDesc:
        levels = tuple(SeriesRingDesc.from_descriptor(r) for r in d["levels"])
        transitions = tuple(
            Transition(None if t is None else tuple(tuple(map(json_int, row)) for row in t))
            for t in d["transitions"]
        )
        terms = [term_from_json(t, levels[0].p) for t in d["base_ideal"]]
        base = make_series(levels[0], terms, validate=True)
        return cls(levels=levels, transitions=transitions, base_ideal=base,
                   depth=json_int(d["depth"]))


@lru_cache(maxsize=None)
def _residue_ring(T: TowerDesc, i: int) -> SeriesRingDesc:
    """S_i = R_i/(I_0 + p): char-p ring with the I_0 monomial quotiented.

    For a mixed ring with relation theta = p - f this kills both f-bar and the
    ideal generator; when they coincide (every preset) that is the usual mod-p
    picture.  Equal-characteristic levels just gain the ideal monomial.
    """
    gexp = T.ideal_exp()
    ring = T.levels[i]
    return ring.residue_ring() if gexp is None else ring.residue_ring(gexp)


def _row(axiom: str, level: int, ok: bool, witness=None, note: str | None = None) -> dict:
    out = {"axiom": axiom, "level": level, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    if note is not None:
        out["note"] = note
    return out


def _frob_exp(ring: SeriesRingDesc, e: MonoidElem) -> Series:
    """The canonical rule e -> e^p inside one residue ring, cutoff-truncated."""
    return make_series(ring, [(e.scale(ring.p), 1)])


def verify_purely_inseparable(T: TowerDesc) -> dict:
    """Axioms (a) p in I_0, (b) t-bar injective, (c) Frob lands in im(t-bar)."""
    rows = []
    R0 = T.levels[0]
    p_series = make_series(R0, [(R0.zero_exp, T.p)])
    gexp = T.ideal_exp()
    if T.base_ideal.is_zero:
        rows.append(_row("a", 0, p_series.is_zero,
                         None if p_series.is_zero else p_series.to_json(),
                         note="I0 = (0): p must vanish in R0"))
    elif gexp is None:
        rows.append(_row("a", 0, False, T.base_ideal.to_json(),
                         note="non-monomial ideal generator unsupported"))
    else:
        bad = [e for e, _ in p_series.terms if not R0.exp_in_ring(e - gexp)]
        rows.append(_row("a", 0, not bad, bad[0].to_json() if bad else None))

    for i in range(T.depth):
        Si, Si1 = T.residue(i), T.residue(i + 1)
        t = T.transitions[i]
        images = {}
        bad_b = None
        for e in Si.monomial_basis():
            ie = t.apply_exp(e)
            if Si1.deg(ie) > Si1.cap:
                continue  # image leaves the cutoff: no claim at this truncation
            if make_series(Si1, [(ie, 1)]).is_zero:
                bad_b = ("vanishes", e)
                break
            if ie in images:
                bad_b = ("collides", e)
                break
            images[ie] = e
        if bad_b is None:
            rows.append(_row("b", i, True))
        else:
            rows.append(_row("b", i, False, bad_b[1].to_json(), note=f"image {bad_b[0]}"))

        bad_c = None
        for d in Si1.monomial_basis():
            fr = _frob_exp(Si1, d)
            if fr.is_zero:
                continue  # Frobenius image already zero, trivially in the image
            if fr.terms[0][0] not in images:
                bad_c = d
                break
        rows.append(_row("c", i, bad_c is None, bad_c.to_json() if bad_c is not None else None))
    return {"axioms": rows, "all_pass": all(r["pass"] for r in rows), "cutoff": T.cutoff_info()}


@dataclass(frozen=True)
class FrobProjection:
    """F_i: S_{i+1} -> S_i, the canonical monomial rule e^g -> e^{pg}."""

    tower: TowerDesc
    level: int

    def apply(self, x: Series) -> Series:
        Si = self.tower.residue(self.level)
        if x.ring != self.tower.residue(self.level + 1):
            raise InvariantViolation("argument must live in S_{i+1}")
        p = self.tower.p
        return make_series(Si, [(e.scale(p), pow(c, p, p)) for e, c in x.terms])


def frobenius_projection(T: TowerDesc, i: int) -> FrobProjection:
    """The unique factorization F_i of Frobenius through t-bar_i.

    Raises AxiomViolation when some basis monomial breaks the factorization
    identity t-bar_i(F_i(x)) = x^p inside S_{i+1} (within the cutoff).
    """
    F = FrobProjection(T, i)
    Si1 = T.residue(i + 1)
    bad = next(_frobenius_failures(Si1, lambda x: T.transition_bar(i, F.apply(x))), None)
    if bad is not None:
        raise AxiomViolation(f"no Frobenius factorization at monomial {bad}")
    return F


def _frobenius_failures(ring: SeriesRingDesc, via):
    """Basis monomials g of ring with via(e^g) != e^{pg}, within the cutoff."""
    for g in ring.monomial_basis():
        if ring.p * ring.deg(g) > ring.cap:
            continue
        if via(s_monomial(ring, g)) != _frob_exp(ring, g):
            yield g


def frobenius_identities(T: TowerDesc, i: int) -> dict:
    """Both diagram identities on every basis monomial within the cutoff.

    t-bar_i(F_i(e^d)) = e^{pd} in S_{i+1}, and F_i(t-bar_i(e^g)) = e^{pg}
    in S_i; witnesses are returned rather than raised.
    """
    F = FrobProjection(T, i)
    t_after_F = _frobenius_failures(T.residue(i + 1), lambda x: T.transition_bar(i, F.apply(x)))
    F_after_t = _frobenius_failures(T.residue(i), lambda x: F.apply(T.transition_bar(i, x)))
    bad_tf = [d.to_json() for d in t_after_F]
    bad_ft = [g.to_json() for g in F_after_t]
    return {
        "level": i,
        "t_after_F_is_frobenius": not bad_tf,
        "F_after_t_is_frobenius": not bad_ft,
        "witnesses": bad_tf + bad_ft,
        "cutoff": T.cutoff_info(),
    }


def pillar_system(T: TowerDesc):
    """Monomial generators f_i of the unique pillar chain I_i.

    f_i has the exponent of the I_0 generator divided by p^i; existence in the
    level-i monoid is exactly what can fail, and failure raises PillarNotFound
    with the offending level.
    """
    gexp = T.ideal_exp()
    gens = []
    if T.base_ideal.is_zero:
        # I = (0): the chain is the zero ideal at every level
        for i in range(T.depth + 1):
            gens.append(s_zero(T.levels[i]))
        return PillarSystem(tower=T, generators=tuple(gens))
    if gexp is None:
        raise PillarNotFound("base ideal generator is not monomial")
    for i in range(T.depth + 1):
        pe = gexp.divide(i)
        if not T.levels[i].exp_in_ring(pe):
            raise PillarNotFound(f"no monomial pillar at level {i}: {pe} is not in the monoid")
        gens.append(s_monomial(T.levels[i], pe))
    return PillarSystem(tower=T, generators=tuple(gens))


@dataclass(frozen=True)
class PillarSystem:
    tower: TowerDesc
    generators: tuple[Series, ...]

    def exponent(self, i: int) -> MonoidElem | None:
        g = self.generators[i]
        return None if g.is_zero else g.terms[0][0]

    def compatibility_witnesses(self) -> list[dict]:
        """F_i(f-bar_{i+1}) = f-bar_i on the nose, reported per level."""
        T = self.tower
        out = []
        for i in range(T.depth):
            Si = T.residue(i)
            fb1 = reduce_mod_I0(self.generators[i + 1], T.residue(i + 1))
            lhs = FrobProjection(T, i).apply(fb1)
            rhs = reduce_mod_I0(self.generators[i], Si)
            out.append({"level": i, "pass": lhs == rhs})
        return out


def verify_perfectoid(T: TowerDesc) -> dict:
    """Axioms (d) Frobenius projections surjective, (e) Zariskian locality,
    (f) pillar existence with I_{i+1}^p = I_i R_{i+1} and the kernel identity,
    (g) I_0-torsion killed by I_0 with the torsion bases matched by p-scaling.
    """
    rows = []
    p = T.p
    gexp = T.ideal_exp()

    for i in range(T.depth):
        Si, Si1 = T.residue(i), T.residue(i + 1)
        bad_d = None
        for mu in Si.monomial_basis():
            if not Si1.exp_in_ring(mu.divide(1)) or Si1.dominated(mu.divide(1)):
                bad_d = mu
                break
        rows.append(_row("d", i, bad_d is None, bad_d.to_json() if bad_d is not None else None))

    if T.base_ideal.is_zero:
        rows.append(_row("e", 0, True, note="I0 = (0) is contained in every maximal ideal"))
    else:
        ok_e = not is_unit(T.base_ideal)
        rows.append(_row("e", 0, ok_e,
                         None if ok_e else T.base_ideal.to_json(),
                         note="constant-term locality check (preset-only)"))

    # (f): pillar chain and the kernel comparison
    try:
        pillars = pillar_system(T)
    except PillarNotFound as exc:
        rows.append(_row("f", -1, False, str(exc), note="no monomial pillar chain"))
        pillars = None
    if pillars is not None:
        ok_f = True
        for w in pillars.compatibility_witnesses():
            if not w["pass"]:
                rows.append(_row("f", w["level"], False, note="F(f_{i+1}) != f_i mod I0"))
                ok_f = False
        for i in range(T.depth):
            e1, e0 = pillars.exponent(i + 1), pillars.exponent(i)
            if e1 is not None and e0 is not None and e1.scale(p) != e0:
                rows.append(_row("f", i, False, e1.to_json(), note="I_{i+1}^p != I_i R_{i+1}"))
                ok_f = False
        for i in range(T.depth):
            mism = _kernel_mismatch(T, i, pillars)
            if mism is not None:
                rows.append(_row("f", i, False, mism.to_json(),
                                 note="ker F_i differs from pillar multiples"))
                ok_f = False
        if ok_f:
            rows.append(_row("f", -1, True, note="pillar chain with kernel identity"))

    # (g): torsion annihilated by I_0, p-scaling matches torsion across levels
    tors = []
    for i in range(T.depth + 1):
        Ri = T.levels[i]
        gen = s_zero(Ri) if T.base_ideal.is_zero else s_monomial(Ri, gexp)
        tors.append(torsion_annihilator(Ri, gen))
    ok_g = True
    witness_g = None
    note_g = None
    if T.base_ideal.is_zero:
        note_g = "I0 = (0): axiom follows from (c) and (f); torsion is the whole ring"
    else:
        for i in range(T.depth + 1):
            Ri = T.levels[i]
            g_i = s_monomial(Ri, gexp)
            for m in tors[i].monomial_exps():
                if Ri.deg(m) + Ri.deg(gexp) > Ri.cap:
                    continue
                if not s_mul(s_monomial(Ri, m), g_i).is_zero:
                    ok_g = False
                    witness_g = m.to_json()
                    break
            if not ok_g:
                break
    if ok_g:
        for i in range(T.depth):
            up = {m for m in tors[i + 1].monomial_exps()}
            down = {m for m in tors[i].monomial_exps()}
            Ri = T.levels[i]
            for m in up:
                mp = m.scale(p)
                if mp not in down and Ri.exp_in_ring(mp) and Ri.deg(mp) <= Ri.cap:
                    ok_g = False
                    witness_g = m.to_json()
                    note_g = "p-scaling does not land in the lower torsion basis"
                    break
            if not ok_g:
                break
            for m in down:
                dm = m.divide(1)
                if T.levels[i + 1].exp_in_ring(dm) and dm not in up:
                    ok_g = False
                    witness_g = m.to_json()
                    note_g = "lower torsion monomial with no p-divided partner"
                    break
            if not ok_g:
                break
    rows.append(_row("g", -1, ok_g, witness_g, note=note_g))

    return {"axioms": rows, "all_pass": all(r["pass"] for r in rows), "cutoff": T.cutoff_info()}


def _kernel_mismatch(T: TowerDesc, i: int, pillars: PillarSystem) -> MonoidElem | None:
    """First basis monomial violating ker(F_i) = I_1 (R_{i+1}/I_0).

    The kernel of every Frobenius projection is the level-1 pillar ideal: the
    residue rings all carry the same level-0 quotient exponents, so Frobenius
    kills exactly the p-divided multiples of those.  The predicted set uses
    every quotient exponent the residue ring carries (the reduced relation and
    any quotients baked into an equal-characteristic level behave like the
    ideal generator here), so only a genuine discrepancy is reported.
    """
    Si, Si1 = T.residue(i), T.residue(i + 1)
    gexp = T.ideal_exp()
    pe = None if gexp is None else gexp.divide(1)
    ambient = [q.divide(1) for q in Si1.quotient_exps]
    for d in Si1.monomial_basis():
        if T.p * Si1.deg(d) > Si1.cap:
            continue  # truncation kill, not kernel
        in_ker = make_series(Si, [(d.scale(T.p), 1)]).is_zero
        predicted = any(Si1.exp_in_ring(d - q) for q in ambient)
        if pe is not None:
            predicted = predicted or Si1.exp_in_ring(d - pe)
        if in_ker != predicted:
            return d
    return None


def verify_tower(T: TowerDesc) -> dict:
    """Full (a)-(g) verdict: purely inseparable layer plus perfectoid layer."""
    a = verify_purely_inseparable(T)
    b = verify_perfectoid(T)
    rows = a["axioms"] + b["axioms"]
    return {"axioms": rows, "all_pass": a["all_pass"] and b["all_pass"], "cutoff": T.cutoff_info()}


# ---------------------------------------------------------------------------
# the small tilt: depth-m compatible tuples


@dataclass(frozen=True)
class TiltElem:
    """A truncated element of the small tilt at home level j.

    components[l] lives in S_{j+l}; compatibility F(a_{l+1}) = a_l holds
    exactly at the cutoff (Frobenius projections lose nothing below D).
    """

    tower: TowerDesc
    home: int
    components: tuple[Series, ...]

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def project(self, m: int) -> Series:
        return self.components[m]


def tilt_elem(T: TowerDesc, j: int, components, check: bool = True) -> TiltElem:
    comps = tuple(components)
    for l, c in enumerate(comps):
        if c.ring != T.residue(j + l):
            raise IncompatibleComponents(f"component {l} lives in the wrong ring")
    if check:
        for l in range(len(comps) - 1):
            F = FrobProjection(T, j + l)
            if F.apply(comps[l + 1]) != comps[l]:
                raise IncompatibleComponents(f"F(a_{l + 1}) != a_{l}")
    return TiltElem(T, j, comps)


def te_zero(T: TowerDesc, j: int, depth: int) -> TiltElem:
    return TiltElem(T, j, tuple(s_zero(T.residue(j + l)) for l in range(depth + 1)))


def te_one(T: TowerDesc, j: int, depth: int) -> TiltElem:
    return TiltElem(T, j, tuple(s_one(T.residue(j + l)) for l in range(depth + 1)))


def te_add(x: TiltElem, y: TiltElem) -> TiltElem:
    _te_match(x, y)
    return TiltElem(x.tower, x.home, tuple(s_add(a, b) for a, b in zip(x.components, y.components)))


def te_mul(x: TiltElem, y: TiltElem) -> TiltElem:
    _te_match(x, y)
    return TiltElem(x.tower, x.home, tuple(s_mul(a, b) for a, b in zip(x.components, y.components)))


def te_pow(x: TiltElem, n: int) -> TiltElem:
    out = te_one(x.tower, x.home, x.depth)
    for _ in range(n):
        out = te_mul(out, x)
    return out


def _te_match(x: TiltElem, y: TiltElem):
    if x.tower != y.tower or x.home != y.home or x.depth != y.depth:
        raise IncompatibleComponents("tilt elements from different contexts")


def teich_tilt(T: TowerDesc, j: int, mu: MonoidElem, depth: int) -> TiltElem:
    """The monomial tilt (e^mu, e^{mu/p}, ...): p-division tuples."""
    comps = []
    for l in range(depth + 1):
        ring = T.residue(j + l)
        e = mu.divide(l)
        if not ring.exp_in_ring(e):
            raise IncompatibleComponents(f"{mu} has no p^{l}-th root at level {j + l}")
        comps.append(s_monomial(ring, e))
    return TiltElem(T, j, tuple(comps))


def pillar_tilt(T: TowerDesc, j: int, depth: int) -> TiltElem:
    """f^{s.flat}_j = (f_j mod I0, f_{j+1} mod I0, ...)."""
    gexp = T.ideal_exp()
    if gexp is None:
        return te_zero(T, j, depth)
    comps = []
    for l in range(depth + 1):
        ring = T.residue(j + l)
        comps.append(make_series(ring, [(gexp.divide(j + l), 1)]))
    return TiltElem(T, j, tuple(comps))


def tilt_depth(T: TowerDesc, j: int) -> int:
    return T.depth - j


def tilt_mod_pillar_iso(T: TowerDesc, j: int) -> dict:
    """Basis bijection behind "tilt mod its base ideal = R_j/I_0".

    The tilt-side base ideal at home level j is generated by the p^j-th power
    of the tilt pillar (its 0-th component is the f-bar monomial itself), so
    the projection to the 0-th component matches monomial tuples within the
    cutoff bijectively with the monomial basis of S_j.  Every in-cutoff
    monomial tuple is either hit by the section or falls in the ideal; both
    failures would be reported with witnesses.
    """
    m = tilt_depth(T, j)
    Sj = T.residue(j)
    gexp = T.ideal_exp()
    correspondence = []
    mismatches = []
    for mu in Sj.monomial_basis():
        try:
            te = teich_tilt(T, j, mu, m)
        except IncompatibleComponents:
            mismatches.append({"direction": "section", **mu.to_json()})
            continue
        if te.project(0) != s_monomial(Sj, mu):
            mismatches.append({"direction": "projection", **mu.to_json()})
            continue
        correspondence.append(mu.to_json())
    # completeness: classify every depth-m monomial tuple inside the cutoff
    top_ring = T.residue(j + m)
    basis_set = set(Sj.monomial_basis())
    for d in top_ring.monomial_basis():
        mu = d.scale(T.p ** m)
        if Sj.deg(mu) > Sj.cap:
            continue
        # top exponent of the tilt-side ideal generator is gexp / p^m
        in_ideal = gexp is not None and top_ring.exp_in_ring(d - gexp.divide(m))
        if (mu in basis_set) == in_ideal:
            mismatches.append({"direction": "partition", **d.to_json()})
    return {
        "home_level": j,
        "bijective": not mismatches,
        "basis_size": len(correspondence),
        "mismatches": mismatches,
        "cutoff": T.cutoff_info(),
    }


def verify_exactstilt(T: TowerDesc, j: int) -> dict:
    """Principality of the tilt-side ideal chain and the torsion comparison.

    Checks, within the cutoff: ker of (project to S_j, then kill the level-j
    pillar) is exactly the multiples of the tilt pillar; the p-th power of
    the next tilt pillar equals the transition image of this one; and the
    torsion annihilators of tilt and source are simultaneously empty (or
    simultaneously not, matched by exponent).
    """
    m = tilt_depth(T, j)
    p = T.p
    gexp = T.ideal_exp()
    rows = []

    if gexp is None:
        rows.append({"check": "principal", "pass": True,
                     "note": "I = (0): the tilt ideal is zero"})
    else:
        Sj = T.residue(j)
        full_top = replace(T.residue(j + m), quotient_exps=())
        pe_top = gexp.divide(j + m)  # top component exponent of the tilt pillar
        pe_home = gexp.divide(j)
        bad = None
        for d in full_top.monomial_basis():
            mu = d.scale(p ** m)
            if Sj.deg(mu) > Sj.cap:
                continue
            # kernel of pi_j o Phi_0: e^mu dies in R_j/(I_j + I_0), I_j the level-j pillar
            in_ker = not Sj.exp_in_ring(mu) or Sj.dominated(mu) or Sj.exp_in_ring(mu - pe_home)
            in_ideal = full_top.exp_in_ring(d - pe_top)
            if in_ker != in_ideal:
                bad = d
                break
        rows.append({"check": "principal", "pass": bad is None,
                     **({"witness": bad.to_json()} if bad is not None else {})})

        if j + 1 <= T.depth:
            mj1 = tilt_depth(T, j + 1)
            f_j = pillar_tilt(T, j, mj1)
            f_j1 = pillar_tilt(T, j + 1, mj1)
            powed = te_pow(f_j1, p)
            ok = True
            for l in range(mj1 + 1):
                shifted = T.transition_bar(j + l, f_j.components[l])
                if powed.components[l] != shifted:
                    ok = False
                    break
            rows.append({"check": "pillar_power", "pass": ok})

    # torsion on both sides
    src_t = torsion_annihilator(
        T.levels[j],
        s_zero(T.levels[j]) if gexp is None else s_monomial(T.levels[j], gexp),
    )
    tilt_tor = _tilt_torsion(T, j)
    sides_agree = src_t.is_zero == tilt_tor["is_zero"]
    rows.append({
        "check": "torsion",
        "pass": sides_agree,
        "source_empty": src_t.is_zero,
        "tilt_empty": tilt_tor["is_zero"],
        **({"note": "I = (0): torsion degenerate per the (c)+(f) remark"} if gexp is None else {}),
    })
    return {
        "home_level": j,
        "checks": rows,
        "all_pass": all(r["pass"] for r in rows),
        "cutoff": T.cutoff_info(),
    }


def _tilt_torsion(T: TowerDesc, j: int) -> dict:
    """Componentwise annihilator of the tilt pillar on monomial tuples."""
    m = tilt_depth(T, j)
    gexp = T.ideal_exp()
    if gexp is None:
        return {"is_zero": False, "note": "whole ring is 1-torsion for I = (0)"}
    found = []
    f = pillar_tilt(T, j, m)
    Sj = T.residue(j)
    fdeg = Sj.deg(gexp.divide(j))
    for mu in Sj.monomial_basis():
        if Sj.deg(mu) + fdeg > Sj.cap:
            continue
        try:
            te = teich_tilt(T, j, mu, m)
        except IncompatibleComponents:
            continue
        if all(c.is_zero for c in te_mul(te, f).components):
            found.append(mu)
    return {"is_zero": not found, "monomials": [e.to_json() for e in found]}


def shift_tilt(x: TiltElem) -> TiltElem:
    """Drop the 0-th component: depth m -> m-1, home level j -> j+1."""
    if x.depth < 1:
        raise IncompatibleComponents("cannot shift a depth-0 tilt element")
    return TiltElem(x.tower, x.home + 1, x.components[1:])


def truncate_tilt(x: TiltElem, depth: int) -> TiltElem:
    return TiltElem(x.tower, x.home, x.components[: depth + 1])


def frob_qf(x: TiltElem) -> TiltElem:
    """(F_j)^{q.frep}: apply F componentwise, home level j+1 -> j."""
    T = x.tower
    j = x.home - 1
    if j < 0:
        raise IncompatibleComponents("no lower level to project to")
    comps = tuple(FrobProjection(T, j + l).apply(c) for l, c in enumerate(x.components))
    return TiltElem(T, j, comps)


def inverse_perfection_is_perfect(T: TowerDesc) -> dict:
    """Perfectness of the truncated inverse limit.

    On deterministic samples (monomial tilts and their sums): the component
    Frobenius projection composed with the shift is depth-truncation in both
    orders, the p-th power followed by shift equals the transition map on
    tilts, and the projection is a ring map.
    """
    checks = []
    j = 1
    if T.depth < 1:
        return {"checks": [], "all_pass": True, "cutoff": T.cutoff_info()}
    m = tilt_depth(T, j)
    samples = []
    basis = T.residue(j).monomial_basis()
    for mu in basis[: min(6, len(basis))]:
        try:
            samples.append(teich_tilt(T, j, mu, m))
        except IncompatibleComponents:
            continue
    if len(samples) >= 2:
        samples.append(te_add(samples[0], samples[1]))

    ok_shift = True
    ok_pow = True
    ok_ring = True
    for x in samples:
        fx = frob_qf(x)  # home j-1
        if x.depth >= 1:
            lhs = shift_tilt(fx)  # home j, depth m-1
            if lhs.components != truncate_tilt(x, x.depth - 1).components:
                ok_shift = False
            rhs = frob_qf(shift_tilt(x)) if x.home + 1 <= T.depth and x.depth >= 1 else None
            if rhs is not None and rhs.components != truncate_tilt(x, x.depth - 1).components:
                ok_shift = False
        if x.depth >= 1:
            powed = shift_tilt(te_pow(x, T.p))
            timg = tuple(
                T.transition_bar(j + l, c) for l, c in enumerate(x.components[:-1])
            )
            if powed.components != timg:
                ok_pow = False
    for a in samples[:2]:
        for b in samples[:2]:
            if frob_qf(te_mul(a, b)).components != te_mul(frob_qf(a), frob_qf(b)).components:
                ok_ring = False
            if frob_qf(te_add(a, b)).components != te_add(frob_qf(a), frob_qf(b)).components:
                ok_ring = False
    zero = te_zero(T, j, m)
    checks.append({"check": "shift_is_inverse_up_to_truncation", "pass": ok_shift})
    checks.append({"check": "pth_power_then_shift_is_transition", "pass": ok_pow})
    checks.append({"check": "projection_is_ring_map", "pass": ok_ring})
    checks.append({"check": "zero_maps_to_zero", "pass": frob_qf(zero).is_zero})
    return {
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "samples": len(samples),
        "cutoff": T.cutoff_info(),
    }
