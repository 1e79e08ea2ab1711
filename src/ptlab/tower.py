"""Towers of truncated rings: inseparability axioms, pillars, small tilts.

A tower is a finite chain R_0 -> ... -> R_m of ring descriptors whose
transitions act on exponents, together with a principal base ideal I_0 in R_0.
All verification happens in the residue rings S_i = R_i/(I_0 + p), whose
monomial bases are finite at the degree cutoff.  Axiom checks never throw:
they return report rows with counterexample witnesses, so deliberately broken
towers are first-class inputs.

Truncation policy: any probe whose defining product or image would leave the
degree cutoff is skipped rather than counted, and every report carries
(depth, D, N).  Nothing is claimed beyond the cutoff.  A probe asks, on
packed exponents, whether e^v is a nonzero monomial and where F_i, t-bar_i
and Frobenius send it, through closures that each ring (SeriesRingDesc.live,
nonzero, nonzero_mod) and each tower (TowerDesc.F, t_bar, frob, roots)
build once.  ring.live(v) and ring.nonzero_mod(ws)(v) need v to be an
exponent of the ring, so a tower uses live only while every exponent its
maps meet is one, and nonzero, the full test, otherwise (TowerDesc._alive).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial

from .monoid import MonoidElem, json_int, term_from_json, term_json
from .record import record
from .series import InvariantViolation, SeriesRingDesc, f_bar


class PillarNotFound(ValueError):
    pass


@record
class Transition:
    """Exponent-linear transition t_i: R_i -> R_{i+1}.

    None means the inclusion (identity on exponent vectors); otherwise an
    integer matrix acts on the coordinate vector, level-equivariantly.
    """

    matrix: tuple[tuple[int, ...], ...] | None = None

    def act(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """The image of coordinates v, at the same level."""
        if self.matrix is None:
            return v
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.matrix)

    def on_packed(self, source: SeriesRingDesc, target: SeriesRingDesc):
        """v -> t(v) for packed exponents v of source, packed at target's
        level (None if finer than target); a matrix acts on the unpacked
        coordinates."""
        scale = target.scaler(source.level)
        if self.matrix is None:
            return scale
        act, pack, unpack = self.act, target.pack, source.unpack

        def act_packed(v):
            return scale(pack(act(unpack(v))))

        return act_packed


@record
class TowerDesc:
    """R_0 .. R_depth with transitions and the principal base ideal I_0.

    base_ideal is the I_0 generator as one term, an exponent of R_0 within
    the cutoff with a coefficient in [1, p), or None for I_0 = (0).  The levels
    share one packed exponent layout, sized from the largest cap (the top
    level's), so a map between levels is an int product; the levels given
    are widened to it.
    """

    levels: tuple[SeriesRingDesc, ...]
    transitions: tuple[Transition, ...]
    base_ideal: tuple[MonoidElem, int] | None

    def __post_init__(self):
        if len(self.transitions) != self.depth:
            raise InvariantViolation("one transition per consecutive pair")
        R0 = self.levels[0]
        if self.base_ideal is not None:
            # one term: an exponent of R_0 (its width, at most R_0's level, in
            # R_0's monoid) within the cutoff, and a digit
            gexp, c = self.base_ideal
            if not (R0.exp_in_ring(gexp) and R0._code(gexp) is not None):
                raise InvariantViolation(f"the base ideal generator's exponent {gexp} "
                                         "is not an exponent of R_0 within the cutoff")
            if not 0 < c < self.p:
                raise InvariantViolation(f"the base ideal generator's coefficient {c} "
                                         "is not a digit in [1, p)")
        if any(R.cutoff != R0.cutoff for R in self.levels):
            raise InvariantViolation("all levels must share the degree cutoff D")
        field = max(R.cap for R in self.levels).bit_length() + 1
        if any(R._field != field for R in self.levels):
            object.__setattr__(self, "levels", tuple(R._refield(field) for R in self.levels))
        for i, t in enumerate(self.transitions):
            src, dst = self.levels[i], self.levels[i + 1]
            # t is additive, so the images of R_i's generators decide where it
            # sends every exponent, at every degree
            for v in src.generators:
                w = dst.vec_at(t.act(v), src.level)
                if w is None or not dst.structural_contains(w):
                    raise InvariantViolation(
                        f"transition {i} sends {MonoidElem(v, src.level, src.p)} "
                        f"outside level {i + 1}"
                    )

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

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
        return None if self.base_ideal is None else self.base_ideal[0]

    def pillar_coords(self, ring: SeriesRingDesc, i: int) -> int | None:
        """The I_0 generator exponent divided by p^i, packed at ring's level; None for
        I_0 = (0) or when it is finer than ring (then it divides no exponent of ring)."""
        gexp = self.ideal_exp()
        return None if gexp is None else ring.coords(gexp.divide(i))

    def residue(self, i: int) -> SeriesRingDesc:
        return self._residues[i]

    # The maps of the checks on exponents (see _map), one closure per level,
    # built on first use: F_i: S_{i+1} -> S_i reads v one level coarser
    # (e^v -> e^{pv}), t-bar_i: S_i -> S_{i+1}, and Frobenius of S_i.

    @cached_property
    def F(self) -> tuple:
        R = self.residue
        return tuple(_map(R(i).scaler(R(i + 1).level - 1), self._alive[i], R(i + 1), R(i))
                     for i in range(self.depth))

    @cached_property
    def t_bar(self) -> tuple:
        R = self.residue
        return tuple(_map(t.on_packed(R(i), R(i + 1)), self._alive[i + 1], R(i), R(i + 1))
                     for i, t in enumerate(self.transitions))

    @cached_property
    def frob(self) -> tuple:
        return tuple(_map(self.p.__mul__, alive, S, S)
                     for alive, S in zip(self._alive, self._residues))

    @cached_property
    def _alive(self) -> tuple:
        """Per level, v -> e^v is a nonzero monomial of S_i: S_i.live when
        every exponent the maps meet is one of S_i's ring, which holds when
        each F_i sends the generators of S_{i+1} into S_i (t-bar_i does, by
        __post_init__; both are additive) and each pillar exponent is in its
        ring; else the full test."""
        R, ideal = self.residue, self.base_ideal is not None
        exact = (all((w := R(i).vec_at(v, R(i + 1).level - 1)) is not None
                     and R(i).structural_contains(w)
                     for i in range(self.depth) for v in R(i + 1).generators)
                 and all((w := self.pillar_coords(S, i)) is not None and S.in_ring(w)
                         for i, S in enumerate(self._residues) if ideal))
        return tuple(S.live if exact else S.nonzero for S in self._residues)

    @cached_property
    def roots(self):
        """roots(j, m): v -> the exponents of the monomial tuple of e^v, v/p^l
        at S_{j+l}'s level for l = 0..m (None when a root is missing), for v
        an exponent of S_j within its cutoff."""
        return lru_cache(maxsize=None)(partial(_roots_map, self))

    @cached_property
    def _residues(self) -> tuple[SeriesRingDesc, ...]:
        """S_i = R_i/(I_0 + p): char-p rings with the I_0 monomial quotiented.

        For a mixed ring with relation theta = p - f this kills both f-bar and
        the ideal generator; when they coincide (every preset) that is the usual
        mod-p picture.  Equal-characteristic levels just gain the ideal monomial.
        """
        gexp = self.ideal_exp()
        return tuple(R.residue_ring() if gexp is None else R.residue_ring(gexp)
                     for R in self.levels)

    def to_descriptor(self) -> dict:
        return {
            "depth": self.depth,
            "levels": [r.to_descriptor() for r in self.levels],
            "transitions": [
                None if t.matrix is None else [list(r) for r in t.matrix]
                for t in self.transitions
            ],
            "base_ideal": [] if self.base_ideal is None else [term_json(*self.base_ideal)],
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> TowerDesc:
        levels = tuple(SeriesRingDesc.from_descriptor(r) for r in d["levels"])
        if json_int(d["depth"]) != len(levels) - 1:
            raise InvariantViolation("levels must run R_0 .. R_depth")
        transitions = tuple(
            Transition(None if t is None else tuple(tuple(map(json_int, row)) for row in t))
            for t in d["transitions"]
        )
        terms = [term_from_json(t, levels[0].p) for t in d["base_ideal"]]
        if len(terms) > 1:
            raise InvariantViolation("the base ideal generator must be a monomial or zero")
        return cls(levels=levels, transitions=transitions, base_ideal=terms[0] if terms else None)


def _row(axiom: str, level: int, ok: bool, witness=None, note: str | None = None) -> dict:
    out = {"axiom": axiom, "level": level, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    if note is not None:
        out["note"] = note
    return out


# Exponents below are packed in the tower's one layout (see SeriesRingDesc).

def _map(scale, alive, src, dst):
    """v -> scale(v), for v an exponent of src and scale(v) packed at dst's
    level, when alive says that monomial of dst is nonzero, else None (and
    None -> None); ValueError naming v when its image is finer than dst."""

    def image(v):
        if v is None:
            return None
        if (w := scale(v)) is None:
            raise ValueError(f"the image of {src.elem(v)} is finer than level {dst.level}")
        return w if alive(w) else None

    return image


def _lift(src: SeriesRingDesc, dst: SeriesRingDesc, level: int):
    """_map of v (an exponent of src, read at level) to dst's level, when in
    dst's ring."""
    return _map(dst.scaler(level), _holds(src, dst, level), src, dst)


def _holds(src: SeriesRingDesc, dst: SeriesRingDesc, level: int):
    """A test that v, an exponent of src read at level and rescaled to dst's
    level, is one of dst's ring: only the cutoff when dst has src's
    generators at the level (then v is an exponent of dst's monoid)."""
    same = dst.level == level and src.generators == dst.generators
    return dst._lim.__gt__ if same else dst.in_ring


def _roots_map(T: TowerDesc, j: int, m: int):
    rings = [T.residue(j + l) for l in range(m + 1)]
    L = rings[0].level
    steps = [(S.scaler(L + l), _holds(rings[0], S, L + l)) for l, S in enumerate(rings)][1:]

    def roots(v):
        out = [v]
        for scale, holds in steps:
            if (w := scale(v)) is None or not holds(w):
                return None
            out.append(w)
        return tuple(out)

    return roots


def _torsion(ring: SeriesRingDesc, g: int | None) -> tuple[int, ...]:
    """The basis exponents m with e^m e^{lg} = 0 for some l >= 1 within the
    cutoff, in term order, for g an exponent of ring.  A product of
    coefficient-1 monomials is the monomial e^{m+lg}, zero exactly when
    m + lg is past the cutoff (not counted) or in the quotient ideal, which
    only char-p rings carry.  A zero e^g (None for I_0 = (0), or g past the
    cutoff or in the ideal) kills the whole basis; e^0 = 1 kills nothing."""
    live = ring.live
    if g is None or not live(g):
        return ring.monomial_basis()
    if not ring._ideal_gens or not g:
        return ()
    lim = ring._lim
    out = []
    for m in ring.monomial_basis(ring.cap - (g >> ring._shift)):  # m + g within the cutoff
        v = m + g
        while live(v):
            v += g
        if v < lim:
            out.append(m)
    return tuple(out)


def _reach(ring: SeriesRingDesc, level: int) -> int:
    """The largest degree, in steps of p^-level, of an exponent whose image
    at ring's level is within ring's cutoff."""
    shift = ring.level - level
    if shift >= 0:
        return ring.cap // ring.p ** shift
    return ring.cap * ring.p ** -shift


def _ideal_coords(T: TowerDesc, ring: SeriesRingDesc) -> int | None:
    """The I_0 generator's exponent packed at ring's level; None for
    I_0 = (0), InvariantViolation when it is not an exponent of ring."""
    gexp = T.ideal_exp()
    if gexp is None:
        return None
    if not ring.exp_in_ring(gexp):
        raise InvariantViolation(f"exponent {gexp} is not in the ring monoid")
    return ring.coords(gexp)


def verify_purely_inseparable(T: TowerDesc) -> dict:
    """Axioms (a) p in I_0, (b) t-bar injective, (c) Frob lands in im(t-bar)."""
    rows = []
    p = T.p
    R0 = T.levels[0]
    # p is x^w times a unit (series.f_bar), so every term of p lies in w + M
    # and p is in I_0 iff its lowest term x^w is; a w past the cutoff is 0
    fb = f_bar(R0)
    w = None if fb is None else R0._code(fb[0])
    if T.base_ideal is None:
        rows.append(_row("a", 0, w is None, None if w is None else [term_json(*fb)],
                         note="I0 = (0): p must vanish in R0"))
    else:
        bad = w is not None and R0.nonzero_mod([T.pillar_coords(R0, 0)])(w)
        rows.append(_row("a", 0, not bad, fb[0].to_json() if bad else None))

    for i in range(T.depth):
        Si, Si1 = T.residue(i), T.residue(i + 1)
        image, live = T.transitions[i].on_packed(Si, Si1), T._alive[i + 1]
        # the live images of the whole basis, which (c) reads; (b) keeps its
        # first failure
        images = set()
        bad_b = None
        lim1 = Si1._lim
        for v in Si.monomial_basis():
            w = image(v)  # an exponent of S_{i+1} (TowerDesc.__post_init__)
            if w >= lim1:
                continue  # image leaves the cutoff: no claim at this truncation
            if not live(w):
                bad_b = bad_b or ("vanishes", v)
            elif w in images:
                bad_b = bad_b or ("collides", v)
            else:
                images.add(w)
        if bad_b is None:
            rows.append(_row("b", i, True))
        else:
            rows.append(_row("b", i, False, Si.elem(bad_b[1]).to_json(),
                             note=f"image {bad_b[0]}"))

        bad_c = None
        for d in Si1.monomial_basis(Si1.cap // p):  # p d within the cutoff
            pd = p * d  # an exponent of S_{i+1}, as d is
            if not live(pd):
                continue  # Frobenius image already zero, trivially in the image
            if pd not in images:
                bad_c = Si1.elem(d).to_json()
                break
        rows.append(_row("c", i, bad_c is None, bad_c))
    return {"axioms": rows, "all_pass": all(r["pass"] for r in rows), "cutoff": T.cutoff_info()}


# Every map below sends a coefficient-1 monomial to a coefficient-1 monomial
# or to zero, so the identities are decided on exponents: a map takes the
# exponent of a nonzero monomial (or None for zero) to that of its image.

def frobenius_identities(T: TowerDesc, i: int) -> dict:
    """Both diagram identities on every basis monomial within the cutoff.

    t-bar_i(F_i(e^d)) = e^{pd} in S_{i+1}, and F_i(t-bar_i(e^g)) = e^{pg}
    in S_i; witnesses are returned rather than raised.
    """
    Si, Si1 = T.residue(i), T.residue(i + 1)
    F, t, frob, frob1 = T.F[i], T.t_bar[i], T.frob[i], T.frob[i + 1]
    bad_tf = [Si1.elem(d).to_json() for d in Si1.monomial_basis(Si1.cap // T.p)
              if t(F(d)) != frob1(d)]
    bad_ft = [Si.elem(g).to_json() for g in Si.monomial_basis(Si.cap // T.p)
              if F(t(g)) != frob(g)]
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
    exps = []
    for i, R in enumerate(T.levels):
        pe = T.pillar_coords(R, i)  # None at every level for I = (0)
        if T.base_ideal is not None and (pe is None or not R.in_ring(pe)):
            raise PillarNotFound(f"no monomial pillar at level {i}: "
                                 f"{T.ideal_exp().divide(i)} is not in the monoid")
        exps.append(pe)
    return PillarSystem(tower=T, exps=tuple(exps))


@record
class PillarSystem:
    """The pillar exponents, each packed at its level; None for I_0 = (0),
    whose chain is the zero ideal at every level."""

    tower: TowerDesc
    exps: tuple[int | None, ...]

    def compatibility_witnesses(self) -> list[dict]:
        """F_i(f-bar_{i+1}) = f-bar_i on the nose, reported per level."""
        T = self.tower
        # pillar_system checked that each pillar exponent is in its ring
        bars = [v if v is not None and T._alive[i](v) else None for i, v in enumerate(self.exps)]
        return [{"level": i, "pass": T.F[i](bars[i + 1]) == bars[i]}
                for i in range(T.depth)]


def verify_perfectoid(T: TowerDesc) -> dict:
    """Axioms (d) Frobenius projections surjective, (e) Zariskian locality,
    (f) pillar existence with I_{i+1}^p = I_i R_{i+1} and the kernel identity,
    (g) I_0-torsion killed by I_0 with the torsion bases matched by p-scaling.
    """
    rows = []
    p = T.p
    gexp = T.ideal_exp()

    for i in range(T.depth):
        Si, roots, live = T.residue(i), T.roots(i, 1), T._alive[i + 1]
        bad_d = None
        for mu in Si.monomial_basis():
            r = roots(mu)  # (mu, mu / p), each an exponent of its ring
            if r is None or not live(r[1]):
                bad_d = Si.elem(mu).to_json()
                break
        rows.append(_row("d", i, bad_d is None, bad_d))

    if gexp is None:
        rows.append(_row("e", 0, True, note="I0 = (0) is contained in every maximal ideal"))
    else:
        c = T.base_ideal[1]
        ok_e = any(gexp.coords) or c % p == 0  # a unit is a constant prime to p
        rows.append(_row("e", 0, ok_e, None if ok_e else [term_json(gexp, c)],
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
            # t_i(f_i) = f_{i+1}^p, compared as exponents at R_{i+1}'s level
            R0, R1 = T.levels[i], T.levels[i + 1]
            v0, v1 = T.pillar_coords(R0, i), T.pillar_coords(R1, i + 1)
            if v0 is not None and T.transitions[i].on_packed(R0, R1)(v0) != p * v1:
                rows.append(_row("f", i, False, R1.elem(v1).to_json(),
                                 note="I_{i+1}^p != I_i R_{i+1}"))
                ok_f = False
        for i in range(T.depth):
            mism = _kernel_mismatch(T, i)
            if mism is not None:
                rows.append(_row("f", i, False, mism.to_json(),
                                 note="ker F_i differs from pillar multiples"))
                ok_f = False
        if ok_f:
            rows.append(_row("f", -1, True, note="pillar chain with kernel identity"))

    # (g): torsion annihilated by I_0, p-scaling matches torsion across levels
    gs = [_ideal_coords(T, R) for R in T.levels]
    tors = [_torsion(R, g) for R, g in zip(T.levels, gs)]
    witness_g = None
    note_g = None
    if gexp is None:
        note_g = "I0 = (0): axiom follows from (c) and (f); torsion is the whole ring"
    else:
        for R, g, ms in zip(T.levels, gs, tors):
            # e^g kills e^m unless m + g (an exponent of R: _ideal_coords
            # checked g) is a live monomial
            bad = next((m for m in ms if R.live(m + g)), None)
            if bad is not None:
                witness_g = R.elem(bad).to_json()
                break
    if witness_g is None:
        for i in range(T.depth):
            Ri, Ri1 = T.levels[i], T.levels[i + 1]
            up, down = set(tors[i + 1]), set(tors[i])
            for m in tors[i + 1]:
                mp = Ri.rescale(m, Ri1.level - 1)  # p * m
                if mp is not None and mp < Ri._lim and mp not in down and Ri.in_ring(mp):
                    witness_g = Ri1.elem(m).to_json()
                    note_g = "p-scaling does not land in the lower torsion basis"
                    break
            if witness_g is not None:
                break
            for m in tors[i]:
                dm = Ri1.rescale(m, Ri.level + 1)  # m / p
                if dm is not None and Ri1.in_ring(dm) and dm not in up:
                    witness_g = Ri.elem(m).to_json()
                    note_g = "lower torsion monomial with no p-divided partner"
                    break
            if witness_g is not None:
                break
    rows.append(_row("g", -1, witness_g is None, witness_g, note=note_g))

    return {"axioms": rows, "all_pass": all(r["pass"] for r in rows), "cutoff": T.cutoff_info()}


def _kernel_mismatch(T: TowerDesc, i: int) -> MonoidElem | None:
    """First basis monomial violating ker(F_i) = I_1 (R_{i+1}/I_0).

    The kernel of every Frobenius projection is the level-1 pillar ideal: the
    residue rings all carry the same level-0 quotient exponents, so Frobenius
    kills exactly the p-divided multiples of those.  The predicted set uses
    every quotient exponent the residue ring carries (the reduced relation and
    any quotients baked into an equal-characteristic level behave like the
    ideal generator here), so only a genuine discrepancy is reported.
    """
    Si1 = T.residue(i + 1)
    lim = Si1._lim
    # the quotient exponents and the generator, divided by p, at Si1's level
    # (one finer than Si1, or past its cutoff, divides no exponent of Si1)
    shifted = [Si1.coords(q.divide(1)) for q in Si1.quotient_exps]
    shifted.append(T.pillar_coords(Si1, 1))
    spared = Si1.nonzero_mod([q for q in shifted if q is not None and q < lim])
    F = T.F[i]
    # past p deg d > cap, truncation kills, not the kernel
    for d in Si1.monomial_basis(Si1.cap // T.p):
        if (F(d) is not None) != spared(d):  # e^(p d) survives
            return Si1.elem(d)
    return None


# ---------------------------------------------------------------------------
# the small tilt: depth-m compatible tuples


# The tilt checks meet tuples of coefficient-1 monomials (the monomial tuple
# (e^mu, e^{mu/p}, ...) and the tilt pillar), so they are decided on exponents
# like the Frobenius identities: component l of a tuple at home level j is an
# exponent of S_{j+l}.

def _pillar_tilt(T: TowerDesc, j: int, depth: int) -> list[int]:
    """The exponents of the tilt pillar f^{s.flat}_j = (f_j mod I0, f_{j+1}
    mod I0, ...) for a nonzero I_0; ValueError for one finer than its ring."""
    out = [T.pillar_coords(T.residue(j + l), j + l) for l in range(depth + 1)]
    if None in out:
        l = out.index(None)
        raise ValueError(f"{T.ideal_exp().divide(j + l)} is finer than level "
                         f"{T.residue(j + l).level}")
    return out


def tilt_mod_pillar_iso(T: TowerDesc, j: int) -> dict:
    """Basis bijection behind "tilt mod its base ideal = R_j/I_0".

    The tilt-side base ideal at home level j is generated by the p^j-th power
    of the tilt pillar (its 0-th component is the f-bar monomial itself), so
    the projection to the 0-th component matches monomial tuples within the
    cutoff bijectively with the monomial basis of S_j.  Every in-cutoff
    monomial tuple is either hit by the section or falls in the ideal; both
    failures would be reported with witnesses.
    """
    m = T.depth - j
    Sj, roots = T.residue(j), T.roots(j, m)
    mismatches = [{"direction": "section", **Sj.elem(mu).to_json()}
                  for mu in Sj.monomial_basis() if roots(mu) is None]
    matched = len(Sj.monomial_basis()) - len(mismatches)
    # completeness: classify every depth-m monomial tuple inside the cutoff
    top_ring = T.residue(j + m)
    # top exponent of the tilt-side ideal generator is gexp / p^m
    off_pillar = top_ring.nonzero_mod([T.pillar_coords(top_ring, m)])
    into, live = _lift(top_ring, Sj, top_ring.level - m), T._alive[j]
    for d in top_ring.monomial_basis(_reach(Sj, top_ring.level - m)):
        mu = into(d)  # d * p^m when it is an exponent of S_j's ring
        if (mu is not None and live(mu)) != off_pillar(d):
            mismatches.append({"direction": "partition", **top_ring.elem(d).to_json()})
    return {
        "home_level": j,
        "bijective": not mismatches,
        "basis_size": matched,
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
    m = T.depth - j
    gexp = T.ideal_exp()
    rows = []

    if gexp is None:
        rows.append({"check": "principal", "pass": True,
                     "note": "I = (0): the tilt ideal is zero"})
    else:
        Sj, top = T.residue(j), T.residue(j + m)
        # top component exponent of the tilt pillar, and the level-j pillar
        off_pillar = top.nonzero_mod([T.pillar_coords(top, j + m)])
        off_home = Sj.nonzero_mod([T.pillar_coords(Sj, j)])
        into, live = _lift(top, Sj, top.level - m), T._alive[j]
        bad = None
        # every exponent of S_{j+m}'s ring, quotient ideal included, in term
        # order, whose image is within S_j's cutoff
        for d in top.support(_reach(Sj, top.level - m)):
            mu = into(d)  # d * p^m when it is an exponent of S_j's ring
            # outside the kernel of pi_j o Phi_0: e^mu lives in R_j/(I_j + I_0),
            # I_j the level-j pillar
            if (mu is not None and live(mu) and off_home(mu)) != off_pillar(d):
                bad = d
                break
        rows.append({"check": "principal", "pass": bad is None,
                     **({"witness": top.elem(bad).to_json()} if bad is not None else {})})

        if j + 1 <= T.depth:
            mj1 = T.depth - j - 1
            f_j, f_j1 = _pillar_tilt(T, j, mj1), _pillar_tilt(T, j + 1, mj1)
            # (f_{j+1})^p against t-bar(f_j), component by component
            ok = all(T.frob[j + l + 1](g1) == T.t_bar[j + l](g if T._alive[j + l](g) else None)
                     for l, (g, g1) in enumerate(zip(f_j, f_j1)))
            rows.append({"check": "pillar_power", "pass": ok})

    # torsion on both sides
    source_empty = not _torsion(T.levels[j], _ideal_coords(T, T.levels[j]))
    tilt_empty = _tilt_torsion_empty(T, j)
    rows.append({
        "check": "torsion",
        "pass": source_empty == tilt_empty,
        "source_empty": source_empty,
        "tilt_empty": tilt_empty,
        **({"note": "I = (0): torsion degenerate per the (c)+(f) remark"} if gexp is None else {}),
    })
    return {
        "home_level": j,
        "checks": rows,
        "all_pass": all(r["pass"] for r in rows),
        "cutoff": T.cutoff_info(),
    }


def _tilt_torsion_empty(T: TowerDesc, j: int) -> bool:
    """No monomial tuple is annihilated componentwise by the tilt pillar
    (for I = (0) the whole ring is 1-torsion)."""
    if T.base_ideal is None:
        return False
    m = T.depth - j
    f = _pillar_tilt(T, j, m)
    Sj, roots, alive = T.residue(j), T.roots(j, m), T._alive[j:]
    # mu times the pillar within the cutoff
    for mu in Sj.monomial_basis(Sj.cap - (T.pillar_coords(Sj, j) >> Sj._shift)):
        r = roots(mu)
        # the tuple times the tilt pillar is zero in every component
        if r is not None and not any(a(w + g) for a, w, g in zip(alive, r, f)):
            return False
    return True


def _images(f, vs) -> frozenset:
    """The exponents f sends vs to, with the zero images (None) left out."""
    return frozenset(w for w in map(f, vs) if w is not None)


def inverse_perfection_is_perfect(T: TowerDesc) -> dict:
    """Perfectness of the truncated inverse limit, at home level 1.

    The samples are the monomial tuples of the first 6 basis monomials of S_1
    that have every root, and the sum of the first two.  A sample holds one
    set per component l: the live exponents of S_{1+l}, a singleton or
    nothing for a monomial tuple.  The roots of distinct monomials are
    distinct, so the sum is the componentwise union.  Checked on every
    sample: F(x_{l+1}) = x_l, so the componentwise Frobenius projection
    followed by the shift is depth-truncation, and p x_{l+1} = t-bar(x_l),
    so the p-th power followed by the shift is the transition.  F is also
    checked to be multiplicative on the first two samples.  F maps terms one
    by one, so its additive half and F(0) = 0 hold by construction: they are
    not computed, and zero_maps_to_zero always passes (the row stays only
    because the report digests pin the schema).
    """
    if T.depth < 1:
        return {"checks": [], "all_pass": True, "cutoff": T.cutoff_info()}
    j, m = 1, T.depth - 1
    Sj = T.residue(j)
    k = 0  # the first degree whose basis prefix holds six monomials
    while len(Sj.monomial_basis(k)) < 6 and k < Sj.cap:
        k += 1
    roots, alive = T.roots(j, m), T._alive
    samples = [tuple(frozenset(filter(alive[j + l], [w])) for l, w in enumerate(r))
               for r in map(roots, Sj.monomial_basis(k)[:6]) if r is not None]
    if len(samples) >= 2:
        samples.append(tuple(a | b for a, b in zip(samples[0], samples[1])))

    def frob(x):
        """F componentwise, from home level j to j - 1."""
        return tuple(_images(T.F[j - 1 + l], c) for l, c in enumerate(x))

    def mul(x, y, home):
        """The product of two monomial tuples at the given home level."""
        return tuple(frozenset(filter(alive[home + l], [a + b for a in c for b in d]))
                     for l, (c, d) in enumerate(zip(x, y)))

    ok_shift = all(frob(x)[1:] == x[:-1] for x in samples)
    ok_pow = all(_images(T.frob[j + l + 1], x[l + 1]) == _images(T.t_bar[j + l], x[l])
                 for x in samples for l in range(m))
    ok_ring = all(frob(mul(a, b, j)) == mul(frob(a), frob(b), j - 1)
                  for a in samples[:2] for b in samples[:2])
    checks = [
        {"check": "shift_is_inverse_up_to_truncation", "pass": ok_shift},
        {"check": "pth_power_then_shift_is_transition", "pass": ok_pow},
        {"check": "projection_is_ring_map", "pass": ok_ring},
        {"check": "zero_maps_to_zero", "pass": True},
    ]
    return {
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "samples": len(samples),
        "cutoff": T.cutoff_info(),
    }
