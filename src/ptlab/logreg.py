"""Log-regular presentations, their p-division towers, and tilt prediction.

A presentation is the complete normal form C(k)[[Q + N^r]]/(p - f) with Q
fine, sharp and saturated and k = F_p, so the residue-field part of the
general construction is empty and the tower is determined by dividing
exponents.
"""

from __future__ import annotations

from .monoid import (
    AffineMonoid,
    InputError,
    MonoidElem,
    dimension,
    is_saturated,
    is_sharp,
    json_int,
    layer_quotient,
    p_divide,
    term_from_json,
    term_json,
)
from .monoid import preset as monoid_preset
from .record import record, replace
from .series import (
    NonMonomialReduction,
    SeriesRingDesc,
    coeff_map,
    ideal_generator,
    reduced_relation_exp,
)
from .tower import TowerDesc, Transition


class InvalidPresentation(InputError):
    pass


@record
class LogRegPresentation:
    """The Kato normal form: monoid part Q (scale base p), free rank r, relation p - f."""

    Q: AffineMonoid
    r: int
    f_terms: tuple[tuple[MonoidElem, int], ...]

    def __post_init__(self):
        if not is_sharp(self.Q):
            raise InvalidPresentation("monoid part must be sharp")
        if not is_saturated(self.Q):
            raise InvalidPresentation("monoid part must be saturated")
        for e, _ in self.f_terms:
            if e.base != self.p:
                raise InvalidPresentation("monoid scale base must match p")
            if sum(e.coords) <= 0:
                raise InvalidPresentation("f must have positive degree in every term")

    @property
    def p(self) -> int:
        return self.Q.scale_base

    def ring(self, level: int, D, N: int) -> SeriesRingDesc:
        """Level-i ring C(k)[[Q^(i) + (N^r)^(i)]]/(p - f), or k[[...]] if f = 0."""
        return SeriesRingDesc(
            monoid_part=p_divide(self.Q, level),
            free_rank=self.r,
            free_level=level,
            precision=N,
            cutoff=D,
            relation_f=self.f_terms or None,
        )

    def to_descriptor(self) -> dict:
        return {
            "monoid": self.Q.to_descriptor(),
            "free_rank": self.r,
            "p": self.p,
            "f": [term_json(e, c) for e, c in self.f_terms],
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> LogRegPresentation:
        Q = AffineMonoid.from_descriptor(d["monoid"])
        p = json_int(d["p"])
        f_terms = tuple(term_from_json(t, p) for t in d["f"])
        P = cls(Q=Q, r=json_int(d["free_rank"]), f_terms=f_terms)
        if p != P.p:  # f = 0 carries no prime of its own
            raise InvalidPresentation("monoid scale base must match p")
        return P


def preset_unramified(p: int, d: int) -> LogRegPresentation:
    """W(k)[[x_1..x_d]]/(p - x_1): trivial monoid part, f the first variable."""
    if d < 1:
        raise InvalidPresentation("need at least one free variable for f = x_1")
    e1 = MonoidElem((1,) + (0,) * (d - 1), 0, p)
    return LogRegPresentation(Q=monoid_preset("Nd", p), r=d, f_terms=((e1, 1),))


def preset_quadric(p: int) -> LogRegPresentation:
    """W(k)[[x,y,z,w]]/(xy - zw, p - w) as the monoid ring of the quadric cone."""
    w = MonoidElem((0, 1, 1, 0), 0, p)
    return LogRegPresentation(Q=monoid_preset("quadric", p), r=0, f_terms=((w, 1),))


# named presentations: name -> (p, d) -> presentation; `ptlab tower --preset`
# offers these names
PRESETS = {
    "unramified_rlr": preset_unramified,
    "quadric": lambda p, d: preset_quadric(p),
}


def preset(name: str, p: int, d: int = 2) -> LogRegPresentation:
    if name not in PRESETS:
        raise InvalidPresentation(f"unknown preset {name!r}")
    return PRESETS[name](p, d)


def build_tower(P: LogRegPresentation, depth: int, D=4, N: int = 2) -> TowerDesc:
    """The division tower R_i = C(k)[[Q^(i) + (N^r)^(i)]]/(p - f), I_0 = (p).

    NonMonomialReduction unless f-bar is one monomial or f is in (p), where
    R/(p, f) = R/(p) and I_0 = (0): every tower action refuses the same
    presentations, here, before it builds anything.
    """
    levels = tuple(P.ring(i, D, N) for i in range(depth + 1))
    if any(c % P.p for _, c in P.f_terms):
        reduced_relation_exp(levels[0])
    return TowerDesc(
        levels=levels,
        transitions=tuple(Transition() for _ in range(depth)),
        base_ideal=ideal_generator(levels[0], [(levels[0].zero_exp, P.p)]),
    )


def predict_tilt(T: TowerDesc) -> TowerDesc:
    """The equal-characteristic tower k[[Q^(i) + (N^r)^(i)]] on T's levels,
    with f-bar as ideal.

    The relation direction survives the tilt as an honest coordinate; the
    tilted base ideal is the f-bar monomial itself.
    """
    levels = tuple(replace(R, relation_f=None) for R in T.levels)
    R0 = levels[0]
    try:
        base = ideal_generator(R0, coeff_map(R0, [(reduced_relation_exp(T.levels[0]), 1)]))
    except NonMonomialReduction:
        base = None
    return TowerDesc(
        levels=levels,
        transitions=tuple(Transition() for _ in range(T.depth)),
        base_ideal=base,
    )


def verify_tilt(P: LogRegPresentation, T: TowerDesc) -> dict:
    """Computed small tilt of P's division tower T vs the predicted
    equal-characteristic tower.

    Per level j: the monomial basis of the tilt modulo its pillar (which the
    truncated tuples see) must equal the basis of the predicted ring modulo
    f-bar, T's transitions must agree with the predicted inclusions on the
    generators of R_j's exponent monoid, the generic transition degree must
    be the layer-quotient order times p^r, and dimensions match.

    S_j and its predicted ring share one exponent monoid, so the bases are
    compared on their quotient monomials (SeriesRingDesc.same_basis) and
    only a mismatch walks both bases for its witnesses.  basis_size is
    counted (SeriesRingDesc.basis_count): S_j's quotient monomials are
    f-bar's exponent w and the I_0 generator's, which is w too whenever w is
    within the cutoff.  The canonical form of p = f starts with the digit
    c_w mod p != 0 at w: every later carry onto w is a multiple of a
    coefficient of f other than c_w, all divisible by p.  Past the cutoff
    every digit it produces is 0 for the same reason, so I_0 contributes no
    monomial within the cutoff; with f in (p) there is no w and I_0 = (0).
    """
    Tp = predict_tilt(T)
    rows = []
    for j in range(T.depth + 1):
        Sj = T.residue(j)
        Pj = Tp.residue(j)
        witnesses = []
        match = Sj.same_basis(Pj)
        if not match:
            # both bases are in term order, packed alike at the same level
            src, prd = set(Sj.monomial_basis()), set(Pj.monomial_basis())
            witnesses = [Sj.elem(e).to_json()
                         for e in (sorted(prd - src) + sorted(src - prd))[:3]]
        rows.append({
            "check": "basis_match",
            "level": j,
            "pass": match,
            "basis_size": Sj.basis_count(),
            "witnesses": witnesses,
        })
        dim_src = dimension(P.Q) + P.r  # relation spends the +1 of C(k)
        dim_prd = dimension(Tp.levels[j].monoid_part) + Tp.levels[j].free_rank
        rows.append({"check": "dimension", "level": j, "pass": dim_src == dim_prd,
                     "source": dim_src, "tilt": dim_prd})
    # every layer quotient is the same group, so every transition one degree
    deg = layer_quotient(P.Q).torsion_order() * P.p ** P.r
    ppow = _is_p_power(deg, P.p)
    for j in range(T.depth):
        # both transitions are additive, so agreeing on the generators of
        # R_j's exponent monoid is agreeing on every exponent
        src, dst = T.levels[j], T.levels[j + 1]
        ok = all(dst.vec_at(T.transitions[j].act(v), src.level)
                 == Tp.levels[j + 1].vec_at(Tp.transitions[j].act(v), Tp.levels[j].level)
                 for v in src.generators)
        rows.append({"check": "transition_match", "level": j, "pass": ok})
        rows.append({"check": "transition_degree", "level": j,
                     "pass": ppow, "degree": deg})
    return {"checks": rows, "all_pass": all(r["pass"] for r in rows),
            "cutoff": T.cutoff_info()}


def _is_p_power(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1
