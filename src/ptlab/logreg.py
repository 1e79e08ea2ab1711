"""Log-regular presentations, their p-division towers, and tilt prediction.

A presentation is the complete normal form C(k)[[Q + N^r]]/(p - f) with Q
fine, sharp and saturated and k = F_p, so the residue-field part of the
general construction is empty and the tower is determined by dividing
exponents.  The regularity toolkit at the bottom works with the truncated
differential module of the base ring: dimension d+1 in the unramified mixed
case (the class of p joins the coordinate classes), d in equal
characteristic.
"""

from __future__ import annotations

from .coeffring import digit_correction, require_prime
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
)
from .monoid import preset as monoid_preset
from .record import record, replace
from .series import (
    NonMonomialReduction,
    SeriesRingDesc,
    coeff_map,
    ideal_generator,
    reduced_relation_exp,
    term_from_json,
    term_json,
)
from .tower import TowerDesc, Transition


class InvalidPresentation(InputError):
    pass


class UnsupportedBase(InputError):
    pass


@record
class LogRegPresentation:
    """The Kato normal form: monoid part Q, free rank r, relation p - f."""

    Q: AffineMonoid
    r: int
    p: int
    f_terms: tuple[tuple[MonoidElem, int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not is_sharp(self.Q):
            raise InvalidPresentation("monoid part must be sharp")
        if not is_saturated(self.Q):
            raise InvalidPresentation("monoid part must be saturated")
        if self.Q.scale_base != self.p:
            raise InvalidPresentation("monoid scale base must match p")
        for e, _ in self.f_terms:
            if sum(e.coords) <= 0:
                raise InvalidPresentation("f must have positive degree in every term")

    def ring(self, level: int, D, N: int) -> SeriesRingDesc:
        """Level-i ring C(k)[[Q^(i) + (N^r)^(i)]]/(p - f), or k[[...]] if f = 0."""
        rel = self.f_terms or None
        return SeriesRingDesc(
            monoid_part=p_divide(self.Q, level),
            free_rank=self.r,
            free_level=level,
            p=self.p,
            precision=N,
            cutoff=D,
            relation_f=rel,
            char_p=rel is None,
        )

    def to_descriptor(self) -> dict:
        return {
            "monoid": self.Q.to_descriptor(),
            "free_rank": self.r,
            "p": self.p,
            "f": [term_json(e, c) for e, c in self.f_terms],
            "labels": list(self.labels),
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> LogRegPresentation:
        Q = AffineMonoid.from_descriptor(d["monoid"])
        p = json_int(d["p"])
        f_terms = tuple(term_from_json(t, p) for t in d["f"])
        return cls(Q=Q, r=json_int(d["free_rank"]), p=p, f_terms=f_terms,
                   labels=tuple(d.get("labels", ())))


def preset_unramified(p: int, d: int) -> LogRegPresentation:
    """W(k)[[x_1..x_d]]/(p - x_1): trivial monoid part, f the first variable."""
    if d < 1:
        raise InvalidPresentation("need at least one free variable for f = x_1")
    e1 = MonoidElem((1,) + (0,) * (d - 1), 0, p)
    return LogRegPresentation(Q=monoid_preset("Nd", p), r=d, p=p, f_terms=((e1, 1),),
                              labels=tuple(f"x{i + 1}" for i in range(d)))


def preset_quadric(p: int) -> LogRegPresentation:
    """W(k)[[x,y,z,w]]/(xy - zw, p - w) as the monoid ring of the quadric cone."""
    w = MonoidElem((0, 1, 1, 0), 0, p)
    return LogRegPresentation(Q=monoid_preset("quadric", p), r=0, p=p, f_terms=((w, 1),),
                              labels=("x", "y", "z", "w"))


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
        depth=depth,
    )


def predict_tilt(T: TowerDesc) -> TowerDesc:
    """The equal-characteristic tower k[[Q^(i) + (N^r)^(i)]] on T's levels,
    with f-bar as ideal.

    The relation direction survives the tilt as an honest coordinate; the
    tilted base ideal is the f-bar monomial itself.
    """
    levels = tuple(replace(R, relation_f=None, char_p=True) for R in T.levels)
    R0 = levels[0]
    try:
        base = ideal_generator(R0, coeff_map(R0, [(reduced_relation_exp(T.levels[0]), 1)]))
    except NonMonomialReduction:
        base = None
    return TowerDesc(
        levels=levels,
        transitions=tuple(Transition() for _ in range(T.depth)),
        base_ideal=base,
        depth=T.depth,
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


# ---------------------------------------------------------------------------
# regularity toolkit: truncated differential module of A = C(k)[[x_1..x_d]]


@record
class BaseRing:
    """A = C(F_p)[[x_1..x_d]] (mixed) or F_p[[x_1..x_d]] (equal characteristic)."""

    p: int
    d: int
    mixed: bool = True

    def __post_init__(self):
        require_prime(self.p, UnsupportedBase)
        if self.d < 0:
            raise UnsupportedBase("negative variable count")

    def series_ring(self) -> SeriesRingDesc:
        return SeriesRingDesc(
            monoid_part=monoid_preset("Nd", self.p),
            free_rank=self.d,
            free_level=0,
            p=self.p,
            precision=2,
            cutoff=3,
            relation_f=None,
            char_p=not self.mixed,
        )


@record
class OmegaModule:
    """The truncated differential module: dimension and basis labels only."""

    p: int
    d: int
    mixed: bool
    dim: int
    basis_labels: tuple[str, ...]


def omega_dim(A: BaseRing) -> OmegaModule:
    """Mixed unramified: d+1 (class of p joins the coordinates); else d."""
    labels = tuple(f"dx{i + 1}" for i in range(A.d))
    if A.mixed:
        return OmegaModule(A.p, A.d, True, A.d + 1, ("dp",) + labels)
    return OmegaModule(A.p, A.d, False, A.d, labels)


def d_class(A: BaseRing, x: dict[int, int]) -> tuple[int, ...]:
    """Class of x in the truncated differential module, over F_p, for x a
    coefficient map of A.series_ring() (series.coeff_map).

    Mixed case: (second base-p digit of the constant corrected by the
    Teichmuller defect of the first, then the linear coefficients mod p).
    The correction makes the p-coordinate the honest coefficient of dp: a
    Teichmuller unit constant has zero class.
    """
    ring = A.series_ring()
    lin = []
    for i in range(A.d):
        e = ring.exp(tuple(1 if k == i else 0 for k in range(A.d)))
        lin.append(x.get(ring.coords(e), 0) % A.p)
    if not A.mixed:
        return tuple(lin)
    c = x.get(ring.zero_exp, 0) % A.p ** 2
    a0 = c % A.p
    a1 = (c - a0) // A.p % A.p
    corrected = (a1 - digit_correction(a0, A.p)) % A.p
    return (corrected, *lin)


def _fp_rank(rows: list[tuple[int, ...]], p: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] % p != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] % p != 0:
                f = mat[r][c]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _is_unit(A: BaseRing, x: dict[int, int]) -> bool:
    """x, a coefficient map of A.series_ring(), is a unit: its constant is prime to p."""
    return x.get(SeriesRingDesc.zero_exp, 0) % A.p != 0


def is_maximal_sequence(A: BaseRing, elems) -> bool:
    """True iff elems (coefficient maps, as in d_class) is a regular system
    of parameters: no unit among them (a unit generates the unit ideal, not
    m; Matsumura, "Commutative Ring Theory", Thm 14.2) and their
    differential classes form a basis."""
    if any(_is_unit(A, x) for x in elems):
        return False
    om = omega_dim(A)
    classes = [d_class(A, x) for x in elems]
    if len(classes) != om.dim:
        return False
    return _fp_rank(classes, A.p) == om.dim


def kummer_regularity(A: BaseRing, f_list, e_list) -> bool:
    """Regularity of A[T_1..T_n]/(T_i^{e_i} - f_i) at the points over m, the
    f_i coefficient maps as in d_class.

    Each exponent must exceed 1 for the extension to be a genuine cover.  At
    a point n over m the ring is regular iff the classes of the T_i^{e_i} -
    f_i in n/n^2 are independent.  A non-unit f_i sits at T_i = 0, where
    T_i^{e_i} is in n^2, so it keeps the class of f_i.  A unit f_i with p
    not dividing e_i gives an etale factor (T^e - f is separable mod m, its
    derivative e T^(e-1) a unit where T^e = f): its class has a dT_i part
    no other class has, so it drops out.  A unit f_i with p | e_i keeps the
    class of f_i - [b], [b] the Teichmuller lift of its residue b: at a
    point T_i = [s] + t with s^e = b (s in an extension k of F_p), every
    binomial term e [s]^(e-1) t, ... of ([s] + t)^e lies in p n or n^2, and
    [s]^e = [s^e] = [b], since Teichmuller lifts are multiplicative.  That
    class is the corrected digit in mixed characteristic and the linear
    terms in equal characteristic, the d_class of f_i, and extending the
    scalars to k does not change linear independence.
    """
    if len(f_list) != len(e_list):
        raise UnsupportedBase("one exponent per element")
    for e in e_list:
        if e <= 1:
            raise UnsupportedBase("exponents must exceed 1")
    classes = []
    for x, e in zip(f_list, e_list):
        if _is_unit(A, x) and e % A.p:
            continue  # etale
        classes.append(d_class(A, x))
    if not classes:
        return True
    return _fp_rank(classes, A.p) == len(classes)
