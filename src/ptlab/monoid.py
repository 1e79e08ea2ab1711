"""Affine monoids with symbolic denominator levels and their p-division system.

A monoid element is stored as an integer coordinate vector together with a
level e, meaning that every coordinate carries an implicit denominator c^e for
the monoid's scale base c.  Rescaling between levels is exact, which is the
whole point: the division monoids Q^(i) = {g : c^i g in Q} of a fine sharp
saturated monoid are then literally the same generator vectors read at a
higher level.

Cones are handled by a double description pass with an adjacency test,
which yields facet normals; for saturated monoids membership reduces to the
facet inequalities plus a lattice solve.  Elsewhere membership is decided
exactly by peeling generators off the target's facet pairings.  A sharp
cone is triangulated into simplicial cones spanned by extreme generators,
and saturation is decided exactly from the lattice points of their
fundamental parallelepipeds.  Elements up to a degree come from a walk over
generator sums, which needs the generators in N^d; member_test decides
membership in such a monoid from its lattice and facets instead.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd
from operator import mul

from . import intlat
from .intlat import FinAbelianGroup, mat_vec
from .record import record


class NotSubmonoid(ValueError):
    pass


class NotSharp(ValueError):
    pass


class NotSaturated(ValueError):
    pass


class NotExact(ValueError):
    pass


def json_int(x) -> int:
    """x if it is an int; a bool, float, str or anything else is a ValueError."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _strip(coords: tuple[int, ...], level: int, base: int) -> tuple[tuple[int, ...], int]:
    # canonical level: divide out the scale base while every coordinate allows it
    while level > 0 and all(x % base == 0 for x in coords):
        coords = tuple(x // base for x in coords)
        level -= 1
    return coords, level


@record
class MonoidElem:
    """An element of Q_Q: integer coords with denominator base**level.

    Construction canonicalizes the level, so structural equality agrees with
    equality after rescaling to a common level.
    """

    coords: tuple[int, ...]
    level: int
    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("scale base must be >= 2")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        coords, level = _strip(tuple(int(x) for x in self.coords), self.level, self.base)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "level", level)

    def at_level(self, level: int) -> tuple[int, ...]:
        """Coordinates rescaled to the given level (must be >= self.level)."""
        if level < self.level:
            raise ValueError("cannot coarsen below the canonical level")
        f = self.base ** (level - self.level)
        return tuple(x * f for x in self.coords)

    def _combine(self, other: MonoidElem, sign: int) -> MonoidElem:
        if self.base != other.base or len(self.coords) != len(other.coords):
            raise ValueError("mismatched element contexts")
        lv = max(self.level, other.level)
        a, b = self.at_level(lv), other.at_level(lv)
        return MonoidElem(tuple(x + sign * y for x, y in zip(a, b)), lv, self.base)

    def __add__(self, other: MonoidElem) -> MonoidElem:
        return self._combine(other, 1)

    def __sub__(self, other: MonoidElem) -> MonoidElem:
        return self._combine(other, -1)

    def scale(self, n: int) -> MonoidElem:
        return MonoidElem(tuple(n * x for x in self.coords), self.level, self.base)

    def divide(self, i: int = 1) -> MonoidElem:
        """The element divided by base**i (level raised)."""
        return MonoidElem(self.coords, self.level + i, self.base)

    def to_json(self) -> dict:
        return {"exponent": list(self.coords), "level": self.level}

    @classmethod
    def from_json(cls, t: dict, base: int) -> MonoidElem:
        """Inverse of to_json; a missing level means level 0."""
        return cls(tuple(map(json_int, t["exponent"])), json_int(t.get("level", 0)), base)

    def __repr__(self):
        if self.level == 0:
            return f"<{','.join(map(str, self.coords))}>"
        return f"<{','.join(map(str, self.coords))}>/{self.base}^{self.level}"


@record
class AffineMonoid:
    """A fine monoid given by generators at a common denominator level."""

    ambient_rank: int
    scale_base: int
    level: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.ambient_rank < 0:
            raise ValueError("ambient rank must be nonnegative")
        gens = tuple(tuple(int(x) for x in g) for g in self.generators)
        for g in gens:
            if len(g) != self.ambient_rank:
                raise ValueError("generator length does not match ambient rank")
        object.__setattr__(self, "generators", gens)
        if self.scale_base < 2:
            raise ValueError("scale base must be >= 2")
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    def elem(self, coords) -> MonoidElem:
        return MonoidElem(tuple(coords), self.level, self.scale_base)

    def gen_elems(self) -> tuple[MonoidElem, ...]:
        return tuple(self.elem(g) for g in self.generators)

    def to_descriptor(self) -> dict:
        return {
            "ambient_rank": self.ambient_rank,
            "scale_base": self.scale_base,
            "level": self.level,
            "generators": [list(g) for g in self.generators],
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> AffineMonoid:
        return cls(
            ambient_rank=json_int(d["ambient_rank"]),
            scale_base=json_int(d["scale_base"]),
            level=json_int(d.get("level", 0)),
            generators=tuple(tuple(map(json_int, g)) for g in d["generators"]),
        )


# named monoids: name -> d -> (ambient rank, generators); `ptlab monoid
# --preset` offers these names
PRESETS = {
    "quadric": lambda d: (4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))),
    "Nd": lambda d: (d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d))),
    "A1": lambda d: (2, ((2, 0), (1, 1), (0, 2))),
}


def preset(name: str, p: int, d: int = 0) -> AffineMonoid:
    """The quadric cone xy = zw, N^d, or the A1 cone <(2,0),(1,1),(0,2)>, at level 0."""
    if name not in PRESETS:
        raise ValueError(f"unknown monoid preset {name!r}")
    rank, gens = PRESETS[name](d)
    return AffineMonoid(rank, p, 0, gens)


# ---------------------------------------------------------------------------
# cones


def _primitive(v) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _rank_of(rows) -> int:
    """Rank of a list of integer vectors, by fraction-free elimination."""
    rows = [r for r in rows if any(r)]
    rank = 0
    while rows:
        piv = rows.pop()
        c = next(k for k, x in enumerate(piv) if x)
        rows = [_primitive(tuple(piv[c] * x - r[c] * y for x, y in zip(r, piv))) for r in rows]
        rows = [r for r in rows if any(r)]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def _ineq_cone_rays(constraints: tuple[tuple[int, ...], ...], n: int):
    """Double description of {y in R^n : <a, y> >= 0 for all a in constraints}.

    Returns (lineality basis, extreme rays), rays primitive.  When a new
    constraint meets the lineality space, one lineality direction becomes a
    ray and everything else is projected onto the constraint hyperplane;
    otherwise a ray on the positive side is combined with one on the
    negative side only when the two are adjacent.  The rays stay exactly the
    extreme rays after every step, so adjacency is the combinatorial test of
    Fukuda-Prodon ("Double description method revisited", 1996): no third
    ray is tight at every constraint at which both are tight.  Each ray
    carries that zero set as a bit mask over the constraints.
    """
    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], int]] = []
    seen = 0  # the constraints so far, all tight on the lineality space
    for idx, a in enumerate(constraints):
        if not any(a):
            continue
        bit = 1 << idx
        pivot = next((l for l in lin if _dot(a, l) != 0), None)
        if pivot is not None:
            pa = _dot(a, pivot)
            if pa < 0:
                pivot = tuple(-x for x in pivot)
                pa = -pa
            new_lin = []
            for l in lin:
                if l is pivot or l == tuple(-x for x in pivot):
                    continue
                proj = _primitive(tuple(l[k] * pa - pivot[k] * _dot(a, l) for k in range(n)))
                if any(proj):
                    new_lin.append(proj)
            lin = new_lin
            rays = [(_primitive(tuple(r[k] * pa - pivot[k] * _dot(a, r) for k in range(n))),
                     z | bit) for r, z in rays]
            rays.append((pivot, seen))
        else:
            pos, neg, zero = [], [], []
            for r, z in rays:
                w = _dot(a, r)
                if w > 0:
                    pos.append((r, z, w))
                elif w < 0:
                    neg.append((r, z, w))
                else:
                    zero.append((r, z | bit))
            combined = []
            for rp, zp, wp in pos:
                for rn, zn, wn in neg:
                    common = zp & zn
                    if any(z & common == common for r, z in rays if r is not rp and r is not rn):
                        continue
                    combined.append((_primitive(tuple(-wn * rp[k] + wp * rn[k] for k in range(n))),
                                     common | bit))
            rays = [(r, z) for r, z, _ in pos] + zero + combined
        seen |= bit
    return tuple(lin), tuple(sorted(r for r, _ in rays))


def cone_contains(Q: AffineMonoid, coords) -> bool:
    """Membership in the rational cone of Q's generators (scale-free)."""
    lin, rays = _ineq_cone_rays(Q.generators, Q.ambient_rank)
    v = coords.coords if isinstance(coords, MonoidElem) else tuple(coords)
    return all(_dot(l, v) == 0 for l in lin) and all(_dot(r, v) >= 0 for r in rays)


def facet_normals(Q: AffineMonoid) -> tuple[tuple[int, ...], ...]:
    """Primitive inner normals of the facets of cone(Q), ambient coordinates."""
    _, rays = _ineq_cone_rays(Q.generators, Q.ambient_rank)
    return rays


# ---------------------------------------------------------------------------
# lattice data


def _gens_matrix(gens: tuple[tuple[int, ...], ...], n: int):
    """The generators as the columns of an n-row matrix, zero columns included:
    the one matrix whose Smith form answers every lattice question on Q^gp."""
    return tuple(tuple(g[i] for g in gens) for i in range(n))


@lru_cache(maxsize=None)
def _gp_basis(gens: tuple[tuple[int, ...], ...], n: int):
    return intlat.lattice_basis(_gens_matrix(gens, n))


def gp_basis(Q: AffineMonoid):
    """Basis (as columns) of Q^gp in level-of-Q integer coordinates."""
    return _gp_basis(Q.generators, Q.ambient_rank)


def in_gp(Q: AffineMonoid, x: MonoidElem) -> bool:
    if x.level > Q.level:
        return False
    gens = _gens_matrix(Q.generators, Q.ambient_rank)
    return intlat.in_lattice(gens, x.at_level(Q.level)) is not None


def dimension(Q: AffineMonoid) -> int:
    """Rank of Q^gp; equals the chain-theoretic dimension for fine sharp Q."""
    _, r = intlat.dims(gp_basis(Q))
    return r


# ---------------------------------------------------------------------------
# membership


@lru_cache(maxsize=None)
def _generated(gens: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> bool:
    """v in the N-span of gens (nonzero, in N^d).

    v is in the span iff v = 0 or v - g >= 0 is in it for some generator g.
    Every step lowers the total degree, so the walk down from v is finite.
    """
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        if not any(u):
            return True
        for g in gens:
            w = tuple(a - b for a, b in zip(u, g))
            if min(w) >= 0 and w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def contains(Q: AffineMonoid, x: MonoidElem) -> bool:
    """Monoid membership, decided exactly; NotSharp unless Q is sharp.

    x must lie in Q^gp with nonnegative facet pairings, which for a
    saturated Q is membership.  For any other Q the pairings, which map a
    sharp Q injectively into N^facets, are then peeled down by those of the
    generators, as in _saturation_gap.
    """
    saturated = is_saturated(Q)
    if x.level > Q.level:
        return False
    _, rays = _ineq_cone_rays(Q.generators, Q.ambient_rank)
    pv = mat_vec(rays, x.at_level(Q.level))
    if min(pv, default=0) < 0 or not in_gp(Q, x):
        return False
    return saturated or _generated(tuple(mat_vec(rays, g) for g in Q.generators if any(g)), pv)


# ---------------------------------------------------------------------------
# triangulation


@lru_cache(maxsize=None)
def _triangulation(gens: tuple[tuple[int, ...], ...], n: int):
    """Simplicial cones that triangulate cone(gens), spanned by its extreme
    generators; gens must span a sharp monoid.

    Each cone is a pair: its r generators in ambient coordinates, and the
    r x r matrix with their coordinates in gp_basis as columns, where
    cone(gens) is full-dimensional of rank r.  A generator is extreme iff
    the facets at which it pairs to 0 have rank r - 1 on Q^gp, and the
    shortest generator stands for its ray.  The cones
    are those of the pulling triangulation: a face spanned by more extreme
    generators than its dimension is the union of the cones over its first
    generator and the triangulated facets of the face that miss it.  A
    face's facets are its intersections with the facets of cone(gens) that
    lower its rank by one.  Rank 0 gives one cone with no generators.
    """
    _, facets = _ineq_cone_rays(gens, n)
    basis = _gp_basis(gens, n)
    r = intlat.dims(basis)[1]
    basis_rows = intlat.transpose(basis)
    on_gp = [mat_vec(basis_rows, f) for f in facets]
    ext: dict[tuple[bool, ...], tuple[int, ...]] = {}  # zero pattern -> generator
    for g in gens:
        pg = mat_vec(facets, g)
        zero = tuple(x == 0 for x in pg)
        if zero in ext:
            if sum(pg) < sum(mat_vec(facets, ext[zero])):
                ext[zero] = g
        elif _rank_of([row for row, z in zip(on_gp, zero) if z]) == r - 1:
            ext[zero] = g
    ext_gens = sorted(ext.values())
    # gp_basis is G V_j for D_jj != 0, where U G V = D is the Smith form of
    # the generator matrix G, so a generator g has coordinates (U g)_j / D_jj
    U, D, _ = intlat.snf(_gens_matrix(gens, n))
    coords = [tuple(x // D[j][j] for j, x in enumerate(mat_vec(U[:r], g))) for g in ext_gens]
    incidence = [frozenset(i for i, g in enumerate(ext_gens) if _dot(f, g) == 0)
                 for f in facets]
    memo: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def pull(face: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        if len(face) == k:
            return [face]
        if face not in memo:
            subs = set()
            for inc in incidence:
                t = tuple(i for i in face if i in inc)
                if (len(t) >= k - 1 and face[0] not in t and t not in subs
                        and _rank_of([coords[i] for i in t]) == k - 1):
                    subs.add(t)
            memo[face] = [(face[0],) + s for t in sorted(subs) for s in pull(t, k - 1)]
        return memo[face]

    return tuple((tuple(ext_gens[i] for i in s), intlat.transpose([coords[i] for i in s]))
                 for s in pull(tuple(range(len(ext_gens))), r))


@lru_cache(maxsize=None)
def _parallelepiped(M: tuple[tuple[int, ...], ...]):
    """Lattice points of the fundamental parallelepiped of the simplicial cone
    spanned by the columns M_j of M in Z^r: the points sum_j (q_j / d) M_j
    with 0 <= q_j < d.

    Returns (d, qs): d is the largest invariant factor of M, and qs holds
    one numerator vector q per point, |det M| of them.  With U M V = D the
    Smith form, Z^r / M Z^r is the image of the box prod_i [0, D_ii) under
    U^-1, and U^-1 w reduces to the point with q = (V diag(d / D_ii) w) mod d.
    """
    if abs(intlat.det(M)) == 1:
        # volume 1, only the point 0: Bareiss costs under a tenth of the
        # Smith form, and 7 of the 16 cones of the benchmark monoids
        # (monoid_known and the quadric) are unimodular
        return 1, ((0,) * len(M),)
    _, D, V = intlat.snf(M)
    diag = [D[i][i] for i in range(len(M))]
    d = diag[-1]
    scale = [d // x for x in diag]
    qs = tuple(tuple(x % d for x in mat_vec(V, [s * x for s, x in zip(scale, w)]))
               for w in itertools.product(*map(range, diag)))
    return d, qs


def _combine(q, gens, d: int, n: int) -> tuple[int, ...]:
    """sum_j (q_j / d) gens_j, an integer vector of length n."""
    return tuple(sum(x * g[k] for x, g in zip(q, gens)) // d for k in range(n))


# ---------------------------------------------------------------------------
# predicates


def is_sharp(Q: AffineMonoid) -> bool:
    """No nonzero element of Q has its negation in Q (cone pointedness)."""
    for g in Q.generators:
        if any(g) and cone_contains(Q, tuple(-x for x in g)):
            return False
    return True


@lru_cache(maxsize=None)
def _saturation_gap(gens: tuple[tuple[int, ...], ...], n: int):
    """The fundamental parallelepiped points of the cones of _triangulation
    that lie outside Q, in lexicographic order.

    Every x in cone(Q) cap Q^gp lies in a cone of _triangulation, so x - p is
    an N-combination of that cone's generators for some point p of its
    fundamental parallelepiped.  So the result is empty iff Q is saturated,
    and with Q's generators it generates the saturation (the primal
    algorithm of Bruns-Ichim, "Normaliz: algorithms for affine monoids and
    rational cones", J. Algebra 324, 2010).  It is in general a proper part
    of cone(Q) cap Q^gp minus Q.  A cone of volume 1 has only the point 0;
    a point on a face that two cones share is kept once.
    Membership is the generator walk on facet pairings, which map a sharp Q
    injectively into N^facets; Q is not sharp (NotSharp) iff a nonzero
    generator pairs to 0 with every facet.  The result is level-free, the
    same for every level.
    """
    _, rays = _ineq_cone_rays(gens, n)
    images = tuple(mat_vec(rays, g) for g in gens if any(g))
    if not all(any(v) for v in images):
        raise NotSharp("monoid is not sharp")
    gap = set()
    for G, M in _triangulation(gens, n):
        d, qs = _parallelepiped(M)
        for q in qs:
            v = _combine(q, G, d, n)
            if any(v) and not _generated(images, mat_vec(rays, v)):
                gap.add(v)
    return tuple(sorted(gap))


def is_saturated(Q: AffineMonoid) -> bool:
    """Q = cone(Q) cap Q^gp, decided exactly; NotSharp unless Q is sharp."""
    return not _saturation_gap(Q.generators, Q.ambient_rank)


def saturate(Q: AffineMonoid) -> AffineMonoid:
    """cone(Q) cap Q^gp, generated by its Hilbert basis; NotSharp unless Q is sharp.

    The candidates are Q's distinct nonzero generators followed by the
    saturation gap.  A candidate is kept iff the other candidates do not
    generate it, which leaves exactly the irreducible elements.
    """
    gap = _saturation_gap(Q.generators, Q.ambient_rank)
    if not gap:
        return Q
    _, rays = _ineq_cone_rays(Q.generators, Q.ambient_rank)
    cands = list(dict.fromkeys(g for g in Q.generators if any(g))) + list(gap)
    images = [mat_vec(rays, c) for c in cands]
    keep = tuple(c for i, c in enumerate(cands)
                 if not _generated(tuple(images[:i] + images[i + 1:]), images[i]))
    return AffineMonoid(Q.ambient_rank, Q.scale_base, Q.level, keep)


# ---------------------------------------------------------------------------
# counting by degree


@lru_cache(maxsize=None)
def _half_open(gens: tuple[tuple[int, ...], ...], n: int):
    """A half-open decomposition of cone(gens) cap gens^gp, by degree (the
    coordinate sum): per cone of _triangulation, the degrees of its
    generators and of its half-open parallelepiped points.

    Every x of the cone is assigned to the one simplicial cone whose
    interior holds x + delta, for delta = eps y + eps^2 e_1 + ... +
    eps^(r+1) e_r with y the sum of the extreme generators (interior) and
    eps -> 0 (Koeppe-Verdoolaege, "Computing parametric rational generating
    functions with a primal Barvinok algorithm", Electron. J. Combin. 15,
    2008).  In a cone with generators g_i, x = sum lambda_i g_i is assigned
    to it iff each lambda_i > 0, or lambda_i = 0 and delta has a positive
    i-th coordinate: the first nonzero of (lambda_i(y), lambda_i(e_1), ...),
    by Cramer's rule.  So the lattice points of the half-open cone are
    b + sum n_i g_i, n in N^r, uniquely, where b runs over the
    parallelepiped points with g_i added when q_i = 0 and facet i is open.
    """
    cones = _triangulation(gens, n)
    cols = {tuple(row[j] for row in M) for _, M in cones for j in range(len(M))}
    r = len(cones[0][1])
    probes = [tuple(map(sum, zip(*cols)))] + list(intlat.identity(r))
    out = []
    for G, M in cones:
        d, qs = _parallelepiped(M)
        sign = 1 if intlat.det(M) > 0 else -1
        open_ = []
        for i in range(r):
            lam = (intlat.det(tuple(row[:i] + (y[k],) + row[i + 1:] for k, row in enumerate(M)))
                   for y in probes)
            open_.append(sign * next(x for x in lam if x) < 0)
        degs = tuple(map(sum, G))
        points = tuple(sum(_combine(q, G, d, n)) + sum(e for e, o, x in zip(degs, open_, q)
                                                        if o and not x)
                       for q in qs)
        out.append((degs, points))
    return tuple(out)


@lru_cache(maxsize=None)
def count_upto(gens: tuple[tuple[int, ...], ...], n: int, k: int) -> int:
    """#{m in M : deg m <= k}, deg the coordinate sum, for the saturated
    monoid M that gens (in N^n) generate; NotSaturated otherwise.

    A sum over the half-open decomposition of _half_open: one degree table
    per simplicial cone, c[j] the number of n in N^r with sum n_i deg g_i
    = j (Bruns-Ichim, "Normaliz: algorithms for affine monoids and rational
    cones", J. Algebra 324, 2010), read at k - deg b for each point b.
    """
    if k < 0:
        return 0
    if _saturation_gap(gens, n):
        raise NotSaturated("the count by degree needs a saturated monoid")
    total = 0
    for degs, points in _half_open(gens, n):
        c = [1] + [0] * k
        for e in degs:
            for j in range(e, k + 1):
                c[j] += c[j - e]
        below = list(itertools.accumulate(c))
        total += sum(below[k - b] for b in points if b <= k)
    return total


# ---------------------------------------------------------------------------
# the p-division system


def p_divide(Q: AffineMonoid, i: int) -> AffineMonoid:
    """Q^(i): same generator vectors, read at level + i.

    For saturated Q this is {g : c^i g in Q} on the nose; in general it is the
    monoid generated by the c^i-th roots of the generators.
    """
    if i < 0:
        raise ValueError("division index must be nonnegative")
    return AffineMonoid(Q.ambient_rank, Q.scale_base, Q.level + i, Q.generators)


def layer_quotient(Q: AffineMonoid) -> FinAbelianGroup:
    """Structure of (Q^(i+1))^gp / (Q^(i))^gp, the same group for every i.

    Both groups are spanned by the same basis at consecutive scales, so the
    quotient is basis/(c * basis), where c * basis is the basis rescaled one
    level finer; computed honestly through the lattice quotient rather than
    assumed.
    """
    return intlat.abelian_quotient(gp_basis(Q), _rescaled_basis(Q, Q.level + 1))


def is_exact_submonoid(Qp: AffineMonoid, Q: AffineMonoid) -> bool:
    """Exactness of Qp inside a saturated Q: (Qp)^gp cap Q = Qp.

    Then (Qp)^gp cap Q = (Qp)^gp cap cone(Q) is saturated, so a non-saturated
    Qp is never exact; for a saturated Qp, exactness says that cone(Q) cap
    span(Qp^gp) lies in cone(Qp), which double description settles.  Raises
    NotSubmonoid for a generator of Qp outside Q, NotSaturated unless Q is
    saturated.
    """
    if Qp.ambient_rank != Q.ambient_rank or Qp.scale_base != Q.scale_base:
        raise NotSubmonoid("ambient contexts differ")
    for g in Qp.gen_elems():
        if not contains(Q, g):
            raise NotSubmonoid(f"generator {g} of the submonoid is outside the monoid")
    if not is_saturated(Q):
        raise NotSaturated("exactness needs a saturated ambient monoid")
    if not is_saturated(Qp):
        return False
    n = Q.ambient_rank
    level = max(Q.level, Qp.level)
    # cone(Q) cap span(Qp^gp): constraints are Q's facet inequalities plus
    # both signs of a basis of the annihilator of span(Qp^gp)
    perp = intlat.transpose(intlat.kernel(intlat.transpose(_rescaled_basis(Qp, level))))
    constraints = list(facet_normals(Q))
    for row in perp:
        constraints.append(tuple(row))
        constraints.append(tuple(-x for x in row))
    lin, rays = _ineq_cone_rays(tuple(constraints), n)
    for r in list(rays) + [l for l in lin] + [tuple(-x for x in l) for l in lin]:
        if not cone_contains(Qp, r):
            return False
    return True


def _rescaled_basis(Q: AffineMonoid, level: int):
    f = Q.scale_base ** (level - Q.level)
    return tuple(tuple(f * x for x in row) for row in gp_basis(Q))


def graded_order(coords: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The term order on coordinates at one common level: degree, then coordinates."""
    return sum(coords), coords


# Packed exponents (Kronecker substitution, as in Monagan-Pearce, "Polynomial
# division using dynamic arrays, heaps, and packed exponent vectors", CASC
# 2007).  A coordinate vector v of length n becomes the one int
#     sum(v) << n*field | v[0] << (n-1)*field | ... | v[n-1],
# with field = W + 1 bits per coordinate: W bits hold any coordinate of
# degree <= cap when 2^W > cap, and the top bit of each field is a guard that
# stays clear.  The degree sits in the top field, which has no width limit.
# Then int order is graded_order, the degree is one shift, and the packing is
# linear, so a sum of exponents is an int sum and p * v an int product.  It
# is exact (one vector per int, unpack inverts it) while every coordinate is
# in [0, 2^field); a sum of two exponents with coordinates below 2^W stays
# there, and beyond that only its comparison with the packed cutoff
# (cap + 1) << n*field is meaningful.


def pack(v: tuple[int, ...], field: int) -> int:
    """The packed exponent of the coordinates v, field bits per coordinate."""
    out = sum(v)
    for x in v:
        out = (out << field) + x
    return out


def unpack(code: int, field: int, n: int) -> tuple[int, ...]:
    """The n coordinates of a packed exponent (inverse of pack)."""
    mask = (1 << field) - 1
    out = [0] * n
    for k in range(n - 1, -1, -1):
        out[k] = code & mask
        code >>= field
    return tuple(out)


class Walk:
    """The elements of the monoid that gens (in N^n) generate, packed with
    field bits per coordinate, walked up from 0 one degree at a time.

    Every nonzero generator has positive degree, so the elements of degree
    k are the generators of degree e added to the elements of degree k - e:
    one set of int adds and one sorted run per degree.  elements holds the
    runs in degree order, which is graded_order, and degree is the highest
    degree walked so far; upto(k) walks on to k and no further.
    """

    def __init__(self, gens: tuple[tuple[int, ...], ...], field: int):
        if any(x < 0 for g in gens for x in g):
            raise ValueError("monoid has a generator outside N^d")
        self._gens: dict[int, list[int]] = {}
        for g in gens:
            if any(g):
                self._gens.setdefault(sum(g), []).append(pack(g, field))
        self.elements = [0]
        self._starts = [0, 1]  # degree k is elements[_starts[k]:_starts[k + 1]]
        self.degree = 0
        self._outside: dict = {}

    def upto(self, k: int) -> int:
        """The number of elements of degree <= k, walking on to degree k."""
        out, starts = self.elements, self._starts
        for d in range(self.degree + 1, k + 1):
            layer = set()
            for e, gs in self._gens.items():
                if e <= d:
                    below = out[starts[d - e]:starts[d - e + 1]]
                    for g in gs:
                        layer.update(map(g.__add__, below))
            out += sorted(layer)
            starts.append(len(out))
            self.degree = d
        return starts[k + 1] if k >= 0 else 0

    def outside(self, quots: tuple[tuple[int, int], ...], k: int) -> tuple[int, ...]:
        """The elements of degree <= k outside every translate q + elements,
        for quots given as (packed q, degree of q): one set of int adds per
        q, kept per (quots, k), so rings on this walk with the same
        quotient monomials share one tuple."""
        key = (quots, k)
        out = self._outside.get(key)
        if out is None:
            dead = set()
            for q, e in quots:
                dead.update(map(q.__add__, itertools.islice(self.elements, self.upto(k - e))))
            out = tuple(itertools.filterfalse(dead.__contains__,
                                              itertools.islice(self.elements, self.upto(k))))
            self._outside[key] = out
        return out


@lru_cache(maxsize=None)
def walk(gens: tuple[tuple[int, ...], ...], field: int) -> Walk:
    """The one Walk of gens at a field width: every ring whose exponent
    monoid has these generators at its level, in one packed layout, shares
    it (the levels of a division tower and their residue rings)."""
    return Walk(gens, field)


@lru_cache(maxsize=None)
def member_test(gens: tuple[tuple[int, ...], ...], n: int, base: int):
    """Tests of u in Q, Q the monoid that gens (in N^n) generate, for
    coordinate vectors u in N^n: (full, facets), the full test and the one
    for u already in Q^gp, each None when it admits every such u.

    A saturated Q is cone(Q) cap Q^gp (Bruns-Gubeladze, "Polytopes, Rings,
    and K-Theory", ch. 2).  Q^gp is read off the Smith form U G V = D of
    the generator matrix G: u is in it iff (U u)_i is 0 past the rank (the
    lattice equations) and a multiple of D_ii before it (the congruences).
    A facet whose tight generators are exactly those with g_k = 0 needs no
    test: on span(Q) its pairing and u_k are linear forms with the same
    kernel, the facet's span, and both are positive on the other
    generators, so the pairing is a positive multiple of u_k >= 0.  So the
    quadric keeps one lattice equation and no inequality, and N^n (every
    unit vector a generator) none.  A non-saturated Q is decided by
    contains, also in Q^gp.
    """
    nz = tuple(g for g in gens if any(g))
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if set(units) <= set(nz):  # Q is N^n
        return None, None
    if not nz:
        eqs, congs, facets = units, [], []
    elif _saturation_gap(gens, n):
        Q = AffineMonoid(n, base, 0, gens)
        return (lambda u: contains(Q, Q.elem(u)),) * 2
    else:
        U, D, _ = intlat.snf(_gens_matrix(gens, n))
        rank = sum(1 for i in range(min(n, len(gens))) if D[i][i])
        eqs = list(U[rank:])
        congs = [(U[i], D[i][i]) for i in range(rank) if D[i][i] > 1]
        coordinate_faces = {frozenset(j for j, g in enumerate(nz) if not g[k]) for k in range(n)}
        _, rays = _ineq_cone_rays(gens, n)
        facets = [f for f in rays
                  if frozenset(j for j, g in enumerate(nz) if not _dot(f, g)) not in coordinate_faces]
    return _linear_test(eqs, congs, facets), _linear_test((), (), facets)


def _linear_test(eqs, congs, facets):
    """u -> every a.u = 0, a.u = 0 mod m and f.u >= 0; None when there is none."""
    if not (eqs or congs or facets):
        return None

    def test(u: tuple[int, ...]) -> bool:
        for a in eqs:
            if sum(map(mul, a, u)):
                return False
        for a, m in congs:
            if sum(map(mul, a, u)) % m:
                return False
        for f in facets:
            if sum(map(mul, f, u)) < 0:
                return False
        return True

    return test


# ---------------------------------------------------------------------------
# exact embeddings and graded decompositions


def exact_embed_Nd(Q: AffineMonoid):
    """Facet-pairing matrix embedding Q exactly into N^(number of facets).

    Rows are the primitive inner facet normals; the map q -> (<n_F, q>)_F is
    the split exact embedding available for fine sharp saturated monoids.
    """
    if not is_saturated(Q):  # NotSharp unless Q is sharp
        raise NotSaturated("facet embedding needs a saturated monoid")
    return facet_normals(Q)


@record(hidden=("_level", "_basis", "_U", "_diag"))
class GradedDecomposition:
    """Grading of Z[Q] by G = Q^gp/(Qp)^gp; degree zero is is_zero_class."""

    class_group: FinAbelianGroup
    _level: int
    _basis: tuple
    _U: tuple
    _diag: tuple

    def class_of(self, x: MonoidElem):
        """Label of x in G; labels are reduced coordinate tuples, additively."""
        if x.level > self._level:
            raise ValueError("element is finer than the grading level")
        t = intlat.in_lattice(self._basis, x.at_level(self._level))
        if t is None:
            raise ValueError("element is outside the ambient groupification")
        u = mat_vec(self._U, t)
        out = []
        for i, val in enumerate(u):
            d = self._diag[i] if i < len(self._diag) else 0
            out.append(val % d if d else val)
        return tuple(out)

    def is_zero_class(self, x: MonoidElem) -> bool:
        return all(v == 0 for v in self.class_of(x))


def graded_decomposition(Qp: AffineMonoid, Q: AffineMonoid) -> GradedDecomposition:
    """Grading of Q by G = Q^gp/(Qp)^gp, with exactness as precondition."""
    if not is_exact_submonoid(Qp, Q):
        raise NotExact("submonoid is not exact in the ambient monoid")
    level = max(Q.level, Qp.level)
    group, basis, U, diag = intlat.smith_quotient(_rescaled_basis(Q, level), _rescaled_basis(Qp, level))
    return GradedDecomposition(
        class_group=group,
        _level=level,
        _basis=basis,
        _U=U,
        _diag=diag,
    )
