"""Divisor class groups of toric rings k[Q] via the facet-pairing cokernel.

For a fine, sharp, saturated, full-dimensional Q the class group is the
cokernel of Q^gp -> Z^{facets}, x -> (v_F(x))_F, with each facet valuation
primitive as a functional on Q^gp (not merely as an ambient vector; the two
differ when Q^gp is a proper sublattice).  This is the characteristic-p side
the mixed-characteristic comparison reduces to; computing it needs only SNF.
"""

from __future__ import annotations

from .intlat import FinAbelianGroup, abelian_quotient, identity, mat_vec, transpose
from .monoid import AffineMonoid, NotSaturated, _primitive, facet_normals, gp_basis, is_saturated
from .record import record


@record
class ClassGroupReport:
    group: FinAbelianGroup
    facet_count: int

    @property
    def torsion_order(self) -> int:
        return self.group.torsion_order()

    @property
    def ell_primary(self) -> dict:
        return {l: ell_primary(self.group, l) for l in _prime_factors(self.torsion_order)}

    def to_json(self) -> dict:
        return {
            "group": self.group.describe(),
            "free_rank": self.group.free_rank,
            "invariant_factors": list(self.group.invariant_factors),
            "facet_count": self.facet_count,
            "torsion_order": self.torsion_order,
            "ell_primary": {str(l): g.describe() for l, g in self.ell_primary.items()},
        }


def pairing_matrix(Q: AffineMonoid) -> tuple[tuple[int, ...], ...]:
    """Rows: facets; columns: a basis of Q^gp; entries: primitive valuations.

    gp_basis returns its basis vectors as matrix columns, so each facet
    normal is read on them through the transpose; each row is divided by its
    gcd so the valuation is primitive on Q^gp itself.
    """
    basis_rows = transpose(gp_basis(Q))
    return tuple(_primitive(mat_vec(basis_rows, v)) for v in facet_normals(Q))


def class_group(Q: AffineMonoid) -> ClassGroupReport:
    if not is_saturated(Q):  # NotSharp unless Q is sharp
        raise NotSaturated("class group needs a saturated monoid")
    M = pairing_matrix(Q)
    nf = len(M)
    # columns of M are the images of the Q^gp basis inside Z^facets
    return ClassGroupReport(group=abelian_quotient(identity(nf), M), facet_count=nf)


def ell_primary(G: FinAbelianGroup, ell: int) -> FinAbelianGroup:
    """The ell-primary component of the torsion part."""
    factors = []
    for n in G.invariant_factors:
        q = 1
        while n % ell == 0:
            n //= ell
            q *= ell
        if q > 1:
            factors.append(q)
    return FinAbelianGroup(0, tuple(sorted(factors)))


def prime_to_p_report(G: FinAbelianGroup, p: int) -> dict:
    """Order and support of the prime-to-p torsion; always finite here."""
    tor = G.torsion_order()
    away = tor
    while away % p == 0:
        away //= p
    primes = _prime_factors(away)
    return {
        "prime_to_p_order": away,
        "support": primes,
        "components": {str(l): ell_primary(G, l).describe() for l in primes},
        "finite": True,
    }


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out
