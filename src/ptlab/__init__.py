"""Truncated laboratory for towers of monoid algebras and their tilts.

The package computes, at finite precision and degree cutoff, with complete
local rings attached to affine monoids: p-division towers of monoids, the
perfectoid-style tower axioms and Frobenius projections, pillar chains and
small tilts, log-regular presentations, toric class groups, and the W2(F_p)
coefficients of the regularity criteria.  Each prime it reads passes one
check, coeffring.require_prime.
"""

__version__ = "0.1.0"
