"""Exact-arithmetic verification toolkit for an elliptic K3 family.

Modules:
    exactalg    -- exact integer linear algebra kernels
    wpoly       -- sparse weighted multivariate polynomials over Z
    eliminate   -- resultants, discriminants, probabilistic identity testing
    lattice     -- even integral lattices and their invariants
    weierstrass -- Weierstrass models and Kodaira fiber classification
    families    -- the concrete verification targets and golden data
    cli         -- the ``k3verify`` command-line harness
"""

__version__ = "0.1.0"
