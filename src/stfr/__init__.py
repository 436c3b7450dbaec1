"""High-order space-time flux reconstruction solver for conservation laws
on stationary and moving/deforming grids.

Subpackage layout:
    basis       1D Gauss-Legendre / Lagrange / correction-function tables
    mesh        meshes (interval, rectangle, disk), mesh file I/O
    motion      grid motion prescriptions
    geometry    space-time slab mappings, Jacobians/metrics, GCL residual
    physics     equation sets, fluxes, Riemann solvers, exact solutions
    st_solver   space-time FR solver, Newton-Krylov solve per slab
    mol_solver  ALE-FR method-of-lines solver (SSP-RK3)
    stfv        1D space-time finite-volume reference scheme
    analysis    error norms, convergence reports (orders between rows)
    cli         case configs, run/sweep orchestration, command line
"""

from stfr.basis import BasisSet, make_basis

__all__ = ["BasisSet", "make_basis"]
__version__ = "0.1.0"
