"""Lie-algebra/Spencer-complex kernels, a characteristic-line integrator, and a
pseudo-spectral 2D Euler solver with conserved-invariant monitoring."""

__version__ = "0.1.0"


class CFLViolation(RuntimeError):
    """Raised when a requested step size is at or above the stability bound
    (cartan) or above the advective bound (euler2d)."""
