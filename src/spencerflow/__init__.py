"""Lie-algebra/Spencer-complex kernels, a characteristic-line integrator, and a
pseudo-spectral 2D Euler solver with conserved-invariant monitoring."""

import json
from importlib import resources

__version__ = "0.1.0"


def read_preset(filename):
    """The JSON document of a bundled preset file, read as spencerflow package data."""
    return json.loads((resources.files("spencerflow") / "presets" / filename).read_text())


class CFLViolation(RuntimeError):
    """The numerical gate: a step at or above the stability bound (cartan) or
    above the advective bound (euler2d), or a Cartan or Euler step that
    overflows."""


class NonFinite(ValueError):
    """A vorticity field, marker points or an invariant record holding an inf
    or a nan: the state has left float64."""
