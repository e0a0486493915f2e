"""Numerical toolkit for matrix manifolds over R, C and H: seeded
samplers, decompositions, concentration-of-measure experiments, and the
finite-dimensional bound machinery behind them."""

__version__ = "0.1.0"

from .algebra import FMatrix, field_dim
from .bounds import make_schedule, sigma_recursion, theta
from .concentration import ApproxSpaceParams
from .decomp import dist_to_scaled_stiefel, grassmann_dist, hopf_dist, polar, svd
from .errors import MmconcError
from .gaussian import annulus_mass, ball_mass
from .sampling import SamplerConfig

__all__ = [
    "ApproxSpaceParams",
    "FMatrix",
    "MmconcError",
    "SamplerConfig",
    "annulus_mass",
    "ball_mass",
    "dist_to_scaled_stiefel",
    "field_dim",
    "grassmann_dist",
    "hopf_dist",
    "make_schedule",
    "polar",
    "sigma_recursion",
    "svd",
    "theta",
]
