"""Numerical toolkit for matrix manifolds over R, C and H: seeded
samplers, decompositions, concentration-of-measure experiments, and the
finite-dimensional bound machinery behind them."""

__version__ = "0.1.0"

from .algebra import FMatrix, field_dim, frobenius_inner, realify
from .bounds import make_schedule, sigma_recursion, theta
from .concentration import ApproxSpaceParams, membership, phi_project
from .decomp import (
    dist_to_scaled_stiefel,
    grassmann_dist,
    hermitian_eig,
    hopf_dist,
    polar,
    svd,
)
from .errors import MmconcError
from .gaussian import annulus_mass, ball_mass, radial_density
from .sampling import SamplerConfig, sample_gaussian, sample_haar_stiefel

__all__ = [
    "ApproxSpaceParams",
    "FMatrix",
    "MmconcError",
    "SamplerConfig",
    "annulus_mass",
    "ball_mass",
    "dist_to_scaled_stiefel",
    "field_dim",
    "frobenius_inner",
    "grassmann_dist",
    "hermitian_eig",
    "hopf_dist",
    "make_schedule",
    "membership",
    "phi_project",
    "polar",
    "radial_density",
    "realify",
    "sample_gaussian",
    "sample_haar_stiefel",
    "sigma_recursion",
    "svd",
    "theta",
]
