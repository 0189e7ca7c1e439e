"""Pseudospectral solver and harmonic-analysis toolbox for the fifth-order
Kadomtsev-Petviashvili equations on a periodic box."""

from .grid import SpectralGrid, make_grid
from .dispersion import (
    DispersionParams,
    KPSign,
    dispersion_omega,
    gradient_omega,
    omega_on_grid,
)
from .field import Field
from .symbols import apply_symbol, dealias, x_antiderivative, x_derivative, zero_mode_project
from .cutoffs import cutoff_psi, cutoff_psi_T, dyadic_eta
from .norms import NormSpec, bracket, energy_functional, mass, momentum, sobolev_aniso_norm, tilde_norm
from .evolution import (
    SolverConfig,
    Trajectory,
    evolve,
    linear_propagate,
    linear_trajectory,
    nonlinear_rhs,
    residual_check,
    step_splitstep,
)
from .duhamel import PicardResult, duhamel_picard
from .spacetime import (
    SpaceTimeField,
    bourgain_norm,
    modulation_project,
    random_modulation_shell,
    sample_linear_flow,
    strichartz_ratio,
)
from .resonance import (
    InteractionCase,
    InteractionTag,
    classify_interaction,
    kp2_lower_bound_ratio,
    resonance,
    resonance_identity_check,
)
from .convbounds import ConvolutionBoundResult, convolution_bound_check
from .initial_data import FileData, GaussianData, ModeSumData, RandomShellData, make_initial_data
from .config import RunConfig, load_config, parse_config
from . import errors

__version__ = "0.1.0"


__all__ = [
    "SpectralGrid",
    "make_grid",
    "DispersionParams",
    "KPSign",
    "dispersion_omega",
    "gradient_omega",
    "omega_on_grid",
    "Field",
    "apply_symbol",
    "dealias",
    "x_antiderivative",
    "x_derivative",
    "zero_mode_project",
    "cutoff_psi",
    "cutoff_psi_T",
    "dyadic_eta",
    "NormSpec",
    "bracket",
    "energy_functional",
    "mass",
    "momentum",
    "sobolev_aniso_norm",
    "tilde_norm",
    "SolverConfig",
    "Trajectory",
    "evolve",
    "linear_propagate",
    "linear_trajectory",
    "nonlinear_rhs",
    "residual_check",
    "step_splitstep",
    "PicardResult",
    "duhamel_picard",
    "SpaceTimeField",
    "bourgain_norm",
    "modulation_project",
    "random_modulation_shell",
    "sample_linear_flow",
    "strichartz_ratio",
    "InteractionCase",
    "InteractionTag",
    "classify_interaction",
    "kp2_lower_bound_ratio",
    "resonance",
    "resonance_identity_check",
    "ConvolutionBoundResult",
    "convolution_bound_check",
    "FileData",
    "GaussianData",
    "ModeSumData",
    "RandomShellData",
    "make_initial_data",
    "RunConfig",
    "load_config",
    "parse_config",
    "errors",
    "__version__",
]
