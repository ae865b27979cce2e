"""Metrology of position-momentum-correlated Gaussian matter-wave probes.

A correlated Gaussian wave packet decoheres in a Markovian scattering bath;
this package evaluates its purity dynamics, the quantum and classical Fisher
information for estimating the correlation parameter and the environment
coupling, the coupling-temperature map, and the temporal gain of information
delivered by the correlation.
"""

from .constants import HBAR, K_BOLTZMANN, PLANCK_H
from .fisher import (
    CfiQuadrature,
    ConvergenceError,
    EstimationTarget,
    FisherResult,
    cfi_closed,
    cfi_quadrature,
    cramer_rao_bound,
    fisher_information,
    phi_gamma,
    phi_lambda,
    purity_derivative,
    qfi_analytic,
    qfi_numeric,
)
from .lens import (
    LensSpec,
    OpticalPotential,
    de_broglie,
    focal_length,
    gamma_from_curvature,
    optical_potential,
    rabi_profile,
)
from .model import (
    CovarianceMatrix,
    EnvironmentSpec,
    KernelParams,
    ProbeSpec,
    covariance,
    fullerene_probe,
    gamma_from_pearson,
    kernel_params,
    pearson_from_gamma,
    position_density_variance,
    purity_approx,
    purity_exact,
    purity_from_covariance,
    tau0,
)
from .thermometry import (
    TABLE1_REFERENCE,
    TgiRow,
    build_table1,
    decoherence_time,
    lambda_from_temperature,
    relative_purity_rate,
    tau_max_approx,
    tau_max_exact,
    temperature_from_lambda,
    tgi,
    tgi_approx,
)

__version__ = "0.1.0"
