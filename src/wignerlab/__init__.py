"""Numerical laboratory for generalized Wigner ensembles."""

from .profile import (
    AssumptionReport,
    ProfileError,
    VarianceProfile,
    assumption_report,
    band_profile,
    flat_profile,
)
from .sampler import (
    EntryDistribution,
    HERMITIAN,
    SYMMETRIC,
    WignerSample,
    derive_stream,
    gaussian,
    rademacher,
    sample_indexed,
    sample_matrix,
    two_point,
    uniform,
)
from .semicircle import (
    SpectralPoint,
    classical_locations,
    m_sc,
    n_sc,
    rho_sc,
)
from .resolvent import (
    GreenSnapshot,
    control_params,
    control_sweep,
    green_at,
    identity_residuals,
    identity_trial,
    k_quantity,
    minor_green,
    ward_residual,
)
from .dbm import gap_distribution, ou_endpoint
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    ks_two_sample,
    slope_fit,
)

__version__ = "0.1.0"
