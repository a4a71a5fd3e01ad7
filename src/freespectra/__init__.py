"""Limiting singular value spectra of deep-network Jacobians.

The master equation for the Stieltjes transform of the squared-singular-value
law is P(m) = z m, with P a product of real linear factors gain (m - r_j); this
package solves it along a grid of spectral points with certified Newton steps,
and validates the results with Monte-Carlo and all-roots baselines.
"""

from .network_model import (
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    g_moment,
    layer_coefficient,
    propagate_variances,
    summarize,
)
from .oracles import EmpiricalSpectrum, RootSet, all_roots, ks_distance, monte_carlo_spectrum
from .solver import (
    BasinCertificate,
    SolveStats,
    SolverError,
    is_in_basin,
    newton_lilypads,
    newton_raphson,
)
from .spectrum import (
    DensityCurve,
    Moments,
    QuantileTable,
    atom_lower_bound,
    branch_roots,
    cdf,
    closed_form_moments,
    default_grid,
    density_grid,
    quantiles,
)
from .transform_algebra import (
    RationalMasterEq,
    eval_phi,
    master_from_spec,
    master_from_summary,
)

__version__ = "0.1.0"

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "Nonlinearity",
    "g_moment",
    "layer_coefficient",
    "propagate_variances",
    "summarize",
    "EmpiricalSpectrum",
    "RootSet",
    "all_roots",
    "ks_distance",
    "monte_carlo_spectrum",
    "BasinCertificate",
    "SolveStats",
    "SolverError",
    "is_in_basin",
    "newton_lilypads",
    "newton_raphson",
    "DensityCurve",
    "Moments",
    "QuantileTable",
    "atom_lower_bound",
    "branch_roots",
    "cdf",
    "closed_form_moments",
    "default_grid",
    "density_grid",
    "quantiles",
    "RationalMasterEq",
    "eval_phi",
    "master_from_spec",
    "master_from_summary",
    "__version__",
]
