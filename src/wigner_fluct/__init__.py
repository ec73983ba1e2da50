"""Numerical laboratory for eigenvalue counting statistics of Wigner random
matrices: ensemble samplers, spectra and interval counts, semicircle-law
scalings, determinantal-kernel quadrature, and Monte-Carlo verification of
the Gaussian fluctuation laws for bulk and edge eigenvalues."""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleKind,
    EnsembleSpec,
    MatrixSample,
    gse_from_goe,
    mix_trial_seed,
    sample,
    sample_goe,
    sample_gse,
    sample_gue,
    sample_matched_wigner,
    sample_tridiag_beta,
    superpose_decimate_even,
)
from .errors import (
    DegenerateInputError,
    DiscretizationFailureError,
    DomainError,
    InvalidDataError,
    InvalidSizeError,
    NumericalFailureError,
    NumericalRangeError,
    ShapeError,
    UnsupportedError,
)
from .fluctuations import (
    IndexSpec,
    bulk_index_spec,
    edge_index_spec,
    normalize,
    predicted_cov,
    thetas_from_indices,
)
from .kernel import (
    CumulantReport,
    KernelOperator,
    counting_cumulants,
    discretize_operator,
    expected_count,
    hermite_psi,
    kernel_diag,
    variance_count,
)
from .semicircle import (
    CenterScale,
    bulk_center_scale,
    edge_center_scale,
    semicircle_cdf,
    semicircle_density,
    semicircle_quantile,
)
from .spectra import (
    SpectrumSample,
    Tridiagonal,
    check_interlacing,
    eigenvalues,
    eigenvalues_at,
    sturm_count_below_batch,
    tridiag_eigenvalues,
    tridiag_eigenvalues_selected,
    tridiagonalize,
)
from .stats import (
    ExperimentPlan,
    ExperimentResult,
    Thresholds,
    counting_experiment,
    empirical_corr,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    run_mc,
    standard_normal_cdf,
    summarize_vectors,
)
