"""Multi-fidelity sparse-grid surrogates with Bayesian calibration and
data-informed forward uncertainty quantification.

The pieces, bottom up: ``params`` (uncertain-parameter spaces), ``leja``
(nested knot families), ``interp`` (tensor Lagrangian interpolants),
``multiindex`` (downward-closed index sets and combination weights),
``oracle`` (model backends and the evaluation cache), ``misc`` (the
combination surrogate compiled into one tensor interpolant, and its
surplus-scored adaptive construction), ``bayes`` (MAP calibration and
Laplace posterior), ``forward`` (sampling, KDE, quantile bands), and
``cli`` (the batch pipeline driver).
"""

from .params import Gaussian, ParamSpace, ParamSpec, Uniform
from .leja import SymmetricLeja, WeightedGaussianLeja, level_to_knots
from .interp import TensorGrid, TensorInterpolant, build_grid
from .multiindex import (
    ExtIndex,
    MultiIndexSet,
    combination_coefficients,
    is_downward_closed,
    reduced_margin,
)
from .oracle import (
    BeamAnalogModel,
    CachedOracle,
    EvalCache,
    EvalResult,
    ExternalProcessModel,
    FidelitySpec,
    OracleError,
    builtin_model,
)
from .misc import (
    AdaptState,
    AdaptStop,
    BuildError,
    MiscSurrogate,
    adapt,
    build,
    deserialize,
    init_adapt,
    serialize,
)
from .bayes import (
    GaussianPosterior,
    ObservationSet,
    calibrate,
    estimate_sigma,
    find_map,
    laplace_covariance,
    misfit,
    nelder_mead,
)
from .forward import (
    BandSummary,
    PdfEstimate,
    PushResult,
    kde,
    mode,
    push_samples,
    quantiles,
    summarize_bands,
    uncertainty_reduction,
)

__version__ = "0.1.0"
