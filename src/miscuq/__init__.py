"""Multi-fidelity sparse-grid surrogates with Bayesian calibration and
data-informed forward uncertainty quantification.

The pieces, bottom up: ``params`` (uncertain-parameter spaces), ``leja``
(nested knot families), ``interp`` (tensor Lagrangian interpolants),
``multiindex`` (downward-closed index sets and combination weights),
``oracle`` (model backends and the evaluation cache), ``misc`` (the
combination surrogate compiled into one tensor interpolant, and its
surplus-scored adaptive construction), ``bayes`` (MAP calibration and
Laplace posterior), ``forward`` (sampling, KDE, quantile bands), and
``cli`` (the batch pipeline driver).  Import each name from its module;
the package re-exports nothing.
"""

__version__ = "0.1.0"
