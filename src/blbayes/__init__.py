"""Black-Litterman portfolio engine with Bayesian covariance-prior variants.

Four models share one data pipeline and one backtest:

* ``original`` — the closed-form model (equilibrium prior plus views).
* ``iw_augmented`` — Inverse-Wishart covariance prior, views augmented to an
  invertible square matrix P* with a prior on ``P* mu`` built from the
  historical monthly means, Gibbs sampling in asset space.
* ``iw_nonsquare`` — same prior and the same sampler, views untouched.
* ``log_sigma`` — normal prior on the stacked log-covariance with a
  Metropolis-Hastings-within-Gibbs sampler built on a second-order
  approximation of the matrix exponential.
"""

__version__ = "0.1.0"

from .backtest import (  # noqa: F401
    ModelResult,
    ModelSettings,
    SweepGrid,
    SweepRecord,
    backtest_profit,
    run_model,
    run_sweep,
    view_distance,
    write_sweep_csv,
)
from .data import PricePanel, ReturnPanel, compute_returns, ingest_prices, monthly_means  # noqa: F401
from .diagnostics import PosteriorSummary  # noqa: F401
from .inverse_wishart import IwConfig, gibbs_augmented, gibbs_nonsquare  # noqa: F401
from .log_sigma import LogSigmaConfig, gibbs_log_sigma  # noqa: F401
from .original_bl import (  # noqa: F401
    BlPosterior,
    EquilibriumInputs,
    bl_posterior,
    equilibrium_returns,
    optimal_weights,
    weight_decomposition,
)
from .sampling import rng_stream  # noqa: F401
from .views import ViewSet, augment_to_invertible, build_transformed_hyperparams  # noqa: F401
