"""Rare-event failure probability estimation toolkit.

Sampling side: a smoothed target built from a weighted logistic CDF of the
limit-state function, explored by Hamiltonian MCMC with an optional
quasi-Newton preconditioned mass matrix.  Estimation side: an inverse
importance sampling adjustment on the already-drawn samples.  A
component-wise Metropolis Subset Simulation baseline and a replicated
experiment harness round out the package.
"""

__version__ = "0.1.0"

from .benchmarks import (analytic_reference, benchmark_ids, make_benchmark,
                         register_model, resolve_spec)
from .errors import (ConfigurationError, DimensionError, EstimationError,
                     InvalidInputError, NumericalError, RareprobError,
                     SusConvergenceError, TuningError)
from .harness import (AggregateReport, RunConfig, parse_config, run_experiment,
                      sweep)
from .hmc import (ChainState, DualAveraging, find_reasonable_epsilon,
                  hmc_iteration, jitter_tau, leapfrog, tune_trajectory)
from .iis import (EstimateReport, GmmModel, SampleSet, choose_thinning,
                  cov_analytic, estimate_pf, fit_gmm, fit_single_gaussian,
                  normalizing_constant)
from .model import (BenchmarkSpec, LimitStateModel, McConfig, McEstimate,
                    crude_monte_carlo, finite_difference_gradient)
from .pipeline import AstpaConfig, RunArtifacts, run_astpa
from .qnp import (BfgsState, MassState, bfgs_update, ensure_spd,
                  finalize_mass, qnp_burnin_iteration, qnp_main_iteration)
from .sus import SusConfig, SusResult, level_threshold, subset_simulation
from .target import (AnnealSchedule, LikelihoodParams, SmoothedTarget,
                     compute_g_c, mu_from_percentile)
