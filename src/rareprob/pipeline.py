"""End-to-end estimation runs: burn-in, main sampling, post-processing.

One call to :func:`run_astpa` performs a complete single-replication
estimate on a limit-state model: annealed burn-in with step-size adaptation
(and curvature accumulation for the preconditioned variant), a frozen main
phase driven by a model-call budget, then the inverse importance sampling
adjustment, which by construction performs no further model calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import iis
from .errors import ConfigurationError, EstimationError, InvalidInputError
from .hmc import (MAX_LEAPFROG_STEPS, ChainState, DualAveraging,
                  find_reasonable_epsilon, hmc_iteration)
from .qnp import SPD_EXTRA_CAP, BfgsState, MassState, finalize_mass, \
    qnp_burnin_iteration, qnp_main_iteration
from .target import SmoothedTarget

METHODS = ("hmcmc", "qnp-hmcmc")


def check_sigma(sigma):
    """The likelihood dispersion of a run (and of a ``tune`` pilot)."""
    if not 0.0 < sigma <= 1.0:
        raise ConfigurationError(f"sigma must be in (0, 1], got {sigma}")


@dataclass
class AstpaConfig:
    """Settings of one estimation run (defaults follow the generic guidance:
    dispersion 0.4, percentile 0.1, trajectory length 0.7, burn-in near 10%
    of the model-call budget).

    The main phase starts a trajectory while fewer than ``budget`` model
    calls have been made and always finishes it, so a run may overshoot the
    budget by up to ``MAX_LEAPFROG_STEPS - 1`` calls.
    """

    sigma: float = 0.4
    p: float = 0.1
    tau: float = 0.7
    n_burnin: int | None = None
    budget: int | None = None

    def __post_init__(self):
        # a count is an int, not a bool; the budget has no default
        if type(self.budget) is not int or self.budget < 1:
            raise ConfigurationError(
                f"budget must be set to an integer >= 1, got {self.budget!r}")
        if self.n_burnin is not None and (type(self.n_burnin) is not int
                                          or self.n_burnin < 0):
            raise ConfigurationError(
                f"n_burnin must be None or an integer >= 0, got {self.n_burnin!r}")
        check_sigma(self.sigma)
        if not 0.0 < self.p < 1.0:
            raise ConfigurationError(f"percentile must be in (0, 1), got {self.p}")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigurationError(
                f"tau must be finite and > 0, got {self.tau}")


@dataclass
class RunArtifacts:
    """Everything a run produced beyond the report (for tests and demos);
    ``burnin`` is the burn-in phase's record."""

    burnin: PhaseRecord
    main: iis.SampleSet
    importance_density: object
    mass: MassState | None
    epsilon: float
    target: SmoothedTarget
    diverged: int


class PhaseRecord:
    """The recorded states of one sampling phase, one array row each.

    Theta, g and the accepted and diverged flags are written in place into
    blocks sized up front.  A phase that outgrows them moves to blocks twice
    the size, so rows past the last recorded state are never touched and
    the finished columns are views, never copies.
    """

    def __init__(self, capacity, d):
        capacity = max(capacity, 1)
        self._theta = np.empty((capacity, d))
        self._g = np.empty(capacity)
        self._accepted = np.empty(capacity, dtype=bool)
        self._diverged = np.empty(capacity, dtype=bool)
        self.n = 0

    def append(self, state, info):
        i = self.n
        if i == self._g.size:
            self._grow()
        self._theta[i] = state.theta
        self._g[i] = state.aux[0]
        self._accepted[i] = info["accepted"]
        self._diverged[i] = info["diverged"]
        self.n = i + 1

    def _grow(self):
        for name in ("_theta", "_g", "_accepted", "_diverged"):
            old = getattr(self, name)
            new = np.empty((2 * old.shape[0],) + old.shape[1:], dtype=old.dtype)
            new[:self.n] = old[:self.n]
            setattr(self, name, new)

    # the recorded rows, as views
    theta = property(lambda self: self._theta[:self.n])
    g = property(lambda self: self._g[:self.n])
    accepted = property(lambda self: self._accepted[:self.n])
    diverged = property(lambda self: self._diverged[:self.n])


def _calibration_window(n_burnin):
    return max(10, min(50, n_burnin // 5))


def _resolve_n_burnin(config, eps0):
    if config.n_burnin is not None:
        return config.n_burnin
    steps = max(1, round(config.tau / eps0))
    return max(2, int(round(0.10 * config.budget / steps)))


def run_astpa(model, config, seed, method="qnp-hmcmc"):
    """Run one full estimation; returns (EstimateReport, RunArtifacts)."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; one of {METHODS}")
    rng = np.random.default_rng(seed)
    d = model.dim
    notes = []

    target = SmoothedTarget(model, sigma=config.sigma, p=config.p)
    if target.origin_eval[0] <= 0.0:
        notes.append("g(0) <= 0: origin lies in the failure domain")
    # the chain and the step-size search start on the first annealed target
    state = _reweight(target, ChainState(np.zeros(d), -math.inf, None,
                                         target.origin_eval),
                      target.initial_params)

    eps0 = find_reasonable_epsilon(
        state, lambda th: target.logp_grad(th, target.initial_params), rng)
    n_burnin = _resolve_n_burnin(config, eps0)
    target.anneal(n_burnin)
    da = DualAveraging(eps0)

    def run_phase(state, kernel, arg, eps, da, record, n=None, annealed=False):
        """``n`` iterations of ``kernel`` (until the budget is spent when None).

        ``da`` adapts the step size when given; an annealed phase re-weights
        the chain to the schedule of every 1-based iteration first.
        Returns the final state.
        """
        m = 0
        while (m < n) if n is not None else (model.call_count < config.budget):
            m += 1
            params = target.params_at(m) if annealed else None
            if annealed:
                state = _reweight(target, state, params)
            state, info = kernel(state, lambda th: target.logp_grad(th, params),
                                 eps, config.tau, rng, arg)
            if da is not None:
                eps = da.update(info["alpha"])
            record.append(state, info)
        return state

    # the step functions are looked up here, at call time, never bound early
    if method == "qnp-hmcmc":
        bfgs = BfgsState(d)
        burnin_step, main_step = qnp_burnin_iteration, qnp_main_iteration
        # the SPD repair and the calibration window record into burn-in too
        burn = PhaseRecord(n_burnin + SPD_EXTRA_CAP + _calibration_window(n_burnin), d)
    else:
        bfgs = None
        burnin_step = main_step = hmc_iteration
        burn = PhaseRecord(n_burnin, d)
    state = run_phase(state, burnin_step, bfgs, da.current_eps, da, burn,
                      n_burnin, annealed=True)
    eps_main = da.frozen_eps
    state = _reweight(target, state)

    mass = None
    if bfgs is not None:
        mass, state = finalize_mass(
            bfgs, state, target.logp_grad, eps_main, config.tau, rng,
            record=burn.append)
        # The preconditioned kinetics rescale the dynamics, so the burn-in
        # step size does not carry over.  Re-anchor with the same search
        # heuristic under the new mass, then settle it with a short adaptive
        # window before freezing; these iterations are still part of the
        # adaptive phase and excluded from estimation.
        eps_cal = find_reasonable_epsilon(state, target.logp_grad, rng,
                                          mass=mass)
        da_cal = DualAveraging(eps_cal)
        state = run_phase(state, main_step, mass, da_cal.current_eps, da_cal,
                          burn, _calibration_window(n_burnin))
        eps_main = da_cal.frozen_eps

    # every main iteration but one that diverges before its first step calls
    # the model, so the calls left bound the rows; growth covers the rest
    main = PhaseRecord(config.budget - model.call_count, d)
    run_phase(state, main_step, mass, eps_main, None, main)
    if not main.n:
        raise EstimationError(
            f"budget {config.budget} exhausted before the main phase "
            f"(burn-in used {model.call_count} calls)")

    # the main samples under the final parameters; theta and g are views
    log_ell = target.log_likelihood(main.g)
    log_h = log_ell - 0.5 * d * math.log(2.0 * math.pi) \
        - 0.5 * iis.row_sq_norms(main.theta)
    main_set = iis.SampleSet(theta=main.theta, g=main.g, log_ell=log_ell,
                             log_h=log_h)

    # ---- post-processing: no model calls from here on ----------------------
    calls_before = model.call_count
    gmm_seed = int(rng.integers(2 ** 63))
    try:
        q = iis.fit_subspace_density(main_set.theta, seed=gmm_seed)
    except InvalidInputError as exc:
        raise EstimationError(
            f"{main_set.n} main samples cannot support a {d}-dim fit") from exc
    c_h = iis.normalizing_constant(main_set, q)
    p_hat = iis.estimate_pf(main_set, c_h)
    if p_hat == 0.0:
        notes.append("no failure samples in the main phase")
    # measured autocorrelation of the estimator terms, capped by the blanket
    # dimension rule
    terms = np.where(main_set.is_failure,
                     np.exp(np.minimum(-main_set.log_ell, 700.0)), 0.0)
    lag = iis.estimate_thinning_lag(terms, iis.choose_thinning(d))
    variance, cov = iis.cov_analytic(main_set, c_h, p_hat, lag)
    assert model.call_count == calls_before, "post-processing must not call the model"

    report = iis.EstimateReport(
        p_hat=p_hat, c_h=c_h, variance=variance, cov_analytic=cov,
        thinning_lag=lag, model_calls=model.call_count,
        accept_rate=int(main.accepted.sum()) / main.n, warnings=tuple(notes))
    artifacts = RunArtifacts(
        burnin=burn, main=main_set, importance_density=q, mass=mass,
        epsilon=eps_main, target=target, diverged=int(main.diverged.sum()))
    return report, artifacts


def _reweight(target, state, params=None):
    """The state re-expressed under other likelihood parameters (no model
    call: the cached g and grad g are reused)."""
    g, grad_g = state.aux
    logp, grad = target.view(state.theta, g, grad_g, params)
    return replace(state, logp=logp, grad=grad, aux=(g, grad_g))


