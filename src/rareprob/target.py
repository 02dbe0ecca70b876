"""The smoothed sampling target.

The non-normalized target density is the standard normal prior weighted by a
one-dimensional likelihood of the limit-state value: a logistic CDF in
-g(theta)/g_c with location mu_g and dispersion sigma, scaled by the weight
Omega that matches the logistic PDF and CDF at g = 0.  Burn-in anneals sigma
from 1 down to its final value and mu_g from ~0 up to the percentile target,
so early iterations see a wide, nearly-prior target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, InvalidInputError

# logistic scale for dispersion sigma: c = (sqrt(3)/pi) * sigma
SCALE_RATIO = math.sqrt(3.0) / math.pi
_EXP_CLAMP = 700.0


def softplus(u):
    """Overflow-safe log(1 + e^u).

    A float takes the same numpy log1p and exp as an array, without the
    array round trip (math.log1p and math.exp differ from numpy's in the
    last bit on some inputs).
    """
    if type(u) is float:
        return max(u, 0.0) + float(np.log1p(np.exp(-abs(u))))
    u = np.asarray(u, dtype=float)
    out = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    return float(out) if out.ndim == 0 else out


def sigmoid(u):
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-min(u, _EXP_CLAMP)))
    eu = math.exp(max(u, -_EXP_CLAMP))
    return eu / (1.0 + eu)


@np.errstate(over="ignore")
def _half_sq_norm_and_grad(theta, coef, grad_g):
    """0.5 |theta|^2 and -theta - coef grad_g.  A divergent trajectory may
    overflow either: the log density is then -inf or the gradient non-finite,
    and the leapfrog counts a divergence."""
    return 0.5 * float(theta.dot(theta)), -theta - coef * grad_g


def compute_g_c(g_at_origin):
    """Normalizing constant for g: keeps g(theta)/g_c on a common scale.

    Returns g(0) when g(0) > 8 or 0 < g(0) < 1, else 1.  A non-positive
    g(0) (origin already failed) falls to the default branch.
    """
    if not math.isfinite(g_at_origin):
        raise InvalidInputError("g(0) must be finite")
    if g_at_origin > 8.0 or 0.0 < g_at_origin < 1.0:
        return float(g_at_origin)
    return 1.0


def mu_from_percentile(p, sigma):
    """Location placing the p-th logistic percentile on the g = 0 surface."""
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"percentile must be in (0, 1), got {p}")
    if sigma <= 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    return -SCALE_RATIO * sigma * math.log(p / (1.0 - p))


def log_weight_omega(mu_g, sigma):
    """ln Omega (logistic PDF and CDF matched at g = 0), in softplus form."""
    c = SCALE_RATIO * sigma
    return softplus(mu_g / c) - math.log(4.0 * c)


# the first annealed target: unit dispersion, location just above zero
SIGMA0, MU0 = 1.0, 1e-4


@dataclass(frozen=True)
class LikelihoodParams:
    """Frozen likelihood parameters of the smoothed target; the derived c and
    ln Omega are computed once per object, on first use."""

    sigma: float
    mu_g: float
    g_c: float

    @cached_property
    def c(self):
        return SCALE_RATIO * self.sigma

    @cached_property
    def log_omega(self):
        return log_weight_omega(self.mu_g, self.sigma)


def _log_ratio(start, final, name):
    """ln(start / final); a subnormal final value overflows the ratio, and
    the schedule would then divide by zero."""
    ratio = start / final
    if math.isinf(ratio):
        raise ConfigurationError(
            f"{name}={final!r} is too small to anneal to from {start!r}")
    return math.log(ratio)


@dataclass
class AnnealSchedule:
    """Exponential burn-in schedules for sigma (decay) and mu_g (growth).

    Constructed so sigma equals SIGMA0 at iteration 1 and sigma_final at
    iteration n_burnin, and mu equals MU0 at iteration 1 and mu_final at
    iteration n_burnin (mu_final <= 0, from a percentile of 0.5 or more,
    holds constant).  Past n_burnin both return their final constants.
    """

    sigma_final: float
    mu_final: float           # percentile location under the final sigma
    n_burnin: int

    def __post_init__(self):
        if self.n_burnin < 2:
            raise ConfigurationError("annealing needs at least 2 burn-in iterations")
        if not 0.0 < self.sigma_final <= SIGMA0:
            raise ConfigurationError(
                f"sigma_final must be in (0, {SIGMA0}], got {self.sigma_final}"
            )
        span = self.n_burnin - 1
        if self.sigma_final < SIGMA0:
            self._a2 = span / _log_ratio(SIGMA0, self.sigma_final, "sigma_final")
            self._a1 = SIGMA0 / math.exp(-1.0 / self._a2)
        else:
            self._a2 = None  # constant schedule
        if self.mu_final > 0 and self.mu_final != MU0:
            self._b2 = span / _log_ratio(MU0, self.mu_final, "mu_final")
            self._b1 = MU0 / math.exp(-1.0 / self._b2)
        else:
            self._b2 = None

    def at(self, iteration):
        """(sigma_iter, mu_iter) for a 1-based iteration index."""
        if iteration < 1:
            raise InvalidInputError("iteration counter starts at 1")
        it = min(int(iteration), self.n_burnin)
        if self._a2 is None:
            sigma = self.sigma_final
        else:
            sigma = self._a1 * math.exp(-it / self._a2)
        if self._b2 is None:
            mu = self.mu_final
        else:
            mu = self._b1 * math.exp(-it / self._b2)
        return sigma, mu


class SmoothedTarget:
    """Log-density and gradient of the non-normalized smoothed target.

    One model call yields (g, grad g); everything downstream of that pair is
    a cheap transform (``view``), so annealed parameter changes never
    re-evaluate the model.  ``logp_grad`` is the only method that calls it;
    construction evaluates the origin once (``origin_eval``, which sets g_c).
    """

    def __init__(self, model, sigma, p):
        self.model = model
        self.d = model.dim
        self.sigma = float(sigma)
        self.origin_eval = model.evaluate(np.zeros(self.d))
        self.g_c = compute_g_c(self.origin_eval[0])
        self.mu_final = mu_from_percentile(p, sigma)
        self.final_params = LikelihoodParams(sigma=self.sigma, mu_g=self.mu_final,
                                             g_c=self.g_c)
        self.initial_params = LikelihoodParams(sigma=SIGMA0, mu_g=MU0, g_c=self.g_c)
        self.schedule = None
        self._log_norm = 0.5 * self.d * math.log(2.0 * math.pi)

    def anneal(self, n_burnin):
        """Anneal over ``n_burnin`` iterations; below 2 there is nothing to
        anneal and the final parameters hold from the first iteration."""
        self.schedule = None
        if n_burnin >= 2:
            self.schedule = AnnealSchedule(sigma_final=self.sigma,
                                           mu_final=self.mu_final,
                                           n_burnin=int(n_burnin))

    def params_at(self, iteration):
        """Annealed parameters for a burn-in iteration; final ones past it."""
        if self.schedule is None:
            return self.final_params
        sigma, mu = self.schedule.at(iteration)
        return LikelihoodParams(sigma=sigma, mu_g=mu, g_c=self.g_c)

    # -- pure transforms of a cached (g, grad) pair --------------------------

    def log_likelihood(self, g, params=None):
        """ln ell = ln Omega - softplus(u), u = (g/g_c + mu)/c."""
        params = params or self.final_params
        u = (g / params.g_c + params.mu_g) / params.c
        return params.log_omega - softplus(u)

    def view(self, theta, g, grad_g, params=None):
        """(log density, gradient) at theta given its model response."""
        params = params or self.final_params
        u = (g / params.g_c + params.mu_g) / params.c
        half_sq, grad = _half_sq_norm_and_grad(
            theta, sigmoid(u) / (params.g_c * params.c), grad_g)
        return params.log_omega - softplus(u) - self._log_norm - half_sq, grad

    # -- the model-calling entry point ---------------------------------------

    def logp_grad(self, theta, params=None):
        """(logp, grad, (g, grad_g)) with exactly one model call."""
        theta = np.asarray(theta, dtype=float)
        g, grad_g = self.model.evaluate(theta)
        logp, grad = self.view(theta, g, grad_g, params)
        return logp, grad, (g, grad_g)
