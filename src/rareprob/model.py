"""Limit-state models in standard normal space.

A limit-state function g maps a point theta of independent standard normal
variables to a scalar; g(theta) <= 0 is the failure event.  Every model here
returns the value and the analytic gradient from a single evaluation, and
keeps a thread-safe count of evaluations, which is the cost unit for all
method comparisons.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, InvalidInputError

MC_CHUNK = 262_144      # standard normal rows drawn per model batch
FD_STEP = 1e-5          # central finite-difference step


class _CallCounter:
    """Monotone evaluation counter, safe to share between chains."""

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def add(self, n=1):
        with self._lock:
            self._count += n

    @property
    def value(self):
        return self._count


class LimitStateModel:
    """A d-dimensional limit-state oracle g(theta), grad g(theta).

    Parameters
    ----------
    name : str
        Identifier used in reports.
    dim : int
        Dimension of the standard normal input space.
    func : callable
        Maps a length-d array to ``(g, grad)``: g a scalar and grad an array
        of shape (d,).  Must be deterministic.
    batch_value : callable, optional
        Vectorized value-only evaluator mapping an (n, d) array to an array of
        g values of shape (n,).  Used by Monte Carlo style consumers; each row
        counts as one model call.  Falls back to a row loop over ``func``.

    Returned shapes are checked on every call and a mismatch raises
    ``DimensionError``; non-finite values are legal (a divergent point may
    return g = inf).
    """

    def __init__(self, name, dim, func, batch_value=None):
        if dim < 1:
            raise ConfigurationError(f"dimension must be positive, got {dim}")
        self.name = name
        self.dim = int(dim)
        self._func = func
        self._batch_value = batch_value
        self._counter = _CallCounter()

    @property
    def call_count(self):
        return self._counter.value

    def evaluate(self, theta):
        """Evaluate (g, grad g) at theta.  Counts exactly one model call."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise DimensionError(
                f"{self.name}: expected shape ({self.dim},), got {theta.shape}"
            )
        if np.count_nonzero(np.isfinite(theta)) < self.dim:
            raise InvalidInputError(f"{self.name}: non-finite component in theta")
        g, grad = self._func(theta)
        self._counter.add(1)
        grad = np.asarray(grad, dtype=float)
        if grad.shape != (self.dim,) or getattr(g, "ndim", 0):
            raise DimensionError(
                f"{self.name}: model returned g of shape {np.shape(g)} and grad of "
                f"shape {grad.shape}, expected () and ({self.dim},)"
            )
        return float(g), grad

    def evaluate_batch(self, thetas):
        """Values of g for an (n, d) array of points; counts n model calls."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            raise DimensionError(
                f"{self.name}: expected shape (n, {self.dim}), got {thetas.shape}"
            )
        if not np.isfinite(thetas).all():
            raise InvalidInputError(f"{self.name}: non-finite component in batch")
        if self._batch_value is not None:
            g = np.asarray(self._batch_value(thetas), dtype=float)
        else:
            g = np.array([self._func(row)[0] for row in thetas], dtype=float)
        self._counter.add(thetas.shape[0])
        if g.shape != thetas.shape[:1]:
            raise DimensionError(
                f"{self.name}: model returned g of shape {g.shape} for "
                f"{thetas.shape[0]} rows"
            )
        return g


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark identity plus its scalar parameters and reference value."""

    benchmark_id: str
    params: dict = field(default_factory=dict)
    p_f_ref: float | None = None
    ref_source: str = "none"  # "tabulated" | "analytic" | "none"
    astpa_defaults: dict = field(default_factory=dict)
    sus_defaults: dict = field(default_factory=dict)


@dataclass(frozen=True)
class McEstimate:
    """Crude Monte Carlo estimate of a failure probability."""

    p_hat: float
    n_samples: int
    cov: float


@dataclass(frozen=True)
class McConfig:
    """Crude Monte Carlo settings (``force``: see ``check_resolvable``)."""

    n: int = 10 ** 6
    force: bool = False

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:    # a bool is not a size
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.force, bool):
            raise ConfigurationError(f"force must be a bool, got {self.force!r}")


def check_resolvable(p_ref, config):
    """Refuse, unless forced, a sample size that cannot resolve the reference
    probability (p_ref * n < 10): such a run returns noise."""
    n = config.n
    if not config.force and p_ref is not None and p_ref * n < 10:
        raise ConfigurationError(
            f"n={n} cannot resolve p~{p_ref:.3g} (need p*n >= 10); pass force=True")


def crude_monte_carlo(model, config, seed):
    """Brute-force reference estimate: fraction of failing standard normal draws
    among ``config.n`` (checked by ``check_resolvable``).  Deterministic given
    the seed.
    """
    check_resolvable(getattr(model, "p_f_ref", None), config)
    n = config.n
    rng = np.random.default_rng(seed)
    n_fail = 0
    done = 0
    while done < n:
        m = min(MC_CHUNK, n - done)
        g = model.evaluate_batch(rng.standard_normal((m, model.dim)))
        n_fail += int(np.count_nonzero(g <= 0.0))
        done += m
    p_hat = n_fail / n
    cov = math.sqrt((1.0 - p_hat) / (n * p_hat)) if p_hat > 0 else math.inf
    return McEstimate(p_hat=p_hat, n_samples=n, cov=cov)


def finite_difference_gradient(model, theta):
    """Central finite differences of g, for gradient verification only.

    Does not touch the model-call counter: it goes through the raw evaluator,
    so tests can check counting and gradients independently.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        grad[i] = (model._func(hi)[0] - model._func(lo)[0]) / (2.0 * FD_STEP)
    return grad
