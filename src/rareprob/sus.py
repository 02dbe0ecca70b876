"""Subset Simulation baseline with component-wise Metropolis chains.

Level 0 is crude Monte Carlo; each later level seeds chains at the samples
below the current percentile threshold and grows them with per-coordinate
Metropolis proposals accepted against the standard normal marginal, keeping
a candidate only if it stays inside the current intermediate failure set.
Chains are grown in lockstep across seeds so the per-level work is a handful
of vectorized model batches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SusConvergenceError

PROPOSALS = ("uniform", "normal")


@dataclass
class SusConfig:
    n_s: int = 1000            # samples per level
    p0: float = 0.1            # level percentile
    proposal: str = "uniform"  # "uniform": width-2 window; "normal": N(0,1) step
    max_levels: int = 30

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ConfigurationError(f"p0 must be in (0, 1), got {self.p0}")
        if self.proposal not in PROPOSALS:
            raise ConfigurationError(
                f"proposal must be one of {PROPOSALS}, got {self.proposal!r}")
        if type(self.n_s) is not int or round(self.n_s * self.p0) < 1:
            raise ConfigurationError(
                f"n_s must be an integer with round(n_s*p0) >= 1, got {self.n_s!r}")
        if type(self.max_levels) is not int or self.max_levels < 1:
            raise ConfigurationError(
                f"max_levels must be an integer >= 1, got {self.max_levels!r}")
        n_seed = self.n_s * self.p0
        if abs(n_seed - round(n_seed)) > 1e-9:
            warnings.warn(
                f"n_s*p0={n_seed} is not an integer; rounding to {round(n_seed)}",
                stacklevel=2)


@dataclass
class SusResult:
    p_hat: float
    n_levels: int
    thresholds: list = field(default_factory=list)
    model_calls: int = 0


def level_threshold(g_values, p0):
    """The p0-quantile of g values: ascending order statistic ceil(p0 * n),
    clipped to 0 when non-positive (the terminal level targets g <= 0)."""
    g = np.sort(np.asarray(g_values, dtype=float), kind="stable")
    idx = max(1, math.ceil(p0 * g.size))
    b = float(g[idx - 1])
    return max(b, 0.0)


def subset_simulation(model, config, seed):
    """Estimate the failure probability by sequential conditional levels;
    deterministic given the seed."""
    rng = np.random.default_rng(seed)
    d = model.dim
    n_s = config.n_s
    p0 = config.p0
    n_seed = int(round(n_s * p0))
    calls_start = model.call_count

    theta = rng.standard_normal((n_s, d))
    g = model.evaluate_batch(theta)

    thresholds = []
    level = 1
    while True:
        b = level_threshold(g, p0)
        thresholds.append(b)
        if b <= 0.0:
            r = float(np.mean(g <= 0.0))
            return SusResult(p_hat=p0 ** (level - 1) * r, n_levels=level,
                             thresholds=thresholds,
                             model_calls=model.call_count - calls_start)
        if level >= config.max_levels:
            raise SusConvergenceError(
                f"no convergence within {config.max_levels} levels",
                thresholds=thresholds)

        order = np.argsort(g, kind="stable")
        seeds = theta[order[:n_seed]]
        seeds_g = g[order[:n_seed]]
        theta, g = _grow_chains(model, seeds, seeds_g, b, n_s, config, rng)
        level += 1


def _grow_chains(model, seeds, seeds_g, b, n_s, config, rng):
    """Grow every seed into a chain of length ~ 1/p0 under the level set g <= b.

    All chains advance one step per pass; each pass costs one model batch of
    size n_seed, so a level costs exactly n_s - n_seed calls (seeds are
    reused without re-evaluation).
    """
    n_seed, d = seeds.shape
    steps = n_s // n_seed - 1
    extra = n_s - n_seed * (steps + 1)   # distributed one per leading chain

    cur = seeds.copy()
    cur_g = seeds_g.copy()
    out_theta = [seeds.copy()]
    out_g = [seeds_g.copy()]
    total_new = 0
    step = 0
    while total_new < n_s - n_seed:
        step += 1
        active = n_seed if step <= steps else extra
        a_cur = cur[:active]
        a_g = cur_g[:active]
        if config.proposal == "uniform":
            cand = a_cur + rng.uniform(-1.0, 1.0, size=(active, d))
        else:
            cand = a_cur + rng.standard_normal((active, d))
        # per-coordinate Metropolis against the standard normal marginal
        log_ratio = 0.5 * (a_cur ** 2 - cand ** 2)
        keep = np.log(rng.uniform(size=(active, d))) < log_ratio
        cand = np.where(keep, cand, a_cur)
        cand_g = model.evaluate_batch(cand)
        ok = cand_g <= b
        new_theta = np.where(ok[:, None], cand, a_cur)
        new_g = np.where(ok, cand_g, a_g)
        cur[:active] = new_theta
        cur_g[:active] = new_g
        out_theta.append(new_theta)
        out_g.append(new_g)
        total_new += active

    return np.vstack(out_theta), np.concatenate(out_g)
