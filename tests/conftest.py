import math
import os

# the workloads here are many small linear-algebra calls; threaded BLAS only
# adds contention, and worker processes inherit these settings
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from rareprob import LimitStateModel

# property tests draw the same examples on every run, keep no example
# database and have no per-example deadline
PROPERTY = settings(derandomize=True, database=None, deadline=None)


def pytest_configure(config):
    # at collection the hypothesis plugin caches the constants of the sources
    # in its home directory, ./.hypothesis by default: keep it in pytest's cache
    if getattr(config, "cache", None) is not None:
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def make_linear_model(beta=3.0, name="lin1d"):
    """1-D g = beta - theta with exact failure probability Phi(-beta)."""
    return LimitStateModel(
        name, 1, lambda th: (beta - th[0], np.array([-1.0])),
        batch_value=lambda ths: beta - ths[:, 0])


def make_constant_model(value, dim=2, name="const"):
    grad = np.zeros(dim)
    return LimitStateModel(
        name, dim, lambda th: (value, grad.copy()),
        batch_value=lambda ths: np.full(ths.shape[0], value))


def phi(x):
    """Standard normal CDF via erfc."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def fast_profile():
    """Set RAREPROB_TEST_PROFILE=fast to skip the slowest reference checks."""
    return os.environ.get("RAREPROB_TEST_PROFILE", "").lower() == "fast"


class GaussianTarget:
    """Plain multivariate normal log-density for sampler tests."""

    def __init__(self, precision):
        self.precision = np.atleast_2d(np.asarray(precision, dtype=float))
        self.d = self.precision.shape[0]

    def logp_grad(self, theta, params=None):
        theta = np.asarray(theta, dtype=float)
        grad = -self.precision @ theta
        return 0.5 * float(theta @ grad), grad, None


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
