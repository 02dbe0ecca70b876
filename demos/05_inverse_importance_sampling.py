"""The post-processing adjustment, dissected on a 1-D problem.

Samples drawn from the smoothed target are not samples from the prior, so
the raw failure fraction among them means nothing by itself.  The
adjustment divides each failing sample by its likelihood value (cached at
sampling time) and multiplies by the target's normalizing mass, which is
itself recovered from the same samples via a fitted importance density.
Everything here is checked against quadrature, which is available in 1-D.
"""

import math

import numpy as np
from scipy.integrate import trapezoid

from rareprob import SampleSet, estimate_pf, fit_gmm, normalizing_constant
from rareprob.target import SCALE_RATIO, log_weight_omega, softplus

beta, sigma, p = 2.0, 0.4, 0.1
c = SCALE_RATIO * sigma
mu = -c * math.log(p / (1 - p))
exact_pf = 0.5 * math.erfc(beta / math.sqrt(2.0))

def log_ell(g):
    return log_weight_omega(mu, sigma) - softplus((g + mu) / c)

def log_h(theta):
    return log_ell(beta - theta) - 0.5 * math.log(2 * math.pi) - 0.5 * theta ** 2

# ground truth by quadrature
x = np.linspace(-10, 10, 1_000_001)
h = np.exp(log_h(x))
c_h_true = trapezoid(h, x)
print(f"1-D limit state g = {beta} - theta, exact p_F = {exact_pf:.4e}")
print(f"  normalizing mass by quadrature: C_h = {c_h_true:.5e}")

# draw iid samples from the target by inverse-CDF (no sampler involved)
cdf = np.cumsum(h)
cdf /= cdf[-1]
rng = np.random.default_rng(7)
thetas = np.interp(rng.uniform(size=20_000), cdf, x)
g = beta - thetas
samples = SampleSet(theta=thetas[:, None], g=g, log_ell=log_ell(g),
                    log_h=log_h(thetas))
print(f"  drew {samples.n} samples; {samples.is_failure.mean():.1%} fail "
      f"(vs p_F = {exact_pf:.1e}: the target oversamples failures on purpose)")

q = fit_gmm(samples.theta, k_max=3, seed=0)
c_h = normalizing_constant(samples, q)
p_hat = estimate_pf(samples, c_h)
print()
print(f"  fitted mixture components: {q.n_components}")
print(f"  C_h estimate:  {c_h:.5e}  (x{c_h / c_h_true:.4f} of quadrature)")
print(f"  p_F estimate:  {p_hat:.4e}  (x{p_hat / exact_pf:.4f} of exact)")

# the estimate is invariant to the likelihood scale: double ell and h~
scaled = SampleSet(theta=thetas[:, None], g=g,
                   log_ell=log_ell(g) + math.log(2.0),
                   log_h=log_h(thetas) + math.log(2.0))
c_h2 = normalizing_constant(scaled, q)
p_hat2 = estimate_pf(scaled, c_h2)
print()
print("Scaling the likelihood by 2 doubles C_h and leaves p_F unchanged:")
print(f"  C_h {c_h2 / c_h:.10f}x, p_F relative change "
      f"{abs(p_hat2 - p_hat) / p_hat:.2e}")
