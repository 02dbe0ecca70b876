"""Anatomy of the smoothed sampling target.

The target multiplies the standard normal prior by a weighted logistic CDF
of the (normalized) limit-state value: a soft indicator of failure whose
dispersion controls how sharply probability mass concentrates near the
g = 0 surface.  During burn-in the dispersion decays from 1 to its final
value while the location walks into the failure side, so the early chain
sees an almost-prior target.
"""

import math

import numpy as np

from rareprob import (SmoothedTarget, compute_g_c, make_benchmark,
                      mu_from_percentile)
from rareprob.target import log_weight_omega

model = make_benchmark("example1")

print("Construction for the convex benchmark (sigma = 0.4, percentile 0.1)")
g0, _ = model.evaluate(np.zeros(2))
print(f"  g(0) = {g0}  ->  g_c = {compute_g_c(g0)}  (case rule)")
mu = mu_from_percentile(0.1, 0.4)
print(f"  location mu_g = {mu:.5f} (puts the 10th percentile on g = 0)")
print(f"  weight Omega = {math.exp(log_weight_omega(mu, 0.4)):.5f} "
      "(PDF/CDF match at g = 0)")

target = SmoothedTarget(model, sigma=0.4, p=0.1)
target.anneal(100)

print()
print("Log-density along the ray theta = t * (1, 1)/sqrt(2):")
for t in (0.0, 1.0, 2.0, 2.83, 4.0):
    theta = t * np.ones(2) / np.sqrt(2)
    logp, _, (g, _) = target.logp_grad(theta)
    print(f"  t = {t:4.2f}  g = {g:+7.3f}  log h~ = {logp:8.3f}  "
          f"likelihood = {np.exp(target.log_likelihood(g)):.3e}")
print("  (the likelihood saturates once g <= 0: failure samples keep "
      "bounded weights)")

print()
print("Annealing schedule over 100 burn-in iterations:")
print("  iter   sigma    mu_g")
for it in (1, 10, 25, 50, 75, 100):
    sigma_it, mu_it = target.schedule.at(it)
    print(f"  {it:4d}  {sigma_it:.4f}  {mu_it:.5f}")
print(f"  final constants: sigma = {target.sigma}, mu_g = {target.mu_final:.5f}")

print()
print("Model calls made so far:", model.call_count,
      "(one for g(0), one per log-density probe)")
