"""Quasi-Newton mass preconditioning in 100 dimensions.

During burn-in the sampler accumulates a rank-two (BFGS) approximation of
the local inverse curvature from the gradients it already computes; the
inverse of that matrix then becomes the momentum covariance of the main
phase.  On the 100-dimensional linear benchmark the exact failure
probability is known, so the whole pipeline can be judged directly.
"""

import math
import time
import warnings

import numpy as np

from rareprob import AstpaConfig, make_benchmark, run_astpa

warnings.simplefilter("ignore")

beta = 4.0
exact = 0.5 * math.erfc(beta / math.sqrt(2.0))
print(f"Linear benchmark, d = 100, beta = {beta}: exact p_F = {exact:.4e}")
print()

config = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=500, budget=6000)

t0 = time.perf_counter()
estimates = []
for rep in range(5):
    model = make_benchmark("example6", beta=beta)
    report, art = run_astpa(model, config, seed=300 + rep, method="qnp-hmcmc")
    estimates.append(report.p_hat)
    if rep == 0:
        lam = np.linalg.eigvalsh(art.mass.w)
        print("First replication:")
        print(f"  estimate        {report.p_hat:.4e} "
              f"(x{report.p_hat / exact:.2f} of exact)")
        print(f"  analytic cov    {report.cov_analytic:.3f}")
        print(f"  model calls     {report.model_calls}")
        print(f"  acceptance      {report.accept_rate:.2f}")
        print(f"  mass spectrum   min eig {lam.min():.3f}, max eig "
              f"{lam.max():.3f}")
        print(f"  (the one squeezed direction is the limit-state normal; "
              f"the rest stay near the prior scale 1)")
        print()

estimates = np.array(estimates)
print(f"Five replications in {time.perf_counter() - t0:.1f}s:")
print(f"  mean      {estimates.mean():.4e}  (x{estimates.mean() / exact:.2f})")
print(f"  spread    {estimates.std(ddof=1) / estimates.mean():.3f} "
      f"(coefficient of variation)")
print()
print("For comparison, resolving 3e-5 by crude Monte Carlo would need "
      "on the order of 10^7 model calls; the run above used 6,000.")
