"""A complete estimation run with the plain Hamiltonian sampler.

Burn-in anneals the target and adapts the step size by dual averaging; the
main phase samples the frozen target with jittered trajectory lengths; the
post-processing stage fits a Gaussian mixture to the samples, recovers the
target's normalizing constant, and re-weights the failing samples into the
failure-probability estimate - all without a single further model call.
"""

import warnings

from rareprob import AstpaConfig, make_benchmark, run_astpa

warnings.simplefilter("ignore")

model = make_benchmark("example1")
config = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=100, budget=1600)
report, art = run_astpa(model, config, seed=2024, method="hmcmc")

print("Standard sampler on the convex benchmark (reference p_F ~ 4.73e-6)")
print(f"  estimate            {report.p_hat:.3e}")
print(f"  normalizing const   {report.c_h:.4e}")
print(f"  analytic cov        {report.cov_analytic:.3f} "
      f"(thinning lag {report.thinning_lag})")
print(f"  model calls         {report.model_calls}")
print(f"  main-phase samples  {art.main.n}")
print(f"  acceptance          burn-in {art.burnin.accepted.mean():.2f}, "
      f"main {report.accept_rate:.2f}")
print(f"  step size           {art.epsilon:.3f}")

S = art.main
print()
print("Sample cloud diagnostics:")
print(f"  fraction in failure domain: {S.is_failure.mean():.2f}")
print(f"  mean position: {S.theta.mean(axis=0).round(3)}")
print(f"  mixture components fitted:  {art.importance_density.n_components}")

print()
print("Replicating the run with the same seed is bit-identical:")
model2 = make_benchmark("example1")
report2, _ = run_astpa(model2, config, seed=2024, method="hmcmc")
print(f"  {report.p_hat:.17e}")
print(f"  {report2.p_hat:.17e}")

print()
print("A different seed gives an independent replication:")
model3 = make_benchmark("example1")
report3, _ = run_astpa(model3, config, seed=2025, method="hmcmc")
print(f"  {report3.p_hat:.3e}")
