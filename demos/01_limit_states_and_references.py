"""Tour of the built-in limit-state problems.

Every benchmark lives in standard normal space and returns the limit-state
value together with its analytic gradient from a single evaluation.  Where
the failure probability is within brute-force reach we can check the carried
reference value by crude Monte Carlo.
"""

import numpy as np

from rareprob import (McConfig, benchmark_ids, crude_monte_carlo,
                      finite_difference_gradient, make_benchmark,
                      resolve_spec)

print("Registered benchmarks")
print("-" * 72)
for bid in benchmark_ids():
    spec = resolve_spec(bid)
    model = make_benchmark(spec)
    ref = "unknown" if spec.p_f_ref is None else f"{spec.p_f_ref:.3g}"
    print(f"  {bid:<10s} d={model.dim:<4d} reference p_F = {ref:<10s}"
          f" ({spec.ref_source})")

print()
print("One evaluation returns value and gradient, and counts one model call:")
model = make_benchmark("example1")
theta = np.array([1.5, -0.5])
g, grad = model.evaluate(theta)
print(f"  g({theta}) = {g:.4f}, grad = {grad.round(4)}, "
      f"calls so far = {model.call_count}")

fd = finite_difference_gradient(model, theta)
print(f"  central finite differences agree: {np.abs(grad - fd).max():.2e}")

print()
print("Crude Monte Carlo oracle on the four-branch system (p_F ~ 2.2e-3):")
model = make_benchmark("example4")
est = crude_monte_carlo(model, McConfig(2_000_000), seed=42)
print(f"  n = {est.n_samples:,}  p_hat = {est.p_hat:.4e}  "
      f"cov = {est.cov:.3f}")
print(f"  reference = {resolve_spec('example4').p_f_ref:.2e}")

print()
print("The oracle refuses sample sizes that cannot resolve the target:")
model = make_benchmark("example1")   # p_F ~ 4.7e-6
try:
    crude_monte_carlo(model, McConfig(10_000), seed=0)
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
