"""Fairness-driven aggregation: proportional veto core and max-quantile.

Both rules carve the polytope with per-agent return lower bounds and then
return the welfare-maximizing (hence Pareto-optimal) point of what is left.
The veto core lets each agent cut away a budgeted fraction of the space they
like least; max-quantile pushes the common quantile level as high as the
linear program stays feasible.
"""

import numpy as np

import polyagg as pa
from polyagg import harness

m = pa.random_momdp(3, 3, 3, seed=14)
pipe = harness.prepare(m, 50_000, seed=15)
print(f"model: 3 states x 3 actions, {pipe.model.num_agents} agents "
      f"(dropped: {list(pipe.dropped_agents)})")

veto = pa.veto_core(pipe.model, pipe.poly, pipe.cloud, epsilon=0.05)
cert = veto.certificate
print("\nsequential veto core")
print("  cut budget delta:", round(cert.delta, 4))
print("  thresholds:", np.round(cert.thresholds, 3))
print("  measured cut fractions:", np.round(cert.cut_fractions, 3))
print("  returns:", np.round(veto.returns, 3))

quant = pa.max_quantile(pipe.model, pipe.poly, list(pipe.cdfs))
print("\nmax-quantile fairness")
print("  q* =", quant.certificate.q_star)
print("  per-agent thresholds:", np.round(quant.certificate.thresholds, 3))
print("  returns:", np.round(quant.returns, 3))
print("  samples above each return:", quant.certificate.samples_above)

egal = pa.egalitarian(pipe.model, pipe.poly)
util = pa.utilitarian(pipe.model, pipe.poly)
print("\nbaselines")
print("  egalitarian sorted returns:", np.round(egal.certificate.sorted_returns, 3))
print("  utilitarian welfare:", round(util.certificate.welfare, 3))

print("\nGini of normalized returns (lower = more equal):")
for name, res in (("veto-core", veto), ("max-quantile", quant),
                  ("egalitarian", egal), ("utilitarian", util)):
    print(f"  {name:13s} {harness.gini(res.returns):.4f}")
