"""Voting rules as mixed-integer programs, with brute-force cross-checks.

Plurality and alpha-approval maximize how many agents clear their own
return threshold; both are small indicator MILPs solved by HiGHS
branch-and-cut.  On purpose-built instances their optima coincide with
classic combinatorial quantities, which gives exact oracles:

  * graphs: the plurality score equals the maximum independent set size;
  * 2-CNF formulas: the 0.95-approval score equals the MAX-2SAT optimum.
"""

import numpy as np

import polyagg as pa
from polyagg import harness

# --- plurality == maximum independent set ------------------------------------
g = pa.random_graph(6, 0.5, seed=3)
print(f"graph: {g.num_vertices} vertices, edges {g.edges}")
m = pa.gen_from_mis(g)
poly = pa.build_polytope(m)
model, _ = pa.normalize_rewards(m, poly)
res = pa.alpha_approval(model, poly, None, alpha=1.0)
print("plurality score:", res.certificate.score,
      "| brute-force MIS:", pa.brute_force_mis(g))
print("winning agents (an independent set):", res.certificate.approving_agents)

# --- 0.95-approval == MAX-2SAT ------------------------------------------------
f = pa.random_2cnf(4, 5, seed=8)
print(f"\nformula: {f.num_variables} variables, clauses {f.clauses}")
pipe = harness.prepare(pa.gen_from_max2sat(f), 50_000, seed=9)
res = pa.alpha_approval(pipe.model, pipe.poly, list(pipe.cdfs), alpha=0.95)
print("0.95-approval score:", res.certificate.score,
      "| brute-force MAX-2SAT:", pa.brute_force_max2sat(f))

# --- Borda count: indicator MILP vs concave LP --------------------------------
m = pa.random_momdp(3, 3, 3, seed=21)
pipe = harness.prepare(m, 50_000, seed=22)
cdfs = list(pipe.cdfs)
milp = pa.borda_milp(pipe.model, pipe.poly, cdfs, epsilon=0.05)
print("\nBorda via level indicators: rounded score",
      round(milp.certificate.rounded_score, 3))
try:
    conc = pa.borda_concave(pipe.model, pipe.poly, cdfs)
    print("Borda via concave envelope LP: score",
          round(conc.certificate.score, 3),
          "(modes", np.round(conc.certificate.modes, 3), ")")
except pa.ConcaveRegionEmpty:
    print("concave region empty; the MILP variant is the fallback")
