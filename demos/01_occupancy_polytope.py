"""Occupancy polytopes from the ground up.

A stochastic policy visits state-action pairs with long-run frequencies; the
set of all such frequency tables is a polytope cut out by flow-conservation
constraints.  This script builds one, moves between policies and occupancy
measures, and shows why expected returns are linear over the polytope.
"""

import numpy as np

import polyagg as pa

# Two states, two actions.  Action 0 tends to stay, action 1 tends to move.
transition = np.array([
    [[0.9, 0.1], [0.2, 0.8]],
    [[0.15, 0.85], [0.7, 0.3]],
])
rewards = np.array([
    [[1.0, 0.0], [0.0, 0.0]],   # agent 0 likes staying in state 0
    [[0.0, 0.0], [0.0, 1.0]],   # agent 1 likes action 1 in state 1
])
m = pa.Momdp(transition=transition, rewards=rewards)
poly = pa.build_polytope(m)
print(f"{m.num_states} states x {m.num_actions} actions "
      f"-> polytope in R^{poly.dim} with {poly.a_eq.shape[0]} equality rows")

# Any policy maps to a point of the polytope and back.
policy = pa.Policy(pi=np.array([[0.7, 0.3], [0.4, 0.6]]))
d = pa.policy_to_occupancy(policy, m)
print("occupancy table:\n", np.round(d.table, 4))
print("is a member:", poly.contains(d))
print("recovered policy:\n", np.round(pa.occupancy_to_policy(d).pi, 4))

# Expected returns are dot products with the occupancy vector.
for i in range(m.num_agents):
    print(f"agent {i} expected return:",
          round(pa.expected_return(d, m.rewards[i]), 4))

# Normalization rescales each agent's return to span [0, 1] over the polytope,
# which makes returns comparable without trusting reward scales.
norm, dropped = pa.normalize_rewards(m, poly)
print("dropped (indifferent) agents:", dropped)
for i in range(norm.num_agents):
    r = norm.reward_vectors()[i]
    lo = r @ pa.solve_lp(poly, None, -r).flat
    hi = r @ pa.solve_lp(poly, None, r).flat
    print(f"agent {i} normalized return range: [{lo:.2e}, {hi:.6f}]")
