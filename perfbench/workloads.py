"""The benchmark's workloads, their instances and the untimed output checks.

A workload is a closed loop over *batches*.  A batch is a fixed list of
instances generated from the workload seed and the batch index; a run always
completes whole batches, so the same position of every batch (a *slot*)
holds an instance of the same shape.  Throughput is computed from each
slot's median time over the run's batches, which a few seconds of a slower
machine cannot move.  Every instance is written as MOMDP JSON and handed to
``harness.run_experiment`` as a one-instance ``ExperimentSpec`` with
``record_runtime`` on, the path ``polyagg experiment`` takes.  A batch is
five instances (~12 s), so that a run holds several.

Why each workload exists:

* ``warehouse`` - the paper's flagship experiment on criterion_11's five
  instances (3 sites x 4 agents, generator seeds 2000-2004, hull dimension
  81; 64 chains, thinning 16; rules max-quantile, borda-milp, 0.9-approval,
  utilitarian, egalitarian), with a shorter walk: 12,800 samples after a
  burn-in of 2,000 steps, 5,200 lockstep steps in all against
  criterion_11's 45,008.  The workload seed picks the walks.  The walk is
  still most of an instance and each step costs what it costs there, so
  sampler-kernel work shows here and rule or LP work does not.
  Criterion_11's own walk (~18 s an instance) and the default walk (~80 s)
  are left out: a run could hold a few instances at most, and they only
  multiply the same per-step cost.  Warehouses drawn from the workload seed
  are left out too: about one in 170 makes egalitarian fail (see README).
* ``rules`` - the rules that have exact answers to check against.  A
  batch holds the one-hot simplex at l = 3, 4, 5 (hull dimension 2..4;
  100k samples, as criterion_08, whose 0.02 slack the checks use; default
  walk; rules veto-core(eps=0.05), max-quantile and borda-milp) and two
  2-CNF formulas of criterion_05's family at one size (6 variables, 5
  clauses; 50k samples; rule 0.95-approval).  On the simplex, closed forms
  exist for the return CDFs and the veto cuts, so sampling accuracy is
  checked next to speed; veto-core (l-1 fresh region walks plus 30
  feasibility LPs per agent) is ~75% of an instance, and a step at low
  dimension is mostly fixed per-call overhead, against per-row work at
  dimension 81 in ``warehouse``.  On the formulas, approval's
  branch-and-bound and its many tiny LPs are most of the rule's time, and
  ``brute_force_max2sat`` is the exact oracle.  Left out for run length:
  l = 6 (~6 s alone) and borda-milp on MAX-2SAT (one 15-agent formula took
  98 s).  Plurality on criterion_04's independent-set graphs is left out
  because it fails on some graphs (see README), and a workload has no
  failing operations.

Two more workloads were dropped.  LP-only rules on a 4 x 4 warehouse: its
plurality fails on most seeds.  Simplex and formulas as two workloads
rather than one: on a shared two-core machine whose speed shifts by a
quarter for tens of seconds at a time, fewer and longer runs hold still
better.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polyagg as pa
from polyagg import harness

ACCURACY_TOL = 0.02     # closed-form tolerance, as criterion_08 uses for cuts
IN_POLYTOPE_TOL = 1e-7
COMPLETION_TOL = 1e-6   # criterion_06's bound on a welfare-improving point


def _rules(*entries):
    return tuple(harness.RuleSpec(name, dict(params)) for name, params in entries)


WAREHOUSE_RULES = _rules(("max-quantile", {}), ("borda-milp", {}),
                         ("approval", {"alpha": 0.9}), ("utilitarian", {}),
                         ("egalitarian", {}))
SIMPLEX_RULES = _rules(("veto-core", {"epsilon": 0.05}), ("max-quantile", {}),
                       ("borda-milp", {}))
MAX2SAT_RULES = _rules(("approval", {"alpha": 0.95}))
WAREHOUSE_INSTANCES = range(2000, 2005)   # criterion_11's generator seeds
SIMPLEX_SIZES = (3, 4, 5)
MAX2SAT_SIZE = (6, 5)        # variables, clauses
MAX2SAT_PER_BATCH = 2


@dataclass(frozen=True, eq=False)
class Instance:
    label: str
    kind: str                 # warehouse | simplex | max2sat
    path: Path                # MOMDP JSON handed to the runner
    spec: harness.ExperimentSpec
    oracle: object = None     # CnfFormula or simplex size


def instance_seed(seed: int, batch: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, batch, index]).generate_state(1)[0])


def _instance(workdir, label, kind, model, rules, seed, oracle=None, **walk):
    path = Path(workdir) / f"{label.replace(' ', '_').replace('=', '')}.json"
    pa.save_momdp(model, path)
    spec = harness.ExperimentSpec(source={"file": str(path)}, rules=rules, seed=seed,
                                  record_runtime=True, **walk)
    return Instance(label=label, kind=kind, path=path, spec=spec, oracle=oracle)


def warehouse_batch(seed, batch, workdir):
    return [
        _instance(workdir, f"warehouse b{batch} i{s}", "warehouse",
                  pa.gen_warehouse(pa.WarehouseParams(warehouses=3, agents=4, seed=s)),
                  WAREHOUSE_RULES, instance_seed(seed, batch, j),
                  samples=12_800, burn_in=2_000, thinning=16)
        for j, s in enumerate(WAREHOUSE_INSTANCES)
    ]


def rules_batch(seed, batch, workdir):
    out = [
        _instance(workdir, f"simplex b{batch} l={ell}", "simplex",
                  pa.gen_simplex_instance(ell), SIMPLEX_RULES,
                  instance_seed(seed, batch, j), oracle=ell, samples=100_000)
        for j, ell in enumerate(SIMPLEX_SIZES)
    ]
    variables, clauses = MAX2SAT_SIZE
    for j in range(len(SIMPLEX_SIZES), len(SIMPLEX_SIZES) + MAX2SAT_PER_BATCH):
        s = instance_seed(seed, batch, j)
        f = pa.random_2cnf(variables, clauses, seed=s)
        out.append(_instance(workdir, f"max2sat b{batch} f{j}", "max2sat",
                             pa.gen_from_max2sat(f), MAX2SAT_RULES, s,
                             oracle=f, samples=50_000))
    return out


WORKLOADS = {
    "warehouse": warehouse_batch,
    "rules": rules_batch,
}


# --- output checks -------------------------------------------------------------
#
# Checks read the runner's JSON report and run outside the timed loop.  The
# q* target of criterion_01 is not judged here: the acceptance suite keeps it.


@dataclass(frozen=True)
class Check:
    seed: int
    rule: str
    name: str
    ok: bool
    detail: str


def simplex_cdf_error(cert: dict, ell: int) -> float:
    """Largest |F_i(k eps) - (1 - (1 - k eps)^(l-1))| from Borda weights."""
    eps = float(cert["epsilon"])
    weights = np.asarray(cert["weights"], dtype=float)
    levels = np.arange(1, weights.shape[1] + 1) * eps
    exact = 1.0 - np.clip(1.0 - levels, 0.0, None) ** (ell - 1)
    return float(np.max(np.abs(np.cumsum(weights, axis=1) - exact)))


def simplex_cut_error(cert: dict, ell: int) -> float:
    """Largest |true cut - delta| over the veto order, by (1 - sum v)^(l-1)."""
    thresholds = cert["thresholds"]
    taken = 0.0
    worst = 0.0
    for agent in cert["order"]:
        before = (1.0 - taken) ** (ell - 1)
        taken += thresholds[agent]
        after = max(1.0 - taken, 0.0) ** (ell - 1)
        worst = max(worst, abs(before - after - float(cert["delta"])))
    return worst


def completion_gain(poly, r, achieved):
    """Welfare gain of completing a point whose returns are ``achieved``.

    Uses the library's ``pareto_complete`` as criterion_06 does.  None means
    no point meets the achieved returns; infinity, that the solve failed.
    """
    try:
        better = pa.pareto_complete(poly, achieved, r)
    except pa.InfeasibleBounds:
        return None
    except pa.LpFailure:
        return float("inf")
    return float((r @ better.flat).sum() - achieved.sum())


def check_instance(inst: Instance, report: dict):
    """Checks of one instance's report, and its closed-form accuracy errors."""
    checks: list[Check] = []
    accuracy: dict[str, float] = {}
    if not report["results"]:    # prepare failed: nothing was returned
        return checks, accuracy
    m = pa.load_momdp(inst.path)
    poly = pa.build_polytope(m)
    model, _ = pa.normalize_rewards(m, poly)
    r = model.reward_vectors()
    for result in report["results"]:
        seed = result["seed"]
        for rule, doc in result["rules"].items():
            def add(name, ok, detail=""):
                checks.append(Check(seed, rule, name, bool(ok), detail))

            x = np.asarray(doc["occupancy"], dtype=float).reshape(-1)
            violation = poly.max_violation(x)
            add("in-polytope", violation <= IN_POLYTOPE_TOL, f"violation {violation:.2e}")
            achieved = r @ x
            gain = completion_gain(poly, r, achieved)
            if gain is None:
                # HiGHS can find no point that meets the achieved returns
                # exactly (x itself sits within its feasibility
                # tolerance): then no point dominates x, which is what is checked
                add("welfare-complete", True, "no point meets the achieved returns")
            else:
                add("welfare-complete", gain < COMPLETION_TOL, f"improvement {gain:.2e}")
            cert = doc["certificate"]
            if inst.kind == "max2sat" and rule.startswith("approval"):
                want = pa.brute_force_max2sat(inst.oracle)
                add("approval=max2sat", cert["score"] == want, f"{cert['score']} vs {want}")
            elif inst.kind == "simplex" and rule == "borda-milp":
                err = simplex_cdf_error(cert, inst.oracle)
                accuracy["cdf_err_max"] = max(accuracy.get("cdf_err_max", 0.0), err)
                add("cdf-closed-form", err <= ACCURACY_TOL, f"error {err:.4f}")
            elif inst.kind == "simplex" and rule.startswith("veto-core"):
                err = simplex_cut_error(cert, inst.oracle)
                accuracy["veto_cut_err_max"] = max(accuracy.get("veto_cut_err_max", 0.0), err)
                add("veto-cut-closed-form", err <= ACCURACY_TOL, f"error {err:.4f}")
    return checks, accuracy


def attempts(inst: Instance, failures) -> int:
    """Prepare calls plus the rule calls a successful prepare leads to."""
    prepared = not any(f["stage"] == "prepare" for f in failures)
    return 1 + (len(inst.spec.rules) if prepared else 0)

