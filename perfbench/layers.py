"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are polyagg's modules: ``instances``, ``mdp``, ``volume``, ``lp``
(``_solver.lp`` included), ``rules`` and ``harness``.  Every public function
of those modules is wrapped; the metrics below name the ones they depend on,
and a named function missing from the library is reported as absent with
its metrics at zero.

Times and counts are per traced instance (mean over the run), except
``instances.gen_s`` (per instance generated during set-up), the ``_max``
values, ``mdp.constraint_bytes`` (largest polytope) and the ratios.  A metric
of a rule or stage that a workload never runs reads 0, as do the mixing
diagnostics when chains are too short to assess and the closed-form
accuracy errors outside the simplex instances of ``rules``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from tracing import END, EXTRA, INSTANCE, NAME, START, ancestors, public_functions, self_times

PACKAGE = "polyagg"
LAYERS = ("instances", "mdp", "volume", "lp", "rules", "harness")
RULE_METRIC_NAMES = {
    "utilitarian": "utilitarian", "egalitarian": "egalitarian",
    "veto-core": "veto_core", "max-quantile": "max_quantile",
    "approval": "approval", "borda-milp": "borda_milp",
}

# functions the metrics read; any that the library lacks are reported absent
NAMED = (
    "harness.prepare", "harness.run_rule", "harness.normalized_returns",
    "harness.run_experiment", "mdp.build_polytope", "mdp.normalize_rewards",
    "volume.affine_hull", "volume.sample_uniform", "volume.estimate_cdf",
    "volume.quantile_inverse", "volume.region_chart", "lp.feasible",
    "lp.pareto_complete", "lp.leximin", "lp.milp_solve", "rules.veto_core",
    "_solver.lp",
)


def _nbytes(poly):
    return sum(getattr(getattr(poly, name, None), "nbytes", 0)
               for name in ("a_ub", "b_ub", "a_eq", "b_eq"))


def _walk_steps(cloud):
    p = getattr(cloud, "walk_params", None)
    if p is None or getattr(cloud, "degenerate", False):
        return 0
    return p.burn_in + -(-p.count // p.chains) * p.thinning


def targets(pipelines: list) -> dict:
    """Qualified names to wrap, with hooks that read counts off results.

    Each prepared pipeline is appended to ``pipelines`` so the caller can
    compute mixing diagnostics between timed calls.
    """
    hooks = {
        "polyagg.mdp.build_polytope": lambda a, k, r: {"bytes": _nbytes(r)},
        "polyagg.volume.sample_uniform": lambda a, k, r: {"steps": _walk_steps(r)},
        "polyagg.lp.milp_solve": lambda a, k, r: {"nodes": getattr(r, "nodes", 0)},
        "polyagg.harness.run_rule": lambda a, k, r: {"rule": a[0] if a else k.get("name")},
        "polyagg.harness.prepare": lambda a, k, r: r and pipelines.append(r),
    }
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in public_functions(module):
            out[name] = hooks.get(name)
    for name in NAMED:
        out.setdefault(f"{PACKAGE}.{name}", hooks.get(f"{PACKAGE}.{name}"))
    return out


def layer_of(qualname: str) -> str:
    module = qualname.split(".")[1]
    return "lp" if module == "_solver" else module


def _short(qualname: str) -> str:
    return qualname.split(".", 1)[1]


def _rule_of(run_rule_span):
    name = (run_rule_span[EXTRA] or {}).get("rule")
    return RULE_METRIC_NAMES.get(name, name)


def layer_metrics(spans, traced_s: float, generated: int) -> dict:
    """Per-layer metrics of the traced loop's spans (``instance`` set) and of
    set-up's spans (``instance`` None), which generated ``generated`` instances.

    ``traced_s`` is the timed wall time of the traced instances; the layers'
    self times should account for all of it (``trace.coverage_frac``)."""
    selfs = self_times(spans)
    loop = [i for i, s in enumerate(spans) if s[INSTANCE] is not None]
    setup = [i for i, s in enumerate(spans) if s[INSTANCE] is None]
    instances = len({spans[i][INSTANCE] for i in loop}) or 1

    dur = defaultdict(float)       # outermost spans of each name only
    calls = defaultdict(int)
    under_lp = defaultdict(int)    # _solver.lp spans below each name
    layer_self = defaultdict(float)
    rule_s = defaultdict(float)
    rule_self = defaultdict(float)
    rule_lp = defaultdict(int)
    nodes = []
    steps = 0
    veto_steps = 0
    veto_walk_s = 0.0
    lp_failures = 0
    max_bytes = 0
    for i in loop:
        span = spans[i]
        name = _short(span[NAME])
        d = span[END] - span[START]
        up = [spans[j] for j in ancestors(spans, i)]
        up_names = {_short(s[NAME]) for s in up}
        calls[name] += 1
        if name not in up_names:
            dur[name] += d
        layer_self[layer_of(span[NAME])] += selfs[i]
        extra = span[EXTRA] or {}
        rule_span = next((s for s in up if _short(s[NAME]) == "harness.run_rule"), None)
        rule = _rule_of(rule_span) if rule_span else None
        if name == "harness.run_rule":
            rule_s[_rule_of(span)] += d
        if rule and layer_of(span[NAME]) == "rules":
            rule_self[rule] += selfs[i]
        if name == "_solver.lp":
            for n in up_names:
                under_lp[n] += 1
            if rule:
                rule_lp[rule] += 1
            lp_failures += "error" in extra
        elif name == "lp.milp_solve":
            nodes.append(extra.get("nodes", 0))
        elif name == "volume.sample_uniform":
            steps += extra.get("steps", 0)
            if "rules.veto_core" in up_names:
                veto_steps += extra.get("steps", 0)
                veto_walk_s += d
        elif name == "mdp.build_polytope":
            max_bytes = max(max_bytes, extra.get("bytes", 0))

    gen = [i for i in setup if layer_of(spans[i][NAME]) == "instances"
           and not any(layer_of(spans[j][NAME]) == "instances" for j in ancestors(spans, i))]

    def per(x):
        return x / instances

    m = {"instances.gen_s": sum(spans[i][END] - spans[i][START] for i in gen) / max(generated, 1)}
    for name in ("harness.prepare", "harness.run_rule", "harness.normalized_returns"):
        m[f"{name}.s"] = per(dur[name])
    m["harness.normalized_returns.lp_solves"] = per(under_lp["harness.normalized_returns"])
    m["harness.run_experiment.self_s"] = per(sum(
        selfs[i] for i in loop if _short(spans[i][NAME]) == "harness.run_experiment"))
    m["mdp.build_polytope.s"] = per(dur["mdp.build_polytope"])
    m["mdp.normalize_rewards.s"] = per(dur["mdp.normalize_rewards"])
    m["mdp.normalize_rewards.lp_solves"] = per(under_lp["mdp.normalize_rewards"])
    m["mdp.constraint_bytes"] = max_bytes
    m["volume.affine_hull.s"] = per(dur["volume.affine_hull"])
    m["volume.affine_hull.lp_solves"] = per(under_lp["volume.affine_hull"])
    m["volume.sample_uniform.s"] = per(dur["volume.sample_uniform"])
    m["volume.sample_uniform.calls"] = per(calls["volume.sample_uniform"])
    m["volume.sample_uniform.steps"] = per(steps)
    m["volume.sample_uniform.us_per_step"] = (
        1e6 * dur["volume.sample_uniform"] / steps if steps else 0.0)
    m["volume.estimate_cdf.s"] = per(dur["volume.estimate_cdf"])
    m["volume.quantile_inverse.calls"] = per(calls["volume.quantile_inverse"])
    m["volume.quantile_inverse.s"] = per(dur["volume.quantile_inverse"])
    m["volume.region_chart.s"] = per(dur["volume.region_chart"])
    m["lp.solves"] = per(calls["_solver.lp"])
    m["lp.solve_s"] = per(dur["_solver.lp"])
    m["lp.us_per_solve"] = (
        1e6 * dur["_solver.lp"] / calls["_solver.lp"] if calls["_solver.lp"] else 0.0)
    m["lp.failures"] = per(lp_failures)
    for name in ("feasible", "pareto_complete", "milp_solve"):
        m[f"lp.{name}.calls"] = per(calls[f"lp.{name}"])
        m[f"lp.{name}.s"] = per(dur[f"lp.{name}"])
    m["lp.leximin.s"] = per(dur["lp.leximin"])
    m["lp.milp_solve.nodes"] = per(sum(nodes))
    m["lp.milp_solve.nodes_max"] = max(nodes, default=0)
    for rule in RULE_METRIC_NAMES.values():
        m[f"rules.{rule}.s"] = per(rule_s[rule])
        m[f"rules.{rule}.self_s"] = per(rule_self[rule])
        m[f"rules.{rule}.lp_solves"] = per(rule_lp[rule])
    m["rules.veto_core.walk_steps"] = per(veto_steps)
    m["rules.veto_core.walk_s"] = per(veto_walk_s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per(layer_self[layer])
    traced = sum(layer_self.values())
    m["trace.coverage_frac"] = traced / traced_s if traced_s > 0 else 0.0
    return m

