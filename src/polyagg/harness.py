"""Metrics and the experiment runner.

``prepare`` wires the standard pipeline for one model: normalize rewards,
build the polytope and its warm welfare model (whose home solve every rule's
LPs start from), chart its hull, draw one shared sample cloud, and fit the
per-agent return CDFs.  ``run_experiment`` repeats that over seeded instances,
runs the requested rules, computes fairness metrics, and writes deterministic
CSV/JSON artifacts.

CSV columns (frozen): ``kind,seed,rule,gini,nash,gini_se,nash_se,returns``.
Data rows use kind="row" with per-agent normalized returns joined by "|";
aggregate rows use kind="aggregate" with mean metrics and their standard
errors and leave seed/returns empty.  Failed instances land in the JSON
report under "failures".  Wall-clock timings stay in memory unless
``record_runtime`` is set, keeping output files byte-identical across reruns.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import instances, lp, rules, volume
from .errors import PolyaggError, ZeroWelfare
from .mdp import (
    Momdp,
    OccupancyPolytope,
    build_polytope,
    _json_field,
    load_momdp,
    normalize_rewards,
)

DEFAULT_SAMPLES = 100_000


def gini(returns) -> float:
    """Mean absolute return difference over twice the total welfare."""
    x = np.asarray(returns, dtype=float).reshape(-1)
    total = x.sum()
    if total <= 1e-12:
        raise ZeroWelfare("Gini undefined for (near) zero total welfare")
    diffs = np.abs(x[:, None] - x[None, :]).sum()
    return float(diffs / (2.0 * x.shape[0] * total))


def nash_welfare(returns) -> float:
    """Geometric mean of the returns; zero if any agent gets (at most) zero."""
    x = np.asarray(returns, dtype=float).reshape(-1)
    if np.any(x < 0):
        raise ValueError("Nash welfare needs nonnegative returns")
    if np.any(x == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(x))))


def welfare_metrics(returns) -> tuple[float, float]:
    """Gini and Nash welfare of a rule's normalized returns; the Gini is 0
    when the total welfare is (near) zero."""
    norm = np.asarray(returns, dtype=float)
    return (gini(norm) if norm.sum() > 1e-12 else 0.0,
            nash_welfare(np.clip(norm, 0.0, None)))


@dataclass(frozen=True, eq=False)
class Pipeline:
    """Shared per-instance artifacts every rule consumes."""

    model: Momdp                    # normalized rewards
    dropped_agents: tuple[int, ...]
    poly: OccupancyPolytope
    cloud: volume.SampleCloud       # its ``chart`` is the polytope's hull chart
    cdfs: tuple[volume.ReturnCdf, ...]


def prepare(m: Momdp, samples: int, seed: int, cdf_kind: str = volume.EMPIRICAL,
            burn_in: int | None = None, thinning: int | None = None,
            chains: int = volume.DEFAULT_CHAINS) -> Pipeline:
    poly = build_polytope(m)
    model, dropped = normalize_rewards(m, poly)
    lp.home_point(poly, model.reward_vectors())  # the home solve every rule's LPs start from
    cloud = volume.sample_uniform(poly, volume.affine_hull(poly), samples, seed,
                                  burn_in=burn_in, thinning=thinning, chains=chains)
    cdfs = tuple(
        volume.estimate_cdf(cloud, model.rewards[i], kind=cdf_kind, agent=i)
        for i in range(model.num_agents)
    )
    return Pipeline(model=model, dropped_agents=tuple(dropped),
                    poly=poly, cloud=cloud, cdfs=cdfs)


# every registered rule and the parameters it takes
RULE_PARAMS = {
    "utilitarian": (),
    "egalitarian": (),
    "veto-core": ("epsilon", "order"),
    "max-quantile": ("epsilon",),
    "approval": ("alpha",),
    "plurality": (),
    "borda-milp": ("epsilon",),
    "borda-concave": (),
}
RULE_NAMES = tuple(RULE_PARAMS)


def check_rule(name: str, params) -> None:
    """Raise :class:`ValueError` unless ``name`` is a registered rule that
    takes every key of ``params``."""
    if name not in RULE_PARAMS:
        raise ValueError(f"unknown rule {name!r}; known: {', '.join(RULE_NAMES)}")
    unknown = sorted(set(params) - set(RULE_PARAMS[name]))
    if unknown:
        raise ValueError(f"rule {name!r} takes no parameter {', '.join(map(repr, unknown))}; "
                         f"accepted: {', '.join(RULE_PARAMS[name]) or 'none'}")


def run_rule(name: str, pipe: Pipeline, **params) -> rules.RuleResult:
    """Dispatch one registered rule against a prepared pipeline; an unknown
    rule or parameter raises :class:`ValueError`."""
    check_rule(name, params)
    m, poly = pipe.model, pipe.poly
    if name == "utilitarian":
        return rules.utilitarian(m, poly)
    if name == "egalitarian":
        return rules.egalitarian(m, poly)
    if name == "veto-core":
        eps = params.get("epsilon")
        if eps is None:
            eps = min(0.05, 0.9 / m.num_agents)
        return rules.veto_core(m, poly, pipe.cloud, eps, order=params.get("order"))
    if name == "max-quantile":
        return rules.max_quantile(m, poly, list(pipe.cdfs),
                                  epsilon=params.get("epsilon", 0.01))
    if name == "approval":
        return rules.alpha_approval(m, poly, list(pipe.cdfs),
                                    alpha=params.get("alpha", 0.9))
    if name == "plurality":
        return rules.plurality(m, poly)
    if name == "borda-milp":
        return rules.borda_milp(m, poly, list(pipe.cdfs),
                                epsilon=params.get("epsilon", 0.05))
    return rules.borda_concave(m, poly, list(pipe.cdfs))


@dataclass(frozen=True, eq=False)
class RuleSpec:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_rule(self.name, self.params)

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.name}({inner})"


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """What to run: an instance source, rules, seeds, and budgets."""

    source: dict
    rules: tuple[RuleSpec, ...]
    seed: int
    num_instances: int = 1
    samples: int = DEFAULT_SAMPLES
    cdf_kind: str = volume.EMPIRICAL
    burn_in: int | None = None
    thinning: int | None = None
    chains: int = volume.DEFAULT_CHAINS
    record_runtime: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("an experiment seed is mandatory")
        object.__setattr__(self, "rules", tuple(self.rules))

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        """Parse spec JSON; a missing key or a value of the wrong shape
        raises :class:`ValueError` naming the key."""
        doc = json.loads(text)
        # a field without a default is looked up even when absent
        kwargs = {f.name: _json_field(doc, key, "experiment spec", _JSON_CASTS.get(f.type))
                  for f, key in _spec_fields() if f.default is MISSING or key in doc}
        kwargs["rules"] = _json_field(doc, "rules", "experiment spec", _rule_specs)
        return ExperimentSpec(**kwargs)


def _rule_specs(entries) -> tuple[RuleSpec, ...]:
    if not isinstance(entries, list):
        raise TypeError("rules must be a list")
    return tuple(RuleSpec(name=_json_field(entry, "name", "rule entry"),
                          params={k: v for k, v in entry.items() if k != "name"})
                 for entry in entries)


# spec JSON keys that differ from their ExperimentSpec field names, and the
# casts from_json applies by field type
_RENAMED_KEYS = {"num_instances": "instances", "cdf_kind": "cdf"}
_JSON_CASTS = {"int": int, "bool": bool}


def _spec_fields():
    """Every ExperimentSpec field, in order, with its key in spec JSON."""
    return [(f, _RENAMED_KEYS.get(f.name, f.name)) for f in fields(ExperimentSpec)]


@dataclass(frozen=True, eq=False)
class MetricsRow:
    rule: str
    instance_seed: int
    returns: tuple[float, ...]
    gini: float
    nash: float
    runtime: float  # wall seconds; excluded from files unless record_runtime


@dataclass(frozen=True, eq=False)
class ExperimentOutput:
    rows: tuple[MetricsRow, ...]
    aggregates: tuple[dict, ...]
    failures: tuple[dict, ...]
    csv_text: str
    json_text: str


def _instantiate(source: dict, instance_seed: int) -> Momdp:
    if "file" in source:
        return load_momdp(source["file"])
    gen = source["generator"]
    params = dict(source.get("params", {}))
    if gen == "warehouse":
        wp = instances.WarehouseParams(
            warehouses=int(params.get("warehouses", 3)),
            agents=int(params.get("agents", 4)),
            seed=instance_seed,
            criterion=params.get("criterion", "average"),
            gamma=float(params.get("gamma", 0.95)),
        )
        return instances.gen_warehouse(wp)
    if gen == "simplex":
        return instances.gen_simplex_instance(int(params["actions"]))
    if gen == "random":
        return instances.random_momdp(
            int(params.get("states", 3)), int(params.get("actions", 3)),
            int(params.get("agents", 3)), seed=instance_seed,
        )
    if gen == "mis":
        g = instances.random_graph(int(params.get("vertices", 6)),
                                   float(params.get("edge_prob", 0.5)), instance_seed)
        return instances.gen_from_mis(g)
    if gen == "max2sat":
        f = instances.random_2cnf(int(params.get("variables", 4)),
                                  int(params.get("clauses", 4)), instance_seed)
        return instances.gen_from_max2sat(f)
    raise ValueError(f"unknown generator {gen!r}")


def run_experiment(spec: ExperimentSpec) -> ExperimentOutput:
    """Run every rule on every seeded instance and aggregate the metrics.

    Instance seeds are ``spec.seed + j``; each instance draws its sampling
    sub-seed deterministically from the instance seed.  Per-instance failures
    are recorded and the run continues.
    """
    rows: list[MetricsRow] = []
    failures: list[dict] = []
    results_doc: list[dict] = []
    for j in range(spec.num_instances):
        instance_seed = spec.seed + j
        try:
            m = _instantiate(spec.source, instance_seed)
            pipe = prepare(m, spec.samples, instance_seed, cdf_kind=spec.cdf_kind,
                           burn_in=spec.burn_in, thinning=spec.thinning,
                           chains=spec.chains)
        except PolyaggError as exc:
            failures.append({"seed": instance_seed, "stage": "prepare",
                             "error": type(exc).__name__, "message": str(exc)})
            continue
        instance_doc = {"seed": instance_seed, "rules": {}}
        for rule_spec in spec.rules:
            try:
                result = run_rule(rule_spec.name, pipe, **rule_spec.params)
            except PolyaggError as exc:
                failures.append({"seed": instance_seed, "stage": rule_spec.label(),
                                 "error": type(exc).__name__, "message": str(exc)})
                continue
            norm = result.returns  # normalized: the model's returns span [0, 1]
            g, w = welfare_metrics(norm)
            row = MetricsRow(
                rule=rule_spec.label(),
                instance_seed=instance_seed,
                returns=tuple(float(v) for v in norm),
                gini=g,
                nash=w,
                runtime=result.diagnostics.wall_time,
            )
            rows.append(row)
            instance_doc["rules"][rule_spec.label()] = result_doc(result, spec.record_runtime)
        results_doc.append(instance_doc)

    aggregates = _aggregate(rows)
    csv_text = _render_csv(rows, aggregates, spec.record_runtime)
    json_text = _render_json(spec, rows, aggregates, failures, results_doc)
    return ExperimentOutput(
        rows=tuple(rows),
        aggregates=tuple(aggregates),
        failures=tuple(failures),
        csv_text=csv_text,
        json_text=json_text,
    )


def _aggregate(rows) -> list[dict]:
    by_rule: dict[str, list[MetricsRow]] = {}
    order: list[str] = []
    for row in rows:
        if row.rule not in by_rule:
            by_rule[row.rule] = []
            order.append(row.rule)
        by_rule[row.rule].append(row)
    out = []
    for rule in order:
        g = np.array([r.gini for r in by_rule[rule]])
        w = np.array([r.nash for r in by_rule[rule]])
        out.append({
            "rule": rule,
            "instances": len(by_rule[rule]),
            "gini_mean": float(g.mean()),
            "gini_se": float(g.std(ddof=1) / np.sqrt(g.size)) if g.size > 1 else 0.0,
            "nash_mean": float(w.mean()),
            "nash_se": float(w.std(ddof=1) / np.sqrt(w.size)) if w.size > 1 else 0.0,
        })
    return out


def result_doc(result: rules.RuleResult, record_runtime: bool = False) -> dict:
    """A rule result as plain JSON data: occupancy, policy, returns,
    certificate and diagnostics (wall time only if ``record_runtime``)."""
    cert = result.certificate
    cert_doc = {"type": type(cert).__name__}
    for key, value in vars(cert).items():
        cert_doc[key] = _plain(value)
    doc = {
        "occupancy": result.occupancy.table.tolist(),
        "policy": result.policy.pi.tolist(),
        "returns": result.returns.tolist(),
        "certificate": cert_doc,
        "diagnostics": {
            "lp_solves": result.diagnostics.lp_solves,
            "samples_used": result.diagnostics.samples_used,
        },
    }
    if record_runtime:
        doc["diagnostics"]["wall_time"] = result.diagnostics.wall_time
    return doc


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _render_csv(rows, aggregates, record_runtime: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["kind", "seed", "rule", "gini", "nash", "gini_se", "nash_se", "returns"]
    if record_runtime:
        header.append("runtime")
    writer.writerow(header)
    for row in rows:
        record = ["row", row.instance_seed, row.rule, repr(row.gini), repr(row.nash),
                  "", "", "|".join(repr(v) for v in row.returns)]
        if record_runtime:
            record.append(repr(row.runtime))
        writer.writerow(record)
    for agg in aggregates:
        record = ["aggregate", "", agg["rule"], repr(agg["gini_mean"]),
                  repr(agg["nash_mean"]), repr(agg["gini_se"]), repr(agg["nash_se"]), ""]
        if record_runtime:
            record.append("")
        writer.writerow(record)
    return buf.getvalue()


def _render_json(spec, rows, aggregates, failures, results_doc) -> str:
    spec_doc = {key: getattr(spec, f.name) for f, key in _spec_fields()}
    spec_doc["rules"] = [
        {"name": r.name, **{k: _plain(v) for k, v in r.params.items()}}
        for r in spec.rules
    ]
    doc = {
        "spec": spec_doc,
        "metrics": [
            {
                "rule": row.rule,
                "seed": row.instance_seed,
                "returns": list(row.returns),
                "gini": row.gini,
                "nash": row.nash,
                **({"runtime": row.runtime} if spec.record_runtime else {}),
            }
            for row in rows
        ],
        "aggregates": aggregates,
        "failures": failures,
        "results": results_doc,
    }
    return json.dumps(doc, indent=2)


def load_metrics_json(text: str) -> list[MetricsRow]:
    """Rebuild MetricsRows from an emitted JSON report."""
    doc = json.loads(text)
    return [
        MetricsRow(
            rule=entry["rule"],
            instance_seed=entry["seed"],
            returns=tuple(entry["returns"]),
            gini=entry["gini"],
            nash=entry["nash"],
            runtime=entry.get("runtime", 0.0),
        )
        for entry in doc["metrics"]
    ]


def write_experiment(spec: ExperimentSpec, out_dir) -> ExperimentOutput:
    """Make ``out_dir`` (before any walk), run an experiment and write
    ``results.csv`` and ``results.json`` there."""
    import pathlib

    path = pathlib.Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    out = run_experiment(spec)
    (path / "results.csv").write_text(out.csv_text)
    (path / "results.json").write_text(out.json_text)
    return out
