"""Metrics and the experiment runner.

``prepare`` wires the standard pipeline for one model: normalize rewards and
build the polytope and its warm welfare model (whose home solve every rule's
LPs start from).  Its hull chart, one shared sample cloud and the per-agent
return CDFs are drawn on first read, so only a rule that reads them walks.
``RULES`` registers every rule with its function in ``rules``, which holds
the rule's parameters and defaults.  ``run_experiment`` repeats that over
seeded instances, runs the requested rules, computes fairness metrics, and
writes deterministic CSV/JSON artifacts.

CSV columns (frozen): ``kind,seed,rule,gini,nash,gini_se,nash_se,returns``.
Data rows use kind="row" with per-agent normalized returns joined by "|";
aggregate rows use kind="aggregate" with mean metrics and their standard
errors and leave seed/returns empty.  Failed instances land in the JSON
report under "failures".  Wall-clock timings stay in memory unless
``record_runtime`` is set, keeping output files byte-identical across reruns.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import pathlib
import shutil
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

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
    """Shared per-instance artifacts every rule consumes.  The hull chart
    (the cloud's ``chart``), the sample cloud and the return CDFs are drawn on
    first read and kept, so a rule that reads neither runs no walk."""

    model: Momdp                    # normalized rewards
    dropped_agents: tuple[int, ...]
    poly: OccupancyPolytope
    walk: dict  # sample_uniform's count, seed, burn_in and thinning
    cdf_kind: str = volume.EMPIRICAL

    @cached_property
    def cloud(self) -> volume.SampleCloud:
        return volume.sample_uniform(self.poly, volume.affine_hull(self.poly), **self.walk)

    @cached_property
    def cdfs(self) -> tuple[volume.ReturnCdf, ...]:
        return tuple(volume.estimate_cdf(self.cloud, r, kind=self.cdf_kind)
                     for r in self.model.rewards)


def prepare(m: Momdp, samples: int, seed: int, cdf_kind: str = volume.EMPIRICAL,
            burn_in: int | None = None, thinning: int | None = None) -> Pipeline:
    """Check the walk parameters and the cdf kind, normalize and build the
    polytope; the walk, when a rule reads it, runs ``volume.CHAINS`` chains."""
    _check_sampling(samples, seed, burn_in, thinning, cdf_kind)
    poly = build_polytope(m)
    model, dropped = normalize_rewards(m, poly)
    lp.home_point(poly, model.reward_vectors())  # the home solve every rule's LPs start from
    walk = dict(count=samples, seed=seed, burn_in=burn_in, thinning=thinning)
    return Pipeline(model, tuple(dropped), poly, walk, cdf_kind)


def _check_sampling(samples, seed, burn_in, thinning, cdf_kind) -> None:
    """Raise :class:`ValueError` on walk parameters no walk takes, a negative
    seed or a cdf kind ``volume.estimate_cdf`` does not know, before any walk."""
    volume.check_walk(samples, burn_in, thinning)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    if cdf_kind not in volume.CDF_KINDS:
        raise ValueError(f"unknown cdf kind {cdf_kind!r}; known: {', '.join(volume.CDF_KINDS)}")


# every registered rule: its function in ``rules`` and the Pipeline fields it
# reads besides the model and the polytope; the parameters a rule takes are
# that function's keyword parameters after those inputs, with its defaults
RULES = {
    "utilitarian": (rules.utilitarian, ()),
    "egalitarian": (rules.egalitarian, ()),
    "veto-core": (rules.veto_core, ("cloud",)),
    "max-quantile": (rules.max_quantile, ("cdfs",)),
    "approval": (rules.alpha_approval, ("cdfs",)),
    "plurality": (rules.plurality, ()),
    "borda-milp": (rules.borda_milp, ("cdfs",)),
    "borda-concave": (rules.borda_concave, ("cdfs",)),
}


def _check_params(what: str, fn, inputs: int, params) -> None:
    """Raise :class:`ValueError` unless ``params`` holds every required and no
    other parameter of ``fn`` after its first ``inputs`` arguments."""
    taken = list(inspect.signature(fn).parameters.values())[inputs:]
    _reject_unknown(f"{what} takes no parameter", params, [p.name for p in taken])
    missing = [p.name for p in taken if p.default is p.empty and p.name not in params]
    if missing:
        raise ValueError(f"{what} needs parameter {', '.join(map(repr, missing))}; "
                         f"accepted: {', '.join(p.name for p in taken) or 'none'}")


def _reject_unknown(message: str, given, accepted) -> None:
    """Raise :class:`ValueError` with ``message``, the keys of ``given`` that
    are not in ``accepted``, and the accepted keys, if there are any such."""
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ValueError(f"{message} {', '.join(map(repr, unknown))}; "
                         f"accepted: {', '.join(accepted) or 'none'}")


def check_rule(name: str, params) -> None:
    """Raise :class:`ValueError` unless ``name`` is a registered rule that
    takes every key of ``params``, with a value no model rejects."""
    if name not in RULES:
        raise ValueError(f"unknown rule {name!r}; known: {', '.join(RULES)}")
    fn, reads = RULES[name]
    _check_params(f"rule {name!r}", fn, 2 + len(reads), params)
    for key, check in rules.PARAMETER_CHECKS.get(fn, {}).items():
        if key in params:
            try:
                check(params[key])
            except TypeError as exc:
                raise ValueError(f"rule {name!r} parameter {key!r} {exc}") from None


def run_rule(name: str, pipe: Pipeline, **params) -> rules.RuleResult:
    """Run one registered rule against a prepared pipeline; an unknown rule
    or parameter raises :class:`ValueError`.  The rule's inputs are read
    (walking on first read) before its own diagnostics start."""
    check_rule(name, params)
    fn, reads = RULES[name]
    # looked up on the module, so a wrapper installed there is the one called
    return getattr(rules, fn.__name__)(pipe.model, pipe.poly,
                                       *[getattr(pipe, attr) for attr in reads], **params)


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
    record_runtime: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("an experiment seed is mandatory")
        _check_source(self.source)
        _check_sampling(self.samples, self.seed, self.burn_in, self.thinning, self.cdf_kind)
        if self.num_instances < 1:
            raise ValueError(f"experiment spec key 'instances' must be at least 1, "
                             f"not {self.num_instances}")
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise ValueError("experiment spec key 'rules' must list at least one rule")

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        """Parse spec JSON; a missing key, a key that is not a spec field's
        or a value of the wrong shape raises :class:`ValueError` naming the
        key.  Counts take JSON integers only and ``record_runtime`` a JSON
        boolean only: no value is cast."""
        doc = json.loads(text)
        # a field without a default is looked up even when absent
        kwargs = {f.name: _json_field(doc, key, "experiment spec", _JSON_TYPES.get(f.type))
                  for f, key in _spec_fields() if f.default is MISSING or key in doc}
        _reject_unknown("experiment spec takes no key", doc, [key for _, key in _spec_fields()])
        kwargs["rules"] = _json_field(doc, "rules", "experiment spec", _rule_specs)
        return ExperimentSpec(**kwargs)


def _rule_specs(entries) -> tuple[RuleSpec, ...]:
    if not isinstance(entries, list):
        raise TypeError("rules must be a list")
    return tuple(RuleSpec(name=_json_field(entry, "name", "rule entry"),
                          params={k: v for k, v in entry.items() if k != "name"})
                 for entry in entries)


def _json_typed(*types):
    """A from_json check that passes a value whose type is one of ``types``
    exactly (so JSON's ``true`` is no integer) and raises TypeError else."""
    def check(value):
        if type(value) not in types:
            raise TypeError
        return value
    return check


# spec JSON keys that differ from their ExperimentSpec field names, and the
# type checks from_json applies by field type
_RENAMED_KEYS = {"num_instances": "instances", "cdf_kind": "cdf"}
_JSON_TYPES = {"int": _json_typed(int), "int | None": _json_typed(int, type(None)),
               "bool": _json_typed(bool)}


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


# every spec generator: a function of the instance seed and the parameters
# a source's "params" may set, with their defaults
GENERATORS = {
    "warehouse": lambda seed, warehouses=3, agents=4, criterion="average", gamma=0.95:
        instances.gen_warehouse(instances.WarehouseParams(
            warehouses=warehouses, agents=agents, seed=seed, criterion=criterion, gamma=gamma)),
    "simplex": lambda seed, actions: instances.gen_simplex_instance(actions),
    "random": lambda seed, states=3, actions=3, agents=3:
        instances.random_momdp(states, actions, agents, seed=seed),
    "mis": lambda seed, vertices=6, edge_prob=0.5:
        instances.gen_from_mis(instances.random_graph(vertices, edge_prob, seed)),
    "max2sat": lambda seed, variables=4, clauses=4:
        instances.gen_from_max2sat(instances.random_2cnf(variables, clauses, seed)),
}

# the JSON types of each generator parameter that is not a count (a JSON integer)
_GENERATOR_TYPES = {"gamma": (int, float), "edge_prob": (int, float), "criterion": (str,)}


def _check_source(source) -> None:
    """Raise :class:`ValueError` unless ``source`` is ``{"file": path}`` or
    ``{"generator": name, "params": {...}}`` naming a registered generator
    and every required and no other parameter of it."""
    if not isinstance(source, dict) or not {"file", "generator"} & set(source):
        got = ", ".join(map(repr, source)) if isinstance(source, dict) else type(source).__name__
        raise ValueError("experiment spec source lacks the key 'file' or 'generator'; "
                         f"got: {got or 'none'}")
    keys = ("file",) if "file" in source else ("generator", "params")
    _reject_unknown("experiment spec source takes no key", source, keys)
    if "generator" in source:
        gen, params = source["generator"], source.get("params", {})
        if not isinstance(gen, str) or gen not in GENERATORS:
            raise ValueError(f"unknown generator {gen!r}; known: {', '.join(GENERATORS)}")
        if not isinstance(params, dict):
            raise ValueError("experiment spec source key 'params' must be an object")
        _check_params(f"generator {gen!r}", GENERATORS[gen], 1, params)
        for key in params:
            _json_field(params, key, f"generator {gen!r} params",
                        _json_typed(*_GENERATOR_TYPES.get(key, (int,))))


def _instantiate(source: dict, instance_seed: int) -> Momdp:
    if "file" in source:
        return load_momdp(source["file"])
    return GENERATORS[source["generator"]](instance_seed, **source.get("params", {}))


def run_experiment(spec: ExperimentSpec) -> ExperimentOutput:
    """Run every rule on every seeded instance and aggregate the metrics.

    Instance seeds are ``spec.seed + j``; each instance draws its sampling
    sub-seed deterministically from the instance seed.  Per-instance failures
    are recorded and the run continues.
    """
    rows: list[MetricsRow] = []
    failures: list[dict] = []
    results_doc: list[dict] = []
    reads = sorted({attr for r in spec.rules for attr in RULES[r.name][1]})
    for j in range(spec.num_instances):
        instance_seed = spec.seed + j
        try:
            m = _instantiate(spec.source, instance_seed)
            pipe = prepare(m, spec.samples, instance_seed, cdf_kind=spec.cdf_kind,
                           burn_in=spec.burn_in, thinning=spec.thinning)
            for attr in reads:  # the walk runs here, before the first rule
                getattr(pipe, attr)
        except PolyaggError as exc:
            failures.append({"seed": instance_seed, "stage": "prepare",
                             "error": type(exc).__name__, "message": str(exc)})
            continue
        instance_doc = {"seed": instance_seed, "dropped_agents": pipe.dropped_agents, "rules": {}}
        for rule_spec in spec.rules:
            label = rule_spec.label()
            try:
                result = run_rule(rule_spec.name, pipe, **rule_spec.params)
            except PolyaggError as exc:
                failures.append({"seed": instance_seed, "stage": label,
                                 "error": type(exc).__name__, "message": str(exc)})
                continue
            norm = tuple(float(v) for v in result.returns)  # the model's returns span [0, 1]
            rows.append(MetricsRow(label, instance_seed, norm, *welfare_metrics(norm),
                                   runtime=result.diagnostics.wall_time))
            instance_doc["rules"][label] = result_doc(result, spec.record_runtime)
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
    by_rule: dict[str, list[MetricsRow]] = {}  # in order of first appearance
    for row in rows:
        by_rule.setdefault(row.rule, []).append(row)
    out = []
    for rule, group in by_rule.items():
        g = np.array([r.gini for r in group])
        w = np.array([r.nash for r in group])
        out.append({
            "rule": rule,
            "instances": len(group),
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


@contextlib.contextmanager
def output_dir(path):
    """Make directory ``path`` and its missing parents and run the block with
    it; if that raises, remove the outermost directory made, with whatever
    was written there, and re-raise.  A directory that already existed stays."""
    path = pathlib.Path(path)
    made = next((p for p in (*reversed(path.parents), path) if not p.exists()), None)
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield path
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def write_experiment(spec: ExperimentSpec, out_dir) -> ExperimentOutput:
    """Make ``out_dir`` before any walk, run an experiment and write
    ``results.csv`` and ``results.json`` there, all in :func:`output_dir`."""
    with output_dir(out_dir) as path:
        out = run_experiment(spec)
        (path / "results.csv").write_text(out.csv_text)
        (path / "results.json").write_text(out.json_text)
    return out
