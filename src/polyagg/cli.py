"""Command-line interface.

Subcommands:
  polyagg gen warehouse|simplex|mis|max2sat ...   emit a MOMDP JSON file
  polyagg aggregate --momdp FILE --rule NAME ...  run one rule on one model
  polyagg experiment --spec FILE.json             run a full comparison

Exit codes: 0 on success, 2 for infeasible or degenerate input, a parameter
out of range, a parameter the rule does not take, or a JSON file missing a
required key, holding a key it does not declare or a value of the wrong
shape (a ``ValueError``, such as ``--epsilon 0`` or ``--alpha`` on
utilitarian), or a file the command cannot read or write (an ``OSError``,
such as a missing ``--momdp`` file or a ``--save-cloud`` path in a missing
directory), 3 when a solver budget was exhausted.  Bad output paths and
parameter values fail before any walk, and a failed command leaves no
directory it made (``harness.output_dir``) and no cloud of a failed walk.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import harness, instances, volume
from .errors import (
    AllAgentsIndifferent,
    ConcaveRegionEmpty,
    DegeneratePolytope,
    InfeasibleBounds,
    InfeasibleModel,
    MilpBudgetExhausted,
    PolyaggError,
    SizeLimit,
)
from .mdp import load_momdp, momdp_to_json, save_momdp

EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

_INFEASIBLE_ERRORS = (
    InfeasibleModel,
    DegeneratePolytope,
    AllAgentsIndifferent,
    InfeasibleBounds,
    ConcaveRegionEmpty,
    SizeLimit,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyagg")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a MOMDP and print/save its JSON")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    wh = gen_sub.add_parser("warehouse")
    wh.add_argument("--warehouses", type=int, default=3)
    wh.add_argument("--agents", type=int, default=4)
    wh.add_argument("--seed", type=int, required=True)
    wh.add_argument("--criterion", choices=["average", "discounted"], default="average")
    wh.add_argument("--gamma", type=float, default=0.95)
    wh.add_argument("--out", type=pathlib.Path)

    sx = gen_sub.add_parser("simplex")
    sx.add_argument("--actions", type=int, required=True)
    sx.add_argument("--out", type=pathlib.Path)

    mis = gen_sub.add_parser("mis")
    mis.add_argument("--graph", type=pathlib.Path, required=True,
                     help="DIMACS-like file: 'p edge N M' then 'e u v' lines")
    mis.add_argument("--out", type=pathlib.Path)

    sat = gen_sub.add_parser("max2sat")
    sat.add_argument("--cnf", type=pathlib.Path, required=True,
                     help="DIMACS-like file: 'p cnf N M' then 2-literal clauses")
    sat.add_argument("--out", type=pathlib.Path)

    agg = sub.add_parser("aggregate", help="run one aggregation rule on a MOMDP")
    agg.add_argument("--momdp", type=pathlib.Path, required=True)
    agg.add_argument("--rule", choices=tuple(harness.RULES), required=True)
    agg.add_argument("--alpha", type=float)
    agg.add_argument("--epsilon", type=float)
    agg.add_argument("--seed", type=int, required=True)
    agg.add_argument("--samples", type=int, default=harness.DEFAULT_SAMPLES)
    agg.add_argument("--burn-in", type=int)
    agg.add_argument("--thinning", type=int)
    agg.add_argument("--cdf", choices=volume.CDF_KINDS, default=volume.EMPIRICAL)
    agg.add_argument("--veto-order", type=str,
                     help="comma-separated agent permutation for veto-core")
    agg.add_argument("--save-cloud", type=pathlib.Path,
                     help="write the shared sample cloud as CSV")
    agg.add_argument("--out", type=pathlib.Path, required=True)

    exp = sub.add_parser("experiment", help="run a rule-comparison experiment")
    exp.add_argument("--spec", type=pathlib.Path, required=True)
    exp.add_argument("--out", type=pathlib.Path,
                     help="output directory (default: <spec>.out)")
    return parser


def _cmd_gen(args) -> int:
    if args.kind == "warehouse":
        params = instances.WarehouseParams(
            warehouses=args.warehouses, agents=args.agents, seed=args.seed,
            criterion=args.criterion, gamma=args.gamma,
        )
        m = instances.gen_warehouse(params)
    elif args.kind == "simplex":
        m = instances.gen_simplex_instance(args.actions)
    elif args.kind == "mis":
        m = instances.gen_from_mis(instances.parse_graph(args.graph.read_text()))
    else:
        m = instances.gen_from_max2sat(instances.parse_cnf(args.cnf.read_text()))
    if args.out:
        save_momdp(m, args.out)
    else:
        print(momdp_to_json(m))
    return 0


def _veto_order(text: str) -> list[int]:
    """``--veto-order``'s agents, in order; an empty value is the empty order."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"--veto-order takes comma-separated agent indices such as 1,0,2, "
                         f"not {text!r}") from None


def _cmd_aggregate(args) -> int:
    params = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
    if args.veto_order is not None:
        params["order"] = _veto_order(args.veto_order)
    # a bad rule parameter fails before --out is made, a bad path or walk knob before the walk
    harness.check_rule(args.rule, params)
    m = load_momdp(args.momdp)
    with harness.output_dir(args.out) as out:
        if args.save_cloud and not args.save_cloud.parent.is_dir():
            raise FileNotFoundError(f"no directory for --save-cloud {args.save_cloud}")
        pipe = harness.prepare(m, args.samples, args.seed, cdf_kind=args.cdf,
                               burn_in=args.burn_in, thinning=args.thinning)
        if args.save_cloud:
            volume.save_cloud(pipe.cloud, args.save_cloud)
        result = harness.run_rule(args.rule, pipe, **params)
        norm = result.returns  # normalized: the model's returns span [0, 1]
        gini, nash = harness.welfare_metrics(norm)
        doc = {
            "rule": args.rule,
            "params": params,
            "seed": args.seed,
            "samples": args.samples,
            "dropped_agents": list(pipe.dropped_agents),
            "normalized_returns": [float(v) for v in norm],
            "gini": gini,
            "nash": nash,
            "result": harness.result_doc(result),
        }
        (out / "result.json").write_text(json.dumps(doc, indent=2))
    print(f"wrote {args.out / 'result.json'}")
    return 0


def _cmd_experiment(args) -> int:
    spec = harness.ExperimentSpec.from_json(args.spec.read_text())
    out_dir = args.out if args.out else args.spec.with_suffix(".out")
    out = harness.write_experiment(spec, out_dir)
    print(f"wrote {out_dir}/results.csv and results.json "
          f"({len(out.rows)} rows, {len(out.failures)} failures)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "aggregate":
            return _cmd_aggregate(args)
        return _cmd_experiment(args)
    except (*_INFEASIBLE_ERRORS, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MilpBudgetExhausted as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PolyaggError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
