"""Run polyagg benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                      # every workload, untraced

Run it from the root of a checkout; it imports polyagg from ``src/`` there.
Each workload runs in a fresh worker process (``worker.py``) with
BLAS/OpenMP threads pinned to 1.  Set-up time is measured from process
spawn to the worker's ``ready`` line, in the worker itself and in
SETUP_PROBES extra fresh processes, one started before the worker and one
after it, and reported as the median.

Every metric is printed by name with its unit; failures are listed with
seed, rule and error type.  The result document, with the run environment
and (traced runs) the spans, is written to ``.perfbench_results/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``, or
its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warehouse", "rules")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# reported beside the BENCHMARK.json metrics; too seed-dependent to gate on
EXTRA_UNITS = {"instance_s_p50": "s", "instance_s_tail": "s", "decide_s_p50": "s", "decide_s_tail": "s",
               "failed_frac": "ratio", "cdf_err_max": "probability",
               "veto_cut_err_max": "volume-fraction"}


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float):
    """Start a worker; return (seconds until it printed ``ready``, its last line)."""
    env = dict(os.environ, **THREAD_PINS)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    seen = {"ready": None, "last": ""}
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:

        def read():
            for line in proc.stdout:
                if seen["ready"] is None and line.strip() == "ready":
                    seen["ready"] = time.perf_counter() - start
                elif line.strip():
                    seen["last"] = line

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
    if proc.returncode != 0 or seen["ready"] is None:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return seen["ready"], seen["last"]


def run_workload(name: str, seed: int, seconds: float, trace: int):
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed)]
    probe = [*common, "--setup-only"]
    setups = [spawn(probe, deadline)[0] for _ in range(SETUP_PROBES // 2)]
    ready, last = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(ready)
    setups += [spawn(probe, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    doc = json.loads(last)
    doc["metrics"]["setup_s"] = statistics.median(setups)
    doc["setup_samples_s"] = setups
    return doc


def report(doc, spec, trace: int):
    """Print every metric with its unit and every failure; return the result line."""
    name = doc["workload"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(EXTRA_UNITS)
    for metric, value in doc["metrics"].items():
        if value is None:
            continue
        line = f"{name:10s} {metric:18s} {value:.6g} {units.get(metric, '')}"
        tail = doc["tails"].get(metric)
        if tail:
            line += (f"  (p{tail['percentile']:.1f} of {tail['samples']},"
                     f" {tail['beyond']} beyond)")
        print(line)
    for metric in ("instance_s_tail", "decide_s_tail"):
        if metric not in doc["metrics"]:
            print(f"{name:10s} {metric:18s} omitted (fewer than 20 samples)")
    print(f"{name:10s} batches={doc['batches']} instances={len(doc['instances'])}"
          f" checks={doc['checks']} attempted={doc['attempted']} failed={doc['failed']}")
    for f in doc["failures"]:
        print(f"{name:10s} FAILURE seed={f['seed']} rule={f['rule']} error={f['error']}")
    if trace:
        for metric, value in doc["per_layer"].items():
            print(f"{name:10s} {metric:40s} {value:.6g}")
        for absent in doc["absent"]:
            print(f"{name:10s} absent: {absent}")
        wanted = spec["per_layer"]
        source = doc["per_layer"]
    else:
        wanted = spec["end_to_end"]
        source = doc["metrics"]
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "polyagg" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no polyagg sources or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            doc = run_workload(name, args.seed, seconds, args.trace)
        except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(doc))
        results.append(report(doc, spec, args.trace))
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
