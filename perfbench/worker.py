"""One workload run in a fresh process: set-up, timed closed loop, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this with BLAS/OpenMP threads pinned to 1.  The worker
prints ``ready`` once set-up (importing polyagg and generating the first
batch of instances) is done, so the parent can time set-up from spawn to
that line, and prints one JSON document as its last line at the end.

The loop runs one instance at a time and starts another batch only while
the time spent so far plus the mean batch time fits in the budget (at least
one batch always runs).  Throughput is the batch size over the sum of each
slot's median time (see ``workloads``).  With ``--trace 1`` every instance
runs twice, untraced and traced; metrics and checks use the traced runs,
and the ratio of the two sides' times gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import polyagg  # noqa: E402
from polyagg import harness  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TAIL_BEYOND = 10   # a tail percentile needs this many samples above it


@dataclasses.dataclass(frozen=True)
class Crashed:
    """Stands in for the output of a run_experiment call that raised."""

    failures: tuple
    rows: tuple = ()
    json_text: str = '{"results": []}'


@dataclasses.dataclass(frozen=True)
class Record:
    inst: workloads.Instance
    out: object            # harness.ExperimentOutput or Crashed
    wall_s: float
    cpu_s: float


class Batches:
    """Instance batches of one workload, generated on first use and kept."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.make = workloads.WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.made: dict[int, list] = {}

    def __getitem__(self, b: int):
        if b not in self.made:
            self.made[b] = self.make(self.seed, b, self.workdir)
        return self.made[b]


def run_instance(inst) -> Record:
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        out = harness.run_experiment(inst.spec)
    except Exception as exc:
        # the runner records a PolyaggError as a failure entry; any other
        # exception escapes it and ends the instance, which counts as failed
        traceback.print_exc()
        out = Crashed(failures=({"seed": inst.spec.seed, "stage": "run_experiment",
                                 "error": type(exc).__name__, "message": str(exc)},))
    return Record(inst, out, time.perf_counter() - t0, time.process_time() - c0)


def traced_instance(inst, tracer: Tracer) -> Record:
    tracer.install()
    tracer.instance = inst.label
    try:
        return run_instance(inst)
    finally:
        tracer.instance = None
        tracer.uninstall()


def closed_loop(batches: Batches, budget: float, tracer=None, on_traced=None):
    """Run whole batches one instance at a time while the budget lasts.

    With a tracer every instance runs twice, untraced and traced, in
    alternating order so that warm-up and drift in machine speed fall on
    both sides alike.  Returns (records, untraced references, batches).
    """
    records, reference = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for k, inst in enumerate(batches[done]):
            if tracer is None:
                records.append(run_instance(inst))
                continue
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    records.append(traced_instance(inst, tracer))
                    on_traced()
                else:
                    reference.append(run_instance(inst))
        done += 1
        spent = time.perf_counter() - start
        if spent + spent / done > budget:
            break
    return records, reference, done


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    if len(values) < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered), "beyond": TAIL_BEYOND}


def slot_rate(records, per_batch: int) -> float:
    """Instances per second from each batch slot's median wall time.

    Slot k holds the k-th instance of every batch, so its instances share a
    shape; the median over batches drops the instances that a burst of
    load elsewhere on the machine slowed down.
    """
    slots = [[r.wall_s for r in records[k::per_batch] if not isinstance(r.out, Crashed)]
             for k in range(per_batch)]
    return per_batch / sum(statistics.median(times) for times in slots if times)


def end_to_end(records, per_batch, checks, accuracy):
    times = [r.wall_s for r in records if not isinstance(r.out, Crashed)]
    decide = [row.runtime for r in records for row in r.out.rows]
    attempted = sum(workloads.attempts(r.inst, r.out.failures) for r in records)
    attempted += len(checks)
    failed = sum(len(r.out.failures) for r in records)
    failed += sum(not c.ok for c in checks)
    metrics = {
        "instances_per_s": slot_rate(records, per_batch),
        "instance_s_p50": statistics.median(times),
        "decide_s_p50": statistics.median(decide) if decide else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    }
    tails = {"instance_s_tail": tail(times), "decide_s_tail": tail(decide)}
    for name, value in tails.items():
        if value is not None:
            metrics[name] = value["value"]
    metrics.update(accuracy)
    return metrics, tails, attempted, failed


def mixing_diagnostics(pipelines, found: dict):
    """Fold split-R-hat and bulk ESS of every agent's return into ``found``."""
    import mixing  # scipy.stats is slow to import; only traced runs need it

    while pipelines:
        pipe = pipelines.pop()
        cloud = pipe.cloud
        if cloud.degenerate:
            continue
        p = cloud.walk_params
        for reward in pipe.model.rewards:
            x = mixing.chain_matrix(cloud.returns(reward), p.count, p.chains)
            if x.shape[0] < 2 or x.shape[1] < 8 or np.ptp(x) <= 0.0:
                continue
            ess = mixing.bulk_ess(x)
            found["volume.ess_min"] = min(found.get("volume.ess_min", np.inf), ess)
            found["volume.ess_per_sample"] = min(
                found.get("volume.ess_per_sample", np.inf), ess / cloud.count)
            found["volume.rhat_max"] = max(found.get("volume.rhat_max", 0.0),
                                           mixing.split_rhat(x))


def run_checks(records):
    checks, accuracy = [], {}
    for r in records:
        found, acc = workloads.check_instance(r.inst, json.loads(r.out.json_text))
        checks.extend(found)
        for key, value in acc.items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
    return checks, accuracy


def failure_list(records, checks):
    out = [{"seed": f["seed"], "rule": f["stage"], "error": f["error"],
            "message": f["message"]}
           for r in records for f in r.out.failures]
    out += [{"seed": c.seed, "rule": c.rule, "error": f"check {c.name}",
             "message": c.detail} for c in checks if not c.ok]
    return out


def blas_threads():
    """Thread counts reported by every loaded OpenBLAS, by library path."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(seed: int):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyagg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(polyagg.__file__).resolve().parent != ROOT / "src" / "polyagg":
        sys.exit(f"polyagg imported from {polyagg.__file__}, not from this checkout")

    pipelines: list = []
    tracer = Tracer(layers.targets(pipelines), package=layers.PACKAGE) if args.trace else None
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        batches = Batches(args.workload, args.seed, workdir)
        if tracer is not None:
            tracer.install()
        generated = len(batches[0])
        if tracer is not None:
            tracer.uninstall()
        print("ready", flush=True)
        if args.setup_only:
            return

        doc = {"workload": args.workload, "environment": environment(args.seed)}
        diagnostics: dict = {}
        records, reference, count = closed_loop(
            batches, args.seconds, tracer,
            on_traced=lambda: mixing_diagnostics(pipelines, diagnostics))
        checks, accuracy = run_checks(records)
        metrics, tails, attempted, failed = end_to_end(records, generated, checks, accuracy)
        doc.update({
            "batches": count,
            "instances": [{"label": r.inst.label, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                           "rules": {row.rule: row.runtime for row in r.out.rows}}
                          for r in records],
            "metrics": metrics,
            "tails": tails,
            "attempted": attempted,
            "failed": failed,
            "correct": all(c.ok for c in checks),
            "checks": len(checks),
            "failures": failure_list(records, checks),
            "reference_wall_s": [r.wall_s for r in reference],
        })
        if tracer is not None:
            traced = sum(r.wall_s for r in records)
            per_layer = layers.layer_metrics(tracer.spans, traced, generated)
            per_layer.update({"volume.ess_min": 0.0, "volume.ess_per_sample": 0.0,
                              "volume.rhat_max": 0.0, **diagnostics})
            per_layer["volume.cdf_err_max"] = accuracy.get("cdf_err_max", 0.0)
            per_layer["rules.veto_core.cut_err_max"] = accuracy.get("veto_cut_err_max", 0.0)
            untraced = sum(r.wall_s for r in reference)
            per_layer["trace.overhead_frac"] = traced / untraced - 1.0
            doc["per_layer"] = per_layer
            doc["absent"] = tracer.absent
            doc["spans"] = tracer.spans
        print(json.dumps(doc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
