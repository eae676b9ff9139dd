"""End-to-end and per-layer benchmark of the ``abtqft`` CLI.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload equivalence --seed 1 --seconds 36 --trace 0

Workloads: ``equivalence``, ``brute_force``, ``linalg``, and the unlisted
``smith_hang``, which shows the Smith-form defect (see README.md).
The inputs come from ``--seed``; the program sees only the generated command
lines.  Each workload runs as a closed loop from one client: operations back
to back, in seeded order, in a single worker process, with one BLAS thread.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it repeat every
metric with its unit and sample count, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
SETUP_CODE = ("import sys, abtqft.cli; "
              "sys.exit(abtqft.cli.main(['catalog', 'list']))")
WORKER_TIMEOUT_S = 160
#: BLAS threads of the worker.  A second thread made no operation faster on a
#: 2-vCPU host (``verify modular --kmax 64`` took 0.8 to 1.1 s either way),
#: but it spins on the other vCPU and made pass times less steady.
BLAS_THREADS = 1

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_max_s": "s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "elements": "count", "terms": "count",
               "max_bits": "bits", "useful_ratio": "ratio",
               "ns_per_element": "ns", "ns_per_term": "ns"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")


def git_commit(root: str) -> str:
    """HEAD of ``root``'s own ``.git``, without asking git (which would search
    parent directories when ``root`` is not a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(root: str, env: dict) -> float:
    """Fresh interpreter to ``import abtqft.cli`` plus ``catalog list``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "E8" not in proc.stdout:
        raise RuntimeError(f"catalog list failed: {proc.stderr.strip()[-300:]}")
    return elapsed


def run_worker(root: str, env: dict, job: dict) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          cwd=root, env=env, input=json.dumps(job),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_medians(passes, key: str) -> list:
    """Each operation's median of ``key`` over ``passes``."""
    return [statistics.median(p[key][i] for p in passes)
            for i in range(len(passes[0][key]))]


def short(argv) -> str:
    text = " ".join(argv)
    return text if len(text) <= 60 else text[:57] + "..."


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "abtqft", "cli.py")):
        print("benchmarks/run.py: no src/abtqft here; run it from the root "
              "of an abtqft checkout", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, nproc))

    ops = WORKLOADS[args.workload](args.seed)
    result = run_worker(root, env, {
        "ops": [[op["argv"], op["cap_s"]] for op in ops],
        "seconds": args.seconds, "trace": bool(args.trace)})
    # Set-up is timed after the worker, so that every workload times it with
    # the machine in the same state: just after a busy run.
    setup = [measure_setup(root, env) for _ in range(SETUP_SAMPLES)]

    # Every operation's output is checked once; the worker has already
    # compared the outputs of later passes with the first.
    wrong = {}
    for i, op in enumerate(ops):
        if result["outputs"][i] is not None:
            reason = check_output(op, result["outputs"][i])
            if reason is None and result["mismatches"][i]:
                reason = "output differs between passes"
            if reason is not None:
                wrong[i] = reason
    passes = result["passes"]
    attempted = failed = 0
    op_failures = [0] * len(ops)
    for record in passes:
        for i, error in enumerate(record["errors"]):
            attempted += 1
            if error is not None or i in wrong:
                failed += 1
                op_failures[i] += 1

    # A pass is summarised op by op: each operation's median over the
    # passes, so that a spike from another tenant in one operation of one
    # pass does not move the result.
    untraced = [p for p in passes if not p["traced"]]
    op_wall = op_medians(untraced, "op_s")
    wall = sum(op_wall)
    e2e = {"setup_s": statistics.median(setup),
           "wall_s": wall,
           "cpu_s": sum(op_medians(untraced, "op_cpu_s")),
           "op_max_s": max(op_wall),
           "peak_rss_mb": result["peak_rss_mb"]}
    samples = {"setup_s": f"median of {len(setup)} fresh interpreters",
               "peak_rss_mb": "worker process high-water mark"}
    for name in ("wall_s", "cpu_s", "op_max_s"):
        samples[name] = (f"per-operation medians over {len(untraced)} "
                         "untraced passes")
    layers = {}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for name in result["layers"][0]:
            layers[name] = statistics.median(m[name] for m in result["layers"])
        layers["trace.overhead_s"] = sum(op_medians(traced, "op_s")) - wall

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps({
        "commit": git_commit(root), "python": sys.version.split()[0],
        "numpy": np.__version__, "nproc": nproc,
        "blas_threads": env["OPENBLAS_NUM_THREADS"], "seed": args.seed,
        "caps_s": sorted({op["cap_s"] for op in ops}),
        "seconds": args.seconds, "passes": len(passes),
        "traced_passes": len(passes) - len(untraced),
        "ops_per_pass": len(ops)}, sort_keys=True))
    for i, op in enumerate(ops):
        times = [p["op_s"][i] for p in passes]
        errors = {p["errors"][i] for p in passes} - {None}
        status = "ok" if not op_failures[i] else \
            f"FAILED {op_failures[i]}/{len(passes)}: " + \
            "; ".join(sorted(errors) + ([wrong[i]] if i in wrong else []))
        print(f"  op {i:2d} {statistics.median(times):9.4f} s  "
              f"{short(op['argv']):60s} {status}")
    print("pass wall_s " + " ".join(
        f"{p['wall_s']:.4f}{'t' if p['traced'] else ''}" for p in passes))
    for name, value in e2e.items():
        print(f"{name:14s} {value:12.6g} {E2E_UNITS[name]:5s} {samples[name]}")
    print(f"{'failed_ratio':14s} {failed / attempted:12.6g} {'1':5s} "
          f"{failed} of {attempted} operations")
    for name in sorted(layers):
        print(f"{name:50s} {layers[name]:14.6g} {layer_unit(name)}")

    if args.trace:
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]}
                   for n, v in e2e.items()}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
