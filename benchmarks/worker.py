"""Measured process: runs one workload's operations as a closed loop.

Started by ``run.py`` with a JSON job on stdin and the checkout's ``src`` on
``PYTHONPATH``; writes one JSON result line to stdout.  It imports only the
program, numpy and the tracer, so its peak RSS is the program's, not the
reference checker's.

An operation is one in-process ``abtqft.cli.main(argv)`` call with stdout
and stderr captured.  Operations run back to back in the given order; a
pass is one run over all of them.  Passes repeat while another one fits in
``seconds``, at least one pass per phase.  With ``trace`` the time is split
into an untraced phase and a traced phase.

The per-operation cap is an interval timer.  Its signal raises
:class:`CapExceeded`, a ``BaseException`` so that no handler in the program
can swallow it; the Smith-form loops are pure Python, so they are
interrupted promptly.  A capped operation is failed and is charged the time
until it stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

import abtqft.cli

from tracing import Tracer


class CapExceeded(BaseException):
    pass


def _on_alarm(signum, frame):
    raise CapExceeded()


def run_op(argv, cap_s):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start, cpu_start = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = abtqft.cli.main(list(argv))
    except CapExceeded:
        error = f"exceeded the {cap_s} s cap"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return elapsed, cpu, error, out.getvalue()


def run_pass(ops, tracer, outputs, mismatches):
    """One pass over all operations; returns its timings and failures."""
    wall0 = time.perf_counter()
    times, cpu_times, errors = [], [], []
    for i, (argv, cap_s) in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, cpu, error, text = run_op(argv, cap_s)
        times.append(elapsed)
        cpu_times.append(cpu)
        errors.append(error)
        if error is None:
            if outputs[i] is None:
                outputs[i] = text
            elif outputs[i] != text:
                mismatches[i] += 1
    return {"wall_s": time.perf_counter() - wall0,
            "op_s": times, "op_cpu_s": cpu_times, "errors": errors}


def warm_up():
    """Load lazily imported code and small caches before timing."""
    for argv in (["catalog", "list"], ["invariant", "S3", "--k", "4"],
                 ["verify", "kirby", "--cases", "2"],
                 ["verify", "maslov", "--cases", "2"],
                 ["verify", "modular", "--kmax", "4"]):
        run_op(argv, 60.0)


def main() -> int:
    job = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    ops, seconds = job["ops"], job["seconds"]
    outputs = [None] * len(ops)
    mismatches = [0] * len(ops)
    warm_up()

    phases = [(None, seconds)]
    if job["trace"]:
        phases = [(None, seconds / 2), (Tracer(), seconds / 2)]
    passes, layers = [], []
    for tracer, budget in phases:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            record = run_pass(ops, tracer, outputs, mismatches)
            record["traced"] = tracer is not None
            passes.append(record)
            if tracer is not None:
                layers.append(tracer.metrics(record["wall_s"]))
            # Stop before a pass that would overrun the budget.
            if time.perf_counter() - start + record["wall_s"] > budget:
                break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"passes": passes, "outputs": outputs, "mismatches": mismatches,
               "layers": layers, "peak_rss_mb": peak_kb / 1024.0},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
