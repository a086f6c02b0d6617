"""One workload process: set-up, warm-up, the timed closed loop and the
output check of every op.  ``run.py`` starts it with the BLAS thread count
and the oracle bound already in its environment, and reads the JSON object
it prints last.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --t0 WALLCLOCK [--spans FILE]

``--t0`` is the wall clock just before the process was started, so the
reported set-up time includes interpreter start and every import.
``--spans`` turns tracing on and names the file the spans are written to.
The process times a reference kernel before every op and after the last,
so that ``run.py`` can give each op's time at a fixed machine speed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import resource
import statistics
import sys
import time

import tracing

LIBRARY = {"verified-256": (256, True), "kernel-512": (512, False)}
# per workload, the reference kernel: a numpy call like the one its ops
# spend most time in, on a fixed n x n matrix, using nothing from the
# library; and the time in ms at which run.py puts every time it reports,
# about the kernel's median time on a 2-vCPU VM
REFERENCE = {"cli-jobs": ("eigvals", 200, 20.0),
             "verified-256": ("eigvals", 200, 20.0),
             "kernel-512": ("solve", 512, 25.0)}
SETUP_REF_CALLS = 3  # reference calls at the start and at the end of set-up


@functools.cache
def _reference_call(workload):
    import numpy as np

    kind, n, _ = REFERENCE[workload]
    A = np.random.default_rng(0).standard_normal((n, n))
    if kind == "eigvals":
        return lambda: np.linalg.eigvals(A)
    return lambda: np.linalg.solve(A, A)


def reference_ms(workload, calls=1):
    """The machine's current speed: the median wall time, in ms, of the
    workload's reference kernel."""
    call = _reference_call(workload)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def blas_record():
    """Versions and live thread counts of every OpenBLAS loaded."""
    import numpy
    import scipy

    rec = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy.show_config(mode="dicts")
        ["Build Dependencies"]["blas"]["version"],
        "scipy_openblas": scipy.show_config(mode="dicts")
        ["Build Dependencies"]["blas"]["version"],
        "blas_threads": {},
    }
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                rec["blas_threads"][os.path.basename(path)] = int(fn())
                break
    return rec


def run_checked(op):
    """Run one op; return (seconds, output, failure message or None)."""
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as e:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, f"{op.name} raised {e!r}"
    elapsed = time.perf_counter() - start
    try:
        msg = op.check(out)
    except Exception as e:
        msg = f"check raised {e!r}"
    return elapsed, out, (f"{op.name}: {msg}" if msg else None)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.op = "setup"

    import workloads

    # the speed during set-up: the reference at its start (once numpy is
    # loaded) and at its end; the first probe's time is not set-up
    probe_start = time.time()
    setup_refs = [reference_ms(args.workload, SETUP_REF_CALLS)]
    probe_s = time.time() - probe_start

    failures = []
    attempted = 0
    cli = None
    if args.workload == "cli-jobs":
        # set-up covers the library import, as on the library workloads;
        # no warm-up of the op: every user run pays interpreter start and
        # import in its own process
        import specpreserve.cli  # noqa: F401
        cli = workloads.CliRun(args.seed, tracer is not None)
        ops = cli.ops()
    else:
        n, verify = LIBRARY[args.workload]
        ops = workloads.library_setup(n, verify, args.seed)
        for op in ops:
            attempted += 1
            _, _, msg = run_checked(op)
            if msg:
                failures.append(f"warm-up {msg}")
    setup_s = time.time() - args.t0 - probe_s
    setup_refs.append(reference_ms(args.workload, SETUP_REF_CALLS))

    durations, names, refs = [], [], []
    ns_ops = verdicts = 0
    child_layers = {}
    child_spans = []
    timed = 0.0
    while timed < args.seconds:            # whole cycles only
        for op in ops:
            refs.append(reference_ms(args.workload))
            i = len(durations)
            if tracer is not None:
                tracer.op = i
            elapsed, out, msg = run_checked(op)
            if tracer is not None:
                tracer.op = None
            attempted += 1
            durations.append(elapsed * 1e3)
            names.append(op.name)
            timed += elapsed
            if msg:
                failures.append(msg)
            if op.has_verdict is not None and out is not None:
                ns_ops += 1
                try:
                    verdicts += bool(op.has_verdict(out))
                except (OSError, ValueError):
                    pass
            if cli is not None:
                if out is not None and out[3] is not None:
                    with open(out[3], encoding="utf-8") as fh:
                        spans = [tuple(s[:4]) + (i,) + tuple(s[5:])
                                 for s in json.load(fh)]
                    child_spans.append(spans)
                    for k, v in tracing.aggregate(spans, lambda op: True).items():
                        row = child_layers.setdefault(k, [0.0, 0, 0])
                        for j in range(3):
                            row[j] += v[j]
                if out is not None:
                    cli.discard(out)

    refs.append(reference_ms(args.workload))

    who = resource.RUSAGE_CHILDREN if cli is not None else resource.RUSAGE_SELF
    from specpreserve.diagnostics import oracle_dim_limit

    result = {
        "setup_s": setup_s,
        "setup_ref_ms": statistics.fmean(setup_refs),
        "reference": "numpy.linalg.%s, n = %d" % REFERENCE[args.workload][:2],
        "ref_nominal_ms": REFERENCE[args.workload][2],
        "durations_ms": durations,
        "op_names": names,
        "ref_ms": refs,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ns_ops": ns_ops,
        "verdicts": verdicts,
        "oracle_dim_limit": oracle_dim_limit(),
        "machine": blas_record(),
    }
    if tracer is not None:
        spans = tracer.spans
        result["layers"] = child_layers or tracing.aggregate(
            spans, lambda op: isinstance(op, int))
        setup = tracing.aggregate(spans, lambda op: op == "setup")
        result["setup_layers"] = {
            m: sum(v[0] for k, v in setup.items() if k.split(".")[0] == m)
            for m in tracing.MODULES}
        result["spans_timed"] = (
            sum(map(len, child_spans)) if cli is not None
            else sum(isinstance(s[4], int) for s in spans))
        result["span_cost_s"] = tracing.span_cost()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "cli_spans": child_spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
