"""The specpreserve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see BENCHMARK.json and
perfbench/NOTES.md for why each exists):

  cli-jobs      fresh ``python -m specpreserve.cli`` processes on the shipped
                jobs: interpreter start, import, matio and cli dominate
  verified-256  library reassignments with the dense verification oracle
                at n = 256: the diagnostics oracle dominates
  kernel-512    unverified reassignment and subspace kernels at n = 512:
                reassign, mapping, subspaces and core dominate

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, next to an
untraced run of the same ops for the tracing overhead.  End-to-end times are
given at a fixed machine speed, set by a reference kernel timed around every
op; the raw times are in the run summary.  Every op is checked;
a failed op counts in ``failed``.  A full record of the run, the machine
record included, is written under ``.perfbench/`` in the checkout.

This launcher imports neither numpy nor the library: it fixes the BLAS
thread count and the oracle bound in the environment of the workload
processes it starts, so both hold before numpy is first imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

# workload -> SPECPRESERVE_ORACLE_NMAX: at least the workload's n, so every
# verified no-spillover op must carry a spectrum verdict
WORKLOADS = {"cli-jobs": 64, "verified-256": 256, "kernel-512": 512}
BLAS_THREADS = 1        # measured: +-4% per-op spread, +-20% with two threads
# workload processes per run, each set up from scratch and then timed for an
# equal share of --seconds (in whole op cycles); setup_s is the median of
# their set-up times.  kernel-512 sets up twice: one set-up takes ~26 s, and
# a full series of benchmark runs (4 + 22 per workload) must end within
# 3420 s, which also caps the other two
SETUP_REPEATS = {"cli-jobs": 5, "verified-256": 3, "kernel-512": 2}
# the highest percentile with ten samples beyond it on kernel-512 (48
# samples) and on verified-256 when its processes run two op cycles (54);
# cli-jobs (30 samples) gets 8 (see tail_samples_beyond)
TAIL_PERCENTILE = 75
IMPORT_PROBES = 5       # fresh interpreters timed per import metric
DEADLINE_S = 170        # a run must end within 180 s
NOT_MEASURED = (
    "no cache flushing, no CPU pinning and no cgroup changes are possible in "
    "this machine: runs share the machine's caches and cores with whatever "
    "else runs on it")


def child_env(workload, tmp):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["SPECPRESERVE_ORACLE_NMAX"] = str(WORKLOADS[workload])
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["TMPDIR"] = tmp
    return env


class Runner:
    def __init__(self, args, tmp):
        self.args = args
        self.env = child_env(args.workload, tmp)
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run exceeded its time budget")
        return left

    def worker(self, seconds, *extra):
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(seconds), "--t0", repr(time.time()), *extra]
        # its own process group, so a timeout also stops the CLI processes
        # a cli-jobs worker may have running
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def probe(self, code):
        """Median wall time of a fresh interpreter running ``code``."""
        times = []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                           check=True, timeout=self.remaining())
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def typical_op_ms(durations, names):
    """The median wall time of each op type, averaged over the op types.

    The rotation mixes op types whose times differ several-fold, so the
    median of the pooled times sits wherever the fast types end and the
    slow ones begin; a small shift of machine speed moves it from one
    cluster to the next.  Every op type runs equally often, so this is the
    median time of one op of the rotation, taken per type."""
    by = {}
    for name, ms in zip(names, durations):
        by.setdefault(name, []).append(ms)
    return statistics.fmean(statistics.median(v) for v in by.values())


def at_ref_speed(run):
    """The op times of one workload process at the reference speed: the
    speed at which the workload's reference kernel takes ``ref_nominal_ms``.

    This host's speed drifts by up to 1.6x over seconds to minutes; an op's
    time divided by the reference time measured next to it varies several
    times less (perfbench/NOTES.md).  The reference was timed right before
    and right after each op."""
    refs = run["ref_ms"]
    return [2 * ms * run["ref_nominal_ms"] / (refs[i] + refs[i + 1])
            for i, ms in enumerate(run["durations_ms"])]


def end_to_end(runner):
    """Several workload processes, each set up from scratch and timed for a
    share of the run.  Every time is put at the reference speed; the raw
    values go to the run summary."""
    k = SETUP_REPEATS[runner.args.workload]
    runs = [runner.worker(runner.args.seconds / k) for _ in range(k)]
    raw = [t for r in runs for t in r["durations_ms"]]
    d = [t for r in runs for t in at_ref_speed(r)]
    names = [n for r in runs for n in r["op_names"]]
    setups = [r["setup_s"] * r["ref_nominal_ms"] / r["setup_ref_ms"] for r in runs]
    tail_ms = statistics.quantiles(d, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_ms_p50": metric(typical_op_ms(d, names), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "ops_per_s": metric(len(d) / (sum(d) / 1e3), "1/s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in runs), "MB"),
    }
    res = dict(runs[-1],
               durations_ms=raw,
               op_names=names,
               ref_ms=[t for r in runs for t in r["ref_ms"]],
               attempted=sum(r["attempted"] for r in runs),
               failed=sum(r["failed"] for r in runs),
               failures=[m for r in runs for m in r["failures"]],
               ns_ops=sum(r["ns_ops"] for r in runs),
               verdicts=sum(r["verdicts"] for r in runs))
    extra = {"ref_ms_median": statistics.median(res["ref_ms"]),
             "raw_setup_s": statistics.median(r["setup_s"] for r in runs),
             "raw_op_ms_p50": typical_op_ms(raw, names),
             "raw_ops_per_s": len(raw) / (sum(raw) / 1e3),
             "setup_runs_s": setups, "tail_percentile": TAIL_PERCENTILE,
             "tail_samples_beyond": sum(t > tail_ms for t in d),
             "samples": len(d), "fail_ratio": res["failed"] / res["attempted"]}
    return res, metrics, extra


def per_layer(runner, spans_file):
    plain = runner.worker(runner.args.seconds)
    res = runner.worker(runner.args.seconds, "--spans", spans_file)
    ops = len(res["durations_ms"])
    layers = res["layers"]
    metrics = {}
    for span in tracing.FUNCTION_SPANS + tracing.LAPACK_SPANS:
        self_s, calls, errors = layers.get(span, (0.0, 0, 0))
        metrics[f"{span}.self_ms"] = metric(1e3 * self_s / ops, "ms")
        metrics[f"{span}.calls"] = metric(calls / ops, "calls/op")
        if not span.startswith("lapack."):
            metrics[f"{span}.errors"] = metric(errors, "count")
    metrics["diagnostics.verdict_ratio"] = metric(
        res["verdicts"] / res["ns_ops"] if res["ns_ops"] else 0.0, "ratio")
    metrics["cli.import_s"] = metric(runner.probe("import specpreserve.cli"), "s")
    metrics["cli.interpreter_s"] = metric(runner.probe("import numpy"), "s")
    for module, secs in res["setup_layers"].items():
        metrics[f"setup.{module}.self_s"] = metric(secs, "s")
    # raw wall times, like the self times above; the overhead compares the
    # two processes at the reference speed
    metrics["trace.op_ms_p50"] = metric(
        typical_op_ms(res["durations_ms"], res["op_names"]), "ms")
    metrics["trace.op_ms_mean"] = metric(statistics.fmean(res["durations_ms"]), "ms")
    traced_p50 = typical_op_ms(at_ref_speed(res), res["op_names"])
    plain_p50 = typical_op_ms(at_ref_speed(plain), plain["op_names"])
    metrics["trace.overhead_ms"] = metric(traced_p50 - plain_p50, "ms")
    # drift-free estimate: spans per op times the cost of one span
    spans_per_op = res["spans_timed"] / ops
    metrics["trace.spans_per_op"] = metric(spans_per_op, "spans/op")
    metrics["trace.span_cost_us"] = metric(1e6 * res["span_cost_s"], "us")
    metrics["trace.overhead_est_ms"] = metric(
        1e3 * spans_per_op * res["span_cost_s"], "ms")
    # the failure count of the result line covers both runs
    res = dict(res, attempted=plain["attempted"] + res["attempted"],
               failed=plain["failed"] + res["failed"],
               failures=plain["failures"] + res["failures"])
    return res, metrics, {"untraced_op_ms_p50": plain_p50, "spans_file": spans_file}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "specpreserve", "__init__.py"),
              os.path.join(ROOT, "tests", "golden.py"),
              os.path.join(ROOT, "jobs")]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        print(f"error: not a specpreserve checkout, missing {missing}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner = Runner(args, tmp)
        if args.trace:
            res, metrics, extra = per_layer(
                runner, os.path.join(OUT, f"{tag}-spans.json"))
        else:
            res, metrics, extra = end_to_end(runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    machine = dict(res["machine"], python=platform.python_version(),
                   nproc=os.cpu_count(),
                   affinity=len(os.sched_getaffinity(0)),
                   blas_threads_set=BLAS_THREADS,
                   oracle_nmax_env=WORKLOADS[args.workload],
                   oracle_dim_limit=res["oracle_dim_limit"],
                   reference=res["reference"],
                   ref_nominal_ms=res["ref_nominal_ms"],
                   workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace,
                   not_measured=NOT_MEASURED)
    record = {"machine": machine, "metrics": metrics, **extra,
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"],
              "verdicts": res["verdicts"], "no_spillover_ops": res["ns_ops"],
              "op_names": res["op_names"], "durations_ms": res["durations_ms"],
              "ref_ms": res["ref_ms"]}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in res["failures"]:
        print(f"failed: {msg}")
    print("machine: " + json.dumps(machine))
    print("run: " + json.dumps(extra))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
