"""One-shot sweep behind the baseline table in ROADMAP.md; not a gated
workload.

    python3 perfbench/sweep.py [--blas-threads N]

For n = 256 and 1024 it builds a real symmetric A (H = I, Jordan class) as a seeded
``sample_structured`` member, takes eigenpairs from ``eig`` as the CLI does,
and moves 4 eigenvalues with the no-spillover update and with the family
(Z = 0 and a random admissible Z), each with and without verification.
Each cell is the best of 3 calls.  At n = 1024 it also splits one
verified no-spillover call into its traced parts.  Prints a markdown table.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

SIZES = (256, 1024)
REPEATS = 3             # each cell is the best of this many calls


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    os.environ["SPECPRESERVE_ORACLE_NMAX"] = str(max(SIZES))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

    import numpy as np

    import specpreserve
    import tracing
    from specpreserve import ScalarProductSpace, sample_structured

    def best(fn):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    rows = {}
    for n in SIZES:
        space = ScalarProductSpace.identity(n, star="t", field="real")
        A = sample_structured(space, "jordan", seed=n)
        w, V = np.linalg.eig(A)
        idx = np.argsort(w.real)[:: max(1, n // 4)][:4]
        pairs = [(w[i], V[:, i]) for i in idx]
        targets = [w[i] + 0.25 for i in idx]
        Z = sample_structured(space, "jordan", seed=n + 1)
        cases = {
            "no-spillover": dict(),
            "family (Z = 0)": dict(mode="family"),
            "family, random Z": dict(mode="family", Z=Z),
        }
        for label, kw in cases.items():
            for verify in (False, True):
                def call(kw=kw, verify=verify):
                    res = specpreserve.reassign_simple(
                        A, pairs, targets, space, "jordan", verify=verify, **kw)
                    if verify and kw.get("mode") is None \
                            and not res.report.spectrum_verdict.matched:
                        raise RuntimeError(f"spectrum not matched at n = {n}")
                rows.setdefault((label, verify), {})[n] = best(call)

    # the split is traced after the timings, so they carry no tracing cost
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = "split"
    specpreserve.reassign_simple(A, pairs, targets, space, "jordan")
    split = tracing.aggregate(tracer.spans, lambda op: op == "split")

    print(f"BLAS threads: {args.blas_threads}, best of {REPEATS}")
    print()
    print("| path | " + " | ".join(f"n = {n}" for n in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for (label, verify), cells in rows.items():
        name = f"{label}, {'with' if verify else 'no'} verification"
        print(f"| {name} | " + " | ".join(_fmt(cells[n]) for n in SIZES) + " |")
    print()
    print(f"Split of one verified no-spillover call at n = {max(SIZES)} "
          "(self time):")
    print()
    for name, (self_s, calls, _) in sorted(split.items(), key=lambda kv: -kv[1][0]):
        if self_s >= 1e-3:
            print(f"- `{name}`: {_fmt(self_s)} over {calls} call(s)")
    return 0


def _fmt(seconds):
    return f"{seconds * 1e3:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


if __name__ == "__main__":
    sys.exit(main())
