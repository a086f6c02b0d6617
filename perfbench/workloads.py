"""The three workloads: their set-up, their op rotation and the output check
of every op.

Checks are recomputed here with plain numpy (or, for the CLI, from the files
it wrote and the worked examples in ``tests/golden.py``); they never trust
the library's own report for a residual.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

CHECK_TOL = 1e-9        # relative residual bound of every library check
SPILL_SAMPLE = 8        # fixed eigenvectors probed for the no-spillover claim
GOLDEN_TOL = 2e-4       # agreement with the printed worked examples
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    """One benchmark operation: a call, its check and, for no-spillover
    ops, how to tell whether the output carries a spectrum verdict."""

    name: str
    run: Callable
    check: Callable             # output -> failure message or None
    has_verdict: Callable = None  # output -> bool, set on no-spillover ops


# ---------------------------------------------------------------------------
# library checks
# ---------------------------------------------------------------------------

def _fro(M):
    return float(np.linalg.norm(M))


def jordan_form(values, chains):
    """Block-diagonal Jordan matrix matching the columns of the chains."""
    p = sum(X.shape[1] for X in chains)
    J = np.zeros((p, p), dtype=complex)
    i = 0
    for lam, X in zip(values, chains):
        k = X.shape[1]
        J[i:i + k, i:i + k] = np.diag(np.full(k, lam)) + np.diag(np.ones(k - 1), 1)
        i += k
    return J


def _library_check(arr, delta, X, J, *, real, spill=None, fixed=None):
    """Residual, structure and realness of delta, recomputed directly.

    X, J: the invariant pair (A + delta) X = X J must hold.  spill: sampled
    chains delta must annihilate (no-spillover claim).  fixed: sampled
    columns (X_s, Y_s) of a fixed invariant pair, (A + delta) X_s = Y_s.
    """
    A, H = arr.A, arr.space.H
    e2 = arr.cls.value
    if real and np.iscomplexobj(delta):
        return "real arrangement returned a complex perturbation"
    P = A + delta
    scale = (_fro(A) + _fro(delta))
    r = _fro(P @ X - X @ J)
    if not r <= CHECK_TOL * max(1.0, scale * _fro(X)):
        return f"reassigned residual {r:.3e}"
    s = _fro(np.linalg.solve(H, delta.conj().T @ H) - e2 * delta)
    if not s <= CHECK_TOL * max(1.0, _fro(delta)):
        return f"structure residual {s:.3e}"
    if spill is not None:
        r = _fro(delta @ spill)
        if not r <= CHECK_TOL * max(1.0, _fro(delta) * _fro(spill)):
            return f"no-spillover residual {r:.3e}"
    if fixed is not None:
        X_s, Y_s = fixed
        r = _fro(P @ X_s - Y_s)
        if not r <= CHECK_TOL * max(1.0, scale * _fro(X_s)):
            return f"fixed-pair residual {r:.3e}"
    return None


def _verdict_check(report, p):
    """The oracle must have compared spectra and found them matched."""
    v = report.spectrum_verdict
    if v is None:
        return "no-spillover op carries no spectrum verdict"
    if not v.matched:
        return f"spectrum verdict not matched (max distance {v.max_distance:.3e})"
    if report.delta_rank != p:
        return f"delta rank {report.delta_rank} != family width {p}"
    return None


def _both(*msgs):
    return next((m for m in msgs if m), None)


def _has_verdict(res):
    return res.report is not None and res.report.spectrum_verdict is not None


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def library_setup(n, verify, seed):
    """Generate the three arrangements at size n and return the op list:
    verified-256 ops when verify is set, kernel-512 ops otherwise."""
    import instances

    ops = []
    for name in instances.ARRANGEMENTS:
        arr = instances.build(name, n, seed, wide=not verify)
        rng = np.random.default_rng([seed, n, 7])
        pick = rng.choice(len(arr.fixed), size=SPILL_SAMPLE, replace=False)
        spill = np.hstack([arr.fixed[i] for i in pick])
        if verify:
            ops += _verified_ops(arr, spill)
        else:
            ops += _kernel_ops(arr, spill, rng)
    return ops


def _target_pair(fam):
    """(X, J) with (A + delta) X = X J after the family is reassigned."""
    return np.hstack(fam.chains), jordan_form(fam.targets, fam.chains)


def _verified_ops(arr, spill):
    import instances
    from specpreserve import reassign_no_spillover, reassign_simple

    A, space, cls, name = arr.A, arr.space, arr.cls, arr.name
    real = space.field == "real"
    fam = arr.families[instances.NARROW]
    chain = arr.families[instances.CHAIN]
    X, J = _target_pair(fam)
    Xc, Jc = _target_pair(chain)
    return [
        Op(f"{name}/reassign_simple.no_spillover",
           lambda: reassign_simple(A, fam.eigpairs(), fam.targets, space, cls),
           lambda r: _both(
               _library_check(arr, r.delta, X, J, real=real, spill=spill),
               _verdict_check(r.report, fam.width)),
           has_verdict=_has_verdict),
        Op(f"{name}/reassign_simple.family",
           lambda: reassign_simple(A, fam.eigpairs(), fam.targets, space, cls,
                                   Z=arr.Z, mode="family"),
           lambda r: _library_check(arr, r.delta, X, J, real=real)),
        Op(f"{name}/assemble+reassign_no_spillover",
           lambda: reassign_no_spillover(
               A, instances.assemble(arr, chain), space, cls),
           lambda r: _both(
               _library_check(arr, r.delta, Xc, Jc, real=real, spill=spill),
               _verdict_check(r.report, chain.width)),
           has_verdict=_has_verdict),
    ]


def _reassign_ops(arr, role, spill):
    import instances
    from specpreserve import reassign_family, reassign_no_spillover

    A, space, cls, name = arr.A, arr.space, arr.cls, arr.name
    real = space.field == "real"
    fam = arr.families[role]
    asm = instances.assemble(arr, fam)
    X, J = _target_pair(fam)
    ops = [
        Op(f"{name}/{role}/reassign_family.z0",
           lambda: reassign_family(A, asm, space, cls, verify=False),
           lambda r: _library_check(arr, r.delta, X, J, real=real)),
        Op(f"{name}/{role}/reassign_family.z",
           lambda: reassign_family(A, asm, space, cls, Z=arr.Z, verify=False),
           lambda r: _library_check(arr, r.delta, X, J, real=real)),
        Op(f"{name}/{role}/reassign_no_spillover",
           lambda: reassign_no_spillover(A, asm, space, cls, verify=False),
           lambda r: _library_check(arr, r.delta, X, J, real=real, spill=spill),
           has_verdict=_has_verdict),
    ]
    return ops, asm


def _kernel_ops(arr, spill, rng):
    import instances
    from specpreserve.subspaces import preserve_complementary, reproduce_invariant

    A, space, cls, name = arr.A, arr.space, arr.cls, arr.name
    narrow, asm = _reassign_ops(arr, instances.NARROW, spill)
    wide, _ = _reassign_ops(arr, instances.WIDE, spill)
    X_f, L_f = instances.fixed_pair(arr)
    cols = rng.choice(X_f.shape[1], size=SPILL_SAMPLE, replace=False)
    fixed = (X_f[:, cols], X_f @ L_f[:, cols])
    Xa, La = asm.X_c, asm.Lambda_a
    return narrow + [
        Op(f"{name}/narrow/reproduce_invariant",
           lambda: reproduce_invariant(A, Xa, La, space, cls),
           lambda d: _library_check(arr, d, Xa, La, real=False)),
        Op(f"{name}/narrow/preserve_complementary",
           lambda: preserve_complementary(A, Xa, La, X_f, L_f, space, cls),
           lambda d: _library_check(arr, d, Xa, La, real=False, fixed=fixed)),
    ] + wide


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

# (command, job) in rotation order
CLI_ROTATION = (
    ("reassign", "lie4"),
    ("reassign", "jordan5"),
    ("invariant", "sym3"),
    ("gen", "gen6"),
    ("inspect", "lie4"),
    ("inspect", "jordan5"),
)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(payload):
    """The library's JSON matrix payload, parsed without the library."""
    data = [complex(v[0], v[1]) if isinstance(v, list) else complex(v)
            for v in payload["data"]]
    return np.array(data, dtype=complex).reshape(payload["rows"], payload["cols"])


def _read_matrix(path):
    return _matrix(_read_json(path))


def _load_golden():
    spec = importlib.util.spec_from_file_location(
        "perfbench_golden", os.path.join(ROOT, "tests", "golden.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _cli_check(command, job, out, job_file, golden):
    with open(job_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    tol = spec.get("tolerances", {})
    if command == "reassign":
        rep = _read_json(os.path.join(out, "report.json"))
        if not rep["reassigned_residual"] <= tol["residual"]:
            return f"reassigned residual {rep['reassigned_residual']:.3e}"
        if not rep["structure_residual"] <= tol["structure"]:
            return f"structure residual {rep['structure_residual']:.3e}"
        delta = _read_matrix(os.path.join(out, "delta.json"))
        ref = golden.LIE4_DELTA if job == "lie4" else golden.JORDAN5_DELTA
        err = float(np.max(np.abs(delta - ref)))
        if not err <= GOLDEN_TOL:
            return f"delta differs from the worked example by {err:.3e}"
        if rep["mode"] == "no-spillover":
            if rep["spectrum"] is None:
                return "no-spillover op carries no spectrum verdict"
            if not rep["spectrum"]["matched"]:
                return "spectrum verdict not matched"
        return None
    if command == "invariant":
        rep = _read_json(os.path.join(out, "report.json"))
        if not rep["invariance_residual"] <= tol["residual"]:
            return f"invariance residual {rep['invariance_residual']:.3e}"
        if not rep["structure_residual"] <= tol["structure"]:
            return f"structure residual {rep['structure_residual']:.3e}"
        return None
    if command == "gen":
        A = _read_matrix(os.path.join(out, "A.json"))
        H = _read_matrix(os.path.join(out, "H.json"))
        truth = _read_json(os.path.join(out, "ground_truth.json"))
        e2 = 1 if truth["class"] == "jordan" else -1
        star = (lambda M: M.T) if truth["star"] == "T" and truth["field"] == "complex" \
            else (lambda M: M.conj().T)
        scale = max(1.0, _fro(A))
        s = _fro(np.linalg.solve(H, star(A) @ H) - e2 * A)
        if not s <= CHECK_TOL * scale:
            return f"generated matrix off its algebra by {s:.3e}"
        for pair in truth["pairs"]:
            lam = complex(*pair["value"])
            X = _matrix(pair["chain"])
            r = _fro(A @ X - X @ jordan_form([lam], [X]))
            if not r <= CHECK_TOL * scale * max(1.0, _fro(X)):
                return f"ground-truth chain residual {r:.3e}"
        return None
    rep = _read_json(os.path.join(out, "inspect.json"))
    if rep["member"] is not True:
        return "inspect reports a non-member"
    if not all(row["partner_present"] for row in rep["pairing"]):
        return "inspect reports a missing pairing partner"
    return None


class CliRun:
    """Per-run state of cli-jobs: the seed and the child environment.  CLI
    outputs go to fresh directories under the process's temp dir."""

    def __init__(self, seed, traced):
        self.seed, self.traced = seed, traced
        self.golden = _load_golden()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env = env

    def op(self, command, job):
        job_file = os.path.join(ROOT, "jobs", job, "job.json")

        def run():
            out = tempfile.mkdtemp(prefix=f"{job}-")
            argv = [command, job_file, "--out", out]
            if command == "gen":
                argv += ["--seed", str(self.seed)]
            if self.traced:
                spans = os.path.join(out, "spans.json")
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "cli_child.py"),
                       spans] + argv
            else:
                spans = None
                cmd = [sys.executable, "-m", "specpreserve.cli"] + argv
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            return proc.returncode, proc.stderr, out, spans

        def check(res):
            code, err, out, _ = res
            try:
                if code != 0:
                    return f"exit code {code}: {err.strip()[-200:]}"
                return _cli_check(command, job, out, job_file, self.golden)
            except (OSError, KeyError, ValueError, TypeError) as e:
                return f"unreadable output: {e!r}"

        def has_verdict(res):
            rep = _read_json(os.path.join(res[2], "report.json"))
            return rep.get("spectrum") is not None

        no_spill = command == "reassign" and job == "jordan5"
        return Op(f"{command}/{job}", run, check,
                  has_verdict=has_verdict if no_spill else None)

    def ops(self):
        return [self.op(c, j) for c, j in CLI_ROTATION]

    def discard(self, res):
        """Remove an op's output directory once it was checked."""
        shutil.rmtree(res[2], ignore_errors=True)
