"""Batch command line front end.

Four commands, each driven by a JSON job file plus flag overrides:

  inspect    structure membership, pairing table, Jordan type
  reassign   replace selected eigenvalues, keep eigenvectors, stay structured
  invariant  subspace workflows: reproduce / preserve / complementary /
             no-spillover
  gen        write a generated structured instance with ground truth

Exit codes: 0 success, 2 violated mathematical precondition (the failing
hypothesis is named), 3 I/O or format trouble.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import matio
from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _decide,
    _real_apply,
    as_matrix,
    frob,
    is_member,
    sample_structured,
    structure_residual,
)
from .diagnostics import (
    InstanceRecipe,
    PlanGroup,
    _assign_multisets,
    generate_instance,
)
from .errors import (
    FormatError,
    SpecPreserveError,
    StructureError,
)
from .reassign import reassign_simple
from .spectral import MAX_EXTRACT_DIM, extract_jordan_pairs, pairing_partner
from .subspaces import (
    no_spillover,
    preserve_complementary,
    preserve_invariant,
    reproduce_invariant,
)

__all__ = ["main"]

MATCH_TOL = 1e-6  # relative: a requested current, or a pairing partner


# ---------------------------------------------------------------------------
# job handling
# ---------------------------------------------------------------------------

def _load_job(path):
    if not os.path.exists(path):
        raise FormatError(f"job file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except json.JSONDecodeError as e:
        raise FormatError(f"cannot parse job file {path}: {e}") from e
    if not isinstance(job, dict):
        raise FormatError("job file must hold a JSON object")
    job["_dir"] = os.path.dirname(os.path.abspath(path))
    return job


def _job_path(job, value):
    if os.path.isabs(value):
        return value
    return os.path.join(job.get("_dir", "."), value)


def _tolerances(job, args) -> ToleranceProfile:
    t = job.get("tolerances", {}) or {}
    structure = args.tol_structure if args.tol_structure is not None else t.get("structure")
    residual = args.tol_residual if args.tol_residual is not None else t.get("residual")
    rank = args.rank_tol if args.rank_tol is not None else t.get("rank")
    prof = ToleranceProfile()
    return ToleranceProfile(
        structure_tol=structure if structure is not None else prof.structure_tol,
        residual_tol=residual if residual is not None else prof.residual_tol,
        rank_tol=rank if rank is not None else prof.rank_tol,
    )


def _parse_signature(spec):
    """The signs of a signature space, from a pattern such as ``"++-"``
    (``p``/``1`` for +, ``m``/``n`` for -, commas ignored) or a list of
    +1 and -1."""
    if isinstance(spec, str):
        signs = [1.0 if ch in "+p1" else -1.0 if ch in "-mn" else None
                 for ch in spec.replace(",", "")]
    elif isinstance(spec, list):
        signs = [float(v) if isinstance(v, (int, float)) and v in (1, -1)
                 else None for v in spec]
    else:
        signs = [None]
    if None in signs:
        raise FormatError(f"bad signature pattern {spec!r}")
    return signs


def _resolve_space(job, args, A, tol) -> ScalarProductSpace:
    """The space of --space or the job.  A job's ``{"file": P}`` and
    ``{"signature": S}`` read as ``file:P`` and ``signature:S``.  With no
    field from --field or the job, it is complex when A has a nonzero
    imaginary part (``as_matrix``'s rule) and otherwise the constructor's
    field of H: real on every preset, complex for a file H with a nonzero
    imaginary part."""
    spec = args.space if args.space is not None else job.get("space")
    if spec is None:
        raise FormatError("no scalar-product space given (job 'space' or --space)")
    star = args.star if args.star is not None else job.get("star", "ct")
    field = args.field if args.field is not None else job.get("field")
    field = field or ("complex" if np.iscomplexobj(as_matrix(A)) else "")
    kw = dict(star=star, field=field, structure_tol=tol.structure_tol)

    name = str(spec)
    if isinstance(spec, dict):
        kind = next((k for k in ("file", "signature") if k in spec), None)
        if kind is None:
            raise FormatError(f"bad space spec {spec!r}")
        arg = spec[kind]
    elif name.startswith(("file:", "signature:")):
        kind, _, arg = name.partition(":")
    elif name in ("identity", "flip", "skewj", "skewJ"):
        return getattr(ScalarProductSpace, name.lower())(A.shape[0], **kw)
    elif os.path.exists(_job_path(job, name)):
        kind, arg = "file", name
    else:
        raise FormatError(f"unknown space preset {name!r}")
    if kind == "signature":
        return ScalarProductSpace.signature(_parse_signature(arg), **kw)
    if not isinstance(arg, str):
        raise FormatError(f"bad space file {arg!r}")
    return ScalarProductSpace(matio.load_matrix(_job_path(job, arg)), **kw)


def _resolve_class(job, args) -> StructureClass:
    value = args.cls if args.cls is not None else job.get("class")
    if value is None:
        raise FormatError("no structure class given (job 'class' or --class)")
    return StructureClass.parse(value)


def _resolve_z(job, args, space, cls, seed):
    raw = args.z if args.z is not None else job.get("z", "zero")
    if isinstance(raw, dict):
        if "file" in raw:
            return matio.load_matrix(_job_path(job, raw["file"]))
        raise FormatError(f"bad z spec {raw!r}")
    name = str(raw)
    if name == "zero":
        return None
    if name == "random":
        return sample_structured(space, cls, seed)
    if name.startswith("file:"):
        return matio.load_matrix(_job_path(job, name[5:]))
    raise FormatError(f"bad z spec {name!r}")


def _load_lambda(job, raw, label):
    """A small matrix given either as a file path or a diagonal list."""
    if raw is None:
        raise FormatError(f"missing {label}")
    if isinstance(raw, str):
        return matio.load_matrix(_job_path(job, raw))
    if isinstance(raw, list):
        return np.diag([matio.complex_from_pair(v) for v in raw])
    raise FormatError(f"bad {label}: expected a path or a list of values")


def _out_dir(job, args):
    out = args.out if args.out is not None else job.get("out")
    if out is None:
        return None
    out = _job_path(job, out)
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(out, name, payload):
    if out is None:
        return
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        matio.dump_json(payload, fh)
        fh.write("\n")


def _print_table(rows):
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"  {k:<{width}}  {v}")


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g} {sign} {abs(z.imag):.6g}i"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_inspect(args) -> int:
    job = _load_job(args.job)
    tol = _tolerances(job, args)
    A = matio.load_matrix(_job_path(job, job["matrix"]))
    n = A.shape[0]
    space = _resolve_space(job, args, A, tol)
    cls = _resolve_class(job, args)

    res = structure_residual(A, space, cls)
    member = is_member(A, space, cls, tol)
    eigs = np.linalg.eigvals(np.asarray(A, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(eigs))))

    pairing = []
    for lam in eigs:
        partner = pairing_partner(lam, cls, space.star)
        dist = float(np.min(np.abs(eigs - partner)))
        pairing.append({
            "value": matio.pair_from_complex(lam),
            "partner": matio.pair_from_complex(partner),
            "partner_distance": dist,
            "partner_present": dist <= MATCH_TOL * scale,
        })

    jordan = None
    if n <= MAX_EXTRACT_DIM:
        try:
            pairs = extract_jordan_pairs(A, tol)
            jordan = [{"value": matio.pair_from_complex(p.value),
                       "chain_length": p.length} for p in pairs]
        except SpecPreserveError as e:
            jordan = f"extraction failed: {e}"

    print(f"structure: {cls.name.lower()} member: {member} "
          f"(residual {res:.6e}, tolerance {tol.structure_tol:g})")
    _print_table([
        ("dimension", str(n)),
        ("field", space.field),
        ("star", space.star),
        ("eps1", str(space.epsilon1)),
        ("adjoint residual", f"{res:.6e}"),
    ])
    print("eigenvalue pairing:")
    for row in pairing:
        v = matio.complex_from_pair(row["value"])
        p = matio.complex_from_pair(row["partner"])
        mark = "ok" if row["partner_present"] else "MISSING"
        print(f"  {_fmt_complex(v):>24}  <->  {_fmt_complex(p):>24}   {mark}")
    if isinstance(jordan, list):
        print("jordan type:")
        for row in jordan:
            print(f"  {_fmt_complex(matio.complex_from_pair(row['value'])):>24}"
                  f"   chain length {row['chain_length']}")

    out = _out_dir(job, args)
    _write_report(out, "inspect.json", {
        "member": member,
        "structure_residual": res,
        "class": cls.name.lower(),
        "star": space.star,
        "field": space.field,
        "eps1": space.epsilon1,
        "pairing": pairing,
        "jordan_type": jordan,
    })
    return 0


def _collect_targets(job):
    raw = job.get("targets")
    if not raw:
        raise FormatError("job needs a 'targets' list of {current, target}")
    currents, targets = [], []
    for item in raw:
        try:
            currents.append(matio.complex_from_pair(item["current"]))
            targets.append(matio.complex_from_pair(item["target"]))
        except (KeyError, TypeError) as e:
            raise FormatError(f"bad targets entry {item!r}: {e}") from e
    return currents, targets


def _match_eigvecs(A, currents):
    """Pick eigenvectors of A for the requested current eigenvalues.

    Currents are paired with eigenvalues of A by the optimal assignment (a
    nearest-first pass can take the eigenvalue a later current needs); each
    pair must lie within ``MATCH_TOL`` times the spectral scale.
    """
    w, V = np.linalg.eig(np.asarray(A, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(w))))
    rows, cols, dist = _assign_multisets(np.asarray(currents, dtype=complex), w)
    paired = {i: (k, d) for i, k, d in zip(rows.tolist(), cols.tolist(),
                                           dist.tolist())}
    vecs = []
    for i, c in enumerate(currents):
        k, d = paired.get(i, (None, np.inf))
        _decide("current_eigenvalue", d, MATCH_TOL * scale).require(
            f"requested current value {c:.6g} is not an eigenvalue of A",
            "closest at distance")
        vecs.append(V[:, k])
    return vecs


def _fixed_residual(perturbed, X_f, L_f) -> float:
    """``|(A + delta) X_f - X_f L_f|`` of the job's fixed pair."""
    X_f = as_matrix(X_f, "X_f")
    return frob(_real_apply(perturbed, X_f) - X_f @ as_matrix(L_f, "Lambda_f"))


def cmd_reassign(args) -> int:
    job = _load_job(args.job)
    tol = _tolerances(job, args)
    A = matio.load_matrix(_job_path(job, job["matrix"]))
    n = A.shape[0]
    space = _resolve_space(job, args, A, tol)
    cls = _resolve_class(job, args)
    seed = args.seed if args.seed is not None else int(job.get("seed", 0))
    currents, targets = _collect_targets(job)

    if job.get("eigvecs"):
        X = matio.load_matrix(_job_path(job, job["eigvecs"]))
        if X.shape != (n, len(currents)):
            raise FormatError(
                f"eigvecs must be {n} x {len(currents)}, got {X.shape}")
        vecs = [X[:, j] for j in range(X.shape[1])]
    else:
        vecs = _match_eigvecs(A, currents)

    Z = _resolve_z(job, args, space, cls, seed)
    mode = job.get("mode") or ("family" if Z is not None else "no-spillover")
    result = reassign_simple(
        A, list(zip(currents, vecs)), targets, space, cls, Z=Z, mode=mode,
        complete_pairing=bool(args.complete_pairing or job.get("complete_pairing")),
        tol=tol)

    rep = result.report
    fixed_supplied = None
    if job.get("fixed_basis"):
        fixed_supplied = _fixed_residual(
            A + result.delta,
            matio.load_matrix(_job_path(job, job["fixed_basis"])),
            _load_lambda(job, job.get("fixed_lambda"), "fixed_lambda"))

    if rep.spillover_residual is not None:
        fixed_row = ("spillover residual", f"{rep.spillover_residual:.6e}")
    else:
        fixed_row = ("fixed-pair residual", "n/a")
    print(f"reassigned {len(currents)} eigenvalue(s) [{mode}]")
    rows = [
        ("reassigned residual", f"{rep.reassigned_residual:.6e}"),
        ("structure residual", f"{rep.structure_residual:.6e}"),
        ("perturbation rank", str(rep.delta_rank)),
        ("gram condition", f"{rep.gram_condition_estimate:.3e}"),
        fixed_row,
        ("real output", str(rep.realness)),
        ("spectrum matched", "n/a" if rep.spectrum_verdict is None
         else str(rep.spectrum_verdict.matched)),
    ]
    if fixed_supplied is not None:
        rows.insert(5, ("supplied fixed residual", f"{fixed_supplied:.6e}"))
    _print_table(rows)

    out = _out_dir(job, args)
    if out is not None:
        matio.save_matrix(os.path.join(out, "delta.json"), result.delta)
        matio.save_matrix(os.path.join(out, "perturbed.json"), A + result.delta)
        payload = rep.summary()
        payload["mode"] = mode
        payload["fixed_residual_supplied"] = fixed_supplied
        payload["targets"] = [
            {"current": matio.pair_from_complex(c), "target": matio.pair_from_complex(t)}
            for c, t in zip(currents, targets)]
        _write_report(out, "report.json", payload)
    return 0


def cmd_invariant(args) -> int:
    job = _load_job(args.job)
    tol = _tolerances(job, args)
    A = matio.load_matrix(_job_path(job, job["matrix"]))
    space = _resolve_space(job, args, A, tol)
    cls = _resolve_class(job, args)
    seed = args.seed if args.seed is not None else int(job.get("seed", 0))
    submode = args.submode or job.get("submode")
    if submode not in ("reproduce", "preserve", "complementary", "no-spillover"):
        raise FormatError(
            "invariant needs submode reproduce | preserve | complementary | "
            "no-spillover")

    X = matio.load_matrix(_job_path(job, job["basis"]))
    La = _load_lambda(job, job.get("lambda_target"), "lambda_target")
    Z = _resolve_z(job, args, space, cls, seed)

    if submode == "reproduce":
        delta = reproduce_invariant(A, X, La, space, cls, Z=Z, tol=tol)
    elif submode == "preserve":
        Lc = _load_lambda(job, job.get("lambda_current"), "lambda_current")
        R = (matio.load_matrix(_job_path(job, job["r"]))
             if job.get("r") else np.eye(X.shape[1]))
        delta = preserve_invariant(A, X, Lc, R, La, space, cls, Z=Z, tol=tol)
    elif submode == "complementary":
        Xf = matio.load_matrix(_job_path(job, job["fixed_basis"]))
        Lf = _load_lambda(job, job.get("fixed_lambda"), "fixed_lambda")
        delta = preserve_complementary(A, X, La, Xf, Lf, space, cls, tol=tol)
    else:
        Lc = _load_lambda(job, job.get("lambda_current"), "lambda_current")
        delta = no_spillover(A, X, Lc, La, space, cls, tol=tol)

    res = float(np.linalg.norm((A + delta) @ X - X @ La))
    struct = structure_residual(delta, space, cls)
    print(f"invariant-subspace update [{submode}]")
    _print_table([
        ("invariance residual", f"{res:.6e}"),
        ("structure residual", f"{struct:.6e}"),
        ("perturbation norm", f"{np.linalg.norm(delta):.6e}"),
    ])
    out = _out_dir(job, args)
    if out is not None:
        matio.save_matrix(os.path.join(out, "delta.json"), delta)
        matio.save_matrix(os.path.join(out, "perturbed.json"), A + delta)
        _write_report(out, "report.json", {
            "submode": submode,
            "invariance_residual": res,
            "structure_residual": struct,
            "delta_norm": float(np.linalg.norm(delta)),
        })
    return 0


def cmd_gen(args) -> int:
    job = _load_job(args.job)
    raw = job.get("recipe")
    if not isinstance(raw, dict):
        raise FormatError("gen needs a 'recipe' object")
    try:
        plan = tuple(
            PlanGroup(matio.complex_from_pair(g["value"]), tuple(g["chains"]))
            for g in raw["plan"])
        recipe = InstanceRecipe(
            space_kind=raw.get("space", "random"),
            cls=raw.get("class", "jordan"),
            field=raw.get("field", "complex"),
            star=raw.get("star", "ct" if raw.get("field") != "real" else "t"),
            plan=plan,
            seed=args.seed if args.seed is not None else int(raw.get("seed", 0)),
            eps1=int(raw.get("eps1", 0)),
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed recipe: {e}") from e

    inst = generate_instance(recipe)
    res = structure_residual(inst.A, inst.space, inst.cls)
    print(f"generated {recipe.n} x {recipe.n} {recipe.field} "
          f"{inst.cls.name.lower()} instance "
          f"(membership residual {res:.3e})")
    out = _out_dir(job, args)
    if out is None:
        raise FormatError("gen needs an output directory (job 'out' or --out)")
    matio.save_matrix(os.path.join(out, "A.json"), inst.A)
    matio.save_matrix(os.path.join(out, "H.json"), inst.space.H)
    truth = {
        "class": inst.cls.name.lower(),
        "star": inst.space.star,
        "field": recipe.field,
        "seed": recipe.seed,
        "membership_residual": res,
        "pairs": [{
            "value": matio.pair_from_complex(p.value),
            "chain": matio.matrix_to_payload(p.chain),
            "residual": p.residual(inst.A),
        } for p in inst.pairs],
    }
    _write_report(out, "ground_truth.json", truth)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specpreserve",
        description="structure-preserving eigenvalue reassignment and "
                    "invariant-subspace updates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("job", help="JSON job file")
        p.add_argument("--space", help="identity | flip | skewj | "
                                       "signature:PATTERN | file:PATH")
        p.add_argument("--class", dest="cls", help="jordan | lie")
        p.add_argument("--star", help="t | ct")
        p.add_argument("--field", help="real | complex")
        p.add_argument("--tol-structure", type=float, default=None)
        p.add_argument("--tol-residual", type=float, default=None)
        p.add_argument("--rank-tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("inspect", help="membership, pairing and Jordan type")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("reassign", help="replace selected eigenvalues")
    common(p)
    p.add_argument("--z", default=None,
                   help="zero | random | file:PATH (free family parameter)")
    p.add_argument("--complete-pairing", action="store_true", default=False,
                   help="insert missing conjugate partner targets")
    p.set_defaults(func=cmd_reassign)

    p = sub.add_parser("invariant", help="invariant-subspace workflows")
    common(p)
    p.add_argument("--z", default=None)
    p.add_argument("--submode",
                   choices=["reproduce", "preserve", "complementary",
                            "no-spillover"])
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("gen", help="generate a structured instance")
    common(p)
    p.set_defaults(func=cmd_gen)
    parser.set_defaults(complete_pairing=False, z=None, submode=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except StructureError as e:
        print(f"precondition violated [{e.condition}]: {e}", file=sys.stderr)
        return 2
    except SpecPreserveError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
