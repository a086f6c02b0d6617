"""Batch command line front end.

Four commands, each driven by a JSON job file plus flag overrides:

  inspect    structure membership, pairing table, Jordan type
  reassign   replace selected eigenvalues, keep eigenvectors, stay structured
  invariant  subspace workflows: reproduce / preserve / complementary /
             no-spillover
  gen        write a generated structured instance with ground truth

Exit codes: 0 success, 2 violated mathematical precondition (the failing
hypothesis is named), 3 I/O or format trouble, a usage error included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import matio
from .core import (
    DEFAULT_RANK_TOL,
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_STRUCTURE_TOL,
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _decide,
    _real_apply,
    _require_finite,
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


def _job_path(job, value, key):
    """The job's file path value under key, against the job's directory."""
    if not isinstance(value, str):
        raise FormatError(f"job needs a file path under {key!r}, got {value!r}")
    return os.path.join(job.get("_dir", "."), value)


def _finite(M, key):
    """M, a matrix the job gives under key, refused by key when it has a NaN
    or infinite entry: before any product, so numpy never warns."""
    _require_finite(M, key, "result")
    return M


def _read_matrix(job, value, key):
    """The finite matrix in the file at the job's path value under key."""
    return _finite(matio.load_matrix(_job_path(job, value, key)), key)


def _job_matrix(job, key):
    """The matrix in the file the job names under key, a required field."""
    return _read_matrix(job, job.get(key), key)


def _number(raw, convert, label):
    """A number of the job, ``convert(raw)``, or a FormatError naming it: a
    JSON number, and an integral one for ``int``."""
    want = "an integer" if convert is int else "a number"
    if not (matio.is_integer if convert is int else matio.is_number)(raw):
        raise FormatError(f"bad {label} {raw!r}: expected {want}")
    return convert(raw)


def _tolerances(job, args) -> tuple:
    """The flags' tolerances, else the job's, else the defaults: the space's
    structure_tol, and the profile of rank_tol and residual_tol."""
    t = {} if job.get("tolerances") is None else job["tolerances"]
    if not isinstance(t, dict):
        raise FormatError(f"bad tolerances {t!r}: expected an object")
    flags = {"structure": args.tol_structure, "residual": args.tol_residual,
             "rank": args.rank_tol}
    given = {k: t.get(k) if flag is None else flag for k, flag in flags.items()}
    given = {f"{k}_tol": _number(v, float, f"{k} tolerance")
             for k, v in given.items() if v is not None}
    return (given.pop("structure_tol", DEFAULT_STRUCTURE_TOL),
            ToleranceProfile(**given))


def _load_problem(args):
    """The job of args, its tolerances, matrix, space and class."""
    job = _load_job(args.job)
    structure_tol, tol = _tolerances(job, args)
    A = _job_matrix(job, "matrix")
    space = _resolve_space(job, args, A, structure_tol)
    return job, tol, A, space, _resolve_class(job, args)


_SIGNS = {"+": 1.0, "p": 1.0, "1": 1.0, "+1": 1.0,
          "-": -1.0, "m": -1.0, "n": -1.0, "-1": -1.0}


def _parse_signature(spec):
    """The signs of a signature space, from a pattern such as ``"++-"``
    (``p``/``1`` for +, ``m``/``n`` for -), comma-separated signs such as
    ``"1,-1"`` or ``"+, -"``, or a list of +1 and -1.  With no comma, a
    sign followed by a digit makes the whole string one signed number:
    ``"-1"`` is one sign and ``"+1-1"`` an error."""
    if isinstance(spec, str):
        if "," in spec:
            tokens = [t.strip() for t in spec.split(",")]
        elif any(a in "+-" and b.isdigit() for a, b in zip(spec, spec[1:])):
            tokens = [spec]
        else:
            tokens = list(spec)
        signs = [_SIGNS.get(t) for t in tokens]
    elif isinstance(spec, list):
        signs = [float(v) if matio.is_number(v) and v in (1, -1)
                 else None for v in spec]
    else:
        signs = [None]
    if not signs or None in signs:
        raise FormatError(f"bad signature pattern {spec!r}")
    return signs


def _resolve_space(job, args, A, structure_tol) -> ScalarProductSpace:
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
    kw = dict(star=star, field=field, structure_tol=structure_tol)

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
    elif os.path.exists(_job_path(job, name, "space")):
        kind, arg = "file", name
    else:
        raise FormatError(f"unknown space preset {name!r}")
    if kind == "signature":
        return ScalarProductSpace.signature(_parse_signature(arg), **kw)
    return ScalarProductSpace(_read_matrix(job, arg, "space"), **kw)


def _resolve_class(job, args) -> StructureClass:
    value = args.cls if args.cls is not None else job.get("class")
    if value is None:
        raise FormatError("no structure class given (job 'class' or --class)")
    return StructureClass.parse(value)


def _seed(args, raw):
    """--seed, else raw (the job's seed): a non-negative integer, or a
    FormatError naming it."""
    seed = args.seed if args.seed is not None else _number(raw, int, "seed")
    if seed < 0:
        raise FormatError(f"bad seed {seed}: expected a non-negative integer")
    return seed


def _resolve_z(job, args, space, cls):
    # the seed is read even for a Z that is not random, so a malformed one
    # is always refused
    seed = _seed(args, job.get("seed", 0))
    raw = args.z if args.z is not None else job.get("z", "zero")
    if isinstance(raw, dict):
        if "file" in raw:
            return _read_matrix(job, raw["file"], "z")
        raise FormatError(f"bad z spec {raw!r}")
    name = str(raw)
    if name == "zero":
        return None
    if name == "random":
        return sample_structured(space, cls, seed)
    if name.startswith("file:"):
        return _read_matrix(job, name[5:], "z")
    raise FormatError(f"bad z spec {name!r}")


def _load_lambda(job, raw, label):
    """A small finite matrix given either as a file path or a diagonal
    list."""
    if raw is None:
        raise FormatError(f"missing {label}")
    if isinstance(raw, str):
        return _read_matrix(job, raw, label)
    if isinstance(raw, list):
        return _finite(np.diag([matio.complex_from_pair(v) for v in raw]),
                       label)
    raise FormatError(f"bad {label}: expected a path or a list of values")


def _out_dir(job, args):
    out = args.out if args.out is not None else job.get("out")
    if out is None:
        return None
    out = _job_path(job, out, "out")
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
    job, tol, A, space, cls = _load_problem(args)
    n = A.shape[0]

    res = structure_residual(A, space, cls)
    member = is_member(A, space, cls)
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
          f"(residual {res:.6e}, tolerance {space.structure_tol:g})")
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
    if not isinstance(raw, list) or not raw:
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


def _fixed_pair(job, n):
    """The job's supplied fixed pair, an n x m fixed_basis and an m x m
    fixed_lambda of finite entries, or None when it names no fixed_basis."""
    if job.get("fixed_basis") is None:
        return None
    X_f = as_matrix(_job_matrix(job, "fixed_basis"), "X_f")
    L_f = as_matrix(_load_lambda(job, job.get("fixed_lambda"), "fixed_lambda"),
                    "Lambda_f")
    m = X_f.shape[1]
    if X_f.shape[0] != n:
        raise FormatError(f"fixed_basis must have {n} rows, got {X_f.shape}")
    if L_f.shape != (m, m):
        raise FormatError(f"fixed_lambda must be {m} x {m}, got {L_f.shape}")
    return X_f, L_f


def _fixed_residual(perturbed, X_f, L_f) -> float:
    """``|(A + delta) X_f - X_f L_f|`` of a fixed pair of ``_fixed_pair``."""
    return frob(_real_apply(perturbed, X_f) - X_f @ L_f)


def cmd_reassign(args) -> int:
    job, tol, A, space, cls = _load_problem(args)
    n = A.shape[0]
    currents, targets = _collect_targets(job)
    complete = job.get("complete_pairing")
    if not isinstance(complete, (bool, type(None))):
        raise FormatError(
            f"bad complete_pairing {complete!r}: expected true or false")

    if job.get("eigvecs") is not None:
        X = _job_matrix(job, "eigvecs")
        if X.shape != (n, len(currents)):
            raise FormatError(
                f"eigvecs must be {n} x {len(currents)}, got {X.shape}")
        vecs = [X[:, j] for j in range(X.shape[1])]
    else:
        vecs = _match_eigvecs(A, currents)

    Z = _resolve_z(job, args, space, cls)
    mode = job.get("mode")
    if mode is None:
        mode = "family" if Z is not None else "no-spillover"
    elif not isinstance(mode, str):
        raise FormatError(f"bad mode {mode!r}: expected a string")
    fixed = _fixed_pair(job, n)
    result = reassign_simple(
        A, list(zip(currents, vecs)), targets, space, cls, Z=Z, mode=mode,
        complete_pairing=args.complete_pairing or bool(complete), tol=tol)

    rep = result.report
    fixed_supplied = (None if fixed is None
                      else _fixed_residual(A + result.delta, *fixed))

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
    job, tol, A, space, cls = _load_problem(args)
    submode = args.submode or job.get("submode")
    if submode not in ("reproduce", "preserve", "complementary", "no-spillover"):
        raise FormatError(
            "invariant needs submode reproduce | preserve | complementary | "
            "no-spillover")

    X = _job_matrix(job, "basis")
    La = _load_lambda(job, job.get("lambda_target"), "lambda_target")
    Z = _resolve_z(job, args, space, cls)

    if submode == "reproduce":
        delta = reproduce_invariant(A, X, La, space, cls, Z=Z, tol=tol)
    elif submode == "preserve":
        Lc = _load_lambda(job, job.get("lambda_current"), "lambda_current")
        R = (np.eye(X.shape[1]) if job.get("r") is None
             else _job_matrix(job, "r"))
        delta = preserve_invariant(A, X, Lc, R, La, space, cls, Z=Z, tol=tol)
    elif submode == "complementary":
        Xf = _job_matrix(job, "fixed_basis")
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


def _recipe_plan(raw):
    """The PlanGroups of a recipe's plan, a list of ``{value, chains}``
    objects, or a FormatError naming the field at fault."""
    plan = raw.get("plan")
    if not isinstance(plan, list):
        raise FormatError(f"bad recipe plan {plan!r}: expected a list of "
                          "{value, chains} objects")
    groups = []
    for g in plan:
        if not (isinstance(g, dict) and isinstance(g.get("chains"), list)):
            raise FormatError(f"bad recipe plan entry {g!r}: expected "
                              "{value, chains} with a list of chains")
        try:
            value = matio.complex_from_pair(g.get("value"))
        except FormatError as e:
            raise FormatError(f"bad recipe plan value: {e}") from None
        groups.append(PlanGroup(value, tuple(
            _number(k, int, "chain length") for k in g["chains"])))
    return tuple(groups)


def cmd_gen(args) -> int:
    job = _load_job(args.job)
    raw = job.get("recipe")
    if not isinstance(raw, dict):
        raise FormatError("gen needs a 'recipe' object")
    plan = _recipe_plan(raw)
    recipe = InstanceRecipe(
        space_kind=raw.get("space", "random"),
        cls=raw.get("class", "jordan"),
        field=raw.get("field", "complex"),
        star=raw.get("star", "ct" if raw.get("field") != "real" else "t"),
        plan=plan,
        seed=_seed(args, raw.get("seed", 0)),
        eps1=_number(raw.get("eps1", 0), int, "eps1"),
    )

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

    def command(name, func, help, problem=True, seed=True):
        """A subcommand with the job and --out, the flags of a problem
        (space, class, star, field, tolerances) when it loads one, and
        --seed when it draws."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("job", help="JSON job file")
        if problem:
            p.add_argument("--space", help="identity | flip | skewj | "
                                           "signature:PATTERN | file:PATH")
            p.add_argument("--class", dest="cls", help="jordan | lie")
            p.add_argument("--star", help="t | ct")
            p.add_argument("--field", help="real | complex")
            p.add_argument("--tol-structure", type=float,
                           help="the space's structure tolerance in (0, 1), "
                           f"default {DEFAULT_STRUCTURE_TOL:g}")
            p.add_argument("--tol-residual", type=float,
                           help="residual and eigen-data tolerance in (0, 1), "
                           f"default {DEFAULT_RESIDUAL_TOL:g}")
            p.add_argument("--rank-tol", type=float,
                           help="relative singular-value cutoff in (0, 1), "
                           f"default {DEFAULT_RANK_TOL:g}")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory")
        return p

    command("inspect", cmd_inspect, "membership, pairing and Jordan type",
            seed=False)

    p = command("reassign", cmd_reassign, "replace selected eigenvalues")
    p.add_argument("--z", default=None,
                   help="zero | random | file:PATH (free family parameter)")
    p.add_argument("--complete-pairing", action="store_true", default=False,
                   help="insert missing conjugate partner targets")

    p = command("invariant", cmd_invariant, "invariant-subspace workflows")
    p.add_argument("--z", default=None)
    p.add_argument("--submode",
                   choices=["reproduce", "preserve", "complementary",
                            "no-spillover"])

    command("gen", cmd_gen, "generate a structured instance", problem=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse's usage error 2 is format trouble
        raise SystemExit(3 if e.code == 2 else e.code) from None
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
