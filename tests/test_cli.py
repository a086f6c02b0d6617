"""End-to-end command line tests driving the shipped job files."""

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import specpreserve
from specpreserve import ArgumentError, PlanGroup, ScalarProductSpace, matio
from specpreserve.cli import _match_eigvecs, _resolve_space, main


def _run(*argv):
    return main(list(argv))


JOBS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "jobs")


def _copy_job(jobs_dir, name, tmp_path):
    src = os.path.join(jobs_dir, name)
    dst = tmp_path / name
    shutil.copytree(src, dst)
    return dst


SCIPY_SUBMODULES = ("scipy.linalg", "scipy.optimize")


NON_FINITE = (np.nan, np.inf, -np.inf)


def _set_entry(path, k, value):
    """Set the real part of the k-th entry of a matrix file to value; json
    writes a NaN or infinity as a bare literal."""
    payload = json.loads(path.read_text())
    entry = payload["data"][k]
    payload["data"][k] = ([value, entry[1]] if isinstance(entry, list)
                          else value)
    path.write_text(json.dumps(payload))


def _modules_loaded_by(code, modules=SCIPY_SUBMODULES):
    """Which of modules (by default the scipy submodules) a fresh
    interpreter holds after running code."""
    src = os.path.dirname(os.path.dirname(specpreserve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys\n{code}\nprint(*[m for m in {tuple(modules)!r} "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_leaves_scipy_optimize_unloaded():
    # scipy loads its submodules on first use: importing the package, and
    # so every command's start-up, loads neither the Hungarian nor LAPACK
    # wrappers, nor the scipy package itself
    assert _modules_loaded_by("import specpreserve.cli",
                              ("scipy",) + SCIPY_SUBMODULES) == set()


def test_dense_h_family_solve_leaves_scipy_unloaded(jobs_dir):
    # H^-1 of a dense H is a product with numpy's inverse, not scipy's LU
    job = os.path.join(jobs_dir, "jordan5")
    code = (
        "import numpy as np\n"
        "from specpreserve import (ScalarProductSpace, ToleranceProfile, "
        "matio, sample_structured, solve_structured)\n"
        f"A, H = (matio.load_matrix(f'{job}/{{m}}.json') for m in 'AH')\n"
        "space = ScalarProductSpace(H, star='t', field='real', "
        "structure_tol=1e-3)\n"
        "X = np.random.default_rng(5).standard_normal((5, 2))\n"
        "solve_structured(X, A @ X, space, 'jordan', "
        "Z=sample_structured(space, 'jordan', 7), "
        "tol=ToleranceProfile(residual_tol=1e-3))")
    assert _modules_loaded_by(code) == set()


# each command takes only the flags it reads: gen reads its recipe, not a
# problem, and inspect draws nothing; a flag once accepted and ignored is
# now a usage error
DROPPED_FLAGS = [("gen", "--space", "skewj"), ("gen", "--class", "lie"),
                 ("gen", "--star", "t"), ("gen", "--field", "real"),
                 ("gen", "--tol-structure", "1e-3"),
                 ("gen", "--tol-residual", "1e-3"), ("gen", "--rank-tol", "1e-3"),
                 ("gen", "--z", "zero"), ("inspect", "--seed", "3"),
                 ("inspect", "--z", "random"), ("inspect", "--submode", "preserve"),
                 ("inspect", "--complete-pairing")]


@pytest.mark.parametrize("command,flag", [(c, f) for c, *f in DROPPED_FLAGS],
                         ids=[f"{c}{f[0]}" for c, *f in DROPPED_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag,
                                                           jobs_dir, capsys):
    job = os.path.join(jobs_dir, "gen6" if command == "gen" else "sym3",
                       "job.json")
    with pytest.raises(SystemExit) as e:
        _run(command, job, *flag)
    assert e.value.code == 3
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# every shipped command runs on numpy's LAPACK alone: no dense-H solve, no
# Schur form (Jordan extraction takes eigvals), the Gram solve of the
# no-spillover jobs through numpy and a pairing without ties
SHIPPED_COMMANDS = [("reassign", "lie4"), ("reassign", "jordan5"),
                    ("invariant", "sym3"), ("gen", "gen6"),
                    ("inspect", "lie4"), ("inspect", "jordan5"),
                    ("inspect", "sym3")]


@pytest.mark.parametrize("command,job", SHIPPED_COMMANDS,
                         ids=[f"{c}-{j}" for c, j in SHIPPED_COMMANDS])
def test_command_loads_only_the_scipy_it_runs(command, job, jobs_dir,
                                              tmp_path):
    argv = [command, os.path.join(jobs_dir, job, "job.json"),
            "--out", str(tmp_path)]
    code = f"from specpreserve.cli import main\nassert main({argv!r}) == 0"
    assert _modules_loaded_by(code, ("scipy",) + SCIPY_SUBMODULES) == set()


# a tied pairing (a repeated value, or a value with two nearest partners)
# runs scipy's compiled routine from its own extension module, which loads
# neither scipy submodule package
PAIRING_MODULES = SCIPY_SUBMODULES + ("scipy.optimize._lsap",)


def test_tied_spectrum_compare_leaves_scipy_unloaded():
    code = ("import numpy as np\n"
            "from specpreserve import spectrum_multiset_compare\n"
            "v = spectrum_multiset_compare(np.diag([1.0, 1.0, 2.0]), "
            "np.diag([2.0, 1.0, 1.0]))\n"
            "assert v.matched and v.max_distance == 0")
    assert _modules_loaded_by(code, PAIRING_MODULES) == {
        "scipy.optimize._lsap"}


def test_verifying_a_moved_double_value_leaves_scipy_unloaded():
    # the planned spectrum repeats the target and pairs the currents, a
    # double value, with the spectrum of A
    code = (
        "from specpreserve import (InstanceRecipe, PlanGroup, "
        "ReassignmentGroup, ReassignmentSpec, assemble, "
        "generate_instance, reassign_no_spillover, verify_reassignment)\n"
        "inst = generate_instance(InstanceRecipe('identity', 'jordan', "
        "'real', 't', (PlanGroup(1.0, (1, 1)), PlanGroup(2.0, (1,)), "
        "PlanGroup(-3.0, (1,))), seed=3))\n"
        "chains = tuple(p.chain for p in inst.pairs if abs(p.value - 1) "
        "< 1e-9)\n"
        "assert len(chains) == 2\n"
        "asm = assemble(inst.A, ReassignmentSpec(("
        "ReassignmentGroup(1.0, 5.0, chains),)), inst.space, inst.cls)\n"
        "delta = reassign_no_spillover(inst.A, asm, inst.space, inst.cls, "
        "verify=False).delta\n"
        "rep = verify_reassignment(inst.A, delta, asm, inst.space, "
        "inst.cls)\n"
        "assert rep.spectrum_verdict.matched")
    assert _modules_loaded_by(code, PAIRING_MODULES) == {
        "scipy.optimize._lsap"}


# the nonsingularity of ``[X_c X_f]`` is decided by numpy's solve, and a
# skew-form instance is moved onto skewj by numpy's ``eigh``: neither loads
# a scipy extension
EXTENSION_MODULES = SCIPY_SUBMODULES + ("scipy.linalg._flapack",
                                        "scipy.optimize._lsap")
SKEWJ_RECIPE = {"space": "skewj", "class": "lie", "field": "real",
                "star": "t", "seed": 3,
                "plan": [{"value": [0.5, 0.0], "chains": [1]},
                         {"value": [-0.5, 0.0], "chains": [1]}]}


def test_skewj_instance_loads_no_scipy_extension():
    code = ("from specpreserve import InstanceRecipe, PlanGroup, "
            "generate_instance\n"
            "generate_instance(InstanceRecipe('skewj', 'lie', 'real', 't', "
            "(PlanGroup(0.5, (1,)), PlanGroup(-0.5, (1,))), seed=3))")
    assert _modules_loaded_by(code, EXTENSION_MODULES) == set()


def test_gen_on_a_skewj_job_loads_no_scipy_extension(tmp_path):
    (tmp_path / "job.json").write_text(json.dumps(
        {"recipe": SKEWJ_RECIPE, "out": "out"}))
    argv = ["gen", str(tmp_path / "job.json")]
    code = f"from specpreserve.cli import main\nassert main({argv!r}) == 0"
    assert _modules_loaded_by(code, EXTENSION_MODULES) == set()
    assert (tmp_path / "out" / "A.json").exists()


def _complementary_job(tmp_path):
    """argv of ``invariant --submode complementary`` on a generated flip/ct
    Jordan instance: its first eigenpair moves, the other three stay."""
    plan = [{"value": [v, 0.0], "chains": [1]} for v in (1.0, -2.0, 0.5, 3.0)]
    (tmp_path / "gen_job.json").write_text(json.dumps({"recipe": {
        "space": "flip", "class": "jordan", "field": "complex", "star": "ct",
        "seed": 3, "plan": plan}, "out": "gen"}))
    assert _run("gen", str(tmp_path / "gen_job.json")) == 0
    truth = json.loads((tmp_path / "gen" / "ground_truth.json").read_text())
    chains = [matio.matrix_from_payload(p["chain"]) for p in truth["pairs"]]
    values = [matio.complex_from_pair(p["value"]) for p in truth["pairs"]]
    matio.save_matrix(tmp_path / "X.json", chains[0])
    matio.save_matrix(tmp_path / "Xf.json", np.hstack(chains[1:]))
    (tmp_path / "job.json").write_text(json.dumps({
        "matrix": "gen/A.json", "space": "gen/H.json", "class": "jordan",
        "star": "ct", "field": "complex", "basis": "X.json",
        "lambda_target": [[values[0].real + 1.0, 0.0]],
        "fixed_basis": "Xf.json",
        "fixed_lambda": [[v.real, 0.0] for v in values[1:]], "out": "inv"}))
    return ["invariant", str(tmp_path / "job.json"),
            "--submode", "complementary"]


def test_complementary_update_loads_no_scipy_extension(tmp_path):
    argv = _complementary_job(tmp_path)
    code = f"from specpreserve.cli import main\nassert main({argv!r}) == 0"
    assert _modules_loaded_by(code, EXTENSION_MODULES) == set()
    report = json.loads((tmp_path / "inv" / "report.json").read_text())
    assert report["submode"] == "complementary"


# the complementary update on the three arrangements (real Jordan on H = I,
# real Lie on skewj, complex Lie on a dense H) and on the command line maps
# no BLAS beyond numpy's: the OpenBLAS files a Linux process maps are those
# ``import numpy`` mapped
ONE_OPENBLAS = """\
import sys
import numpy as np

def openblas():
    if not sys.platform.startswith("linux"):
        return set()
    with open("/proc/self/maps") as maps:
        files = {line.split()[-1] for line in maps}
    return {f for f in files if "openblas" in f.rsplit("/", 1)[-1].lower()}

numpys = openblas()
sys.path.insert(0, TESTS)
import helpers
from specpreserve import StructureClass
from specpreserve.subspaces import preserve_complementary
from specpreserve.cli import main

for star, eps1, field, preset, cls in [
        ("T", 1, "real", "identity", StructureClass.JORDAN),
        ("T", -1, "real", "skewj", StructureClass.LIE),
        ("CT", 1, "complex", "random", StructureClass.LIE)]:
    rng = np.random.default_rng(64)
    space = helpers.make_space(64, star, eps1, field, preset, rng)
    A = helpers.random_member(space, cls, seed=64)
    X_c, X_f, L_f = helpers.closed_split(A, space, cls)
    La = helpers.compatible_restriction(X_c, space, cls, rng)
    preserve_complementary(A, X_c, La, X_f, L_f, space, cls)
assert main(ARGV) == 0
assert "scipy.linalg._flapack" not in sys.modules
assert openblas() == numpys, (openblas(), numpys)
"""


def test_complementary_update_maps_only_numpys_openblas(tmp_path):
    code = (f"TESTS = {os.path.dirname(__file__)!r}\n"
            f"ARGV = {_complementary_job(tmp_path)!r}\n{ONE_OPENBLAS}")
    assert _modules_loaded_by(code, SCIPY_SUBMODULES) == set()
    report = json.loads((tmp_path / "inv" / "report.json").read_text())
    assert report["submode"] == "complementary"


@pytest.mark.parametrize("currents,code", [([1.0], 0), ([1.0, 1.0], 2)],
                         ids=["one-copy", "both-copies"])
def test_reassign_on_a_double_eigenvalue_leaves_scipy_unloaded(
        currents, code, tmp_path):
    # A has the double eigenvalue 1, so its eigenvalues pair with the
    # currents through ties; listing both copies is refused after the
    # pairing, as simple reassignment takes distinct values only
    matio.save_matrix(tmp_path / "A.json", np.diag([1.0, 1.0, 2.0, 3.0]))
    job = {"command": "reassign", "matrix": "A.json", "space": "identity",
           "class": "jordan", "star": "t", "field": "real", "out": "out",
           "targets": [{"current": [c, 0], "target": [4.0 + i, 0]}
                       for i, c in enumerate(currents)]}
    (tmp_path / "job.json").write_text(json.dumps(job))
    argv = ["reassign", str(tmp_path / "job.json")]
    run = f"from specpreserve.cli import main\nassert main({argv!r}) == {code}"
    assert _modules_loaded_by(run) == set()


# numpy 2.4's ``np.unique`` imports ``numpy.ma`` (about 37 ms), so the
# pairing of an update without spillover tests distinctness by a set
@pytest.mark.parametrize("command,job", SHIPPED_COMMANDS,
                         ids=[f"{c}-{j}" for c, j in SHIPPED_COMMANDS])
def test_command_leaves_numpy_ma_unloaded(command, job, jobs_dir, tmp_path):
    argv = [command, os.path.join(jobs_dir, job, "job.json"),
            "--out", str(tmp_path)]
    code = f"from specpreserve.cli import main\nassert main({argv!r}) == 0"
    assert _modules_loaded_by(code, ["numpy.ma"]) == set()


def test_eigenvector_matching_is_optimal():
    # nearest-first would give 1 + 2d the eigenvalue 1 + 3d and leave
    # 1 + 4d at distance 4d from 1
    d = 2e-6
    A = np.diag([1.0, 1.0 + 3 * d, 5.0])
    vecs = _match_eigvecs(A, [1 + 2 * d, 1 + 4 * d])
    np.testing.assert_allclose(np.abs(np.column_stack(vecs)), np.eye(3)[:, :2])
    with pytest.raises(specpreserve.StructureError,
                       match=r"requested current value 2 is not an eigenvalue "
                             r"of A \(closest at distance 1\.000e\+00\)"):
        _match_eigvecs(A, [1 + 2 * d, 2.0])


class TestInspect:
    def test_symmetric_member(self, tmp_path, rng, capsys):
        B = rng.standard_normal((4, 4))
        A = (B + B.T) / 2
        matio.save_matrix(tmp_path / "A.json", A)
        job = {"matrix": "A.json", "space": "identity", "class": "jordan",
               "star": "t", "field": "real", "out": "out"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("inspect", str(tmp_path / "job.json")) == 0
        out = capsys.readouterr().out
        assert "member: True" in out
        report = json.loads((tmp_path / "out" / "inspect.json").read_text())
        assert report["member"] is True

    def test_printed_lie_example(self, jobs_dir, tmp_path, capsys):
        d = _copy_job(jobs_dir, "lie4", tmp_path)
        job = json.loads((d / "job.json").read_text())
        job["out"] = "inspect_out"
        (d / "inspect_job.json").write_text(json.dumps(job))
        assert _run("inspect", str(d / "inspect_job.json"),
                    "--tol-structure", "1e-3") == 0
        out = capsys.readouterr().out
        assert "member: True" in out
        report = json.loads((d / "inspect_out" / "inspect.json").read_text())
        assert report["member"] is True
        # all printed eigenvalues have their pairing partner present
        assert all(row["partner_present"] for row in report["pairing"])

    def test_printed_jordan_example(self, jobs_dir, tmp_path, capsys):
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        job = json.loads((d / "job.json").read_text())
        job["out"] = "inspect_out"
        (d / "inspect_job.json").write_text(json.dumps(job))
        assert _run("inspect", str(d / "inspect_job.json")) == 0
        assert "member: True" in capsys.readouterr().out
        report = json.loads((d / "inspect_out" / "inspect.json").read_text())
        assert report["member"] is True
        assert all(row["partner_present"] for row in report["pairing"])

    @pytest.mark.parametrize("preset, complex_A, real_A", [
        ("identity", [[1.0, 2 - 1j], [2 + 1j, 3.0]], [[1.0, 2.0], [2.0, 3.0]]),
        ("signature:++", [[1.0, 2 - 1j], [2 + 1j, 3.0]], [[1.0, 2.0], [2.0, 3.0]]),
        ("flip", [[1 + 2j, 2.0], [3.0, 1 - 2j]], [[1.0, 2.0], [3.0, 1.0]]),
    ])
    def test_unstated_field_follows_the_matrix(self, tmp_path, preset,
                                               complex_A, real_A, capsys):
        # with no field given, every preset alike gets a complex space for
        # complex data and a real one (star T) for real data
        for A, field in ((np.array(complex_A), "complex"),
                         (np.array(real_A), "real")):
            matio.save_matrix(tmp_path / "A.json", A)
            job = {"matrix": "A.json", "class": "jordan", "out": "out"}
            (tmp_path / "job.json").write_text(json.dumps(job))
            assert _run("inspect", str(tmp_path / "job.json"),
                        "--space", preset) == 0
            assert "member: True" in capsys.readouterr().out
            report = json.loads((tmp_path / "out" / "inspect.json").read_text())
            assert report["member"] is True and report["field"] == field

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_matrix_exits_2(self, jobs_dir, tmp_path, capsys,
                                       value):
        # the matrix reader takes a bare NaN or Infinity; the matrix is
        # refused by its job key as it is read
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        _set_entry(d / "A.json", 7, value)
        assert _run("inspect", str(d / "job.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: matrix has a NaN or infinite entry, "
                                "so no result\n")

    def test_non_member_reported_without_error(self, tmp_path, rng, capsys):
        A = rng.standard_normal((4, 4))
        matio.save_matrix(tmp_path / "A.json", A)
        job = {"matrix": "A.json", "space": "identity", "class": "jordan",
               "star": "t", "field": "real"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("inspect", str(tmp_path / "job.json")) == 0
        out = capsys.readouterr().out
        assert "member: False" in out


class TestSpaceSpellings:
    # the --space strings and a job's dict spellings go through one parser;
    # H.json holds diag(1, -1), so every spelling but identity is the
    # signature space of "+-"
    SPELLINGS = ["identity", "signature:+-", {"signature": "+-"},
                 "signature:1,-1", {"signature": "1,-1"},
                 {"signature": [1, -1]}, "file:H.json", {"file": "H.json"},
                 "H.json"]

    @pytest.mark.parametrize("spec", SPELLINGS, ids=json.dumps)
    def test_spelling_builds_the_preset_space(self, tmp_path, spec):
        matio.save_matrix(tmp_path / "H.json", np.diag([1.0, -1.0]))
        job = {"space": spec, "_dir": str(tmp_path)}
        args = argparse.Namespace(space=None, star=None, field=None)
        # the job's structure tolerance reaches the space
        space = _resolve_space(job, args, np.eye(2), 1e-3)
        kw = dict(star="t", field="real", structure_tol=1e-3)
        assert space == (ScalarProductSpace.identity(2, **kw)
                         if spec == "identity" else
                         ScalarProductSpace.signature([1, -1], **kw))
        if isinstance(spec, str):
            args.space, job["space"] = spec, None
            assert _resolve_space(job, args, np.eye(2), 1e-3) == space

    @pytest.mark.parametrize("spec, signs", [
        ("signature:-1", [-1]), ({"signature": "+1"}, [1]),
        ({"signature": "-1"}, [-1]), ("signature:-1,+1", [-1, 1]),
        ("signature:1-", [1, -1])], ids=json.dumps)
    def test_signed_number_is_one_sign(self, spec, signs):
        # a sign followed by a digit is one signed number, not two signs
        job = {"space": spec}
        args = argparse.Namespace(space=None, star=None, field=None)
        assert _resolve_space(job, args, np.eye(len(signs)), 1e-8) == (
            ScalarProductSpace.signature(signs, star="t", field="real"))

    @pytest.mark.parametrize("spec", [{"signature": "+x"}, {"signature": 3},
                                      {"signature": "1,x"},
                                      {"signature": [True, -1]},
                                      {"signature": "+1-1"},
                                      {"signature": ""}, {"signature": []},
                                      {"bogus": 1}],
                             ids=json.dumps)
    def test_bad_dict_spelling_exits_3(self, tmp_path, spec, capsys):
        matio.save_matrix(tmp_path / "A.json", np.eye(2))
        job = {"matrix": "A.json", "space": spec, "class": "jordan"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("inspect", str(tmp_path / "job.json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and "Traceback" not in err

    def test_comma_signs_on_the_command_line(self, tmp_path, capsys):
        # "1,-1" is the two signs +1, -1; a bad sign among them exits 3
        matio.save_matrix(tmp_path / "A.json", np.diag([2.0, 5.0]))
        job = {"matrix": "A.json", "class": "jordan"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        path = str(tmp_path / "job.json")
        assert _run("inspect", path, "--space", "signature:1,-1") == 0
        assert "member: True" in capsys.readouterr().out
        assert _run("inspect", path, "--space", "signature:1,x") == 3
        assert capsys.readouterr().err.startswith("error: bad ")

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_empty_signature_exits_3(self, jobs_dir, field, capsys):
        # once a numpy traceback (real) or "A must be 0 x 0" (complex)
        path = os.path.join(jobs_dir, "sym3", "job.json")
        assert _run("inspect", path, "--space", "signature:",
                    "--field", field) == 3
        assert capsys.readouterr().err == "error: bad signature pattern ''\n"

    def test_jordan_type_ignores_the_oracle_bound(self, tmp_path, monkeypatch,
                                                  capsys):
        # Jordan extraction is gated by its own size limit, so turning the
        # oracle's dense tier off leaves inspect's Jordan type in place
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", "0")
        matio.save_matrix(tmp_path / "A.json", np.array([[2.0, 1.0],
                                                         [0.0, 2.0]]))
        job = {"matrix": "A.json", "space": "identity", "class": "jordan"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("inspect", str(tmp_path / "job.json")) == 0
        assert "jordan type:\n  " in capsys.readouterr().out


class TestReassign:
    def test_printed_lie_job_reproduces_delta(self, jobs_dir, tmp_path):
        d = _copy_job(jobs_dir, "lie4", tmp_path)
        assert _run("reassign", str(d / "job.json")) == 0
        delta = matio.load_matrix(d / "out" / "delta.json")
        assert np.max(np.abs(delta - golden.LIE4_DELTA)) <= golden.PRINT_TOL
        report = json.loads((d / "out" / "report.json").read_text())
        assert report["reassigned_residual"] <= 1e-3
        assert report["structure_residual"] <= 1e-3

    def test_printed_jordan_job_with_fixed_check(self, jobs_dir, tmp_path):
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        assert _run("reassign", str(d / "job.json")) == 0
        delta = matio.load_matrix(d / "out" / "delta.json")
        assert not np.iscomplexobj(delta)
        assert np.max(np.abs(delta - golden.JORDAN5_DELTA)) <= golden.PRINT_TOL
        report = json.loads((d / "out" / "report.json").read_text())
        assert report["reassigned_residual"] <= 1e-3
        assert report["fixed_residual_supplied"] <= 1e-3
        assert report["spectrum"]["matched"] is True

    def test_no_change_gives_zero_delta(self, tmp_path, rng):
        B = rng.standard_normal((4, 4))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        matio.save_matrix(tmp_path / "A.json", A)
        job = {"matrix": "A.json", "space": "identity", "class": "jordan",
               "star": "t", "field": "real",
               "targets": [{"current": [w[0], 0.0], "target": [w[0], 0.0]}],
               "out": "out"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(tmp_path / "job.json")) == 0
        delta = matio.load_matrix(tmp_path / "out" / "delta.json")
        assert np.max(np.abs(delta)) <= 1e-9

    def test_missing_current_eigenvalue_exits_2(self, tmp_path, rng):
        B = rng.standard_normal((4, 4))
        A = (B + B.T) / 2
        matio.save_matrix(tmp_path / "A.json", A)
        job = {"matrix": "A.json", "space": "identity", "class": "jordan",
               "star": "t", "field": "real",
               "targets": [{"current": [123.0, 0.0], "target": [1.0, 0.0]}]}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(tmp_path / "job.json")) == 2

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_matrix_without_eigvecs_exits_2(self, jobs_dir,
                                                       tmp_path, capsys,
                                                       value):
        # refused as it is read, before eig(A) matches the eigenvectors
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        _set_entry(d / "A.json", 7, value)
        job = json.loads((d / "job.json").read_text())
        del job["eigvecs"]
        (d / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(d / "job.json")) == 2
        assert capsys.readouterr().err == (
            "error: matrix has a NaN or infinite entry, so no result\n")

    @pytest.mark.parametrize("key, payload, message", [
        ("fixed_basis", {"rows": 3, "cols": 2, "field": "real",
                         "data": [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]},
         "fixed_basis must have 5 rows, got (3, 2)"),
        ("fixed_lambda", [[-6.2804, 0.0]],
         "fixed_lambda must be 2 x 2, got (1, 1)"),
    ], ids=["fixed_basis", "fixed_lambda"])
    def test_fixed_pair_of_the_wrong_shape_exits_3(self, jobs_dir, tmp_path,
                                                   capsys, monkeypatch, key,
                                                   payload, message):
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        job = json.loads((d / "job.json").read_text())
        if key == "fixed_basis":
            (d / "Xf.json").write_text(json.dumps(payload))
        else:
            job[key] = payload
        (d / "job.json").write_text(json.dumps(job))
        # refused as it is read, before any reassignment runs
        solves = []
        monkeypatch.setattr(specpreserve.cli, "reassign_simple",
                            lambda *a, **kw: solves.append(a))
        assert _run("reassign", str(d / "job.json")) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert solves == []

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["fixed_basis", "fixed_lambda"])
    def test_a_non_finite_fixed_pair_exits_2(self, jobs_dir, tmp_path, capsys,
                                             monkeypatch, key, value):
        # once exit 0 with a NaN supplied fixed residual
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        if key == "fixed_basis":
            _set_entry(d / "Xf.json", 3, value)
        else:
            job = json.loads((d / "job.json").read_text())
            job[key][1][0] = value
            (d / "job.json").write_text(json.dumps(job))
        solves = []
        monkeypatch.setattr(specpreserve.cli, "reassign_simple",
                            lambda *a, **kw: solves.append(a))
        assert _run("reassign", str(d / "job.json")) == 2
        assert capsys.readouterr().err == (
            f"error: {key} has a NaN or infinite entry, so no result\n")
        assert solves == []

    def test_missing_job_file_exits_3(self):
        assert _run("reassign", "/nonexistent/job.json") == 3

    def test_malformed_job_exits_3(self, tmp_path):
        (tmp_path / "job.json").write_text("[1, 2]")
        assert _run("reassign", str(tmp_path / "job.json")) == 3


class TestInvariant:
    def test_printed_symmetric_no_spillover(self, jobs_dir, tmp_path):
        d = _copy_job(jobs_dir, "sym3", tmp_path)
        assert _run("invariant", str(d / "job.json")) == 0
        delta = matio.load_matrix(d / "out" / "delta.json")
        assert np.max(np.abs(delta.real - golden.SYM3_DELTA)) <= golden.PRINT_TOL
        report = json.loads((d / "out" / "report.json").read_text())
        assert report["invariance_residual"] <= 1e-3

    def test_reproduce_mode_on_generated_instance(self, tmp_path):
        gen_job = {"recipe": {
            "space": "flip", "class": "jordan", "field": "complex",
            "star": "ct", "seed": 3,
            "plan": [{"value": [1.0, 0.0], "chains": [1]},
                     {"value": [-2.0, 0.0], "chains": [1]},
                     {"value": [0.5, 0.0], "chains": [1]},
                     {"value": [3.0, 0.0], "chains": [1]}]},
            "out": "gen"}
        (tmp_path / "gen_job.json").write_text(json.dumps(gen_job))
        assert _run("gen", str(tmp_path / "gen_job.json")) == 0
        truth = json.loads((tmp_path / "gen" / "ground_truth.json").read_text())
        chain = matio.matrix_from_payload(truth["pairs"][0]["chain"])
        value = matio.complex_from_pair(truth["pairs"][0]["value"])
        matio.save_matrix(tmp_path / "X.json", chain)
        inv_job = {"matrix": "gen/A.json", "space": "gen/H.json",
                   "class": "jordan", "star": "ct", "field": "complex",
                   "basis": "X.json",
                   "lambda_target": [[value.real + 1.0, 0.0]],
                   "out": "inv"}
        (tmp_path / "inv_job.json").write_text(json.dumps(inv_job))
        assert _run("invariant", str(tmp_path / "inv_job.json"),
                    "--submode", "reproduce") == 0
        report = json.loads((tmp_path / "inv" / "report.json").read_text())
        assert report["invariance_residual"] <= 1e-9
        assert report["structure_residual"] <= 1e-9

    def test_incompatible_target_exits_2(self, tmp_path, capsys):
        gen_job = {"recipe": {
            "space": "flip", "class": "jordan", "field": "complex",
            "star": "ct", "seed": 4,
            "plan": [{"value": [1.0, 0.0], "chains": [1]},
                     {"value": [-2.0, 0.0], "chains": [1]}]},
            "out": "gen"}
        (tmp_path / "gen_job.json").write_text(json.dumps(gen_job))
        assert _run("gen", str(tmp_path / "gen_job.json")) == 0
        truth = json.loads((tmp_path / "gen" / "ground_truth.json").read_text())
        chain = matio.matrix_from_payload(truth["pairs"][0]["chain"])
        matio.save_matrix(tmp_path / "X.json", chain)
        # a self-paired eigenvector has a nonzero Gram, so the target must
        # stay on the real axis for the sesquilinear Jordan algebra; a
        # complex one violates the reachability condition
        inv_job = {"matrix": "gen/A.json", "space": "gen/H.json",
                   "class": "jordan", "star": "ct", "field": "complex",
                   "basis": "X.json", "submode": "reproduce",
                   "lambda_target": [[9.0, 3.0]]}
        (tmp_path / "inv_job.json").write_text(json.dumps(inv_job))
        assert _run("invariant", str(tmp_path / "inv_job.json")) == 2
        err = capsys.readouterr().err
        assert "lambda_compatibility" in err
        assert "condition_residual" in err

    def test_nan_basis_exits_2(self, tmp_path, capsys):
        # a NaN basis is refused by its job key as it is read, before a
        # product or an SVD takes it.  json writes NaN as a bare literal,
        # which the matrix reader accepts
        X = [np.nan, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        (tmp_path / "X.json").write_text(json.dumps(
            {"rows": 4, "cols": 2, "field": "real", "data": X}))
        matio.save_matrix(tmp_path / "A.json", np.zeros((4, 4)))
        job = {"matrix": "A.json", "space": "flip", "class": "jordan",
               "star": "ct", "field": "complex", "basis": "X.json",
               "submode": "reproduce", "lambda_target": [[1.0, 0.0]] * 2}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("invariant", str(tmp_path / "job.json")) == 2
        assert capsys.readouterr().err == (
            "error: basis has a NaN or infinite entry, so no result\n")


    def _generated(self, tmp_path):
        """A generated flip/ct Jordan instance with four simple eigenpairs:
        the job fields of its first pair (basis) and the other three
        (fixed pair)."""
        gen_job = {"recipe": {
            "space": "flip", "class": "jordan", "field": "complex",
            "star": "ct", "seed": 3,
            "plan": [{"value": [v, 0.0], "chains": [1]}
                     for v in (1.0, -2.0, 0.5, 3.0)]},
            "out": "gen"}
        (tmp_path / "gen_job.json").write_text(json.dumps(gen_job))
        assert _run("gen", str(tmp_path / "gen_job.json")) == 0
        truth = json.loads((tmp_path / "gen" / "ground_truth.json").read_text())
        chains = [matio.matrix_from_payload(p["chain"]) for p in truth["pairs"]]
        values = [matio.complex_from_pair(p["value"]) for p in truth["pairs"]]
        matio.save_matrix(tmp_path / "X.json", chains[0])
        matio.save_matrix(tmp_path / "Xf.json", np.hstack(chains[1:]))
        A = matio.load_matrix(tmp_path / "gen" / "A.json")
        return A, chains, values, {
            "matrix": "gen/A.json", "space": "gen/H.json", "class": "jordan",
            "star": "ct", "field": "complex", "basis": "X.json",
            "lambda_current": [[values[0].real, 0.0]],
            "lambda_target": [[values[0].real + 1.0, 0.0]], "out": "inv"}

    def test_preserve_mode_on_generated_instance(self, tmp_path):
        _, _, _, job = self._generated(tmp_path)
        matio.save_matrix(tmp_path / "R.json", np.array([[2.0]]))
        (tmp_path / "inv_job.json").write_text(json.dumps(dict(job,
                                                               r="R.json")))
        assert _run("invariant", str(tmp_path / "inv_job.json"),
                    "--submode", "preserve") == 0
        report = json.loads((tmp_path / "inv" / "report.json").read_text())
        assert report["submode"] == "preserve"
        assert report["invariance_residual"] <= 1e-9
        assert report["structure_residual"] <= 1e-9

    def test_complementary_mode_on_generated_instance(self, tmp_path):
        A, chains, values, job = self._generated(tmp_path)
        job = dict(job, fixed_basis="Xf.json",
                   fixed_lambda=[[v.real, 0.0] for v in values[1:]])
        (tmp_path / "inv_job.json").write_text(json.dumps(job))
        assert _run("invariant", str(tmp_path / "inv_job.json"),
                    "--submode", "complementary") == 0
        report = json.loads((tmp_path / "inv" / "report.json").read_text())
        assert report["submode"] == "complementary"
        assert report["invariance_residual"] <= 1e-9
        assert report["structure_residual"] <= 1e-9
        # the fixed pair is kept
        delta = matio.load_matrix(tmp_path / "inv" / "delta.json")
        X_f = np.hstack(chains[1:])
        np.testing.assert_allclose((A + delta) @ X_f,
                                   X_f @ np.diag(values[1:]), atol=1e-9)

    @pytest.mark.parametrize("change", [
        {"matrix": None}, {"basis": None}, {"seed": "abc"},
        {"tolerances": {"structure": "x"}}, {"tolerances": "x"},
        {"z": {"file": 3}}, {"out": 5}, {"lambda_target": [True, 1.3342]},
        {"seed": True}, {"seed": 1.9}, {"tolerances": {"residual": True}},
        {"targets": 5}, {"targets": True}, {"tolerances": False},
        {"tolerances": []}],
        ids=["no-matrix", "no-basis", "seed", "tolerance", "tolerances",
             "z-file", "out", "bool-value", "bool-seed", "fractional-seed",
             "bool-tolerance", "number-targets", "bool-targets",
             "false-tolerances", "list-tolerances"])
    def test_malformed_job_field_exits_3(self, jobs_dir, tmp_path, capsys,
                                         change):
        # reassign reads the targets, invariant every other field here
        name, command = (("lie4", "reassign") if "targets" in change
                         else ("sym3", "invariant"))
        d = _copy_job(jobs_dir, name, tmp_path)
        job = json.loads((d / "job.json").read_text())
        job.update(change)
        job = {k: v for k, v in job.items() if v is not None}
        (d / "job.json").write_text(json.dumps(job))
        assert _run(command, str(d / "job.json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


    # an optional file or mode key is absent or null, or it goes through its
    # check: a value that is not a string exits 3, and is never read as no
    # value
    @pytest.mark.parametrize("command,name,change,message", [
        ("reassign", "jordan5", {"eigvecs": False}, "'eigvecs', got False"),
        ("reassign", "jordan5", {"fixed_basis": 0}, "'fixed_basis', got 0"),
        ("reassign", "jordan5", {"mode": 0}, "bad mode 0"),
        ("invariant", "sym3", {"submode": "preserve", "r": 0}, "'r', got 0")],
        ids=["false-eigvecs", "zero-fixed-basis", "zero-mode", "zero-r"])
    def test_malformed_optional_key_exits_3(self, jobs_dir, tmp_path, capsys,
                                            command, name, change, message):
        d = _copy_job(jobs_dir, name, tmp_path)
        job = json.loads((d / "job.json").read_text())
        (d / "job.json").write_text(json.dumps(dict(job, **change)))
        assert _run(command, str(d / "job.json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_null_optional_keys_mean_none(self, jobs_dir, tmp_path, capsys):
        # eigenvectors from eig, the default mode and no supplied fixed pair
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        job = json.loads((d / "job.json").read_text())
        job.update(eigvecs=None, fixed_basis=None, mode=None)
        (d / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(d / "job.json")) == 0
        out = capsys.readouterr().out
        assert "[no-spillover]" in out
        assert "supplied fixed residual" not in out
        report = json.loads((d / "out" / "report.json").read_text())
        assert report["fixed_residual_supplied"] is None

    def test_fractional_matrix_extent_exits_3(self, jobs_dir, tmp_path,
                                               capsys):
        # "rows": 3.5 was truncated to 3 and the basis read as 3 x 2
        d = _copy_job(jobs_dir, "sym3", tmp_path)
        payload = json.loads((d / "Xc.json").read_text())
        payload["rows"] = 3.5
        (d / "Xc.json").write_text(json.dumps(payload))
        assert _run("invariant", str(d / "job.json")) == 3
        assert "must be integers" in capsys.readouterr().err


class TestGen:
    def test_shipped_demo_job(self, jobs_dir, tmp_path):
        d = _copy_job(jobs_dir, "gen6", tmp_path)
        assert _run("gen", str(d / "job.json")) == 0
        A = matio.load_matrix(d / "out" / "A.json")
        H = matio.load_matrix(d / "out" / "H.json")
        assert A.shape == (6, 6) and H.shape == (6, 6)
        truth = json.loads((d / "out" / "ground_truth.json").read_text())
        assert truth["membership_residual"] <= 1e-10
        assert all(p["residual"] <= 1e-10 for p in truth["pairs"])

    def test_star_spellings_build_the_same_member(self, tmp_path):
        A = {}
        for star in ("t", "T"):
            job = {"recipe": {
                "space": "flip", "class": "jordan", "field": "complex",
                "star": star, "seed": 1,
                "plan": [{"value": [1.0, 2.0], "chains": [1]},
                         {"value": [1.0, -2.0], "chains": [1]}]},
                "out": star}
            (tmp_path / f"{star}.json").write_text(json.dumps(job))
            assert _run("gen", str(tmp_path / f"{star}.json")) == 0
            truth = json.loads((tmp_path / star / "ground_truth.json").read_text())
            assert truth["membership_residual"] <= 1e-12
            A[star] = (tmp_path / star / "A.json").read_text()
        assert A["t"] == A["T"]

    def test_infeasible_plan_exits_2(self, tmp_path):
        job = {"recipe": {
            "space": "identity", "class": "jordan", "field": "real",
            "star": "t", "seed": 0,
            "plan": [{"value": [1.0, 2.0], "chains": [1]},
                     {"value": [1.0, -2.0], "chains": [1]}]},
            "out": "out"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("gen", str(tmp_path / "job.json")) == 2

    @pytest.mark.parametrize("change", [{"seed": 1.9}, {"seed": True},
                                        {"eps1": 0.5}],
                             ids=["fractional-seed", "bool-seed", "eps1"])
    def test_malformed_recipe_number_exits_3(self, jobs_dir, tmp_path,
                                             capsys, change):
        # int() would truncate 1.9 to 1 and read true as 1
        d = _copy_job(jobs_dir, "gen6", tmp_path)
        job = json.loads((d / "job.json").read_text())
        job["recipe"].update(change)
        (d / "job.json").write_text(json.dumps(job))
        assert _run("gen", str(d / "job.json")) == 3
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [1.9, True, "2"],
                             ids=["fractional", "bool", "string"])
    def test_malformed_chain_length_exits_3(self, jobs_dir, tmp_path, capsys,
                                            length):
        # int() would read each of these as a length
        d = _copy_job(jobs_dir, "gen6", tmp_path)
        job = json.loads((d / "job.json").read_text())
        job["recipe"]["plan"][2]["chains"] = [length]
        (d / "job.json").write_text(json.dumps(job))
        assert _run("gen", str(d / "job.json")) == 3
        err = capsys.readouterr().err
        assert "bad chain length" in err and "expected an integer" in err

    @pytest.mark.parametrize("length", [1.9, True, "2", 0, float("nan")])
    def test_plan_group_refuses_a_non_integral_length(self, length):
        with pytest.raises(ArgumentError, match="positive integers"):
            PlanGroup(1.0, (length,))

    @pytest.mark.parametrize("length", [2, np.int64(2), 2.0])
    def test_plan_group_reads_an_integral_length(self, length):
        chains = PlanGroup(1.0, (length,)).chains
        assert chains == (2,) and type(chains[0]) is int

    def test_seeded_repeatability_byte_identical(self, jobs_dir, tmp_path):
        d1 = _copy_job(jobs_dir, "gen6", tmp_path / "first")
        d2 = _copy_job(jobs_dir, "gen6", tmp_path / "second")
        assert _run("gen", str(d1 / "job.json")) == 0
        assert _run("gen", str(d2 / "job.json")) == 0
        for name in ("A.json", "H.json", "ground_truth.json"):
            b1 = (d1 / "out" / name).read_bytes()
            b2 = (d2 / "out" / name).read_bytes()
            assert b1 == b2, name

    def test_generated_instance_confirmed_by_inspect(self, jobs_dir, tmp_path,
                                                     capsys):
        d = _copy_job(jobs_dir, "gen6", tmp_path)
        assert _run("gen", str(d / "job.json")) == 0
        inspect_job = {"matrix": "out/A.json", "space": "file:out/H.json",
                       "class": "jordan", "star": "ct", "field": "complex"}
        (d / "inspect.json").write_text(json.dumps(inspect_job))
        assert _run("inspect", str(d / "inspect.json")) == 0
        assert "member: True" in capsys.readouterr().out


class TestFlags:
    def test_signature_pattern_flag(self, tmp_path, rng):
        signs = np.diag([1.0, 1.0, -1.0])
        K = rng.standard_normal((3, 3))
        A = np.linalg.solve(signs, (K + K.T) / 2)  # member for the signature
        matio.save_matrix(tmp_path / "A.json", A)
        job = {"matrix": "A.json", "class": "jordan", "star": "t",
               "field": "real",
               "targets": [{"current": [0.0, 0.0], "target": [0.0, 0.0]}]}
        # odd dimension guarantees at least one real eigenvalue; pick it
        w = np.linalg.eigvals(A)
        lam = w[int(np.argmin(np.abs(w.imag)))].real
        job["targets"] = [{"current": [lam, 0.0], "target": [lam - 2.0, 0.0]}]
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(tmp_path / "job.json"),
                    "--space", "signature:++-", "--out",
                    str(tmp_path / "out")) == 0
        delta = matio.load_matrix(tmp_path / "out" / "delta.json")
        from specpreserve import ScalarProductSpace, structure_residual
        space = ScalarProductSpace(signs, star="t", field="real")
        assert structure_residual(delta, space, "jordan") <= 1e-8 * max(
            1.0, np.linalg.norm(delta))

    def test_complete_pairing_flag(self, tmp_path, rng):
        # real Jordan member with a complex couple; ask to move only one
        # member of the couple and let the flag insert the conjugate
        from specpreserve import InstanceRecipe, generate_instance
        inst = generate_instance(InstanceRecipe(
            "signature", "jordan", "real", "T",
            (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
             PlanGroup(3.0, (1,))), seed=9))
        matio.save_matrix(tmp_path / "A.json", inst.A.real)
        matio.save_matrix(tmp_path / "H.json", inst.space.H.real)
        job = {"matrix": "A.json", "space": "file:H.json", "class": "jordan",
               "star": "t", "field": "real",
               "targets": [{"current": [1.0, 2.0], "target": [2.0, 1.0]}],
               "out": "out"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(tmp_path / "job.json")) == 2
        assert _run("reassign", str(tmp_path / "job.json"),
                    "--complete-pairing") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["spectrum"]["matched"] is True

    # only a JSON boolean, or no value, sets the job's key: a truthy string
    # or number is refused, not read as true
    @pytest.mark.parametrize("value,code", [
        ("no", 3), (1, 3), ("true", 3), (True, 0), (False, 2), (None, 2)],
        ids=["no-string", "one", "true-string", "true", "false", "null"])
    def test_complete_pairing_job_key(self, value, code, jobs_dir, tmp_path,
                                      capsys):
        # one member of jordan5's complex couple, found by its eigenvalue
        d = _copy_job(jobs_dir, "jordan5", tmp_path)
        job = json.loads((d / "job.json").read_text())
        for key in ("eigvecs", "fixed_basis", "fixed_lambda"):
            del job[key]
        job.update(targets=job["targets"][:1], complete_pairing=value)
        (d / "job.json").write_text(json.dumps(job))
        assert _run("reassign", str(d / "job.json")) == code
        err = capsys.readouterr().err
        assert ("complete_pairing" in err) == (code == 3)
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# malformed jobs
# ---------------------------------------------------------------------------

SHAPED_KEYS = ("eigvecs", "fixed_basis", "basis")
ODD_VALUES = (None, True, 7, -2.5, "x", [], [1, 2], {}, {"a": 1})


def _job_of(name):
    path = os.path.join(JOBS_DIR, name, "job.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _resized(payload, drop_row=None, drop_col=None, transpose=False):
    """A matrix payload without one row or column, or transposed."""
    rows, cols = payload["rows"], payload["cols"]
    grid = [payload["data"][i * cols:(i + 1) * cols] for i in range(rows)]
    if drop_row is not None:
        del grid[drop_row % rows]
    if drop_col is not None:
        grid = [r[:drop_col % cols] + r[drop_col % cols + 1:] for r in grid]
    if transpose:
        grid = [list(c) for c in zip(*grid)]
    return dict(payload, rows=len(grid), cols=len(grid[0]),
                data=[v for r in grid for v in r])


def _files_read(command, name):
    """The matrix files of a shipped job that command reads, each with the
    job key that names it: inspect reads the matrix and the space's H, the
    other commands every file the job names."""
    job = _job_of(name)
    keys = ("matrix", "space") if command == "inspect" else job
    return {job[k].partition(":")[2] or job[k]: k for k in keys
            if isinstance(job.get(k), str) and job[k].endswith(".json")}


def _run_caught(*argv):
    """The exit code, stderr and warnings of a command run in process."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = _run(*argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue(), [str(w.message) for w in caught
                                  if issubclass(w.category, RuntimeWarning)]


@st.composite
def _malformed_jobs(draw):
    """(command, job name, mutation): one matrix entry NaN or infinite, a
    matrix file short of a row, a basis file of the wrong shape, or a job
    or recipe field set to a value of any JSON type."""
    command, name = draw(st.sampled_from(SHIPPED_COMMANDS))
    job = _job_of(name)
    files = sorted({v.partition(":")[2] or v for v in job.values()
                    if isinstance(v, str) and v.endswith(".json")})
    shaped = [k for k in SHAPED_KEYS if k in job]
    kinds = (["field"] + ["entry", "row"] * bool(files)
             + ["shape"] * bool(shaped))
    kind = draw(st.sampled_from(kinds))
    if kind == "entry":
        return command, name, (kind, draw(st.sampled_from(files)),
                               draw(st.integers(0, 5)),
                               draw(st.sampled_from(NON_FINITE)))
    if kind == "row":
        return command, name, (kind, draw(st.sampled_from(files)),
                               draw(st.integers(0, 5)))
    if kind == "shape":
        return command, name, (kind, job[draw(st.sampled_from(shaped))],
                               draw(st.integers(0, 5)), draw(st.booleans()))
    fields = [k for k in job if k != "command"]
    fields += [f"recipe.{k}" for k in job.get("recipe", {})]
    return command, name, (kind, draw(st.sampled_from(fields)),
                           draw(st.sampled_from(ODD_VALUES)))


def _mutate(d, mutation):
    """Apply a mutation of ``_malformed_jobs`` to the job copied to d."""
    kind, target, *rest = mutation
    if kind == "entry":
        return _set_entry(d / target, *rest)
    path = d / ("job.json" if kind == "field" else target)
    payload = json.loads(path.read_text())
    if kind == "field":
        *outer, key = target.split(".")
        (payload[outer[0]] if outer else payload)[key] = rest[0]
    elif kind == "row":
        payload = _resized(payload, drop_row=rest[0])
    else:
        j, transpose = rest
        payload = _resized(payload, drop_col=None if transpose else j,
                           transpose=transpose)
    path.write_text(json.dumps(payload))


@given(case=_malformed_jobs())
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
def test_a_malformed_job_exits_with_a_documented_code(case, tmp_path_factory):
    # 0 success, 2 a violated precondition, 3 format trouble: never a
    # traceback
    command, name, mutation = case
    d = _copy_job(JOBS_DIR, name, tmp_path_factory.mktemp("job"))
    _mutate(d, mutation)
    code, err, warned = _run_caught(command, str(d / "job.json"))
    assert code in (0, 2, 3)
    # numpy prints nothing to stderr: every operand is refused before a
    # product could warn
    assert not warned, (mutation, warned)
    # a NaN or infinite entry in a file the command reads is refused by the
    # job key that names the file
    key = _files_read(command, name).get(mutation[1])
    if mutation[0] == "entry" and key:
        assert (code, err) == (2, f"error: {key} has a NaN or infinite "
                               "entry, so no result\n"), mutation
    # a refused gen job names the field at fault, never raw Python
    # exception text such as "'bool' object is not iterable"
    if command == "gen" and code:
        key = mutation[1].split(".")[-1]
        assert key in err, (mutation, err)


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, name, file, key", [
    ("reassign", "jordan5", "A.json", "matrix"),
    ("reassign", "lie4", "H.json", "space"),
    ("reassign", "jordan5", "Xc.json", "eigvecs"),
    ("invariant", "sym3", "Xc.json", "basis"),
], ids=["jordan5-A", "lie4-H", "jordan5-Xc", "sym3-Xc"])
def test_a_non_finite_operand_is_refused_before_numpy_warns(
        command, name, file, key, value, tmp_path):
    # once refused with exit 2 only after a product with it had printed a
    # RuntimeWarning
    d = _copy_job(JOBS_DIR, name, tmp_path)
    _set_entry(d / file, 0, value)
    code, err, warned = _run_caught(command, str(d / "job.json"))
    assert not warned
    assert (code, err) == (
        2, f"error: {key} has a NaN or infinite entry, so no result\n")


@pytest.mark.parametrize("recipe, message", [
    ({"plan": "x"},
     "bad recipe plan 'x': expected a list of {value, chains} objects"),
    ({"plan": True},
     "bad recipe plan True: expected a list of {value, chains} objects"),
    ({"plan": [1, 2]}, "bad recipe plan entry 1: expected {value, chains} "
     "with a list of chains"),
    ({"plan": [{"value": 1.0}]}, "bad recipe plan entry {'value': 1.0}: "
     "expected {value, chains} with a list of chains"),
    ({"plan": [{"value": 1.0, "chains": "x"}]},
     "bad recipe plan entry {'value': 1.0, 'chains': 'x'}: expected "
     "{value, chains} with a list of chains"),
    ({"plan": [{"chains": [1]}]}, "bad recipe plan value: expected a number "
     "or [re, im] pair, got None"),
    ({"plan": [{"value": 1.0, "chains": ["a"]}]},
     "bad chain length 'a': expected an integer"),
    ({"seed": -1}, "bad seed -1: expected a non-negative integer"),
], ids=["plan-string", "plan-bool", "entry-number", "no-chains",
        "chains-string", "no-value", "chain-length", "negative-seed"])
def test_a_malformed_recipe_is_refused_by_its_field(recipe, message, tmp_path,
                                                    capsys):
    job = _job_of("gen6")
    job["recipe"].update(recipe)
    (tmp_path / "job.json").write_text(json.dumps(job))
    assert _run("gen", str(tmp_path / "job.json")) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, job", [("gen", "gen6"),
                                          ("reassign", "lie4")])
def test_a_negative_seed_flag_exits_3(command, job, tmp_path, capsys):
    d = _copy_job(JOBS_DIR, job, tmp_path)
    assert _run(command, str(d / "job.json"), "--seed", "-2", "--out",
                str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == (
        "error: bad seed -2: expected a non-negative integer\n")
