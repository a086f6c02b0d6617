"""End-to-end command line tests driving the shipped job files."""

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import golden
import specpreserve
from specpreserve import matio
from specpreserve import ScalarProductSpace, ToleranceProfile
from specpreserve.cli import _match_eigvecs, _resolve_space, main


def _run(*argv):
    return main(list(argv))


def _copy_job(jobs_dir, name, tmp_path):
    src = os.path.join(jobs_dir, name)
    dst = tmp_path / name
    shutil.copytree(src, dst)
    return dst


SCIPY_SUBMODULES = ("scipy.linalg", "scipy.optimize")


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
    # wrappers
    assert _modules_loaded_by("import specpreserve.cli") == set()


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
        "tol=ToleranceProfile(1e-3, residual_tol=1e-3))")
    assert _modules_loaded_by(code) == set()


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
    assert _modules_loaded_by(code) == set()


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
                 {"signature": [1, -1]}, "file:H.json", {"file": "H.json"},
                 "H.json"]

    @pytest.mark.parametrize("spec", SPELLINGS, ids=json.dumps)
    def test_spelling_builds_the_preset_space(self, tmp_path, spec):
        matio.save_matrix(tmp_path / "H.json", np.diag([1.0, -1.0]))
        job = {"space": spec, "_dir": str(tmp_path)}
        args = argparse.Namespace(space=None, star=None, field=None)
        tol = ToleranceProfile()
        space = _resolve_space(job, args, np.eye(2), tol)
        kw = dict(star="t", field="real", structure_tol=tol.structure_tol)
        assert space == (ScalarProductSpace.identity(2, **kw)
                         if spec == "identity" else
                         ScalarProductSpace.signature([1, -1], **kw))
        if isinstance(spec, str):
            args.space, job["space"] = spec, None
            assert _resolve_space(job, args, np.eye(2), tol) == space

    @pytest.mark.parametrize("spec", [{"signature": "+x"}, {"signature": 3},
                                      {"bogus": 1}], ids=json.dumps)
    def test_bad_dict_spelling_exits_3(self, tmp_path, spec, capsys):
        matio.save_matrix(tmp_path / "A.json", np.eye(2))
        job = {"matrix": "A.json", "space": spec, "class": "jordan"}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("inspect", str(tmp_path / "job.json")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bad ") and "Traceback" not in err

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
        # a NaN basis has no SVD; the rank decision fails instead of numpy.
        # json writes NaN as a bare literal, which the matrix reader accepts
        X = [np.nan, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        (tmp_path / "X.json").write_text(json.dumps(
            {"rows": 4, "cols": 2, "field": "real", "data": X}))
        matio.save_matrix(tmp_path / "A.json", np.zeros((4, 4)))
        job = {"matrix": "A.json", "space": "flip", "class": "jordan",
               "star": "ct", "field": "complex", "basis": "X.json",
               "submode": "reproduce", "lambda_target": [[1.0, 0.0]] * 2}
        (tmp_path / "job.json").write_text(json.dumps(job))
        assert _run("invariant", str(tmp_path / "job.json")) == 2
        assert "[rank]" in capsys.readouterr().err


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
        from specpreserve import InstanceRecipe, PlanGroup, generate_instance
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
