"""Spectrum comparison, verification reports and instance generation."""

import concurrent.futures
import functools
import os
import subprocess
import sys
import types
from collections import OrderedDict

import numpy as np
import pytest
import scipy.optimize

import golden
import specpreserve.core
import specpreserve.diagnostics
from specpreserve import (
    ArgumentError,
    InfeasiblePlanError,
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    assemble_complex,
    assemble_real_jordan,
    assemble_real_lie,
    extract_jordan_pairs,
    generate_instance,
    is_member,
    reassign_family,
    reassign_no_spillover,
    spectrum_multiset_compare,
    structure_residual,
    verify_reassignment,
)
from specpreserve.cli import _fixed_residual
from specpreserve.core import frob
from specpreserve.diagnostics import (_assign_multisets, _compare_spectra,
                                      _planned_spectrum, _spillover_residual,
                                      oracle_dim_limit)


class TestSpectrumCompare:
    def test_equal_matrices_match_at_zero(self, rng):
        A = rng.standard_normal((5, 5))
        v = spectrum_multiset_compare(A, A, tol=1e-12)
        assert v.matched and v.max_distance <= 1e-12

    def test_tiny_perturbation_within_loose_tolerance(self, rng):
        A = rng.standard_normal((6, 6))
        E = 1e-12 * rng.standard_normal((6, 6))
        v = spectrum_multiset_compare(A, A + E, tol=1e-8)
        assert v.matched

    def test_conjugate_pair_swap_not_misreported(self):
        A = np.diag([1 + 1j, 1 - 1j])
        B = np.diag([1 - 1j, 1 + 1j])
        v = spectrum_multiset_compare(A, B, tol=1e-10)
        assert v.matched

    def test_printed_replacement_reports_both_sides(self):
        D = np.diag(golden.SYM3_CURRENT + [golden.SYM3_FIXED])
        E = np.diag(golden.SYM3_TARGET + [golden.SYM3_FIXED])
        v = spectrum_multiset_compare(D, E, tol=1e-3)
        assert not v.matched
        ua = sorted(x.real for x in v.unmatched_a)
        ub = sorted(x.real for x in v.unmatched_b)
        np.testing.assert_allclose(ua, sorted(golden.SYM3_CURRENT), atol=1e-9)
        np.testing.assert_allclose(ub, sorted(golden.SYM3_TARGET), atol=1e-9)
        matched_vals = [p[0] for p in v.pairs if p[2] <= v.threshold]
        assert any(abs(m - golden.SYM3_FIXED) < 1e-9 for m in matched_vals)

    def test_slack_counts_against_the_threshold(self):
        # threshold 1e-6 (scale 1), one pair at 0.9e-6
        ea, eb = np.array([1.0, 0.5]), np.array([0.5, 1.0 + 0.9e-6])
        exact = _compare_spectra(ea, eb, 1e-6)
        assert exact.matched and "slack" not in exact.summary()
        loose = _compare_spectra(ea, eb, 1e-6, slack=0.2e-6)
        assert not loose.matched and loose.summary()["slack"] == 0.2e-6
        assert loose.unmatched_a == (1.0,)

    def test_oracle_bound_respected(self, monkeypatch):
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", "4")
        assert oracle_dim_limit() == 4
        from specpreserve import ArgumentError
        with pytest.raises(ArgumentError):
            spectrum_multiset_compare(np.eye(5), np.eye(5))

    def test_oracle_bound_default(self, monkeypatch):
        monkeypatch.delenv("SPECPRESERVE_ORACLE_NMAX", raising=False)
        assert oracle_dim_limit() == 64
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", "")
        assert oracle_dim_limit() == 64

    @pytest.mark.parametrize("raw", ["lots", "6 4", "64.0"])
    def test_oracle_bound_malformed_raises(self, monkeypatch, raw):
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", raw)
        with pytest.raises(ArgumentError) as err:
            oracle_dim_limit()
        assert "SPECPRESERVE_ORACLE_NMAX" in str(err.value)
        assert repr(raw) in str(err.value)

    @pytest.mark.parametrize("raw", ["-3", "-1"])
    def test_oracle_bound_negative_raises(self, monkeypatch, raw):
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", raw)
        with pytest.raises(ArgumentError) as err:
            oracle_dim_limit()
        assert "SPECPRESERVE_ORACLE_NMAX" in str(err.value)
        assert repr(raw) in str(err.value)

    def test_oracle_bound_zero_turns_the_dense_tier_off(self, monkeypatch):
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", "0")
        assert oracle_dim_limit() == 0
        inst, asm, delta, _ = _annihilation_case("real-jordan", 64)
        rep = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls)
        assert rep.spectrum_verdict is None
        assert rep.spillover_residual <= 1e-14


def _hungarian_spy(monkeypatch):
    """Record the cost shape of every call to scipy's Hungarian solver."""
    calls = []
    orig = scipy.optimize.linear_sum_assignment

    def spy(cost):
        calls.append(cost.shape)
        return orig(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    return calls


def _random_values(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pairing_case(name, rng):
    """(ea, eb, route): route True when only the Hungarian can pair them,
    False when every value has its own nearest partner, None when the
    random draw decides."""
    d = 2e-6
    a9, b9 = _random_values(rng, 9), _random_values(rng, 9)
    return {
        "square": (a9[:7], b9[:7], None),
        "square-near-copies": (a9, rng.permutation(a9 + 1e-9 * b9), False),
        "fewer-rows": (a9[:4], b9, None),
        "fewer-rows-near-copies": (b9[[5, 0, 3]] + 1e-9, b9, False),
        "more-rows": (a9, b9[:4], True),
        "duplicates": (np.array([1.0, 1.0, 2 + 1j]),
                       np.array([2 + 1j, 1.0, 1.0]), True),
        "conjugates-equidistant-from-real": (
            np.array([2.0 + 0j]), np.array([1 + 1j, 1 - 1j]), True),
        "real-equidistant-from-conjugates": (
            np.array([1 + 1j, 1 - 1j]), np.array([2.0 + 0j, 7.0 + 0j]), True),
        # the optimal-pairing example, both ways round: nearest-first pairs
        # 1 + 2d with 1 + 3d and leaves 1 + 4d at 4d from 1
        "shared-nearest": (np.array([1 + 2 * d, 1 + 4 * d]),
                           np.array([1.0, 1 + 3 * d]), True),
        "shared-nearest-transposed": (np.array([1.0, 1 + 3 * d]),
                                      np.array([1 + 2 * d, 1 + 4 * d]), True),
    }[name]


class TestAssignMultisets:
    @pytest.mark.parametrize("name", [
        "square", "square-near-copies", "fewer-rows", "fewer-rows-near-copies",
        "more-rows", "duplicates", "conjugates-equidistant-from-real",
        "real-equidistant-from-conjugates", "shared-nearest",
        "shared-nearest-transposed"])
    def test_matches_the_hungarian_exactly(self, name, rng, monkeypatch):
        ea, eb, route = _pairing_case(name, rng)
        cost = np.abs(np.subtract.outer(ea, eb))
        want_rows, want_cols = scipy.optimize.linear_sum_assignment(cost)
        calls = _hungarian_spy(monkeypatch)
        rows, cols, dist = _assign_multisets(ea, eb)
        for got, want in ((rows, want_rows), (cols, want_cols),
                          (dist, cost[want_rows, want_cols])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        if route is not None:
            assert bool(calls) == route

    @pytest.mark.parametrize("ea,eb", [
        (np.array([1.0, np.nan]), np.array([1.0, 2.0])),
        # one column, so the infinite distance is its row's only minimum
        (np.array([np.inf]), np.array([1.0])),
    ], ids=["nan", "inf"])
    def test_non_finite_raises_as_the_hungarian_does(self, ea, eb):
        with pytest.raises(ValueError) as want:
            scipy.optimize.linear_sum_assignment(
                np.abs(np.subtract.outer(ea, eb)))
        with pytest.raises(ValueError) as got:
            _assign_multisets(ea, eb)
        assert str(got.value) == str(want.value)

    def test_well_separated_values_skip_the_hungarian(self, rng, monkeypatch):
        ea = _random_values(rng, 256)
        perm = rng.permutation(256)
        eb = (ea + 1e-10 * _random_values(rng, 256))[perm]
        calls = _hungarian_spy(monkeypatch)
        rows, cols, dist = _assign_multisets(ea, eb)
        assert calls == []
        np.testing.assert_array_equal(rows, np.arange(256))
        np.testing.assert_array_equal(cols, np.argsort(perm))
        assert np.max(dist) < 1e-9


class TestPlannedSpectrum:
    def test_optimal_matching_gives_no_spurious_note(self):
        # greedy pairs 1+2d with 1+3d first and leaves 1+4d at distance 4d
        # from 1; the optimal assignment pairs both within 2d
        d = 1e-3
        notes = []
        planned = _planned_spectrum(np.array([1.0, 1 + 3 * d]),
                                    np.array([1 + 2 * d, 1 + 4 * d]),
                                    np.array([5.0, 6.0]), 3 * d, 1.0, notes)
        assert notes == []
        np.testing.assert_array_equal(planned, [5.0, 6.0])

    def test_missing_current_is_noted(self):
        notes = []
        planned = _planned_spectrum(np.array([1.0, 2.0, 3.0]), np.array([2.5]),
                                    np.array([7.0]), 1e-6, 3.0, notes)
        assert len(notes) == 1 and "not found in the spectrum of A" in notes[0]
        assert sorted(planned.real) == [1.0, 3.0, 7.0]


class TestVerifyReassignment:
    def _asm(self, inst, mapping):
        groups = []
        for p in inst.pairs:
            key = complex(np.round(p.value, 6))
            if key in mapping:
                groups.append(ReassignmentGroup(p.value, mapping[key], (p.chain,)))
        return assemble_complex(inst.A, ReassignmentSpec(tuple(groups)),
                                inst.space, inst.cls)

    def test_zero_delta_all_clean(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,)),
                              PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,))),
                             seed=70)
        inst = generate_instance(rec)
        asm = self._asm(inst, {1.0: 1.0})
        rep = verify_reassignment(inst.A, np.zeros((4, 4)), asm, inst.space,
                                  inst.cls)
        assert rep.reassigned_residual <= 1e-12
        assert rep.structure_residual <= 1e-12
        assert rep.delta_rank == 0
        assert rep.spectrum_verdict.matched

    def test_printed_lie_report(self):
        from specpreserve import ToleranceProfile, reassign_simple
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        res = reassign_simple(
            golden.LIE4_A,
            list(zip(golden.LIE4_CURRENT,
                     [golden.LIE4_XC[:, j] for j in range(3)])),
            golden.LIE4_TARGET, space, "lie", Z=golden.LIE4_Z, mode="family",
            tol=ToleranceProfile(structure_tol=1e-3, residual_tol=1e-3))
        assert res.report.reassigned_residual <= 1e-3
        assert res.report.structure_residual <= 1e-3

    def test_supplied_fixed_pair(self):
        from specpreserve import ToleranceProfile, assemble_real_jordan
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        groups = tuple(
            ReassignmentGroup(c, t, (golden.JORDAN5_XC[:, [j]],))
            for j, (c, t) in enumerate(zip(golden.JORDAN5_CURRENT,
                                           golden.JORDAN5_TARGET)))
        asm = assemble_real_jordan(golden.JORDAN5_A, ReassignmentSpec(groups),
                                   space, tol=ToleranceProfile(residual_tol=1e-3))
        res = reassign_no_spillover(
            golden.JORDAN5_A, asm, space, "jordan", verify=False,
            tol=ToleranceProfile(structure_tol=1e-3, residual_tol=1e-3))
        rep = verify_reassignment(
            golden.JORDAN5_A, res.delta, asm, space, "jordan",
            tol=ToleranceProfile(residual_tol=1e-3))
        assert _fixed_residual(golden.JORDAN5_A + res.delta, golden.JORDAN5_XF,
                               golden.JORDAN5_LF) <= 1e-3
        assert rep.realness


def _real_field_case(arrangement):
    """A real instance, its no-spillover assembly and its real delta."""
    if arrangement == "real-jordan":
        plan = (1.0, -2.0, 3.0, 0.5, -1.5, 2.5)
        mapping = {1.0: 1.3, -2.0: -2.4}
        rec = InstanceRecipe("identity", "jordan", "real", "T",
                             tuple(PlanGroup(v, (1,)) for v in plan), seed=81)
        assemble = assemble_real_jordan
    else:
        plan = (1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j, 0.5, -0.5, 1.5j, -1.5j)
        mapping = {0.5: 0.8, -0.5: -0.8}
        rec = InstanceRecipe("skewj", "lie", "real", "T",
                             tuple(PlanGroup(v, (1,)) for v in plan), seed=82)
        assemble = assemble_real_lie
    inst = generate_instance(rec)
    groups = tuple(
        ReassignmentGroup(p.value, mapping[complex(np.round(p.value, 6))],
                          (p.chain,))
        for p in inst.pairs if complex(np.round(p.value, 6)) in mapping)
    asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
    delta = reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                  verify=False).delta
    return inst, asm, delta


@pytest.fixture
def empty_spectra(monkeypatch):
    """A memo of A's spectra that starts empty and is dropped afterwards."""
    monkeypatch.setattr(specpreserve.diagnostics, "_SPECTRA", OrderedDict())


@pytest.fixture
def cold_spectra(empty_spectra, monkeypatch):
    """A memo that keeps nothing, so every verification solves A: the
    LAPACK spies count the calls of a cold verification, whatever other
    tests verified the same A before."""
    monkeypatch.setattr(specpreserve.diagnostics, "_SPECTRA_SIZE", 0)


def _lapack_spy(monkeypatch, shapes=None):
    """Record (routine, dtype) of every dense eig/eigvals/eigvalsh/svd/
    solve/qr/inv call, and (routine, shape) into shapes when given."""
    seen = []
    for name in ("eig", "eigvals", "eigvalsh", "svd", "solve", "qr", "inv"):
        def spy(a, *args, _orig=getattr(np.linalg, name), _name=name, **kw):
            seen.append((_name, np.asarray(a).dtype))
            if shapes is not None:
                shapes.append((_name, np.shape(a)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen


@pytest.mark.usefixtures("cold_spectra")
class TestRealFieldOracle:
    @pytest.mark.parametrize("arrangement", ["real-jordan", "real-lie"])
    def test_real_arithmetic_matches_complex(self, monkeypatch, arrangement):
        inst, asm, delta = _real_field_case(arrangement)
        assert delta.dtype == np.float64
        real = verify_reassignment(inst.A.real, delta, asm, inst.space,
                                   inst.cls)
        # reference: the same data cast to complex, with the field decision
        # forced to complex so LAPACK runs its complex routines
        complex_field = types.SimpleNamespace(field="complex")
        as_matrix = specpreserve.core.as_matrix
        for module in (specpreserve.core, specpreserve.diagnostics):
            monkeypatch.setattr(module, "as_matrix", lambda A, name="matrix",
                                space=None: as_matrix(A, name, complex_field))
        seen = _lapack_spy(monkeypatch)
        cplx = verify_reassignment(inst.A.astype(complex),
                                   delta.astype(complex), asm, inst.space,
                                   inst.cls)
        assert {dt for _, dt in seen} == {np.dtype(complex)}

        assert real.spectrum_verdict.matched and cplx.spectrum_verdict.matched
        assert real.delta_rank == cplx.delta_rank == 2
        assert real.realness and cplx.realness
        assert real.notes == cplx.notes
        scale = max(1.0, frob(inst.A))
        for a, b in [(real.reassigned_residual, cplx.reassigned_residual),
                     (real.structure_residual, cplx.structure_residual),
                     (real.spillover_residual, cplx.spillover_residual),
                     (real.spectrum_verdict.max_distance,
                      cplx.spectrum_verdict.max_distance)]:
            assert abs(a - b) <= 1e-12 * scale

    @pytest.mark.parametrize("arrangement", ["real-jordan", "real-lie"])
    def test_lapack_sees_real_arrays_for_real_data(self, monkeypatch,
                                                   arrangement):
        # real Jordan on H = I is symmetric: the Hermitian tier
        expected = {"real-jordan": ["eigvalsh", "eigvalsh", "svd"],
                    "real-lie": ["eigvals", "eigvals", "svd"]}[arrangement]
        inst, asm, delta = _real_field_case(arrangement)
        seen = _lapack_spy(monkeypatch)
        # a complex dtype with zero imaginary part is still real data
        for A, d in [(inst.A.real, delta),
                     (inst.A.astype(complex), delta.astype(complex))]:
            seen.clear()
            rep = verify_reassignment(A, d, asm, inst.space, inst.cls)
            assert rep.spectrum_verdict.matched
            assert sorted(name for name, _ in seen) == expected
            assert {dt for _, dt in seen} == {np.dtype(np.float64)}

    def test_lapack_sees_complex_arrays_for_complex_data(self, monkeypatch):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,)),
                              PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,))),
                             seed=70)
        inst = generate_instance(rec)
        p = next(p for p in inst.pairs if abs(p.value - 1.0) < 1e-6)
        asm = assemble_complex(
            inst.A, ReassignmentSpec((ReassignmentGroup(p.value, 1.5,
                                                        (p.chain,)),)),
            inst.space, inst.cls)
        delta = reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                      verify=False).delta
        assert np.any(inst.A.imag) and np.any(delta.imag)
        seen = _lapack_spy(monkeypatch)
        rep = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls)
        assert rep.spectrum_verdict.matched
        assert sorted(name for name, _ in seen) == ["eigvals", "eigvals", "svd"]
        assert {dt for _, dt in seen} == {np.dtype(complex)}


@functools.lru_cache(maxsize=None)
def _symmetric_case(n, shift=0.0):
    """A real symmetric A on H = I with 4 of its eigenvalues moved: the
    assembly (targets off by ``shift``) and the no-spillover delta for the
    unshifted targets."""
    rng = np.random.default_rng(n)
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.linspace(-10.0, 10.0, n)
    A = (V * w) @ V.T
    A = (A + A.T) / 2
    space = ScalarProductSpace.identity(n, star="t", field="real")
    moved = (3, n // 3, n // 2, n - 5)
    step = 10.0 / n

    def assembly(off):
        return assemble_real_jordan(A, ReassignmentSpec(tuple(
            ReassignmentGroup(w[i], w[i] + step + off, (V[:, [i]],))
            for i in moved)), space, "jordan")

    delta = reassign_no_spillover(A, assembly(0.0), space, "jordan",
                                  verify=False).delta
    return A, space, assembly(shift), delta


def _has_note(rep, text):
    return any(text in note for note in rep.notes)


@pytest.mark.usefixtures("cold_spectra")
class TestSketchedBundle:
    """delta_rank and the structure residual from a seeded sketch of delta,
    and the Hermitian tier of the dense eigenvalue check."""

    N = 64

    def test_clean_delta_is_sketched_and_agrees_with_the_full_factorizations(
            self, monkeypatch):
        A, space, asm, delta = _symmetric_case(self.N)
        rep = verify_reassignment(A, delta, asm, space, "jordan")
        assert _has_note(rep, "18-column sketch of delta (sketch_residual")
        assert rep.delta_rank == specpreserve.core.numerical_rank(delta) == 4
        assert abs(rep.structure_residual - structure_residual(
            delta, space, "jordan")) <= 1e-12 * frob(delta)
        # the Hermitian tier and the general one agree on the verdict
        assert _has_note(rep, "eigenvalues of A + delta from its Hermitian")
        monkeypatch.setattr(specpreserve.diagnostics, "_eigenvalues",
                            lambda M, tol, notes, name, memo=False:
                            (np.linalg.eigvals(M), 0.0))
        general = verify_reassignment(A, delta, asm, space, "jordan")
        assert rep.spectrum_verdict.matched and general.spectrum_verdict.matched
        assert rep.spectrum_verdict.slack > 0
        assert general.spectrum_verdict.slack == 0

    def test_verified_run_takes_no_square_factorization(self, monkeypatch):
        n = 256
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", str(n))
        A, space, asm, delta = _symmetric_case(n)
        shapes = []
        _lapack_spy(monkeypatch, shapes)
        rep = verify_reassignment(A, delta, asm, space, "jordan")
        assert rep.spectrum_verdict.matched and rep.delta_rank == 4
        assert rep.spillover_residual <= 1e-14
        # eigvalsh of both Hermitian parts, the sketch's two thin QRs and
        # the SVD of the 18 x n sketch factor B
        assert sorted(shapes) == [("eigvalsh", (n, n)), ("eigvalsh", (n, n)),
                                  ("qr", (n, 18)), ("qr", (n, 36)),
                                  ("svd", (18, n))]

    def test_rank_one_term_raises_the_rank(self):
        A, space, asm, delta = _symmetric_case(self.N)
        u, v = np.random.default_rng(5).standard_normal((2, self.N))
        term = 1e-6 * frob(delta) * np.outer(u, v) / (frob(u) * frob(v))
        rep = verify_reassignment(A, delta + term, asm, space, "jordan")
        assert _has_note(rep, "sketch of delta (sketch_residual")
        assert rep.delta_rank == 5

    def test_rank_beyond_the_sketch_takes_the_full_svd(self, monkeypatch):
        A, space, asm, delta = _symmetric_case(self.N)
        k = 2 * asm.X_c.shape[1] + 10
        rng = np.random.default_rng(6)
        wide = rng.standard_normal((self.N, k + 1)) @ rng.standard_normal(
            (k + 1, self.N))
        shapes = []
        _lapack_spy(monkeypatch, shapes)
        rep = verify_reassignment(A, wide, asm, space, "jordan")
        assert _has_note(rep, f"a {k}-column sketch is refused: delta Omega "
                         f"has full column rank (sketch_full_rank")
        assert rep.delta_rank == k + 1
        assert ("svd", (self.N, self.N)) in shapes
        # refused before B = Q* delta: the one thin QR is that of delta Omega
        assert [s for s in shapes if s[0] == "qr"] == [("qr", (self.N, k))]
        assert abs(rep.structure_residual - structure_residual(
            wide, space, "jordan")) <= 1e-12 * frob(wide)

    def test_noise_under_the_rank_cutoff_is_rejected_by_the_residual(self):
        A, space, asm, delta = _symmetric_case(self.N)
        k = 2 * asm.X_c.shape[1] + 10
        # full rank, but 1e-12 of delta: under the rank cutoff, over the fit
        noise = np.random.default_rng(9).standard_normal((self.N, self.N))
        noise *= 1e-12 * frob(delta) / frob(noise)
        rep = verify_reassignment(A, delta + noise, asm, space, "jordan")
        assert _has_note(rep, f"a {k}-column sketch does not capture delta "
                         f"(sketch_residual")
        assert not _has_note(rep, "sketch_full_rank")
        assert rep.delta_rank == 4

    def test_family_member_with_a_parameter_skips_the_sketch(self,
                                                             monkeypatch):
        inst, asm, _, _ = _annihilation_case("complex-lie", self.N)
        Z = specpreserve.core.sample_structured(inst.space, inst.cls, seed=4)
        delta = reassign_family(inst.A, asm, inst.space, inst.cls, Z=Z,
                                verify=False).delta
        k = 2 * asm.X_c.shape[1] + 10
        rank = specpreserve.core.numerical_rank(delta)
        assert rank > k
        shapes = []
        _lapack_spy(monkeypatch, shapes)
        rep = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls,
                                  check_spillover=False)
        assert _has_note(rep, "(sketch_full_rank")
        assert rep.delta_rank == rank
        assert [s for s in shapes if s[0] == "qr"] == [("qr", (self.N, k))]
        assert ("svd", (self.N, self.N)) in shapes

    def test_structure_defect_lifts_the_residual(self):
        A, space, asm, delta = _symmetric_case(self.N)
        u, v = np.random.default_rng(7).standard_normal((2, self.N))
        # antisymmetric: the opposite class on H = I, residual 2 |defect|
        M = np.outer(u, v)
        defect = M - M.T
        defect *= 1e-8 * frob(delta) / frob(defect)
        rep = verify_reassignment(A, delta + defect, asm, space, "jordan")
        assert _has_note(rep, "sketch of delta (sketch_residual")
        assert rep.structure_residual >= 1e-8 * frob(delta)

    @pytest.mark.parametrize("times,tier", [(0.5, "eigvalsh"),
                                            (2.0, "eigvals")])
    def test_anti_hermitian_part_near_the_gate(self, monkeypatch, times, tier):
        A, space, asm, delta = _symmetric_case(self.N)
        n = self.N
        # an antisymmetric K with slack 2 n |K|_F at `times` the gate of A
        # (a hundredth of the default eig_tol 1e-6 times |A|_F / sqrt(n))
        gate = 1e-2 * 1e-6 * frob(A) / np.sqrt(n)
        u, v = np.random.default_rng(8).standard_normal((2, n))
        K = np.outer(u, v) - np.outer(v, u)
        K *= times * gate / (2 * n * frob(K))
        seen = _lapack_spy(monkeypatch)
        rep = verify_reassignment(A + K, delta, asm, space, "jordan")
        assert sorted(name for name, _ in seen if name.startswith("eig")) == [
            tier, tier]
        assert rep.spectrum_verdict.matched
        if tier == "eigvals":
            assert _has_note(rep, "A is Hermitian only to slack")
            assert rep.spectrum_verdict.slack == 0.0
        else:
            assert _has_note(rep, "eigenvalues of A from its Hermitian part")

    def test_wrong_target_flips_the_verdict_on_the_hermitian_tier(self):
        A, space, asm, delta = _symmetric_case(self.N)
        scale = max(1.0, np.max(np.abs(np.linalg.eigvalsh(A))))
        _, _, wrong, _ = _symmetric_case(self.N, 1e-4 * scale)
        right = verify_reassignment(A, delta, asm, space, "jordan")
        off = verify_reassignment(A, delta, wrong, space, "jordan")
        for rep in (right, off):
            assert _has_note(rep, "eigenvalues of A + delta from its Hermitian")
        assert right.spectrum_verdict.matched
        assert not off.spectrum_verdict.matched


@pytest.mark.usefixtures("cold_spectra")
class TestNonFiniteDelta:
    """A delta with a NaN entry fails every check and is never factored."""

    @pytest.mark.parametrize("where", ["one-entry", "all-entries"])
    @pytest.mark.parametrize("n", [40, 128])
    def test_report_fails_without_factoring_delta(self, monkeypatch, n,
                                                  where):
        A, space, asm, delta = _symmetric_case(n)
        bad = delta.copy()
        if where == "one-entry":
            bad[1, 2] = np.nan
        else:
            bad[:] = np.nan
        factored = []
        for name in ("eig", "eigvals", "eigvalsh", "svd", "solve", "qr",
                     "inv", "cond", "pinv", "lstsq"):
            def spy(a, *args, _orig=getattr(np.linalg, name), _name=name,
                    **kw):
                if not np.isfinite(a).all():
                    factored.append(_name)
                return _orig(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, spy)
        rep = verify_reassignment(A, bad, asm, space, "jordan")
        assert factored == []
        assert np.isnan(rep.reassigned_residual)
        assert np.isnan(rep.structure_residual)
        assert np.isnan(rep.spillover_residual)
        assert rep.delta_rank == n
        assert rep.spectrum_verdict is None
        assert _has_note(rep, "rank and structure not computed")
        assert _has_note(rep, "non-finite entries; spectrum not compared")
        # the clean delta of the same case still gets its verdict at n <= 64
        clean = verify_reassignment(A, delta, asm, space, "jordan")
        assert clean.delta_rank == 4
        assert (clean.spectrum_verdict is not None) == (n <= oracle_dim_limit())


class TestNonFiniteA:
    """An A with a NaN or infinite entry fails the checks that multiply it,
    and is neither solved nor memoized."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [40, 128])
    def test_report_fails_without_solving_a(self, monkeypatch, n, value):
        A, space, asm, delta = _symmetric_case(n)
        clean = verify_reassignment(A, delta, asm, space, "jordan")
        bad = A.copy()
        bad[3, 4] = value
        factored = []
        for name in ("eig", "eigvals", "eigvalsh", "svd", "solve", "qr",
                     "inv", "cond", "pinv", "lstsq"):
            def spy(a, *args, _orig=getattr(np.linalg, name), _name=name,
                    **kw):
                if not np.isfinite(a).all():
                    factored.append(_name)
                return _orig(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, spy)
        memo = list(specpreserve.diagnostics._SPECTRA)
        # inf - inf and inf / inf in the products are NaN, as they should be
        with np.errstate(invalid="ignore"):
            rep = verify_reassignment(bad, delta, asm, space, "jordan")
        assert factored == []
        assert list(specpreserve.diagnostics._SPECTRA) == memo
        assert not np.isfinite(rep.reassigned_residual)
        assert np.isnan(rep.spillover_residual)
        # delta itself is finite: its rank and structure are as before
        assert rep.delta_rank == clean.delta_rank == 4
        assert rep.structure_residual == clean.structure_residual
        assert rep.spectrum_verdict is None
        assert _has_note(rep, "A has non-finite entries; spectrum not "
                              "compared")
        assert (clean.spectrum_verdict is not None) == (n <= oracle_dim_limit())


# recipe (space kind, class, field, star), assembly and pairing orbit of a
# seed value for each arrangement; real Jordan on the flip form, which
# admits Jordan chains
ARRANGED = {
    "real-jordan": (("flip", "jordan", "real", "T"), assemble_real_jordan,
                    lambda l: [l, l.conjugate()]),
    "real-lie": (("skewj", "lie", "real", "T"), assemble_real_lie,
                 lambda l: [l, l.conjugate(), -l, -l.conjugate()]),
    "complex-lie": (("random", "lie", "complex", "CT"), assemble_complex,
                    lambda l: [l, -l.conjugate()]),
}
ANGLES = (0.7, 0.0, np.pi / 2)   # general, real and imaginary seeds


@functools.lru_cache(maxsize=None)
def _annihilation_case(arrangement, n, chain=False):
    """A generated n x n instance, its no-spillover delta and the pieces to
    spill it: the moved family is a general orbit (a conjugate pair on the
    real arrangements, so q has complex factors) plus a real orbit, or
    with chain set one orbit of length-2 chains.  Orbits get distinct
    radii; each target sits half a radius step further out.  Also returns a
    fixed eigenvector, real on the real arrangements."""
    recipe_args, assemble, orbit = ARRANGED[arrangement]
    step = 9.5 / n
    plan, moved, used, k = [], {}, 0, 0
    while used < n:
        angle = ANGLES[k % (2 if arrangement == "complex-lie" else 3)]
        l = (0.5 + k * step) * np.exp(1j * angle)
        members = list(dict.fromkeys(complex(np.round(m, 14)) for m in orbit(l)))
        if used + len(members) > n:
            k += 1
            continue
        length = 2 if chain and k == 0 else 1
        plan += [PlanGroup(m, (length,)) for m in members]
        if k < (1 if chain else 2):
            moved.update((m, m * (1 + step / 2 / abs(m))) for m in members)
        used += len(members) * length
        k += 1
    inst = generate_instance(InstanceRecipe(*recipe_args, plan, seed=n))
    groups = tuple(ReassignmentGroup(p.value, t, (p.chain,))
                   for p in inst.pairs for m, t in moved.items()
                   if abs(p.value - m) < 1e-9)
    asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
    delta = reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                  verify=False).delta
    x = next(p.chain[:, 0] for p in inst.pairs
             if p.value.imag == 0 and min(abs(p.value - m) for m in moved) > 1e-9)
    return inst, asm, delta, x


class TestSpilloverResidual:
    """The no-spillover claim checked by complement annihilation."""

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("arrangement", list(ARRANGED))
    def test_clean_delta_passes_and_a_spill_shows(self, monkeypatch,
                                                  arrangement, n):
        monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", "0")
        inst, asm, delta, x = _annihilation_case(arrangement, n)
        assert delta.dtype == inst.A.dtype
        clean = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls)
        assert clean.spillover_residual <= 1e-14
        # a rank-one spill of 1e-8 ||A|| onto one fixed eigenvector
        u = np.random.default_rng(3).standard_normal(n)
        spill = (1e-8 * frob(inst.A) / np.linalg.norm(u)
                 / np.linalg.norm(x) ** 2) * np.outer(u, x.conj())
        spilled = verify_reassignment(inst.A, delta + spill, asm, inst.space,
                                      inst.cls)
        assert spilled.spillover_residual >= 1e-10

    @pytest.mark.parametrize("arrangement", list(ARRANGED))
    def test_chain_values_count_with_multiplicity(self, arrangement):
        inst, asm, delta, _ = _annihilation_case(arrangement, 64, chain=True)
        currents = asm.current_values
        once = np.array(list(dict.fromkeys(currents.tolist())))
        assert len(currents) == 2 * len(once)
        assert _spillover_residual(inst.A, delta, currents) <= 1e-14
        assert _spillover_residual(inst.A, delta, once) >= 1e-6

    def test_report_above_the_dense_bound(self, monkeypatch):
        monkeypatch.delenv("SPECPRESERVE_ORACLE_NMAX", raising=False)
        inst, asm, delta, _ = _annihilation_case("real-lie", 96)
        rep = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls)
        assert rep.spectrum_verdict is None
        assert rep.spillover_residual <= 1e-14
        assert rep.summary()["spillover_residual"] == rep.spillover_residual
        assert any("spectrum not compared" in note for note in rep.notes)
        assert any("complement annihilation" in note for note in rep.notes)

    def test_family_member_carries_no_spillover_residual(self):
        inst, asm, delta, _ = _annihilation_case("real-jordan", 64)
        rep = verify_reassignment(inst.A, delta, asm, inst.space, inst.cls,
                                  check_spillover=False)
        assert rep.spillover_residual is None
        assert "spillover_residual" not in rep.summary()

    def test_supplied_fixed_pair_residual_is_unchanged(self):
        from specpreserve import ToleranceProfile
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        groups = tuple(
            ReassignmentGroup(c, t, (golden.JORDAN5_XC[:, [j]],))
            for j, (c, t) in enumerate(zip(golden.JORDAN5_CURRENT,
                                           golden.JORDAN5_TARGET)))
        asm = assemble_real_jordan(golden.JORDAN5_A, ReassignmentSpec(groups),
                                   space, tol=ToleranceProfile(residual_tol=1e-3))
        delta = reassign_no_spillover(
            golden.JORDAN5_A, asm, space, "jordan", verify=False,
            tol=ToleranceProfile(structure_tol=1e-3, residual_tol=1e-3)).delta
        # a direct product, pinned to the value it has always had
        assert _fixed_residual(golden.JORDAN5_A + delta, golden.JORDAN5_XF,
                               golden.JORDAN5_LF) == pytest.approx(
            8.265217698032717e-05, rel=1e-12)

    def test_complex_fixed_pair_on_real_data_matches_complex_product(self):
        inst, asm, delta, _ = _annihilation_case("real-lie", 64)
        moved = asm.current_values
        rest = [p for p in inst.pairs
                if min(abs(p.value - m) for m in moved) > 1e-9][:6]
        X_f = np.hstack([p.chain for p in rest])
        L_f = np.diag([p.value for p in rest])
        assert np.iscomplexobj(X_f) and not np.iscomplexobj(inst.A)
        res = _fixed_residual(inst.A + delta, X_f, L_f)
        ref = np.linalg.norm((inst.A + delta).astype(complex) @ X_f - X_f @ L_f)
        assert abs(res - ref) <= 1e-12 * max(1.0, frob(inst.A))


def _eig_spy(monkeypatch):
    """Record a copy of every matrix handed to eigvals or eigvalsh."""
    seen = []
    for name in ("eigvals", "eigvalsh"):
        def spy(a, _orig=getattr(np.linalg, name), _name=name):
            seen.append((_name, np.array(a)))
            return _orig(a)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def _same_report(a, b):
    return (a.summary() == b.summary() and a.notes == b.notes
            and a.spectrum_verdict.pairs == b.spectrum_verdict.pairs
            and np.array_equal(a.delta, b.delta))


@pytest.mark.usefixtures("empty_spectra")
class TestSpectrumMemo:
    """sigma(A) is solved once per distinct A; sigma(A + delta) every call."""

    def _verify(self, case, A=None):
        inst, asm, delta, _ = case
        return verify_reassignment(inst.A if A is None else A, delta, asm,
                                   inst.space, inst.cls)

    def _cold(self, case, A=None):
        """The report of a verification that keeps nothing in the memo."""
        with pytest.MonkeyPatch.context() as m:
            m.setattr(specpreserve.diagnostics, "_SPECTRA_SIZE", 0)
            return self._verify(case, A)

    @pytest.mark.parametrize("arrangement", list(ARRANGED))
    def test_warm_report_equals_the_cold_one(self, arrangement):
        case = _annihilation_case(arrangement, 64)
        cold = self._cold(case)
        first, warm = self._verify(case), self._verify(case)
        assert len(specpreserve.diagnostics._SPECTRA) == 1
        assert _same_report(cold, first) and _same_report(cold, warm)

    def test_a_is_solved_once_and_a_plus_delta_every_call(self, monkeypatch):
        case = inst, _, delta, _ = _annihilation_case("real-lie", 64)
        seen = _eig_spy(monkeypatch)
        self._verify(case)
        assert [(name, M.shape) for name, M in seen] == [
            ("eigvals", (64, 64)), ("eigvals", (64, 64))]
        assert np.array_equal(seen[0][1], inst.A)
        seen.clear()
        self._verify(case)
        assert [(name, M.shape) for name, M in seen] == [("eigvals", (64, 64))]
        assert np.array_equal(seen[0][1], inst.A + delta)

    def test_a_changed_in_place_is_solved_again(self, monkeypatch):
        case = inst, _, _, _ = _annihilation_case("real-jordan", 64)
        A = inst.A.copy()
        seen = _eig_spy(monkeypatch)
        self._verify(case, A)
        A[0, 1] += 1e-3
        seen.clear()
        changed = self._verify(case, A)
        assert len(seen) == 2 and np.array_equal(seen[0][1], A)
        assert _same_report(changed, self._cold(case, A.copy()))

    def test_key_holds_dtype_shape_and_tier(self, monkeypatch):
        solved = []
        monkeypatch.setattr(specpreserve.diagnostics, "_solve",
                            lambda M, tier: solved.append((M.dtype, M.shape,
                                                           tier))
                            or np.zeros(M.shape[0]))
        memo = specpreserve.diagnostics._memoized_solve
        M = np.arange(16.0).reshape(4, 4)
        for N in (M, M.view(np.int64), M.reshape(2, 8), M.reshape(8, 2),
                  np.asfortranarray(M)):
            memo(N, "eigvals")
        memo(M, "eigvalsh")
        # the Fortran-ordered copy is the same matrix: a hit
        assert solved == [(M.dtype, (4, 4), "eigvals"),
                          (np.dtype(np.int64), (4, 4), "eigvals"),
                          (M.dtype, (2, 8), "eigvals"),
                          (M.dtype, (8, 2), "eigvals"),
                          (M.dtype, (4, 4), "eigvalsh")]

    def test_cached_eigenvalues_are_read_only(self):
        w = specpreserve.diagnostics._memoized_solve(
            np.diag([1.0, 2.0, 3.0]), "eigvals")
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_eviction_drops_the_least_recently_used(self, monkeypatch):
        diagnostics = specpreserve.diagnostics
        solved = []
        monkeypatch.setattr(diagnostics, "_solve", lambda M, tier:
                            solved.append(M[0, 0]) or np.diag(M).copy())
        size = diagnostics._SPECTRA_SIZE
        for i in range(size + 3):
            diagnostics._memoized_solve(np.diag([float(i), 1.0]), "eigvals")
            # the first matrix stays the most recently used
            diagnostics._memoized_solve(np.diag([0.0, 1.0]), "eigvals")
            assert len(diagnostics._SPECTRA) == min(i + 1, size)
        assert solved == list(range(size + 3))
        # the oldest of the others went first
        diagnostics._memoized_solve(np.diag([1.0, 1.0]), "eigvals")
        assert solved[-1] == 1.0 and len(solved) == size + 4

    def test_two_threads_give_the_single_thread_reports(self):
        # two monomial-H arrangements, inverted by indexing; a dense H,
        # inverted once per space, runs in a fresh interpreter below
        cases = [_annihilation_case(a, 64) for a in ("real-jordan", "real-lie")]
        alone = [self._cold(c) for c in cases]
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(self._verify, cases * 4))
        assert all(_same_report(rep, alone[i % 2])
                   for i, rep in enumerate(runs))
        assert len(specpreserve.diagnostics._SPECTRA) == 2


# threads against one dense H, more of them than cores and switching
# often, in a fresh interpreter so that corrupted memory fails one test
# instead of aborting the run; ``work(i)`` must give the bits of a
# sequential call under ROUNDS concurrent calls, and the n x n inverses
# taken over the run (of H, once) are counted
_THREADED = """
import concurrent.futures
import sys
import numpy as np
inverted = []
_inv = np.linalg.inv
np.linalg.inv = lambda a: inverted.append(np.shape(a)) or _inv(a)
{setup}
want = [work(i) for i in range(CASES)]
sys.setswitchinterval(1e-5)
with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
    got = list(pool.map(work, [i % CASES for i in range(ROUNDS)]))
assert len(got) == ROUNDS
print(sum(not same(g, want[i % CASES]) for i, g in enumerate(got)),
      len(inverted))
"""
_DENSE_H_WORK = {
    "h_solve": """
import helpers
space = helpers.make_space(64, "CT", 1, "complex", "random",
                           np.random.default_rng(64))
rng = np.random.default_rng(65)
CASES, ROUNDS = 16, 4000
B = [rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
     for _ in range(CASES)]
work = lambda i: space.h_solve(B[i])
same = lambda a, b: a.tobytes() == b.tobytes()
""",
    "verify_reassignment": """
from specpreserve import verify_reassignment
from test_diagnostics import _annihilation_case
inst, asm, delta, _ = _annihilation_case("complex-lie", 64)
CASES, ROUNDS = 1, 200
work = lambda i: verify_reassignment(inst.A, delta, asm, inst.space, inst.cls)
same = lambda a, b: a.summary() == b.summary() and a.notes == b.notes
""",
}


@pytest.mark.parametrize("work", list(_DENSE_H_WORK))
def test_threads_on_a_dense_h_match_a_sequential_run(work):
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(specpreserve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _THREADED.format(setup=_DENSE_H_WORK[work])],
        env=env, timeout=300, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "1"]


class TestGenerateInstance:
    def test_real_lie_pair_on_flip(self):
        rec = InstanceRecipe("flip", "lie", "real", "T",
                             (PlanGroup(1.0, (1,)), PlanGroup(-1.0, (1,))),
                             seed=71)
        inst = generate_instance(rec)
        assert inst.A.shape == (2, 2)
        assert structure_residual(inst.A, inst.space, inst.cls) <= 1e-12 * max(
            1.0, np.linalg.norm(inst.A))
        assert np.max(np.abs(inst.A.imag)) == 0.0

    def test_quadruple_round_trip_through_extraction(self):
        rec = InstanceRecipe("skewj", "lie", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(-1 + 2j, (1,)), PlanGroup(-1 - 2j, (1,))),
                             seed=72)
        inst = generate_instance(rec)
        pairs = extract_jordan_pairs(inst.A)
        key = lambda z: (round(z.real, 6), round(z.imag, 6))
        got = sorted((p.value for p in pairs), key=key)
        want = sorted((g.value for g in rec.plan), key=key)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-6

    def test_pairing_violation_is_infeasible(self):
        with pytest.raises(InfeasiblePlanError):
            generate_instance(InstanceRecipe(
                "signature", "jordan", "real", "T",
                (PlanGroup(1 + 2j, (1,)),), seed=73))

    def test_ground_truth_chains_are_exact(self):
        rec = InstanceRecipe("random", "lie", "complex", "CT",
                             (PlanGroup(2 + 1j, (2,)), PlanGroup(-2 + 1j, (2,)),
                              PlanGroup(1.5j, (1,))),
                             seed=74)
        inst = generate_instance(rec)
        for p in inst.pairs:
            assert p.residual(inst.A) <= 1e-10 * max(1.0, np.linalg.norm(inst.A))
        assert is_member(inst.A, inst.space, inst.cls)

    def test_seed_determinism(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(1.0, (1,)), PlanGroup(-2.0, (1,))),
                             seed=75)
        a = generate_instance(rec)
        b = generate_instance(rec)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.space.H, b.space.H)

    def test_round_trip_chain_lengths(self):
        rec = InstanceRecipe("signature", "jordan", "real", "T",
                             (PlanGroup(1 + 2j, (2,)), PlanGroup(1 - 2j, (2,)),
                              PlanGroup(3.0, (1,)), PlanGroup(-2.0, (2,))),
                             seed=76)
        inst = generate_instance(rec)
        pairs = extract_jordan_pairs(inst.A)

        def lengths(value):
            return sorted(p.length for p in pairs if abs(p.value - value) < 1e-2)

        assert lengths(1 + 2j) == [2]
        assert lengths(1 - 2j) == [2]
        assert lengths(3.0) == [1]
        assert lengths(-2.0) == [2]


class TestRecipeValidation:
    def test_preset_eps1_conflict(self):
        from specpreserve import ArgumentError
        with pytest.raises(ArgumentError):
            InstanceRecipe("flip", "jordan", eps1=-1)

    def test_unknown_kind(self):
        from specpreserve import ArgumentError
        with pytest.raises(ArgumentError):
            InstanceRecipe("torus", "jordan")

    @pytest.mark.parametrize("kind", ["flip", "skewj"])
    @pytest.mark.parametrize("chains", [(1,), (3,)])
    def test_odd_dimension_on_a_swap_preset_is_infeasible(self, kind, chains):
        # refused as an infeasible plan before the space constructor, whose
        # own refusal is an ArgumentError
        recipe = InstanceRecipe(kind, "jordan", "complex", "ct",
                                (PlanGroup(1.5, chains),), seed=17)
        with pytest.raises(InfeasiblePlanError,
                           match=f"^{kind} space needs even dimension$"):
            generate_instance(recipe)

    def test_star_spellings_build_the_same_member(self):
        # complex bilinear Jordan: every value is self-paired
        plan = (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)))
        lower, upper = (
            generate_instance(InstanceRecipe("flip", "jordan", "complex", star,
                                             plan, seed=1))
            for star in ("t", "T"))
        assert lower.recipe.star == "T"
        np.testing.assert_array_equal(lower.A, upper.A)
        assert structure_residual(lower.A, lower.space, lower.cls) <= 1e-12

    def test_unknown_star(self):
        with pytest.raises(ArgumentError):
            InstanceRecipe("flip", "jordan", star="x")
