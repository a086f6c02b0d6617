"""Reassignment constructors: the parametric family, the closed-form
no-spillover update and the simple-eigenvalue wrapper."""

import numpy as np
import pytest

import golden
from specpreserve import (
    ArgumentError,
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    RealnessError,
    ToleranceProfile,
    assemble,
    extract_jordan_pairs,
    generate_instance,
    is_member,
    numerical_rank,
    reassign_family,
    reassign_no_spillover,
    reassign_simple,
    sample_structured,
    solve_structured,
)
from specpreserve import reassign
from specpreserve.core import as_matrix
from specpreserve.reassign import _real_basis

LOOSE = ToleranceProfile(residual_tol=1e-3)


def _lie4_assembly():
    space = ScalarProductSpace(golden.LIE4_H, star="ct", structure_tol=1e-3)
    groups = tuple(
        ReassignmentGroup(c, t, (golden.LIE4_XC[:, [j]],))
        for j, (c, t) in enumerate(zip(golden.LIE4_CURRENT, golden.LIE4_TARGET)))
    asm = assemble(golden.LIE4_A, ReassignmentSpec(groups), space,
                   "lie", tol=ToleranceProfile(residual_tol=1e-3))
    return space, asm


def _pick(pairs, value):
    for p in pairs:
        if abs(p.value - value) < 1e-6:
            return p
    raise AssertionError(f"pair {value} not found")


class TestReassignFamily:
    def test_no_change_is_zero(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=50)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, 1.0)
        spec = ReassignmentSpec((ReassignmentGroup(p.value, p.value, (p.chain,)),))
        asm = assemble(inst.A, spec, inst.space, inst.cls)
        res = reassign_family(inst.A, asm, inst.space, inst.cls)
        assert np.linalg.norm(res.delta) <= 1e-10 * max(1.0, np.linalg.norm(inst.A))

    def test_printed_lie_family_member(self):
        space, asm = _lie4_assembly()
        res = reassign_family(golden.LIE4_A, asm, space, "lie",
                              Z=golden.LIE4_Z, tol=LOOSE)
        assert np.max(np.abs(res.delta - golden.LIE4_DELTA)) <= golden.PRINT_TOL
        assert res.report.reassigned_residual <= golden.RESID_TOL
        assert res.report.structure_residual <= golden.RESID_TOL

    def test_agrees_with_structured_map_solver(self):
        rec = InstanceRecipe("flip", "lie", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(-2 + 1j, (1,)),
                              PlanGroup(1.5j, (1,)), PlanGroup(-0.7j, (1,))),
                             seed=51)
        inst = generate_instance(rec)
        groups = (
            ReassignmentGroup(2 + 1j, 3 + 2j, (_pick(inst.pairs, 2 + 1j).chain,)),
            ReassignmentGroup(-2 + 1j, -3 + 2j, (_pick(inst.pairs, -2 + 1j).chain,)),
        )
        asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
        d_family = reassign_family(inst.A, asm, inst.space, inst.cls,
                                   verify=False).delta
        B = asm.X_c @ (asm.Lambda_a - asm.Lambda_c)
        d_solver = solve_structured(asm.X_c, B, inst.space, inst.cls)
        np.testing.assert_allclose(d_family, d_solver,
                                   atol=1e-9 * max(1.0, np.linalg.norm(d_family)))

    def test_real_jordan_family_with_admissible_parameter(self):
        rec = InstanceRecipe("signature", "jordan", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(3.0, (1,)), PlanGroup(-1.0, (1,))),
                             seed=52)
        inst = generate_instance(rec)
        groups = (
            ReassignmentGroup(1 + 2j, 2 + 1j, (_pick(inst.pairs, 1 + 2j).chain,)),
            ReassignmentGroup(1 - 2j, 2 - 1j, (_pick(inst.pairs, 1 - 2j).chain,)),
        )
        asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
        Z = sample_structured(inst.space, inst.cls, seed=99)
        res = reassign_family(inst.A, asm, inst.space, inst.cls, Z=Z)
        assert not np.iscomplexobj(res.delta)
        assert res.report.realness
        assert is_member(res.delta, inst.space, inst.cls)
        assert res.report.reassigned_residual <= 1e-9 * max(
            1.0, np.linalg.norm(inst.A) + np.linalg.norm(res.delta))

    def test_inadmissible_z_rejected(self, rng):
        space, asm = _lie4_assembly()
        bad = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(StructureError):
            reassign_family(golden.LIE4_A, asm, space, "lie", Z=bad, tol=LOOSE)


class TestReassignNoSpillover:
    def test_no_change_is_zero_rank_zero(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=53)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, -3.0)
        spec = ReassignmentSpec((ReassignmentGroup(p.value, p.value, (p.chain,)),))
        asm = assemble(inst.A, spec, inst.space, inst.cls)
        res = reassign_no_spillover(inst.A, asm, inst.space, inst.cls)
        assert np.linalg.norm(res.delta) <= 1e-10 * max(1.0, np.linalg.norm(inst.A))
        assert res.report.delta_rank == 0

    def test_printed_jordan_example(self):
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        res = reassign_simple(
            golden.JORDAN5_A,
            list(zip(golden.JORDAN5_CURRENT,
                     [golden.JORDAN5_XC[:, j] for j in range(3)])),
            golden.JORDAN5_TARGET, space, "jordan", mode="no-spillover",
            tol=LOOSE)
        assert np.max(np.abs(res.delta - golden.JORDAN5_DELTA)) <= golden.PRINT_TOL
        fixed = np.linalg.norm(
            (golden.JORDAN5_A + res.delta) @ golden.JORDAN5_XF
            - golden.JORDAN5_XF @ golden.JORDAN5_LF)
        assert fixed <= golden.RESID_TOL
        assert res.report.reassigned_residual <= golden.RESID_TOL

    def test_rank_two_update_keeps_simple_eigenvalue(self):
        """Rank-2 update preserving a simple eigenvalue: preservation does
        not require rank < geometric multiplicity."""
        space = ScalarProductSpace(np.eye(3), star="t", field="real",
                                   structure_tol=1e-3)
        res = reassign_simple(
            golden.SYM3_A,
            list(zip(golden.SYM3_CURRENT,
                     [golden.SYM3_XC[:, j] for j in range(2)])),
            golden.SYM3_TARGET, space, "jordan", mode="no-spillover", tol=LOOSE)
        assert np.max(np.abs(res.delta - golden.SYM3_DELTA)) <= golden.PRINT_TOL
        assert numerical_rank(res.delta, 1e-6) == 2
        eigs = np.linalg.eigvals(golden.SYM3_A + res.delta)
        # geometric multiplicity of the preserved eigenvalue is 1 < rank 2,
        # yet it survives
        assert np.min(np.abs(eigs - golden.SYM3_FIXED)) <= 1e-3

    def test_guard_violation_is_hard_error(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=54)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, 1.0)
        spec = ReassignmentSpec((ReassignmentGroup(p.value, 6.0, (p.chain,)),))
        asm = assemble(inst.A, spec, inst.space, inst.cls)
        with pytest.raises(StructureError):
            reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                  fixed_spectrum_guard=[1.0 + 0j, -3.0 + 0j])

    def test_empty_guard_is_disjoint(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=54)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, 1.0)
        spec = ReassignmentSpec((ReassignmentGroup(p.value, 6.0, (p.chain,)),))
        asm = assemble(inst.A, spec, inst.space, inst.cls)
        guarded = reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                        fixed_spectrum_guard=[], verify=False)
        plain = reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                      verify=False)
        np.testing.assert_array_equal(guarded.delta, plain.delta)

    def _guarded(self, guard):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=54)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, 1.0)
        spec = ReassignmentSpec((ReassignmentGroup(p.value, 6.0, (p.chain,)),))
        asm = assemble(inst.A, spec, inst.space, inst.cls)
        return reassign_no_spillover(inst.A, asm, inst.space, inst.cls,
                                     fixed_spectrum_guard=guard,
                                     verify=False).delta

    def test_scalar_guard_is_a_one_value_guard(self):
        np.testing.assert_array_equal(self._guarded(-3.0),
                                      self._guarded([-3.0]))
        with pytest.raises(StructureError) as e:
            self._guarded(6.0)
        assert e.value.condition == "spectral_disjointness"

    def test_guard_is_read_flattened_from_any_iterable(self):
        want = self._guarded([2 + 1j, 2 - 1j, -3.0])
        for guard in ([[2 + 1j], [2 - 1j], [-3.0]], (2 + 1j, 2 - 1j, -3),
                      {2 + 1j, 2 - 1j, -3.0},
                      (v for v in (2 + 1j, 2 - 1j, -3.0))):
            np.testing.assert_array_equal(self._guarded(guard), want)

    @pytest.mark.parametrize("guard", ["1.0", b"1", ["2", 3.0], [None],
                                       object(), [True]],
                             ids=["str", "bytes", "str-item", "none-item",
                                  "object", "bool-item"])
    def test_guard_that_is_not_numbers_is_refused_by_name(self, guard):
        with pytest.raises(ArgumentError, match="fixed_spectrum_guard"):
            self._guarded(guard)

    def test_rank_equals_changed_multiplicity(self):
        rec = InstanceRecipe("flip", "lie", "complex", "CT",
                             (PlanGroup(2 + 1j, (2,)), PlanGroup(-2 + 1j, (2,)),
                              PlanGroup(1.5j, (1,)), PlanGroup(-0.7j, (1,))),
                             seed=55)
        inst = generate_instance(rec)
        groups = (
            ReassignmentGroup(2 + 1j, 3 + 2j, (_pick(inst.pairs, 2 + 1j).chain,)),
            ReassignmentGroup(-2 + 1j, -3 + 2j, (_pick(inst.pairs, -2 + 1j).chain,)),
        )
        asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
        res = reassign_no_spillover(inst.A, asm, inst.space, inst.cls)
        D = asm.Lambda_a - asm.Lambda_c
        assert res.report.delta_rank == numerical_rank(D) == 4
        assert res.report.spectrum_verdict.matched

    def test_jordan_chains_preserved_on_defective_instance(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (2,)), PlanGroup(2 - 1j, (2,)),
                              PlanGroup(1.0, (2,)), PlanGroup(-3.0, (2,))),
                             seed=56)
        inst = generate_instance(rec)
        groups = (
            ReassignmentGroup(2 + 1j, 4 + 1j, (_pick(inst.pairs, 2 + 1j).chain,)),
            ReassignmentGroup(2 - 1j, 4 - 1j, (_pick(inst.pairs, 2 - 1j).chain,)),
        )
        asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, inst.cls)
        res = reassign_no_spillover(inst.A, asm, inst.space, inst.cls)
        before = extract_jordan_pairs(inst.A)
        after = extract_jordan_pairs(inst.A + res.delta)

        def lengths(pairs, value):
            return sorted(p.length for p in pairs if abs(p.value - value) < 1e-2)

        # changed eigenvalues keep their chain lengths at the new values
        assert lengths(after, 4 + 1j) == lengths(before, 2 + 1j) == [2]
        assert lengths(after, 4 - 1j) == [2]
        # untouched eigenvalues keep theirs
        assert lengths(after, 1.0) == lengths(before, 1.0) == [2]
        assert lengths(after, -3.0) == [2]
        # and the untouched chains themselves are still chains of A + delta
        for val in (1.0, -3.0):
            p = _pick(inst.pairs, val)
            assert p.residual(inst.A + res.delta) <= 1e-8 * max(
                1.0, np.linalg.norm(inst.A))


class TestReassignSimple:
    def test_hotelling_collapse(self, rng):
        B = rng.standard_normal((4, 4))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        space = ScalarProductSpace(np.eye(4), star="t", field="real")
        mu = 9.0
        res = reassign_simple(A, [(w[0], V[:, 0])], [mu], space, "jordan")
        x = V[:, 0]
        expected = (mu - w[0]) * np.outer(x, x) / (x @ x)
        np.testing.assert_allclose(res.delta, expected, atol=1e-10)
        assert res.report.delta_rank == 1

    def test_wrapper_matches_family_on_printed_example(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct", structure_tol=1e-3)
        _, asm = _lie4_assembly()
        direct = reassign_family(golden.LIE4_A, asm, space, "lie",
                                 Z=golden.LIE4_Z, tol=LOOSE, verify=False)
        wrapped = reassign_simple(
            golden.LIE4_A,
            list(zip(golden.LIE4_CURRENT,
                     [golden.LIE4_XC[:, j] for j in range(3)])),
            golden.LIE4_TARGET, space, "lie", Z=golden.LIE4_Z, mode="family",
            tol=LOOSE, verify=False)
        np.testing.assert_allclose(wrapped.delta, direct.delta, atol=1e-12)

    def test_real_lie_rank_counts_all_family_members(self):
        # one quadruple (p counts 4 columns) plus one real pair: rank 6
        rec = InstanceRecipe("skewj", "lie", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(-1 + 2j, (1,)), PlanGroup(-1 - 2j, (1,)),
                              PlanGroup(0.8, (1,)), PlanGroup(-0.8, (1,))),
                             seed=57)
        inst = generate_instance(rec)
        eigpairs, targets = [], []
        mapping = {1 + 2j: 2 + 3j, 1 - 2j: 2 - 3j, -1 + 2j: -2 + 3j,
                   -1 - 2j: -2 - 3j, 0.8: 1.6, -0.8: -1.6}
        for p in inst.pairs:
            key = complex(np.round(p.value, 6))
            eigpairs.append((p.value, p.chain[:, 0]))
            targets.append(mapping[key])
        res = reassign_simple(inst.A, eigpairs, targets, inst.space, inst.cls)
        assert not np.iscomplexobj(res.delta)
        assert res.report.delta_rank == 6
        assert res.report.spectrum_verdict.matched
        assert is_member(res.delta, inst.space, inst.cls)

    def test_complete_pairing_inserts_conjugates(self):
        rec = InstanceRecipe("signature", "jordan", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(3.0, (1,))),
                             seed=58)
        inst = generate_instance(rec)
        p = _pick(inst.pairs, 1 + 2j)
        res = reassign_simple(inst.A, [(p.value, p.chain[:, 0])], [2 + 1j],
                              inst.space, inst.cls, complete_pairing=True)
        assert res.report.spectrum_verdict.matched
        with pytest.raises(StructureError):
            reassign_simple(inst.A, [(p.value, p.chain[:, 0])], [2 + 1j],
                            inst.space, inst.cls, complete_pairing=False)

    def test_complete_pairing_builds_real_lie_quadruple(self):
        """Supplying one member of each conjugate pair of a quadruple is
        enough: conjugates are invented, the negated values are not."""
        rec = InstanceRecipe("flip", "lie", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(-1 + 2j, (1,)), PlanGroup(-1 - 2j, (1,))),
                             seed=59)
        inst = generate_instance(rec)
        p_plus = _pick(inst.pairs, 1 + 2j)
        p_minus = _pick(inst.pairs, -1 + 2j)
        res = reassign_simple(
            inst.A,
            [(p_plus.value, p_plus.chain[:, 0]),
             (p_minus.value, p_minus.chain[:, 0])],
            [2 + 3j, -2 + 3j], inst.space, inst.cls, complete_pairing=True)
        assert not np.iscomplexobj(res.delta)
        assert res.report.spectrum_verdict.matched
        # the negated member cannot be invented from conjugation alone
        with pytest.raises(StructureError):
            reassign_simple(inst.A, [(p_plus.value, p_plus.chain[:, 0])],
                            [2 + 3j], inst.space, inst.cls,
                            complete_pairing=True)

    def test_duplicate_eigenvalues_rejected(self, rng):
        space = ScalarProductSpace(np.eye(3), star="t", field="real")
        B = rng.standard_normal((3, 3))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        with pytest.raises(StructureError) as exc:
            reassign_simple(A, [(w[0], V[:, 0]), (w[0], V[:, 0])],
                            [1.0, 2.0], space, "jordan")
        assert exc.value.condition == "multiplicity"

    def test_z_in_no_spillover_mode_rejected(self, rng):
        space = ScalarProductSpace(np.eye(3), star="t", field="real")
        B = rng.standard_normal((3, 3))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        with pytest.raises(ArgumentError):
            reassign_simple(A, [(w[0], V[:, 0])], [1.0], space, "jordan",
                            Z=np.eye(3), mode="no-spillover")


class TestSpectralReplacement:
    def test_multiset_replacement_small_instances(self):
        for seed in range(5):
            rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                                 (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                                  PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,)),
                                  PlanGroup(0.5, (1,)), PlanGroup(4.0, (1,))),
                                 seed=60 + seed)
            inst = generate_instance(rec)
            groups = (
                ReassignmentGroup(2 + 1j, 5 + 2j, (_pick(inst.pairs, 2 + 1j).chain,)),
                ReassignmentGroup(2 - 1j, 5 - 2j, (_pick(inst.pairs, 2 - 1j).chain,)),
                ReassignmentGroup(1.0, -6.0, (_pick(inst.pairs, 1.0).chain,)),
            )
            asm = assemble(inst.A, ReassignmentSpec(groups), inst.space,
                           inst.cls)
            res = reassign_no_spillover(inst.A, asm, inst.space, inst.cls)
            v = res.report.spectrum_verdict
            assert v.matched and v.max_distance <= 1e-6


class TestRealBasis:
    @staticmethod
    def _real_values(n=64, p=8):
        """A real Jordan arrangement of real values on H = I (symmetric A),
        whose conjugation map is the identity."""
        rng = np.random.default_rng(64)
        space = ScalarProductSpace.identity(n, star="t", field="real")
        S = rng.standard_normal((n, n))
        w, V = np.linalg.eigh(S + S.T)
        groups = tuple(ReassignmentGroup(w[j], w[j] + 0.1 * j, (V[:, [j]],))
                       for j in range(1, 2 * p, 2))
        A = (V * w) @ V.T
        asm = assemble(A, ReassignmentSpec(groups), space, "jordan")
        return A, space, StructureClass.JORDAN, asm

    def test_real_data_under_the_identity_map_is_its_own_basis(self):
        _, space, _, asm = self._real_values()
        np.testing.assert_array_equal(asm.conjugation, np.eye(8))
        X = as_matrix(asm.X_c, "X_c", space)
        D = np.asarray(asm.Lambda_a - asm.Lambda_c).real
        out = (X, X @ D, space.h_apply(X))
        assert all(a is b for a, b in zip(_real_basis(asm, *out), out))
        # complex data under the same map is still checked for realness
        bad = (X + 1e-3j, X @ D + 0j, out[2] + 0j)
        with pytest.raises(RealnessError, match="not closed under"):
            _real_basis(asm, *bad)

    def test_returned_as_it_is_gives_the_bits_of_a_copied_basis(
            self, monkeypatch):
        A, space, cls, asm = self._real_values()
        Z = sample_structured(space, cls, seed=99)
        calls = [lambda: reassign_family(A, asm, space, cls, verify=False),
                 lambda: reassign_family(A, asm, space, cls, Z=Z,
                                         verify=False),
                 lambda: reassign_no_spillover(A, asm, space, cls,
                                               verify=False)]
        fast = [call().delta for call in calls]
        # the real basis in arrays of its own, as the conjugate pairs give it
        real_basis = reassign._real_basis
        monkeypatch.setattr(reassign, "_real_basis", lambda *a: tuple(
            M.copy() for M in real_basis(*a)))
        for got, call in zip(fast, calls):
            want = call().delta
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
