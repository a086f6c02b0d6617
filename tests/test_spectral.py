"""Pairing logic, Jordan extraction, Gram-block predictions and the
ordered assemblies for every arrangement."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import helpers
from specpreserve import (
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    assemble_complex,
    assemble_real_jordan,
    assemble_real_lie,
    certificate_residual,
    extract_jordan_pairs,
    generate_instance,
    gram_blocks,
    jordan_block,
    pairing_partner,
    validate_pairing_closure,
)
from specpreserve import spectral

finite_scalars = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e6, allow_nan=False, allow_infinity=False)


class TestPairingPartner:
    def test_jordan_sesquilinear_real_is_self_paired(self):
        assert pairing_partner(3.0, "jordan", "ct") == 3.0

    def test_lie_sesquilinear_reflects_real_part(self):
        assert pairing_partner(2 + 1j, "lie", "ct") == -2 + 1j

    def test_lie_bilinear_negates(self):
        assert pairing_partner(1.5, "lie", "t") == -1.5

    def test_unknown_star_is_rejected(self):
        from specpreserve import ArgumentError
        with pytest.raises(ArgumentError, match="unknown star"):
            pairing_partner(1 + 2j, "lie", "bogus")

    @given(lam=finite_scalars,
           kind=st.sampled_from(["jordan", "lie"]),
           star=st.sampled_from(["t", "ct"]))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, lam, kind, star):
        assert pairing_partner(pairing_partner(lam, kind, star), kind, star) == lam


class TestPairingClosure:
    def test_empty_spec_ok(self):
        space = ScalarProductSpace.flip(4)
        spec = ReassignmentSpec(groups=())
        assert validate_pairing_closure(spec, space, "lie") == []

    def test_real_jordan_conjugate_couple_ok(self):
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        x = np.ones((5, 1))
        groups = (
            ReassignmentGroup(2.87055 + 0.71763j, 3.17331 - 1.23542j, (x,)),
            ReassignmentGroup(2.87055 - 0.71763j, 3.17331 + 1.23542j, (x,)),
            ReassignmentGroup(-0.65938, 1.33797, (x,)),
        )
        assert validate_pairing_closure(
            ReassignmentSpec(groups), space, "jordan") == []

    def test_self_paired_current_needs_self_paired_target(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        x = np.ones((4, 1))
        spec = ReassignmentSpec((
            ReassignmentGroup(1.39475j, 1 + 1j, (x,)),))
        violations = validate_pairing_closure(spec, space, "lie")
        assert violations and "self-paired" in violations[0]

    def test_missing_partner_reported(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        x = np.ones((4, 1))
        spec = ReassignmentSpec((
            ReassignmentGroup(2 + 1j, 3 + 1j, (x,)),))
        violations = validate_pairing_closure(spec, space, "lie")
        assert violations and "partner" in violations[0]


class TestExtractJordanPairs:
    def test_diagonal_matrix_gives_simple_pairs(self):
        A = np.diag([1.0, -2.0, 4.0, 7.0])
        pairs = extract_jordan_pairs(A)
        assert sorted(p.length for p in pairs) == [1, 1, 1, 1]
        got = sorted(p.value.real for p in pairs)
        np.testing.assert_allclose(got, [-2.0, 1.0, 4.0, 7.0], atol=1e-8)

    def test_single_jordan_block_recovered(self, rng):
        J = jordan_block(2.0, 4)
        S = rng.standard_normal((4, 4)) + 0.1 * np.eye(4)
        A = np.linalg.solve(S, J @ S)
        pairs = extract_jordan_pairs(A)
        assert len(pairs) == 1
        p = pairs[0]
        assert p.length == 4
        assert abs(p.value - 2.0) <= 1e-3
        assert p.residual(A) <= 1e-8 * max(1.0, np.linalg.norm(A))

    def test_geometric_multiplicity_recovered(self, rng):
        blocks = [jordan_block(1.0, 2), jordan_block(1.0, 1), jordan_block(5.0, 1)]
        J = np.zeros((4, 4), dtype=complex)
        J[:2, :2], J[2, 2], J[3, 3] = blocks[0], 1.0, 5.0
        S = rng.standard_normal((4, 4)) + 0.2 * np.eye(4)
        A = np.linalg.solve(S, J @ S)
        pairs = extract_jordan_pairs(A)
        ones = [p for p in pairs if abs(p.value - 1.0) < 1e-3]
        fives = [p for p in pairs if abs(p.value - 5.0) < 1e-3]
        assert sorted(p.length for p in ones) == [1, 2]
        assert [p.length for p in fives] == [1]

    def test_chain_sum_matches_dimension(self, rng):
        A = rng.standard_normal((7, 7))
        pairs = extract_jordan_pairs(A)
        assert sum(p.length for p in pairs) == 7

    def test_size_limit(self):
        from specpreserve import ArgumentError
        with pytest.raises(ArgumentError):
            extract_jordan_pairs(np.eye(70))


# Jordan structures (value, chain lengths) with chains up to length 4, each
# hidden by a seeded similarity
EXTRACTION_CATALOG = {
    "diagonal": [(1.0, (1,)), (-2.0, (1,)), (4.0, (1,)), (7.0, (1,))],
    "chain-4": [(2.0, (4,))],
    "chains-2-1": [(1.0, (2, 1)), (5.0, (1,))],
    "chains-3-and-2": [(-1.0, (3,)), (3.0, (2,))],
    "complex-chains": [(1 + 2j, (2,)), (1 - 2j, (2,)), (-3j, (1, 1))],
}


@pytest.mark.parametrize("structure", EXTRACTION_CATALOG.values(),
                         ids=EXTRACTION_CATALOG.keys())
def test_extraction_agrees_with_the_schur_diagonal(structure):
    """Eigenvalues from ``eigvals`` give the chains of the construction,
    and each cluster centre lies within ``cluster_tol * scale`` of the
    mean of the Schur-diagonal values nearest to it."""
    values = np.array([v for v, _ in structure])
    J = scipy.linalg.block_diag(*[jordan_block(v, k)
                                  for v, ks in structure for k in ks])
    n = J.shape[0]
    rng = np.random.default_rng(n)
    S = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
    if np.any(values.imag):
        S = S + 1j * rng.standard_normal((n, n))
    else:
        J = J.real
    A = np.linalg.solve(S, J @ S)
    pairs = extract_jordan_pairs(A)
    schur = np.diag(scipy.linalg.schur(A.astype(complex), output="complex")[0])
    scale = max(1.0, float(np.max(np.abs(schur))))
    for v, ks in structure:
        got = [p for p in pairs if np.argmin(np.abs(values - p.value))
               == np.argmin(np.abs(values - v))]
        assert sorted(p.length for p in got) == sorted(ks)
        near = schur[np.argmin(np.abs(schur[:, None] - values), axis=1)
                     == np.argmin(np.abs(values - v))]
        assert near.size == sum(ks)
        for p in got:
            assert abs(p.value - near.mean()) <= 1e-3 * scale


class TestGramBlocks:
    def test_self_paired_left_eigenvector_relation(self):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A = helpers.random_member(space, cls, seed=31)
        w, V = np.linalg.eig(A)
        k = int(np.argmin(np.abs(w.imag)))  # most nearly self-paired
        if abs(w[k].imag) < 1e-8:
            x = V[:, k]
            lhs = (space.H @ x).conj().T @ A
            rhs = cls.epsilon2 * np.conj(w[k]) * (space.H @ x).conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(A))

    def test_couple_antidiagonal_form(self):
        rec = InstanceRecipe("flip", "lie", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(-2 + 1j, (1,)),
                              PlanGroup(0.5j, (1,)), PlanGroup(-1.5j, (1,))),
                             seed=32)
        inst = generate_instance(rec)
        couple = [p for p in inst.pairs if abs(p.value.real) > 0.5]
        gb = gram_blocks(couple, inst.space, inst.cls)
        # diagonal blocks of a non-self-paired couple vanish
        assert gb.predicted_zero[0, 0] and gb.predicted_zero[1, 1]
        assert not gb.predicted_zero[0, 1] and not gb.predicted_zero[1, 0]
        assert gb.max_predicted_deviation <= 1e-10
        h = gb.matrix[0, 1]
        assert abs(gb.matrix[1, 0] - inst.space.epsilon1 * np.conj(h)) <= 1e-10

    def test_unrelated_pairs_orthogonal(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=33)
        inst = generate_instance(rec)
        gb = gram_blocks(inst.pairs, inst.space, inst.cls)
        assert gb.max_predicted_deviation <= 1e-10


def _groups_from_pairs(pairs, mapping):
    groups = []
    for p in pairs:
        for cur, tgt in mapping:
            if abs(p.value - cur) < 1e-6:
                groups.append(ReassignmentGroup(p.value, tgt, (p.chain,)))
    return tuple(groups)


class TestAssembleComplex:
    def test_single_self_paired_group(self):
        rec = InstanceRecipe("identity", "jordan", "complex", "CT",
                             (PlanGroup(1.0, (1,)), PlanGroup(-2.0, (1,))),
                             seed=34)
        inst = generate_instance(rec)
        p = [q for q in inst.pairs if abs(q.value - 1.0) < 1e-6][0]
        spec = ReassignmentSpec((ReassignmentGroup(p.value, 4.0, (p.chain,)),))
        asm = assemble_complex(inst.A, spec, inst.space, inst.cls)
        assert asm.width == 1
        assert asm.Lambda_c.shape == (1, 1)
        np.testing.assert_allclose(asm.Lambda_a, [[4.0]])

    def test_printed_lie_arrangement_is_kept(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        groups = tuple(
            ReassignmentGroup(c, t, (golden.LIE4_XC[:, [j]],))
            for j, (c, t) in enumerate(zip(golden.LIE4_CURRENT, golden.LIE4_TARGET)))
        asm = assemble_complex(golden.LIE4_A, ReassignmentSpec(groups), space,
                               "lie", tol=ToleranceProfile(residual_tol=1e-3))
        np.testing.assert_allclose(asm.X_c, golden.LIE4_XC, atol=1e-12)
        np.testing.assert_allclose(np.diag(asm.Lambda_c), golden.LIE4_CURRENT)
        np.testing.assert_allclose(np.diag(asm.Lambda_a), golden.LIE4_TARGET)
        assert [b.kind for b in asm.blocks] == ["couple", "self"]
        assert not asm.real_output

    def test_defective_couple_partition_mirrored(self):
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (2, 1)), PlanGroup(2 - 1j, (2, 1)),
                              PlanGroup(1.0, (2,))),
                             seed=35)
        inst = generate_instance(rec)
        groups = []
        reps = {}
        for p in inst.pairs:
            key = complex(np.round(p.value, 6))
            reps.setdefault(key, []).append(p.chain)
        mapping = {2 + 1j: 3 + 2j, 2 - 1j: 3 - 2j}
        for key, chains in reps.items():
            if key in mapping:
                groups.append(ReassignmentGroup(key, mapping[key], tuple(chains)))
        asm = assemble_complex(inst.A, ReassignmentSpec(tuple(groups)),
                               inst.space, inst.cls)
        assert asm.width == 6
        # chains sorted long-first inside each side, mirrored across sides
        np.testing.assert_allclose(np.diag(asm.Lambda_c),
                                   [2 + 1j, 2 + 1j, 2 + 1j, 2 - 1j, 2 - 1j, 2 - 1j])
        assert asm.Lambda_c[0, 1] == 1.0 and asm.Lambda_c[1, 2] == 0.0
        assert asm.Lambda_c[3, 4] == 1.0 and asm.Lambda_c[4, 5] == 0.0
        assert certificate_residual(asm, inst.space, inst.cls) <= 1e-8

    def test_closure_violation_raises(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        spec = ReassignmentSpec((
            ReassignmentGroup(2 + 1j, 3 + 1j, (np.ones((4, 1)),)),))
        with pytest.raises(StructureError):
            assemble_complex(np.eye(4), spec, space, "lie")


class TestAssembleRealLie:
    def test_real_pair_assembly(self):
        rec = InstanceRecipe("flip", "lie", "real", "T",
                             (PlanGroup(0.8, (1,)), PlanGroup(-0.8, (1,))),
                             seed=36)
        inst = generate_instance(rec)
        groups = _groups_from_pairs(inst.pairs, [(0.8, 1.4), (-0.8, -1.4)])
        asm = assemble_real_lie(inst.A, ReassignmentSpec(groups), inst.space)
        assert asm.width == 2
        assert asm.real_output
        np.testing.assert_allclose(asm.conjugation, np.eye(2))
        np.testing.assert_allclose(np.conj(asm.X_c), asm.X_c @ asm.conjugation,
                                   atol=1e-10)

    def test_quadruple_conjugation_permutation(self):
        rec = InstanceRecipe("skewj", "lie", "real", "T",
                             (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)),
                              PlanGroup(-1 + 2j, (1,)), PlanGroup(-1 - 2j, (1,))),
                             seed=37)
        inst = generate_instance(rec)
        mapping = [(1 + 2j, 2 + 1j), (1 - 2j, 2 - 1j),
                   (-1 + 2j, -2 + 1j), (-1 - 2j, -2 - 1j)]
        groups = _groups_from_pairs(inst.pairs, mapping)
        asm = assemble_real_lie(inst.A, ReassignmentSpec(groups), inst.space)
        assert asm.width == 4
        R = asm.conjugation
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_allclose(R, expected)
        np.testing.assert_allclose(np.conj(asm.X_c), asm.X_c @ R, atol=1e-10)
        np.testing.assert_allclose(
            np.conj(asm.X_c @ (asm.Lambda_a - asm.Lambda_c)),
            asm.X_c @ (asm.Lambda_a - asm.Lambda_c) @ R, atol=1e-9)

    def test_imaginary_pair_antidiagonal_permutation(self):
        rec = InstanceRecipe("identity", "lie", "real", "T",
                             (PlanGroup(1.5j, (1,)), PlanGroup(-1.5j, (1,))),
                             seed=38)
        inst = generate_instance(rec)
        groups = _groups_from_pairs(inst.pairs, [(1.5j, 2.5j), (-1.5j, -2.5j)])
        asm = assemble_real_lie(inst.A, ReassignmentSpec(groups), inst.space)
        np.testing.assert_allclose(asm.conjugation, [[0, 1], [1, 0]])
        np.testing.assert_allclose(np.conj(asm.X_c), asm.X_c @ asm.conjugation,
                                   atol=1e-10)

    def test_zero_eigenvalue_rejected(self):
        space = ScalarProductSpace(np.eye(2), star="t", field="real")
        spec = ReassignmentSpec((
            ReassignmentGroup(0.0, 1.0, (np.ones((2, 1)),)),))
        with pytest.raises(StructureError):
            assemble_real_lie(None, spec, space)

    def test_category_change_rejected(self):
        rec = InstanceRecipe("identity", "lie", "real", "T",
                             (PlanGroup(1.5j, (1,)), PlanGroup(-1.5j, (1,))),
                             seed=39)
        inst = generate_instance(rec)
        groups = _groups_from_pairs(inst.pairs, [(1.5j, 1 + 1j), (-1.5j, 1 - 1j)])
        with pytest.raises(StructureError):
            assemble_real_lie(inst.A, ReassignmentSpec(groups), inst.space)


class TestAssembleRealJordan:
    def test_single_real_eigenvalue(self):
        rec = InstanceRecipe("identity", "jordan", "real", "T",
                             (PlanGroup(1.0, (1,)), PlanGroup(-2.0, (1,))),
                             seed=40)
        inst = generate_instance(rec)
        groups = _groups_from_pairs(inst.pairs, [(1.0, 5.0)])
        asm = assemble_real_jordan(inst.A, ReassignmentSpec(groups), inst.space)
        assert asm.width == 1
        assert asm.real_output

    def test_printed_jordan_arrangement(self):
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        groups = tuple(
            ReassignmentGroup(c, t, (golden.JORDAN5_XC[:, [j]],))
            for j, (c, t) in enumerate(zip(golden.JORDAN5_CURRENT,
                                           golden.JORDAN5_TARGET)))
        asm = assemble_real_jordan(golden.JORDAN5_A, ReassignmentSpec(groups),
                                   space, tol=ToleranceProfile(residual_tol=1e-3))
        np.testing.assert_allclose(np.diag(asm.Lambda_c), golden.JORDAN5_CURRENT,
                                   atol=1e-12)
        np.testing.assert_allclose(np.diag(asm.Lambda_a), golden.JORDAN5_TARGET,
                                   atol=1e-12)
        # the conjugate column is snapped onto conj of the representative
        np.testing.assert_allclose(asm.X_c[:, 1], np.conj(asm.X_c[:, 0]),
                                   atol=1e-14)
        np.testing.assert_allclose(asm.X_c, golden.JORDAN5_XC, atol=1e-12)

    def test_conjugate_chain_couple_partition(self):
        rec = InstanceRecipe("signature", "jordan", "real", "T",
                             (PlanGroup(1 + 2j, (2,)), PlanGroup(1 - 2j, (2,)),
                              PlanGroup(3.0, (1,))),
                             seed=41)
        inst = generate_instance(rec)
        mapping = [(1 + 2j, 2 + 3j), (1 - 2j, 2 - 3j)]
        groups = _groups_from_pairs(inst.pairs, mapping)
        asm = assemble_real_jordan(inst.A, ReassignmentSpec(groups), inst.space)
        assert asm.width == 4
        np.testing.assert_allclose(np.diag(asm.Lambda_c),
                                   [1 + 2j, 1 + 2j, 1 - 2j, 1 - 2j])
        assert asm.Lambda_c[0, 1] == 1.0 and asm.Lambda_c[2, 3] == 1.0
        np.testing.assert_allclose(np.conj(asm.X_c), asm.X_c @ asm.conjugation,
                                   atol=1e-10)

    def test_real_current_with_complex_target_rejected(self):
        rec = InstanceRecipe("identity", "jordan", "real", "T",
                             (PlanGroup(1.0, (1,)), PlanGroup(-2.0, (1,))),
                             seed=42)
        inst = generate_instance(rec)
        groups = _groups_from_pairs(inst.pairs, [(1.0, 1 + 1j)])
        with pytest.raises(StructureError):
            assemble_real_jordan(inst.A, ReassignmentSpec(groups), inst.space)


class TestCertificate:
    def test_certificate_holds_for_generated_assemblies(self, rng):
        rec = InstanceRecipe("flip", "lie", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(-2 + 1j, (1,)),
                              PlanGroup(1.5j, (1,)), PlanGroup(-0.7j, (1,))),
                             seed=43)
        inst = generate_instance(rec)
        mapping = [(2 + 1j, 3 + 2j), (-2 + 1j, -3 + 2j), (1.5j, 0.5j)]
        groups = _groups_from_pairs(inst.pairs, mapping)
        asm = assemble_complex(inst.A, ReassignmentSpec(groups), inst.space,
                               inst.cls)
        G = inst.space.star_mat(asm.X_c) @ inst.space.H @ asm.X_c
        scale = max(1.0, np.linalg.norm(G) * np.linalg.norm(
            asm.Lambda_a - asm.Lambda_c))
        assert certificate_residual(asm, inst.space, inst.cls) <= 1e-8 * scale


class TestScalingCovariance:
    def test_column_rescale_leaves_no_spillover_unchanged(self, rng):
        from specpreserve import reassign_no_spillover
        rec = InstanceRecipe("flip", "jordan", "complex", "CT",
                             (PlanGroup(2 + 1j, (1,)), PlanGroup(2 - 1j, (1,)),
                              PlanGroup(1.0, (1,)), PlanGroup(-3.0, (1,))),
                             seed=44)
        inst = generate_instance(rec)
        mapping = [(2 + 1j, 4 + 2j), (2 - 1j, 4 - 2j)]
        groups = _groups_from_pairs(inst.pairs, mapping)
        asm1 = assemble_complex(inst.A, ReassignmentSpec(groups), inst.space,
                                inst.cls)
        scaled = tuple(
            ReassignmentGroup(g.current, g.target,
                              tuple(c * (1.5 + 0.5j) for c in g.chains))
            for g in groups)
        asm2 = assemble_complex(inst.A, ReassignmentSpec(scaled), inst.space,
                                inst.cls)
        d1 = reassign_no_spillover(inst.A, asm1, inst.space, inst.cls,
                                   verify=False).delta
        d2 = reassign_no_spillover(inst.A, asm2, inst.space, inst.cls,
                                   verify=False).delta
        np.testing.assert_allclose(d1, d2, atol=1e-9 * max(1.0, np.linalg.norm(d1)))


class TestBlockDiag:
    """``_block_diag`` stands in for ``scipy.linalg.block_diag`` in the
    canonical units, the assemblies and the generator, so it must give the
    same bits and dtype."""

    @pytest.mark.parametrize("blocks", [
        [np.arange(4.0).reshape(2, 2), np.array([[5.0]])],
        [np.array([[1 + 2j, 3j]]), np.array([[4 - 1j], [2j]])],
        [np.eye(2), np.array([[1j]]), np.arange(6).reshape(2, 3)],
        [np.array([1.0, 2.0]), np.array([[3.0, 4.0], [5.0, 6.0]])],
        [2.5, np.array([1j, 2.0])],
        [np.zeros((0, 0)), np.eye(2), np.zeros((0, 0), dtype=complex)],
        [np.zeros((2, 0)), np.array([[7.0]])],
        [np.array([])],
        [],
    ], ids=["real", "complex", "mixed", "1-D", "scalar-and-1-D", "0x0",
            "2x0", "empty-1-D", "no-blocks"])
    def test_matches_scipy_bit_for_bit(self, blocks):
        want = scipy.linalg.block_diag(*blocks)
        got = spectral._block_diag(*blocks)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
