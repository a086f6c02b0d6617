"""Structured invariant-subspace workflows and the rank-bounded
no-spillover update, including the printed worked examples."""

import numpy as np
import pytest
import scipy.linalg

import golden
import helpers
from specpreserve import (
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    adjoint,
    is_member,
    numerical_rank,
    reassign_simple,
    sample_structured,
)
from specpreserve import subspaces

LOOSE = ToleranceProfile(structure_tol=1e-3, residual_tol=1e-3)


def _structured_with_eigbasis(space, cls, seed):
    A = helpers.random_member(space, cls, seed)
    w, V = np.linalg.eig(A)
    return A, w, V


class TestLambdaCompatibility:
    def test_zero_target_compatible(self, rng):
        space = ScalarProductSpace.flip(4)
        X = helpers.random_full_rank(4, 2, rng)
        rep = subspaces.lambda_compatibility(X, np.zeros((2, 2)), space, "jordan")
        assert rep.compatible and rep.condition_residual <= 1e-14

    def test_hermitian_target_on_orthonormal_basis(self, rng):
        space = ScalarProductSpace(np.eye(5), star="ct")
        X, _ = np.linalg.qr(helpers.random_full_rank(5, 2, rng))
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        herm = (M + M.conj().T) / 2
        assert subspaces.lambda_compatibility(X, herm, space, "jordan").compatible
        assert not subspaces.lambda_compatibility(
            X, herm + np.array([[0, 0.3], [0, 0]]), space, "jordan").compatible

    def test_printed_lie_targets_compatible(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        La = np.diag(golden.LIE4_TARGET)
        rep = subspaces.lambda_compatibility(golden.LIE4_XC, La, space, "lie", LOOSE)
        assert rep.compatible

    def test_rank_deficiency_rejected(self, rng):
        space = ScalarProductSpace(np.eye(4), star="ct")
        X = np.zeros((4, 2))
        with pytest.raises(StructureError):
            subspaces.lambda_compatibility(X, np.eye(2), space, "jordan")


class TestReproduceInvariant:
    def test_existing_restriction_gives_zero(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=11)
        X = V[:, :2]
        Lam = np.diag(w[:2])
        delta = subspaces.reproduce_invariant(A, X, Lam, space, cls)
        assert np.linalg.norm(delta) <= 1e-9 * max(1.0, np.linalg.norm(A))

    def test_hamiltonian_structured_update(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A = helpers.random_member(space, cls, seed=12)
        X, _ = np.linalg.qr(helpers.random_full_rank(6, 2, rng))
        G = X.conj().T @ space.H @ X
        # build a compatible target: G L = L* G with L = G^-1 M, M Hermitian
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M = (M + M.conj().T) / 2
        Lam = np.linalg.solve(G, M)
        delta = subspaces.reproduce_invariant(A, X, Lam, space, cls)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ X - X @ Lam) <= 1e-9 * scale
        assert is_member(delta, space, cls)

    def test_zero_parameter_is_minimal(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=13)
        idx = helpers.paired_split(w, space, cls, 2, tol=1e-6)
        X = V[:, idx]
        Lam = np.diag(helpers.paired_targets(w[idx], space, cls, rng))
        base = subspaces.reproduce_invariant(A, X, Lam, space, cls)
        for seed in range(20):
            Z = sample_structured(space, cls, seed + 50)
            other = subspaces.reproduce_invariant(A, X, Lam, space, cls, Z=Z)
            assert np.linalg.norm(base) <= np.linalg.norm(other) + 1e-12

    def test_incompatible_target_rejected(self, rng):
        space = ScalarProductSpace(np.eye(4), star="ct")
        A = helpers.random_member(space, StructureClass.JORDAN, seed=14)
        X, _ = np.linalg.qr(helpers.random_full_rank(4, 2, rng))
        bad = np.array([[1.0, 1.0], [0.0, 2.0]])  # not Hermitian
        with pytest.raises(StructureError):
            subspaces.reproduce_invariant(A, X, bad, space, "jordan")


class TestPreserveInvariant:
    def test_identity_inputs_give_zero(self):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=15)
        X = V[:, :2]
        Lc = np.diag(w[:2])
        delta = subspaces.preserve_invariant(A, X, Lc, np.eye(2), Lc, space, cls)
        assert np.linalg.norm(delta) <= 1e-9 * max(1.0, np.linalg.norm(A))

    def test_identity_r_reduces_to_reproduce(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=16)
        idx = helpers.paired_split(w, space, cls, 2, tol=1e-6)
        X = V[:, idx]
        Lc = np.diag(w[idx])
        La = np.diag(helpers.paired_targets(w[idx], space, cls, rng))
        d1 = subspaces.preserve_invariant(A, X, Lc, np.eye(2), La, space, cls)
        d2 = subspaces.reproduce_invariant(A, X, La, space, cls)
        assert np.linalg.norm(d1 - d2) <= 1e-10 * max(1.0, np.linalg.norm(d1))

    def test_diagonal_r_keeps_subspace(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=17)
        idx = helpers.paired_split(w, space, cls, 2, tol=1e-6)
        X = V[:, idx]
        Lc = np.diag(w[idx])
        # rescaling the basis columns keeps the compatibility pattern for a
        # diagonal target
        R = np.diag(1.0 + 0.5 * rng.standard_normal(2))
        La = np.diag(helpers.paired_targets(w[idx], space, cls, rng))
        delta = subspaces.preserve_invariant(A, X, Lc, R, La, space, cls)
        XR = X @ R
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ XR - XR @ La) <= 1e-9 * scale
        assert is_member(delta, space, cls)


class TestPreserveComplementary:
    @staticmethod
    def _symmetric():
        space = ScalarProductSpace(np.eye(6), star="t", field="real")
        A = helpers.random_member(space, "jordan", 25).real
        w, V = np.linalg.eigh(A)
        return space, A, w, V

    @pytest.mark.parametrize("last", ["duplicate", "scaled"])
    def test_singular_basis_rejected(self, last):
        space, A, w, V = self._symmetric()
        X_f, w_f = V[:, 2:].copy(), w[2:].copy()
        if last == "duplicate":  # exactly singular
            X_f[:, -1], w_f[-1] = X_f[:, 0], w_f[0]
        else:  # V is orthogonal, so sigma_min / sigma_max = 1e-13
            X_f[:, -1] *= 1e-13
        with pytest.raises(StructureError) as exc:
            subspaces.preserve_complementary(
                A, V[:, :2], np.diag(w[:2] + 1.0), X_f, np.diag(w_f), space,
                "jordan")
        assert exc.value.condition == "nonsingular_basis"

    def test_nonsingularity_takes_no_square_svd(self, monkeypatch):
        space, A, w, V = self._symmetric()
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        subspaces.preserve_complementary(
            A, V[:, :2], np.diag(w[:2] + 1.0), V[:, 2:], np.diag(w[2:]), space,
            "jordan")
        assert (6, 6) not in shapes

    def _setup(self, seed):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed)
        idx = helpers.paired_split(w, space, cls, 2, tol=1e-6)
        assert idx is not None, "random member had no self-contained pair"
        rest = [i for i in range(6) if i not in idx]
        order = idx + rest
        return space, cls, A, w[order], V[:, order]

    def test_same_restriction_gives_zero(self):
        space, cls, A, w, V = self._setup(18)
        delta = subspaces.preserve_complementary(
            A, V[:, :2], np.diag(w[:2]), V[:, 2:], np.diag(w[2:]), space, cls)
        assert np.linalg.norm(delta) <= 1e-8 * max(1.0, np.linalg.norm(A))

    def test_disjoint_split_invariance_and_membership(self):
        space, cls, A, w, V = self._setup(19)
        X_c, X_f = V[:, :2], V[:, 2:]
        G = X_c.conj().T @ space.H @ X_c
        M = np.array([[0.4, 0.1], [0.1, -0.2]])
        La = np.diag(w[:2]) + np.linalg.solve(G, M)
        W = G @ La
        if np.linalg.norm(W - W.conj().T) > 1e-8 * np.linalg.norm(W):
            pytest.skip("shift broke compatibility")
        delta = subspaces.preserve_complementary(
            A, X_c, La, X_f, np.diag(w[2:]), space, cls)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ X_c - X_c @ La) <= 1e-8 * scale
        assert np.linalg.norm((A + delta) @ X_f - X_f @ np.diag(w[2:])) <= 1e-8 * scale
        assert is_member(delta, space, cls)
        # block-diagonal relation in the combined basis
        X = np.hstack([X_c, X_f])
        T = np.linalg.solve(X, (A + delta) @ X)
        np.testing.assert_allclose(T[:2, 2:], 0, atol=1e-7 * scale)
        np.testing.assert_allclose(T[2:, :2], 0, atol=1e-7 * scale)

    def test_printed_jordan_example_through_complementary_route(self):
        """With a square [X_c X_f] the structured interpolant is unique, so
        the complementary-pair formula must land on the same update as the
        closed-form no-spillover one."""
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        La = np.diag(golden.JORDAN5_TARGET)
        delta = subspaces.preserve_complementary(
            golden.JORDAN5_A, golden.JORDAN5_XC, La,
            golden.JORDAN5_XF, golden.JORDAN5_LF, space, "jordan",
            tol=LOOSE)
        assert np.max(np.abs(delta.imag)) <= 1e-8
        assert np.max(np.abs(delta.real - golden.JORDAN5_DELTA)) <= golden.PRINT_TOL

    def test_gram_cross_block_vanishes_under_disjointness(self):
        space, cls, A, w, V = self._setup(20)
        X_c, X_f = V[:, :2], V[:, 2:]
        cross = X_c.conj().T @ space.H @ X_f
        lc = w[:2]
        lf = w[2:]
        gap = np.min(np.abs(np.conj(lc)[:, None] - lf[None, :]))
        if gap > 1e-3:
            assert np.linalg.norm(cross) <= 1e-8 * (
                np.linalg.norm(X_c) * np.linalg.norm(X_f) * np.linalg.norm(space.H))


class TestNoSpillover:
    def test_same_target_gives_zero(self):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=21)
        # an eigenvalue with its conjugate partner: two eigenvectors of
        # unpaired non-real eigenvalues are H-isotropic, G singular
        cols = [0, int(np.argmin(np.abs(w - np.conj(w[0]))))]
        X = V[:, cols]
        Lc = np.diag(w[cols])
        delta = subspaces.no_spillover(A, X, Lc, Lc, space, cls)
        assert np.linalg.norm(delta) <= 1e-10 * max(1.0, np.linalg.norm(A))
        assert numerical_rank(delta) == 0

    def test_printed_symmetric_example(self):
        space = ScalarProductSpace(np.eye(3), star="t", field="real")
        Lc = np.diag(golden.SYM3_CURRENT)
        La = np.diag(golden.SYM3_TARGET)
        delta = subspaces.no_spillover(
            golden.SYM3_A, golden.SYM3_XC, Lc, La, space, "jordan",
            tol=LOOSE)
        assert np.max(np.abs(delta.real - golden.SYM3_DELTA)) <= golden.PRINT_TOL
        assert numerical_rank(delta, 1e-6) == 2
        eigs = np.linalg.eigvals(golden.SYM3_A + delta.real)
        assert np.min(np.abs(eigs - golden.SYM3_FIXED)) <= 1e-3

    def test_pair_tolerance_derives_from_the_profile(self):
        """The sym3 basis is printed at 4 decimals (relative invariant-pair
        residual 4.6e-6): the loose profile admits it, as the CLI job does,
        and the default profile's 1e-6 rejects it."""
        space = ScalarProductSpace(np.eye(3), star="t", field="real")
        args = (golden.SYM3_A, golden.SYM3_XC, np.diag(golden.SYM3_CURRENT),
                np.diag(golden.SYM3_TARGET), space, "jordan")
        assert (LOOSE.eig_tol, ToleranceProfile().eig_tol) == (1e-3, 1e-6)
        subspaces.no_spillover(*args, tol=LOOSE)
        with pytest.raises(StructureError) as err:
            subspaces.no_spillover(*args)
        assert err.value.condition == "invariant_pair_residual"

    def test_printed_jordan_example_with_fixed_pair(self):
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        Lc = np.diag(golden.JORDAN5_CURRENT)
        La = np.diag(golden.JORDAN5_TARGET)
        delta = subspaces.no_spillover(
            golden.JORDAN5_A, golden.JORDAN5_XC, Lc, La, space, "jordan",
            tol=LOOSE)
        assert np.max(np.abs(delta.imag)) <= 1e-10
        assert np.max(np.abs(delta.real - golden.JORDAN5_DELTA)) <= golden.PRINT_TOL
        fixed = np.linalg.norm(
            (golden.JORDAN5_A + delta.real) @ golden.JORDAN5_XF
            - golden.JORDAN5_XF @ golden.JORDAN5_LF)
        assert fixed <= 1e-3

    def test_update_is_structured_by_the_adjoint_identity(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=22)
        idx = helpers.paired_split(w, space, cls, 2, tol=1e-6)
        X = V[:, idx]
        Lc = np.diag(w[idx])
        La = np.diag(helpers.paired_targets(w[idx], space, cls, rng))
        delta = subspaces.no_spillover(A, X, Lc, La, space, cls)
        scale = max(1.0, np.linalg.norm(delta))
        assert np.linalg.norm(
            cls.epsilon2 * adjoint(delta, space) - delta) <= 1e-9 * scale

    def test_incompatible_target_fails_with_residual(self):
        space = ScalarProductSpace(np.eye(4), star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=23)
        X = V[:, :2]
        Lc = np.diag(w[:2])
        La = Lc + np.array([[0, 0.5], [0, 0]])  # non-Hermitian shift
        with pytest.raises(StructureError) as exc:
            subspaces.no_spillover(A, X, Lc, La, space, cls)
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_isotropic_basis_is_gram_singular(self):
        # X* H X = 0 exactly: a zero singular value fails the bound
        # rank_tol * ||X||_F^2, before any LU of G
        space = ScalarProductSpace.flip(4)
        A = np.diag([2.0, 3.0, 2.0, 3.0])
        with pytest.raises(StructureError) as exc:
            subspaces.no_spillover(A, np.eye(4)[:, [0]], [[2.0]], [[5.0]],
                                   space, "jordan")
        assert exc.value.condition == "gram_singular"
        assert exc.value.residual == 0.0
        assert exc.value.threshold == ToleranceProfile().rank_tol

    def test_basis_isotropic_to_rounding_is_gram_singular(self):
        # x* H x = 2e-14 for a unit x: one column, so G is perfectly
        # conditioned, yet the update would be ~1e14 too large; both entry
        # points must refuse it
        space = ScalarProductSpace.flip(4)
        A = np.diag([2.0, 3.0, 2.0, 3.0])
        x = np.array([1.0, 0.0, 1e-14, 0.0])
        for call in (
                lambda: subspaces.no_spillover(A, x[:, None], [[2.0]], [[5.0]],
                                               space, "jordan"),
                lambda: reassign_simple(A, [(2.0, x)], [5.0], space, "jordan")):
            with pytest.raises(StructureError) as exc:
                call()
            assert exc.value.condition == "gram_singular"
            assert exc.value.residual == pytest.approx(2e-14, rel=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6])
    def test_rescaled_basis_gives_the_same_update(self, scale):
        # delta depends only on the map X -> X D, so a basis scaled by 1e-6
        # (G ~ 1e-12 I, well conditioned) must give the update of the unit
        # basis through both entry points
        B = np.random.default_rng(1).standard_normal((8, 8))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        space = ScalarProductSpace.identity(8, star="t", field="real")
        X, Lc = scale * V[:, :2], np.diag(w[:2])
        ref = V[:, :2] @ V[:, :2].T
        direct = subspaces.no_spillover(A, X, Lc, Lc + np.eye(2), space, "jordan")
        simple = reassign_simple(A, [(w[0], X[:, 0]), (w[1], X[:, 1])],
                                 w[:2] + 1.0, space, "jordan").delta
        for delta in (direct, simple):
            assert np.linalg.norm(delta - ref) <= 1e-12
        assert np.linalg.norm(simple) == pytest.approx(np.sqrt(2.0), rel=1e-12)



def _lu_reference(G, RHS):
    """LU with partial pivoting and one refinement step, by scipy's
    factor-once routines."""
    lu = scipy.linalg.lu_factor(G)
    Y = scipy.linalg.lu_solve(lu, RHS)
    return Y + scipy.linalg.lu_solve(lu, RHS - G @ Y)


class TestGramInverseApply:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 4, 64])
    def test_matches_the_scipy_lu_reference(self, p, field, rng):
        def draw(*shape):
            M = rng.standard_normal(shape)
            return M + 1j * rng.standard_normal(shape) if field == "complex" else M
        G = draw(p, p) + p * np.eye(p) / 4
        RHS = draw(p, 3 * p + 5)
        Y, cond = subspaces.gram_inverse_apply(G, RHS)
        want = _lu_reference(G, RHS)
        assert Y.dtype == want.dtype
        assert (np.linalg.norm(Y - want)
                <= 1e-12 * cond * np.linalg.norm(want))
        assert cond == float(np.real(np.linalg.cond(G, 1)))

    def test_ill_conditioned_gram_still_warns(self):
        # X_c spans the invariant plane of the double eigenvalue 1 through
        # two nearly parallel columns, so cond_1(G) is about 4 / eps^2 = 1e9
        eps = 2 / np.sqrt(1e9)
        space = ScalarProductSpace(np.eye(4), star="t", field="real")
        A = np.diag([1.0, 1.0, 3.0, 4.0])
        X = np.array([[1.0, 1.0], [0.0, eps], [0.0, 0.0], [0.0, 0.0]])
        cond = np.linalg.cond(X.T @ X, 1)
        assert 5e8 < cond < 2e9 and cond > subspaces.COND_WARN
        with pytest.warns(UserWarning, match="Gram matrix badly conditioned"):
            delta = subspaces.no_spillover(A, X, np.eye(2), 2 * np.eye(2),
                                           space, "jordan")
        np.testing.assert_allclose(delta, np.diag([1.0, 1.0, 0.0, 0.0]),
                                   atol=1e-6)

class TestInvariantPairIdentities:
    def test_gram_eigen_identity_on_constructed_pairs(self):
        space = ScalarProductSpace.flip(6, star="ct")
        cls = StructureClass.JORDAN
        A, w, V = _structured_with_eigbasis(space, cls, seed=24)
        X1, L1 = V[:, :2], np.diag(w[:2])
        X2, L2 = V[:, 2:4], np.diag(w[2:4])
        H = space.H
        for (Xj, Lj), (Xk, Lk) in [((X1, L1), (X2, L2)), ((X1, L1), (X1, L1))]:
            lhs = Xj.conj().T @ H @ A @ Xk
            mid = cls.epsilon2 * Lj.conj().T @ Xj.conj().T @ H @ Xk
            rhs = Xj.conj().T @ H @ Xk @ Lk
            scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(H))
            assert np.linalg.norm(lhs - mid) <= 1e-9 * scale
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * scale
