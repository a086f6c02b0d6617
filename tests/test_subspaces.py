"""Structured invariant-subspace workflows and the rank-bounded
no-spillover update, including the printed worked examples."""

import numpy as np
import pytest
import scipy.linalg

import golden
import helpers
from specpreserve import (
    ArgumentError,
    InstanceRecipe,
    PlanGroup,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    adjoint,
    generate_instance,
    is_member,
    numerical_rank,
    reassign_simple,
    sample_structured,
    structure_residual,
)
from specpreserve import subspaces
from specpreserve.spectral import jordan_block

LOOSE = ToleranceProfile(residual_tol=1e-3)


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
        space = ScalarProductSpace(golden.LIE4_H, star="ct", structure_tol=1e-3)
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

    def test_rank_deficient_basis_rejected(self):
        # the certified family entry takes a full-rank basis, on which the
        # range condition of A X = B holds
        space = ScalarProductSpace.flip(6, star="ct")
        A, w, V = _structured_with_eigbasis(space, "jordan", seed=15)
        X, Lc = V[:, [0, 0]], np.diag(w[[0, 0]])
        with pytest.raises(StructureError) as exc:
            subspaces.preserve_invariant(A, X, Lc, np.eye(2), Lc, space,
                                         "jordan")
        assert exc.value.condition == "rank"

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

    def test_a_near_gap_warns_and_still_fixes_the_pair(self):
        # a current 3e-5 from a fixed value: past SPECTRAL_SEPARATION = 1e-6
        # of the scale |w_f|_F ~ 7.1, within ten times it
        space = ScalarProductSpace(np.eye(6), star="t", field="real")
        Q = np.linalg.qr(np.random.default_rng(26).standard_normal((6, 6)))[0]
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1.0 + 3e-5])
        A = (Q * w) @ Q.T
        La, Lf = np.diag([1.5, 2.5]), np.diag(w[2:])
        with pytest.warns(UserWarning, match="spectral gap 3.0"):
            delta = subspaces.preserve_complementary(
                A, Q[:, :2], La, Q[:, 2:], Lf, space, "jordan")
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ Q[:, 2:] - Q[:, 2:] @ Lf) <= (
            1e-10 * scale)
        assert np.linalg.norm((A + delta) @ Q[:, :2] - Q[:, :2] @ La) <= (
            1e-10 * scale)

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


def _quad(v):
    return [v, np.conj(v), -v, -np.conj(v)]


def _couple(v):
    return [v, -np.conj(v)]


# arrangement -> (field, star, class, eps1 of a random H, preset, changed
# values, their targets, fixed values); each changed set is one closed
# pairing family, so the targets keep G L = e2 L* G on its eigenvectors
SPLITS = {
    "real-jordan": ("real", "T", "jordan", 1, "identity", [1.0, 2.0],
                    [1.5, 2.5], [-1.0, -2.0, 3.0, 4.0, -3.0, 5.0]),
    # complex eigenvector data on a real space
    "real-lie": ("real", "T", "lie", -1, "skewj", _quad(1 + 2j),
                 _quad(1.5 + 2.5j), _quad(3 + 0.5j)),
    "complex-lie": ("complex", "CT", "lie", 1, "flip", _couple(1 + 2j),
                    _couple(1.5 + 2.5j),
                    _couple(3 + 1j) + _couple(0.5 + 2.5j) + _couple(2 - 1j)),
}


def _generated_split(name, dense):
    """(instance, X_c, Lambda_c, Lambda_a, X_f, Lambda_f) of eigenvectors
    of a generated n = 8 instance, on the preset H or a random dense H."""
    field, star, cls, eps1, preset, cur, tgt, fixed = SPLITS[name]
    inst = generate_instance(InstanceRecipe(
        "random" if dense else preset, cls, field, star,
        tuple(PlanGroup(v, (1,)) for v in cur + fixed), seed=5,
        eps1=eps1 if dense else 0))
    chains = {complex(p.value): p.chain for p in inst.pairs}
    X_c, X_f = (np.hstack([chains[complex(v)] for v in vs])
                for vs in (cur, fixed))
    return inst, X_c, np.diag(cur), np.diag(tgt), X_f, np.diag(fixed)


class TestComplementaryIsNoSpillover:
    """The certified gap forces X_c* H X_f = 0, so the complementary update
    is the no-spillover update, and it fixes the fixed pair."""

    @pytest.mark.parametrize("dense", [False, True], ids=["preset", "dense"])
    @pytest.mark.parametrize("name", list(SPLITS))
    def test_equals_no_spillover_and_fixes_x_f(self, name, dense):
        inst, X_c, Lc, La, X_f, Lf = _generated_split(name, dense)
        delta = subspaces.preserve_complementary(inst.A, X_c, La, X_f, Lf,
                                                 inst.space, inst.cls)
        ref = subspaces.no_spillover(inst.A, X_c, Lc, La, inst.space,
                                     inst.cls)
        assert np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(ref)
        for x in X_f.T:
            assert (np.linalg.norm(delta @ x)
                    <= 1e-12 * np.linalg.norm(delta) * np.linalg.norm(x))

    @pytest.mark.parametrize("name", ["real-jordan", "complex-lie"])
    def test_empty_fixed_block_is_disjoint_from_all(self, name):
        inst, X_c, Lc, La, X_f, Lf = _generated_split(name, dense=False)
        X = np.hstack([X_c, X_f])
        L_all = scipy.linalg.block_diag(Lc, Lf)
        L_new = scipy.linalg.block_diag(La, 1.25 * Lf)
        delta = subspaces.preserve_complementary(
            inst.A, X, L_new, X[:, :0], np.zeros((0, 0)), inst.space,
            inst.cls)
        ref = subspaces.no_spillover(inst.A, X, L_all, L_new, inst.space,
                                     inst.cls)
        assert np.linalg.norm(delta - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["real-jordan", "complex-lie"])
    def test_empty_changed_block_gives_the_zero_update(self, name):
        inst, X_c, Lc, La, X_f, Lf = _generated_split(name, dense=False)
        X = np.hstack([X_c, X_f])
        delta = subspaces.preserve_complementary(
            inst.A, X[:, :0], np.zeros((0, 0)), X,
            scipy.linalg.block_diag(Lc, Lf), inst.space, inst.cls)
        assert delta.shape == inst.A.shape and delta.dtype == inst.A.dtype
        assert not delta.any()

def _unstructured(A, seed, size=1e-6):
    """A plus a random real term of relative size 1e-6, out of the algebra
    by far more than the residual tolerance."""
    E = np.random.default_rng(seed).standard_normal(A.shape)
    return A + size * np.linalg.norm(A) / np.linalg.norm(E) * E


class TestUnstructuredOperator:
    """W = X* H B carries ``X* H A X``, so the symmetry test of the family
    is the one check on an A that leaves the algebra."""

    @pytest.mark.parametrize("name", list(SPLITS))
    def test_reproduce_refuses(self, name):
        inst, X_c, _, La, _, _ = _generated_split(name, dense=False)
        with pytest.raises(StructureError) as exc:
            subspaces.reproduce_invariant(_unstructured(inst.A, 1), X_c, La,
                                          inst.space, inst.cls)
        assert exc.value.condition == "feasibility"

    @pytest.mark.parametrize("name", list(SPLITS))
    def test_preserve_refuses(self, name):
        # A X_c = X_c Lambda_c holds exactly for the Lambda_c that A carries
        # after a 1e-6 off-diagonal term, which G Lambda_c = e2 Lambda_c* G
        # then fails
        inst, X_c, Lc, La, _, _ = _generated_split(name, dense=False)
        p = X_c.shape[1]
        M = 1e-6 * np.eye(p, k=1)
        A = inst.A + X_c @ M @ np.linalg.pinv(X_c)
        with pytest.raises(StructureError) as exc:
            subspaces.preserve_invariant(A, X_c, Lc + M, np.eye(p), La,
                                         inst.space, inst.cls)
        assert exc.value.condition == "feasibility"


def _near_fixed_split(eps):
    """A real Jordan instance on the identity H whose fixed value 1 + 1e-4
    lies just outside ten times the separation from the changed value 1,
    with that fixed eigenvector moved by eps along the changed one: its
    pair residual is eps 1e-4 and ``X_c* H X_f`` is eps.  Returns (A,
    space, X_c, Lambda_a, moved X_f, Lambda_f, exact X_f)."""
    cur, tgt, fixed = [1.0, 2.0], [1.5, 2.5], [1.0 + 1e-4, -1.0, 3.0, 5.0]
    inst = generate_instance(InstanceRecipe(
        "identity", "jordan", "real", "T",
        tuple(PlanGroup(v, (1,)) for v in cur + fixed), seed=5))
    chains = {complex(p.value): p.chain for p in inst.pairs}
    X_c, X_f = (np.hstack([chains[complex(v)] for v in vs])
                for vs in (cur, fixed))
    moved = X_f.copy()
    moved[:, 0] += eps * X_c[:, 0] / np.linalg.norm(X_c[:, 0]) ** 2
    return (inst.A, inst.space, X_c, np.diag(tgt), moved, np.diag(fixed),
            X_f)


class TestComplementaryFixedBasis:
    """The update fixes the H-orthogonal complement of range(X_c), so a
    fixed basis that is not H-orthogonal to X_c is decided, not trusted."""

    def test_basis_off_h_orthogonality_is_refused(self):
        A, space, X_c, La, X_f, Lf, _ = _near_fixed_split(1e-3)
        with pytest.raises(StructureError) as exc:
            subspaces.preserve_complementary(A, X_c, La, X_f, Lf, space,
                                             "jordan")
        assert exc.value.condition == "h_orthogonality"

    def test_basis_error_stays_out_of_the_structure(self):
        # within the decision the update is structured to rounding and fixes
        # the exact eigenvectors, and the moved X_f to the decided bound;
        # the basis-inverse solution [B_c, 0] [X_c X_f]^-1 fixes the moved
        # X_f to rounding and leaves the algebra by about eps
        tol = ToleranceProfile()
        A, space, X_c, La, X_f, Lf, exact = _near_fixed_split(1e-6)
        delta = subspaces.preserve_complementary(A, X_c, La, X_f, Lf, space,
                                                 "jordan")
        scale = np.linalg.norm(delta)
        assert structure_residual(delta, space, "jordan") <= 1e-13 * scale
        assert np.linalg.norm(delta @ exact) <= 1e-14 * scale
        assert (np.linalg.norm(delta @ X_f)
                <= tol.eig_tol * scale * np.linalg.norm(X_f))
        X = np.hstack([X_c, X_f])
        B = np.hstack([X_c @ La - A @ X_c, np.zeros_like(X_f)])
        inverse_route = np.linalg.solve(X.T, B.T).T
        assert np.linalg.norm(inverse_route @ X_f) <= 1e-14 * scale
        assert structure_residual(inverse_route, space, "jordan") >= 1e-7 * scale

    @pytest.mark.parametrize("scale", [1e5, 1e6])
    @pytest.mark.parametrize("name", list(SPLITS))
    def test_column_scale_of_x_c_leaves_the_update(self, name, scale):
        # the Gram test sees X_c with unit columns, as the update does not
        # depend on their scale
        inst, X_c, _, La, X_f, Lf = _generated_split(name, dense=False)
        D = np.diag([1.0] + [1 / scale] * (X_c.shape[1] - 1))
        ref = subspaces.preserve_complementary(inst.A, X_c, La, X_f, Lf,
                                               inst.space, inst.cls)
        got = subspaces.preserve_complementary(
            inst.A, X_c @ D, np.linalg.solve(D, La @ D), X_f, Lf, inst.space,
            inst.cls)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _jordan_fixed_case():
    """A real Jordan instance on a signature space: X_c is the simple
    eigenvalue 3, and the fixed pair holds two length-2 chains and a simple
    eigenvalue, so Lambda_f is upper bidiagonal."""
    rec = InstanceRecipe("signature", "jordan", "real", "T",
                         (PlanGroup(1 + 2j, (2,)), PlanGroup(1 - 2j, (2,)),
                          PlanGroup(3.0, (1,)), PlanGroup(-1.0, (1,))),
                         seed=41)
    inst = generate_instance(rec)
    chains = {complex(p.value): p.chain for p in inst.pairs}
    X_c = chains.pop(3.0)
    L_f = scipy.linalg.block_diag(*[jordan_block(v, X.shape[1])
                                    for v, X in chains.items()])
    return inst, X_c, np.hstack(list(chains.values())), L_f


# m x m fixed blocks with real distinct eigenvalues, by the triangles
# their nonzero entries take
FIXED_SHAPES = ["diagonal", "upper_bidiagonal", "lower_bidiagonal",
                "upper_dense", "lower_dense", "lower_corner", "tridiagonal",
                "corners", "dense"]


def _fixed_block(shape, m, rng):
    """A T of the named shape with real distinct eigenvalues: S + S^T for
    a symmetric shape, else the diagonal 1..m with entries in a triangle."""
    R = rng.standard_normal((m, m))
    band = np.triu(np.tril(R, 1), -1)
    corner = np.zeros((m, m))
    corner[-1, 0] = 1.0
    if shape in ("tridiagonal", "corners", "dense"):
        S = {"tridiagonal": band, "corners": np.diag(np.diag(R)) + corner,
             "dense": R}[shape]
        return S + S.T
    off = {"diagonal": 0 * R, "upper_bidiagonal": np.triu(band, 1),
           "lower_bidiagonal": np.tril(band, -1), "upper_dense": np.triu(R, 1),
           "lower_dense": np.tril(R, -1), "lower_corner": corner}[shape]
    return np.diag(np.arange(1.0, m + 1)) + off


class TestFixedSpectrum:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("lower", [False, True])
    def test_triangular_diagonal_is_eigvals(self, lower, field):
        # LAPACK's balancing isolates every eigenvalue of a triangular
        # matrix, so eigvals returns its diagonal entries as they are
        for seed in range(25):
            rng = np.random.default_rng([seed, lower])
            m = int(rng.integers(1, 30))
            T = helpers.random_full_rank(m, m, rng, field)
            values = helpers.random_full_rank(max(1, m // 3), 1, rng, field)
            T[np.diag_indices(m)] = rng.choice(values[:, 0], size=m)
            T = np.tril(T) if lower else np.triu(T)
            np.testing.assert_array_equal(
                np.sort_complex(np.diagonal(T)),
                np.sort_complex(np.linalg.eigvals(T)))

    @pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
    def test_jordan_fixed_block_takes_no_eigvals(self, monkeypatch, lower):
        inst, X_c, X_f, L_f = _jordan_fixed_case()
        if lower:
            # the chains in reverse order: Lambda_f is lower bidiagonal
            X_f, L_f = X_f[:, ::-1], L_f[::-1, ::-1]
            assert np.tril(L_f, -1).any() and not np.triu(L_f, 1).any()
        shapes = []
        helpers.lapack_spy(monkeypatch, shapes)
        subspaces.preserve_complementary(inst.A, X_c, np.array([[3.5]]), X_f,
                                         L_f, inst.space, inst.cls)
        assert [s for name, s in shapes if name == "eigvals"] == [(1, 1)]

    @pytest.mark.parametrize("shape", FIXED_SHAPES)
    def test_only_a_fixed_block_with_both_triangles_takes_eigvals(
            self, monkeypatch, shape):
        # A = Q diag(100, eig(T)) Q^T has the fixed pair (Q_f W^-1, T) for
        # T = W diag(eig(T)) W^-1; its update is that of (Q_f, diag(eig(T)))
        rng = np.random.default_rng([12, len(shape)])
        T = _fixed_block(shape, 12, rng)
        w, W = np.linalg.eig(T)
        assert not np.iscomplexobj(w)
        Q = np.linalg.qr(rng.standard_normal((13, 13)))[0]
        A = Q @ np.diag(np.r_[100.0, w]) @ Q.T
        space = ScalarProductSpace.identity(13, field="real")
        args = (A, Q[:, :1], np.array([[101.0]]))
        plain = subspaces.preserve_complementary(*args, Q[:, 1:], np.diag(w),
                                                 space, "jordan")
        shapes = []
        helpers.lapack_spy(monkeypatch, shapes)
        delta = subspaces.preserve_complementary(
            *args, Q[:, 1:] @ np.linalg.inv(W), T, space, "jordan")
        triangular = not (np.tril(T, -1).any() and np.triu(T, 1).any())
        assert ((12, 12) in [s for name, s in shapes if name == "eigvals"]
                ) == (not triangular)
        np.testing.assert_allclose(delta, plain, atol=1e-9 * np.linalg.norm(A))

    def test_dense_fixed_block_still_takes_eigvals(self, monkeypatch):
        inst, X_c, X_f, L_f = _jordan_fixed_case()
        jordan = subspaces.preserve_complementary(
            inst.A, X_c, np.array([[3.5]]), X_f, L_f, inst.space, inst.cls)
        # the same pair in a random basis of range(X_f)
        R = helpers.random_full_rank(5, 5, np.random.default_rng(4))
        shapes = []
        helpers.lapack_spy(monkeypatch, shapes)
        dense = subspaces.preserve_complementary(
            inst.A, X_c, np.array([[3.5]]), X_f @ R,
            np.linalg.solve(R, L_f @ R), inst.space, inst.cls)
        assert [s for name, s in shapes if name == "eigvals"] == [(1, 1),
                                                                  (5, 5)]
        np.testing.assert_allclose(dense, jordan,
                                   atol=1e-10 * np.linalg.norm(inst.A))

    def test_fixed_block_must_match_its_basis(self):
        inst, X_c, X_f, L_f = _jordan_fixed_case()
        with pytest.raises(ArgumentError, match="Lambda_f"):
            subspaces.preserve_complementary(
                inst.A, X_c, np.array([[3.5]]), X_f, L_f[:, :4], inst.space,
                inst.cls)


class TestNoSpillover:
    @pytest.mark.parametrize("name", ["real-jordan", "complex-lie"])
    def test_no_changed_columns_give_the_zero_update(self, name):
        inst = _generated_split(name, dense=False)[0]
        empty = np.zeros((0, 0))
        delta = subspaces.no_spillover(inst.A, np.zeros((8, 0)), empty,
                                       empty, inst.space, inst.cls)
        assert delta.shape == inst.A.shape and delta.dtype == inst.A.dtype
        assert not delta.any()

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
        space = ScalarProductSpace(np.eye(3), star="t", field="real",
                                   structure_tol=1e-3)
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
        space = ScalarProductSpace(np.eye(3), star="t", field="real",
                                   structure_tol=1e-3)
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


_U = np.finfo(float).eps / 2


def _draw(rng, field, *shape):
    M = rng.standard_normal(shape)
    return M + 1j * rng.standard_normal(shape) if field == "complex" else M


class TestGramInverseApply:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [1, 2, 4, 64])
    def test_matches_the_scipy_lu_reference(self, p, field, rng):
        G = _draw(rng, field, p, p) + p * np.eye(p) / 4
        RHS = _draw(rng, field, p, 3 * p + 5)
        Y = subspaces.gram_inverse_apply(G, RHS)
        want = _lu_reference(G, RHS)
        assert Y.dtype == want.dtype
        assert (np.linalg.norm(Y - want)
                <= 1e-12 * np.linalg.cond(G, 1) * np.linalg.norm(want))

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p", [0, 1, 2, 4, 64])
    def test_the_update_takes_the_condition_from_its_inverse(self, p, field,
                                                            graded, rng):
        # numpy's cond(G, 1) is |G|_1 |inv(G)|_1; the update takes it from
        # the G^-1 it applies, which is as accurate as inv(G), so the two
        # agree to kappa u relative (4 kappa u: the norms and their product
        # round as well); graded, G has singular values from 1 to 1e-8
        G = _draw(rng, field, p, p) + p * np.eye(p) / 4
        if graded:
            Q = np.linalg.qr(_draw(rng, field, p, p))[0]
            G = (Q * np.logspace(0, -8, p)) @ Q.conj().T
        X = np.eye(p + 1, p)
        singular, _, cond = subspaces._no_spillover_update(G, X, X, X.T,
                                                           1e-12)
        assert singular.passed
        want = np.linalg.cond(G, 1) if p else 1.0
        assert abs(cond - want) <= 4 * want * _U * want

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
