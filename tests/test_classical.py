"""Unstructured baselines: rank-one shifts, multi-eigenvalue updates and the
pseudoinverse subspace families, cross-checked with a dense eigensolver."""

import numpy as np
import pytest

import helpers
from specpreserve import StructureError
from specpreserve import classical


def _diagonalizable(n, rng, field="complex"):
    w = rng.standard_normal(n) + (1j * rng.standard_normal(n) if field == "complex" else 0)
    S = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if field == "complex" else 0)
    A = S @ np.diag(w) @ np.linalg.inv(S)
    return A, w, S


class TestBrauerUpdate:
    def test_zero_q_is_identity(self, rng):
        A, w, S = _diagonalizable(4, rng)
        out = classical.brauer_update(A, S[:, 0], w[0], np.zeros(4))
        np.testing.assert_allclose(out, A, atol=1e-14)

    def test_spectrum_via_eigensolver(self, rng):
        A, w, S = _diagonalizable(4, rng)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = S[:, 0]
        out = classical.brauer_update(A, x, w[0], q)
        expected = np.diag(np.concatenate([[w[0] + x @ q], w[1:]]))
        assert helpers.spectra_match(out, expected, tol=1e-8)

    def test_hotelling_deflation(self, rng):
        B = rng.standard_normal((5, 5))
        A = (B + B.T) / 2
        w, V = np.linalg.eigh(A)
        x = V[:, 0]
        mu = 7.5
        out = classical.brauer_update(A, x, w[0], (mu - w[0]) * x)
        expected = np.diag(np.concatenate([[mu], w[1:]]))
        assert helpers.spectra_match(out, expected, tol=1e-8)

    def test_used_direction_is_kept_exactly(self, rng):
        A, w, S = _diagonalizable(5, rng)
        q = rng.standard_normal(5)
        x = S[:, 2]
        out = classical.brauer_update(A, x, w[2], q)
        lhs = out @ x
        rhs = (w[2] + x @ q) * x
        # exact algebraic identity up to the residual of the input pair
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(
            1.0, np.linalg.norm(A) * np.linalg.norm(x))

    def test_bad_eigpair_rejected(self, rng):
        A, w, S = _diagonalizable(4, rng)
        with pytest.raises(StructureError):
            classical.brauer_update(A, S[:, 0] + 0.5, w[0], np.zeros(4))

    def test_zero_eigenvector_rejected(self, rng):
        # a zero x_k has relative residual 0 / 0 and is no eigenvector
        A, w, _ = _diagonalizable(4, rng)
        with pytest.raises(StructureError, match="x_k is zero") as e:
            classical.brauer_update(A, np.zeros(4), w[0], np.ones(4))
        assert e.value.condition == "rank"


class TestBrauerShift:
    def test_mu_equals_lambda(self, rng):
        A, w, S = _diagonalizable(4, rng)
        v = S[:, 1]
        r = np.conj(v) / np.linalg.norm(v) ** 2  # r^T v = 1 needs the conjugate
        out = classical.brauer_shift(A, w[1], v, r, w[1])
        np.testing.assert_allclose(out, A, atol=1e-13)

    def test_kept_eigenvector_identity(self, rng):
        A, w, S = _diagonalizable(5, rng, field="real")
        v = S[:, 0].real
        r = v / (v @ v)
        mu = 3.25
        out = classical.brauer_shift(A, w[0].real, v, r, mu)
        assert np.linalg.norm(out @ v - mu * v) <= 1e-10 * max(
            1.0, np.linalg.norm(out) * np.linalg.norm(v))

    def test_spectrum_replacement(self, rng):
        A, w, S = _diagonalizable(5, rng)
        v = S[:, 3]
        r = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        r = r + (1 - r @ v) / (np.conj(v) @ v) * np.conj(v)  # enforce r^T v = 1
        mu = -2 + 0.5j
        out = classical.brauer_shift(A, w[3], v, r, mu)
        expected = np.diag(np.concatenate([w[:3], [mu], w[4:]]))
        assert helpers.spectra_match(out, expected, tol=1e-8)

    def test_normalization_enforced(self, rng):
        A, w, S = _diagonalizable(4, rng)
        with pytest.raises(StructureError):
            classical.brauer_shift(A, w[0], S[:, 0], np.zeros(4), 1.0)


class TestRadoUpdate:
    def test_zero_c(self, rng):
        A, w, S = _diagonalizable(5, rng)
        X = S[:, :2]
        out = classical.rado_update(A, X, np.diag(w[:2]), np.zeros((2, 5)))
        np.testing.assert_allclose(out, A, atol=1e-14)

    def test_kept_eigenvectors_with_diagonal_cx(self, rng):
        A, w, S = _diagonalizable(6, rng)
        p = 3
        X = S[:, :p]
        mus = w[:p] + np.array([1.0, -0.5j, 2.0])
        # C = X^+ applied to the diagonal shift keeps each eigenvector
        C = np.diag(mus - w[:p]) @ np.linalg.pinv(X)
        out = classical.rado_update(A, X, np.diag(w[:p]), C)
        for j in range(p):
            x = X[:, j]
            assert np.linalg.norm(out @ x - mus[j] * x) <= 1e-8 * max(
                1.0, np.linalg.norm(out))
        assert np.linalg.matrix_rank(X @ C, tol=1e-8) <= p

    def test_spectrum_formula(self, rng):
        A, w, S = _diagonalizable(6, rng)
        p = 2
        X = S[:, :p]
        C = rng.standard_normal((p, 6)) + 1j * rng.standard_normal((p, 6))
        out = classical.rado_update(A, X, np.diag(w[:p]), C)
        inner = np.linalg.eigvals(np.diag(w[:p]) + C @ X)
        expected = np.diag(np.concatenate([inner, w[p:]]))
        assert helpers.spectra_match(out, expected, tol=1e-8)

    def test_rank_deficient_x_rejected(self, rng):
        A, w, S = _diagonalizable(4, rng)
        X = np.hstack([S[:, :1], S[:, :1]])
        with pytest.raises(StructureError):
            classical.rado_update(A, X, np.diag([w[0], w[0]]), np.zeros((2, 4)))


class TestReproduceInvariant:
    def test_already_invariant_gives_zero(self, rng):
        A, w, S = _diagonalizable(5, rng)
        X = S[:, :2]
        Lam = np.diag(w[:2])
        delta = classical.reproduce_invariant(A, X, Lam)
        np.testing.assert_allclose(delta, 0, atol=1e-10)

    def test_invariance_identity_any_target(self, rng):
        A = rng.standard_normal((6, 6))
        X = helpers.random_full_rank(6, 2, rng, "real")
        Lam = rng.standard_normal((2, 2))
        delta = classical.reproduce_invariant(A, X, Lam)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ X - X @ Lam) <= 1e-10 * scale

    def test_z_choices_differ_only_off_range(self, rng):
        A = rng.standard_normal((5, 5))
        X = helpers.random_full_rank(5, 2, rng, "real")
        Lam = rng.standard_normal((2, 2))
        Z1 = rng.standard_normal((5, 5))
        Z2 = rng.standard_normal((5, 5))
        d1 = classical.reproduce_invariant(A, X, Lam, Z=Z1)
        d2 = classical.reproduce_invariant(A, X, Lam, Z=Z2)
        for d in (d1, d2):
            assert np.linalg.norm((A + d) @ X - X @ Lam) <= 1e-9 * (
                np.linalg.norm(A) + np.linalg.norm(d))
        # the difference annihilates X: it lives in the projector's range
        np.testing.assert_allclose((d1 - d2) @ X, 0, atol=1e-10)


class TestPreserveInvariant:
    def test_identity_choices_give_zero(self, rng):
        A, w, S = _diagonalizable(5, rng)
        X = S[:, :2]
        Lc = np.diag(w[:2])
        delta = classical.preserve_invariant(A, X, Lc, np.eye(2), Lc)
        np.testing.assert_allclose(delta, 0, atol=1e-10)

    def test_similar_target_preserves_restriction_spectrum(self, rng):
        A, w, S = _diagonalizable(6, rng)
        X = S[:, :3]
        Lc = np.diag(w[:3])
        P = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        La = P @ Lc @ np.linalg.inv(P)
        delta = classical.preserve_invariant(A, X, Lc, np.eye(3), La)
        restriction = np.linalg.pinv(X) @ (A + delta) @ X
        assert helpers.spectra_match(restriction, Lc, tol=1e-7)

    def test_random_r_invariance(self, rng):
        A, w, S = _diagonalizable(6, rng)
        X = S[:, :2]
        Lc = np.diag(w[:2])
        R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        La = np.diag([0.5, -1.5])
        delta = classical.preserve_invariant(A, X, Lc, R, La)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ (X @ R) - (X @ R) @ La) <= 1e-9 * scale

    def test_z_adds_its_part_off_the_basis(self, rng):
        A, w, S = _diagonalizable(6, rng)
        X, Lc = S[:, :2], np.diag(w[:2])
        R = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        La = np.diag([0.5, -1.5])
        Z = rng.standard_normal((6, 6))
        base = classical.preserve_invariant(A, X, Lc, R, La)
        delta = classical.preserve_invariant(A, X, Lc, R, La, Z=Z)
        XR = X @ R
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ XR - XR @ La) <= 1e-9 * scale
        # Z (I - X R (X R)^+): zero on the basis, Z on its complement
        np.testing.assert_allclose(
            delta - base, Z @ (np.eye(6) - XR @ np.linalg.pinv(XR)),
            atol=1e-10 * scale)
        assert np.linalg.norm(delta - base) > 0.1 * np.linalg.norm(Z)


class TestPreserveComplementary:
    def test_matching_restrictions_give_zero(self, rng):
        A, w, S = _diagonalizable(6, rng)
        delta = classical.preserve_complementary(
            A, S[:, :2], S[:, 2:], np.diag(w[:2]), np.diag(w[2:]))
        np.testing.assert_allclose(delta, 0, atol=1e-9)

    def test_both_invariance_identities(self, rng):
        A, w, S = _diagonalizable(6, rng)
        La = rng.standard_normal((2, 2))
        Lf = rng.standard_normal((4, 4))
        delta = classical.preserve_complementary(A, S[:, :2], S[:, 2:], La, Lf)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ S[:, :2] - S[:, :2] @ La) <= 1e-9 * scale
        assert np.linalg.norm((A + delta) @ S[:, 2:] - S[:, 2:] @ Lf) <= 1e-9 * scale

    def test_shifted_block_spectrum(self, rng):
        A, w, S = _diagonalizable(5, rng)
        La = np.diag(w[:2] + 1.0)
        Lf = np.diag(w[2:])
        delta = classical.preserve_complementary(A, S[:, :2], S[:, 2:], La, Lf)
        expected = np.diag(np.concatenate([w[:2] + 1.0, w[2:]]))
        assert helpers.spectra_match(A + delta, expected, tol=1e-8)

    def test_singular_basis_rejected(self, rng):
        A, w, S = _diagonalizable(4, rng)
        with pytest.raises(StructureError):
            classical.preserve_complementary(
                A, S[:, :2], S[:, :2], np.eye(2), np.eye(2))


class TestRandomizedIdentities:
    @pytest.mark.parametrize("n", [8, 17, 30])
    def test_invariance_residuals_scale(self, n, rng):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = helpers.random_full_rank(n, 3, rng)
        Lam = rng.standard_normal((3, 3))
        Z = rng.standard_normal((n, n))
        delta = classical.reproduce_invariant(A, X, Lam, Z=Z)
        scale = np.linalg.norm(A) + np.linalg.norm(delta)
        assert np.linalg.norm((A + delta) @ X - X @ Lam) <= 1e-9 * scale
