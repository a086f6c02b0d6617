"""Scalar-product spaces, adjoints, membership and numerical kernels."""

import numpy as np
import pytest

import golden
import helpers
from specpreserve import (
    ArgumentError,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    adjoint,
    is_member,
    numerical_rank,
    pseudoinverse,
    sample_structured,
    structure_residual,
    z_symmetry_residual,
)
from specpreserve.core import _decide


class TestScalarProductSpace:
    def test_identity_detects_eps1(self):
        space = ScalarProductSpace(np.eye(3), star="ct")
        assert space.epsilon1 == 1

    def test_skewj_detects_eps1(self):
        space = ScalarProductSpace.skewj(4, star="ct")
        assert space.epsilon1 == -1

    def test_eps1_is_detected_never_passed(self):
        with pytest.raises(TypeError):
            ScalarProductSpace(np.eye(2), epsilon1=-1)

    def test_rejects_non_unitary(self):
        with pytest.raises(StructureError):
            ScalarProductSpace(np.diag([1.0, 2.0]), star="ct")

    def test_rejects_asymmetric(self):
        H = np.array([[0.6, 0.8], [0.8, -0.6]]) @ np.diag([1.0, 1.0])
        H[0, 1] += 0.3
        with pytest.raises(StructureError):
            ScalarProductSpace(H, star="ct")

    def test_printed_precision_needs_loose_tolerance(self):
        with pytest.raises(StructureError):
            ScalarProductSpace(golden.JORDAN5_H, star="t", field="real")
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        assert space.epsilon1 == 1

    def test_real_space_forces_transpose(self):
        space = ScalarProductSpace(np.eye(2), star="ct", field="real")
        assert space.star == "T"

    def test_h_is_read_only(self):
        space = ScalarProductSpace(np.eye(2))
        with pytest.raises(ValueError):
            space.H[0, 0] = 2.0

    def test_h_is_stored_in_its_field(self):
        assert ScalarProductSpace.flip(4, field="real").H.dtype == np.float64
        assert ScalarProductSpace.flip(4, field="complex").H.dtype == np.complex128
        assert ScalarProductSpace(golden.LIE4_H, star="ct").H.dtype == np.complex128

    def test_equal_by_value_and_hashable(self):
        a = ScalarProductSpace.skewj(4, star="t", field="real")
        b = ScalarProductSpace(np.array(a.H), star="t", field="real")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1
        for other in (ScalarProductSpace.skewj(4, star="t", field="complex"),
                      ScalarProductSpace.skewj(4, star="ct", field="complex"),
                      ScalarProductSpace.skewj(4, star="t", field="real",
                                               structure_tol=1e-6),
                      ScalarProductSpace.flip(4, star="t", field="real")):
            assert a != other
        assert a != "skewj"

    def test_signed_zero_entries_hash_alike(self):
        H = np.array([[-0.0, 1.0], [1.0, -0.0]])
        a = ScalarProductSpace(H, star="t", field="real")
        b = ScalarProductSpace(np.abs(H), star="t", field="real")
        assert np.signbit(a.H).any() and a == b and hash(a) == hash(b)

    def test_cached_inverse_stays_out_of_eq_and_repr(self, rng):
        H = helpers.random_structured_unitary(4, "CT", -1, "complex", rng)
        a = ScalarProductSpace(H, star="ct")
        b = ScalarProductSpace(H, star="ct")
        before = repr(a)
        a.h_solve(np.eye(4))
        assert a == b and hash(a) == hash(b) and repr(a) == before


class TestAdjoint:
    def test_identity_h_is_conjugate_transpose(self, rng):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        space = ScalarProductSpace(np.eye(4), star="ct")
        np.testing.assert_allclose(adjoint(A, space), A.conj().T, atol=1e-14)

    def test_lie_member_adjoint_is_negation(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        np.testing.assert_allclose(adjoint(golden.LIE4_A, space),
                                   -golden.LIE4_A, atol=1e-4)

    def test_flip_transpose_matches_explicit_inverse(self, rng):
        space = ScalarProductSpace.flip(6, star="t", field="complex")
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        expected = np.linalg.inv(space.H) @ A.T @ space.H
        np.testing.assert_allclose(adjoint(A, space), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        space = ScalarProductSpace(np.eye(3))
        with pytest.raises(ArgumentError):
            adjoint(np.eye(4), space)

    def test_signed_permutation_h_needs_no_solve(self, rng, monkeypatch):
        # indexing gives the dense solve's result up to the sign of zeros
        # (array_equal counts -0.0 equal to 0.0); a dense H needs no solve
        # either, only a product with its inverse, to 1e-14 relative
        spaces = [s for s, _, _ in helpers.space_catalog(
            6, rng, ("identity", "flip", "skewj", "signature"))]
        spaces.append(ScalarProductSpace(golden.LIE4_H, star="ct"))
        dense = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (
            solves.append(a.shape), solve(a, b))[1])
        for space in spaces + [dense]:
            n = space.n
            A = rng.standard_normal((n, n)) + (
                1j * rng.standard_normal((n, n)) if space.field == "complex"
                else 0)
            H = np.asarray(space.H)
            want = solve(H, space.star_mat(A) @ H)
            solves.clear()
            got = adjoint(A, space)
            if space is dense:
                assert (np.linalg.norm(got - want)
                        <= 1e-14 * np.linalg.norm(want))
            else:
                np.testing.assert_array_equal(got, want)
            assert solves == []

    def test_involution(self, rng):
        for space, cls, label in helpers.space_catalog(6, rng, ("identity", "flip", "skewj", "random")):
            A = rng.standard_normal((6, 6)) + (
                1j * rng.standard_normal((6, 6)) if space.field == "complex" else 0)
            back = adjoint(adjoint(A, space), space)
            assert np.linalg.norm(back - A) <= 1e-10 * max(1.0, np.linalg.norm(A)), label

    def test_antihomomorphism(self, rng):
        for space, cls, label in helpers.space_catalog(5, rng, ("identity", "random")):
            A = rng.standard_normal((5, 5)) + (
                1j * rng.standard_normal((5, 5)) if space.field == "complex" else 0)
            B = rng.standard_normal((5, 5)) + (
                1j * rng.standard_normal((5, 5)) if space.field == "complex" else 0)
            lhs = adjoint(A @ B, space)
            rhs = adjoint(B, space) @ adjoint(A, space)
            scale = max(1.0, np.linalg.norm(A) * np.linalg.norm(B))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale, label


class TestStructureResidual:
    def test_zero_matrix(self):
        space = ScalarProductSpace.flip(4)
        assert structure_residual(np.zeros((4, 4)), space, "jordan") == 0.0

    def test_printed_jordan_member(self):
        space = ScalarProductSpace(golden.JORDAN5_H, star="t", field="real",
                                   structure_tol=1e-3)
        assert structure_residual(golden.JORDAN5_A, space, "jordan") <= 1e-3

    def test_constructed_perturbation_residual_known(self, rng):
        space = ScalarProductSpace.flip(6, star="ct")
        A_sym = helpers.random_member(space, StructureClass.JORDAN, seed=4)
        E = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        known = np.linalg.norm(
            np.linalg.solve(space.H, E.conj().T @ space.H) - E)
        got = structure_residual(A_sym + E, space, "jordan")
        assert abs(got - known) <= 1e-12 * max(1.0, known)


class TestIsMember:
    def test_identity_jordan(self):
        space = ScalarProductSpace(np.eye(3), star="ct")
        assert is_member(np.eye(3), space, "jordan")

    def test_identity_not_lie(self):
        space = ScalarProductSpace(np.eye(3), star="ct")
        assert not is_member(np.eye(3), space, "lie")

    def test_printed_lie_delta(self):
        space = ScalarProductSpace(golden.LIE4_H, star="ct")
        assert is_member(golden.LIE4_DELTA, space, "lie",
                         ToleranceProfile(structure_tol=1e-3))


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_full_column_rank_normal_equations(self, rng):
        X = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        expected = np.linalg.inv(X.conj().T @ X) @ X.conj().T
        np.testing.assert_allclose(pseudoinverse(X), expected, atol=1e-10)

    def test_rank_deficient_penrose(self, rng):
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        X = np.hstack([X, np.zeros((5, 1))])
        Xd = pseudoinverse(X)
        for lhs, rhs in [(X @ Xd @ X, X), (Xd @ X @ Xd, Xd),
                         ((X @ Xd).conj().T, X @ Xd),
                         ((Xd @ X).conj().T, Xd @ X)]:
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("shape", [(10, 10), (25, 12), (12, 25), (50, 50)])
    def test_penrose_random_sizes(self, shape, rng):
        X = rng.standard_normal(shape)
        if shape[0] >= 20:
            # force rank deficiency on the larger cases
            X[:, -1] = X[:, 0]
        Xd = pseudoinverse(X)
        tol = ToleranceProfile()
        for lhs, rhs in [(X @ Xd @ X, X), (Xd @ X @ Xd, Xd),
                         ((X @ Xd).conj().T, X @ Xd),
                         ((Xd @ X).conj().T, Xd @ X)]:
            scale = max(1.0, np.linalg.norm(rhs))
            assert np.linalg.norm(lhs - rhs) <= tol.residual_tol * scale


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_printed_no_spillover_update_has_rank_two(self):
        G = golden.SYM3_XC.T @ golden.SYM3_XC
        D = np.diag(golden.SYM3_TARGET) - np.diag(golden.SYM3_CURRENT)
        delta = golden.SYM3_XC @ D @ np.linalg.solve(G, golden.SYM3_XC.T)
        assert numerical_rank(delta, 1e-6) == 2


class TestSampleStructured:
    def test_hermitian_sample_diag_real(self):
        space = ScalarProductSpace(np.eye(4), star="ct")
        Z = sample_structured(space, "jordan", seed=0)  # eps1*eps2 = +1
        np.testing.assert_allclose(Z, Z.conj().T, atol=1e-14)
        assert np.max(np.abs(np.diag(Z).imag)) == 0.0

    def test_real_skew_sample_diag_zero(self):
        space = ScalarProductSpace(np.eye(4), star="t", field="real")
        Z = sample_structured(space, "lie", seed=0)  # eps1*eps2 = -1
        np.testing.assert_allclose(Z, -Z.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(Z), 0, atol=1e-14)

    def test_symmetry_residual_across_catalog(self, rng):
        for space, cls, label in helpers.space_catalog(6, rng):
            Z = sample_structured(space, cls, seed=hash(label) % 2**32)
            assert z_symmetry_residual(Z, space, cls) <= 1e-12 * max(
                1.0, np.linalg.norm(Z)), label
            if space.field == "real":
                assert np.max(np.abs(Z.imag)) == 0.0, label

    def test_seed_determinism(self):
        space = ScalarProductSpace.flip(4)
        Z1 = sample_structured(space, "lie", seed=42)
        Z2 = sample_structured(space, "lie", seed=42)
        np.testing.assert_array_equal(Z1, Z2)


class TestDecide:
    @pytest.mark.parametrize("value,threshold,at_least,passed", [
        (1.0, 1.0, False, True),     # a residual at its bound passes
        (np.nextafter(1.0, 2.0), 1.0, False, False),
        (1.0, 1.0, True, False),     # a gap at its bound fails
        (0.0, 0.0, True, False),     # zero is never a lower bound met
        (2.0, 1.0, True, True),
        (np.nan, 1.0, False, False),
        (np.nan, 1.0, True, False),
        (1.0, np.nan, False, False),
        (1.0, np.nan, True, False),
        (np.inf, 1.0, True, True),
    ])
    def test_rule(self, value, threshold, at_least, passed):
        assert _decide("c", value, threshold, at_least=at_least).passed is passed

    def test_require_raises_with_residual_and_threshold(self):
        _decide("c", 1.0, 2.0).require("never raised")
        with pytest.raises(StructureError) as exc:
            _decide("c", 3.0, 2.0).require("too big", "condition_residual")
        assert (exc.value.condition, exc.value.residual,
                exc.value.threshold) == ("c", 3.0, 2.0)
        assert str(exc.value) == "too big (condition_residual 3.000e+00)"
        with pytest.raises(StructureError, match=r"^too big$"):
            _decide("c", 3.0, 2.0).require("too big", None)
