"""Scalar-product spaces, adjoints, membership and numerical kernels."""

import numpy as np
import pytest

import golden
import helpers
import specpreserve.core
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
from specpreserve.core import (
    _check_invariant_pair,
    _decide,
    _real_apply,
    frob,
)


class TestScalarProductSpace:
    def test_identity_detects_eps1(self):
        space = ScalarProductSpace(np.eye(3), star="ct")
        assert space.epsilon1 == 1

    def test_skewj_detects_eps1(self):
        space = ScalarProductSpace.skewj(4, star="ct")
        assert space.epsilon1 == -1

    @pytest.mark.parametrize("make", [
        lambda: ScalarProductSpace.identity(0, field="real"),
        lambda: ScalarProductSpace.identity(0, field="complex"),
        lambda: ScalarProductSpace.signature([]),
        lambda: ScalarProductSpace(np.zeros((0, 0)), star="t"),
    ], ids=["identity-real", "identity-complex", "signature", "H"])
    def test_empty_form_is_refused(self, make):
        # once a traceback from np.max of an empty array (real field)
        with pytest.raises(ArgumentError, match="at least 1 x 1"):
            make()

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

    def test_h_is_stored_exactly_eps1_symmetric(self, rng):
        # a Householder reflector is orthogonal and symmetric; one entry
        # 1e-7 off passes validation at structure_tol 1e-5
        v = rng.standard_normal((6, 1))
        H = np.eye(6) - 2 * (v @ v.T) / (v.T @ v)
        H[0, 1] += 1e-7
        space = ScalarProductSpace(H, star="t", field="real",
                                   structure_tol=1e-5)
        assert np.array_equal(space.H.T, space.epsilon1 * space.H)
        A = rng.standard_normal((6, 6))
        ref = np.linalg.solve(space.H, A.T @ space.H)
        assert frob(adjoint(A, space) - ref) <= 1e-13 * frob(ref)

    @pytest.mark.parametrize("H,star", [
        (golden.JORDAN5_H, "t"), (golden.LIE4_H, "ct"),
        (ScalarProductSpace.skewj(4, star="t", field="real").H, "t"),
        (ScalarProductSpace.flip(4, star="t").H, "t"),
        (np.diag([1j, -1j, 1j]), "t"),
    ], ids=["jordan5", "lie4", "skewj", "flip", "phased-signature"])
    def test_exactly_symmetric_h_is_stored_as_given(self, H, star):
        # equal as spaces compare H: a zero may change its sign
        space = ScalarProductSpace(H, star=star, structure_tol=1e-3)
        assert np.array_equal(space.H, H)
        assert space == ScalarProductSpace(space.H, star=star,
                                           structure_tol=1e-3)

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
        space = ScalarProductSpace(golden.LIE4_H, star="ct", structure_tol=1e-3)
        assert is_member(golden.LIE4_DELTA, space, "lie")

    @pytest.mark.parametrize("cls,entries", [
        ("lie", {(0, 0): np.inf}),
        ("lie", {(0, 1): np.inf, (1, 0): np.inf}),
        ("jordan", {(0, 1): np.inf, (1, 0): -np.inf}),
        ("lie", {(0, 0): np.nan}),
        ("jordan", {(0, 1): np.nan, (1, 0): np.nan}),
    ])
    def test_non_finite_matrix_is_not_a_member(self, cls, entries):
        # the bound tol max(1, |A|) of an infinite A is infinite
        space = ScalarProductSpace.identity(4, star="T", field="real")
        A = np.zeros((4, 4))
        for ij, v in entries.items():
            A[ij] = v
        with np.errstate(invalid="ignore"):
            assert not is_member(A, space, cls)


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
        # a relative threshold of an infinite operand is infinite too: an
        # infinite residual never passes, an infinite gap (an empty side)
        # still does
        (np.inf, np.inf, False, False),
        (np.inf, 1.0, False, False),
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


# square L of the band shapes a fixed pair takes, M x M: M > _PROBES, so
# the invariant-pair check probes them
SHAPES = ["diagonal", "jordan", "real_lie_pairs", "upper_bidiagonal",
          "lower_bidiagonal", "tridiagonal", "real_lie_blocks", "dense",
          "upper_dense"]
M = 160
BANDS = {"diagonal": (0, 0), "jordan": (0, 1), "real_lie_pairs": (1, 1),
         "upper_bidiagonal": (0, 1), "lower_bidiagonal": (1, 0),
         "tridiagonal": (1, 1), "real_lie_blocks": (1, 2),
         "dense": (M - 1, M - 1), "upper_dense": (0, M - 1)}


def _draw(rng, field, *shape):
    A = rng.standard_normal(shape)
    return A + 1j * rng.standard_normal(shape) if field == "complex" else A


def _band_matrix(kind, field, rng):
    """An M x M L of the named band shape."""
    if kind == "jordan":
        # two length-2 chains among simple eigenvalues
        L = np.diag(_draw(rng, field, M))
        for k in (4, 40):
            L[k + 1, k + 1], L[k, k + 1] = L[k, k], 1.0
        return L
    if kind in ("real_lie_pairs", "real_lie_blocks"):
        # the real form of complex pairs: real 2 x 2 blocks [[a, b], [-b, a]];
        # as few pairs among real eigenvalues, or as chains of pairs coupled
        # by I along the block superdiagonal
        L = np.diag(rng.standard_normal(M))
        for k in (range(0, M, 2) if kind == "real_lie_blocks"
                  else (6, 30, 90)):
            a, b = rng.standard_normal(2)
            L[k:k + 2, k:k + 2] = [[a, b], [-b, a]]
            if kind == "real_lie_blocks" and k + 2 < M:
                L[k:k + 2, k + 2:k + 4] = np.eye(2)
        return L
    lo, hi = BANDS[kind]
    return np.triu(np.tril(_draw(rng, field, M, M), hi), -lo)


def _pair_outcome(A, X, L, tol):
    """(condition, passed, residual) of the invariant-pair check; the
    residual only when it failed."""
    try:
        _check_invariant_pair(A, X, L, tol, "A X = X L")
    except StructureError as exc:
        return exc.condition, False, exc.residual
    return "invariant_pair_residual", True, None


class TestInvariantPairCheck:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", SHAPES)
    def test_decisions_match_the_exact_residual(self, kind, field):
        # A = V [[L, B], [0, C]] V* with V unitary has the exact invariant
        # pair (V_1, L); moving one entry of L by 0.1 breaks it, and the
        # probe's estimate of that rank-one residual is the exact value
        # times the norm of one row of the probe
        rng = np.random.default_rng([11, len(kind), field == "complex"])
        L = _band_matrix(kind, field, rng)
        V, _ = np.linalg.qr(_draw(rng, field, M + 3, M + 3))
        T = np.zeros((M + 3, M + 3), dtype=V.dtype)
        T[:M, :M], T[:M, M:] = L, _draw(rng, field, M, 3)
        T[M:, M:] = _draw(rng, field, 3, 3)
        A = V @ T @ V.conj().T
        X = V[:, :M]
        broken = L.copy()
        broken[3, 3] += 0.1
        tol = ToleranceProfile().eig_tol
        for Lx in (L, broken):
            ref = _decide("invariant_pair_residual",
                          frob(A @ X - X @ Lx) / (frob(A) * frob(X)), tol)
            condition, passed, residual = _pair_outcome(A, X, Lx, tol)
            assert (condition, passed) == (ref.condition, ref.passed)
            if not passed:
                assert 0.1 * ref.value <= residual <= 10 * ref.value
        assert _pair_outcome(A, X, L, tol)[1]
        assert not _pair_outcome(A, X, broken, tol)[1]

    @pytest.mark.parametrize("kind", ["jordan", "upper_bidiagonal"])
    @pytest.mark.parametrize("where", ["X nan", "X inf", "L nan diagonal",
                                       "L inf in band", "L inf off band"])
    def test_non_finite_entry_fails(self, where, kind):
        rng = np.random.default_rng(3)
        L = _band_matrix(kind, "real", rng)
        X = rng.standard_normal((M + 6, M))
        A = rng.standard_normal((M + 6, M + 6))
        assert _pair_outcome(A, X, L, 0.5)[1]
        bad = {"X nan": (X, (4, 2), np.nan), "X inf": (X, (0, M - 1), np.inf),
               "L nan diagonal": (L, (5, 5), np.nan),
               "L inf in band": (L, (2, 3), np.inf),
               "L inf off band": (L, (M - 1, 0), -np.inf)}
        Mx, idx, value = bad[where]
        Mx[idx] = value
        with np.errstate(invalid="ignore"):  # inf - inf on the way
            condition, passed, _ = _pair_outcome(A, X, L, 0.5)
        assert (condition, passed) == ("invariant_pair_residual", False)


class TestRealApply:
    # small integers keep every product and sum exact, so the product through
    # the interleaved real view of B equals the complex product bit for bit,
    # whatever order BLAS sums in
    @pytest.mark.parametrize("layout", ["C", "F", "column slice", "1-D",
                                        "1-D strided"])
    def test_view_product_is_the_complex_product(self, layout):
        rng = np.random.default_rng(11)
        M = rng.integers(-8, 9, (7, 6)).astype(float)
        B = rng.integers(-8, 9, (6, 10)) + 1j * rng.integers(-8, 9, (6, 10))
        B = {"C": B, "F": np.asfortranarray(B), "column slice": B[:, 1::3],
             "1-D": B[:, 3].copy(), "1-D strided": B[:, 3]}[layout]
        got = _real_apply(M, B)
        want = M.astype(complex) @ B
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
