"""Workflow preconditions: each failing input names its condition and
carries a positive residual, a NaN in place of that input fails the same
condition (as does a NaN H or guard), the Gram compatibility test equals the
``W = e1 e2 W*`` certificate of ``W = G L`` across the space catalogue, and
the workflows that test compatibility agree on the verdict."""

import dataclasses

import numpy as np
import pytest

import helpers
from specpreserve import (
    ArgumentError,
    ReassignmentAssembly,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    assemble,
    feasibility_check,
    map_family,
    reassign_family,
    reassign_no_spillover,
    sample_structured,
    z_symmetry_residual,
)
from specpreserve import classical, subspaces
from specpreserve.core import gram_matrix

JORDAN = StructureClass.JORDAN
# i eps I breaks G L = L* G for any nonsingular G (Jordan class)
INCOMPATIBLE_SHIFT = 1e-3j * np.eye(2)


def _flip_setup(seed=18):
    """Complex flip/ct Jordan member with a pairing-closed first pair of
    eigenvectors, the rest of its eigenbasis after them."""
    space = ScalarProductSpace.flip(6, star="ct")
    A = helpers.random_member(space, JORDAN, seed)
    w, V = np.linalg.eig(A)
    idx = helpers.paired_split(w, space, JORDAN, 2, tol=1e-6)
    assert idx is not None, "random member had no self-contained pair"
    order = idx + [i for i in range(6) if i not in idx]
    return space, A, w[order], V[:, order]


def _identity_setup(seed=31):
    """Real symmetric matrix (identity/t/real Jordan) and its eigenbasis."""
    space = ScalarProductSpace(np.eye(6), star="t", field="real")
    A = helpers.random_member(space, JORDAN, seed).real
    w, V = np.linalg.eigh(A)
    return space, A, w.astype(complex), V.astype(complex)


def _targets(space, w):
    return np.diag(helpers.paired_targets(w[:2], space, JORDAN,
                                          np.random.default_rng(5)))


def _assembly(A, w, V, space, targets):
    spec = ReassignmentSpec(groups=tuple(
        ReassignmentGroup(current=w[j], target=targets[j], chains=(V[:, [j]],))
        for j in range(2)))
    return assemble(A, spec, space, JORDAN)


def _nan(M):
    """M with its first entry NaN (both parts when complex)."""
    M = np.array(M)
    M.flat[0] = complex(np.nan, np.nan) if np.iscomplexobj(M) else np.nan
    return M


def _break(M, shift, poisoned):
    """M moved by shift, or, poisoned, M with a NaN entry instead."""
    return _nan(M) if poisoned else M + shift


def _bad_certificate(A, w, V, space, poisoned=False):
    asm = _assembly(A, w, V, space, np.diag(_targets(space, w)))
    return dataclasses.replace(
        asm, Lambda_a=_break(asm.Lambda_a, INCOMPATIBLE_SHIFT, poisoned))


def _asymmetric_z(space, poisoned=False):
    K = np.random.default_rng(3).standard_normal((space.n, space.n))
    return _nan(K + K.T) if poisoned else K


def _complex_z_on_real_arrangement(poisoned=False, user_built=False):
    space, A, w, V = _identity_setup()
    K = np.random.default_rng(4).standard_normal((6, 6))
    Z = 1j * (K - K.T)  # Hermitian, so Z* = Z holds, but not real
    assert z_symmetry_residual(Z, space, JORDAN) == 0.0
    asm = _assembly(A, w, V, space, np.diag(_targets(space, w)))
    if user_built:
        # real_output keeps its default False: the real space alone asks
        # for a real Z
        asm = ReassignmentAssembly(asm.X_c, asm.Lambda_c, asm.Lambda_a,
                                   asm.blocks)
    return reassign_family(A, asm, space, JORDAN,
                           Z=_nan(Z) if poisoned else Z, verify=False)


def _case(name, poisoned=False):
    """The call that breaks precondition name; poisoned, the input that
    breaks it holds a NaN instead."""
    space, A, w, V = _flip_setup()
    X, Lc, La = V[:, :2], np.diag(w[:2]), _targets(space, w)
    X_f, Lf = V[:, 2:], np.diag(w[2:])
    wrong = _break(Lc, 0.1 * np.eye(2), poisoned)
    bad = _break(La, INCOMPATIBLE_SHIFT, poisoned)
    return {
        "reproduce_invariant": lambda: subspaces.reproduce_invariant(
            A, X, bad, space, JORDAN),
        "preserve_invariant/pair": lambda: subspaces.preserve_invariant(
            A, X, wrong, np.eye(2), La, space, JORDAN),
        "preserve_invariant/compat": lambda: subspaces.preserve_invariant(
            A, X, Lc, np.eye(2), bad, space, JORDAN),
        "preserve_complementary/pair": lambda: subspaces.preserve_complementary(
            A, X, La, X_f, _break(Lf, 0.1 * np.eye(4), poisoned), space, JORDAN),
        "preserve_complementary/compat": lambda: subspaces.preserve_complementary(
            A, X, bad, X_f, Lf, space, JORDAN),
        "no_spillover/pair": lambda: subspaces.no_spillover(
            A, X, wrong, La, space, JORDAN),
        "no_spillover/compat": lambda: subspaces.no_spillover(
            A, X, Lc, bad, space, JORDAN),
        "reassign_family/certificate": lambda: reassign_family(
            A, _bad_certificate(A, w, V, space, poisoned), space, JORDAN,
            verify=False),
        "reassign_family/z_symmetry": lambda: reassign_family(
            A, _assembly(A, w, V, space, np.diag(La)), space, JORDAN,
            Z=_asymmetric_z(space, poisoned), verify=False),
        "reassign_family/z_real": lambda: _complex_z_on_real_arrangement(
            poisoned),
        "reassign_family/z_real/user_built":
            lambda: _complex_z_on_real_arrangement(poisoned, user_built=True),
        "reassign_no_spillover": lambda: reassign_no_spillover(
            A, _bad_certificate(A, w, V, space, poisoned), space, JORDAN,
            verify=False),
        "with_z": lambda: map_family(X, X @ La - A @ X, space, JORDAN).with_z(
            _asymmetric_z(space, poisoned)),
        "assemble": lambda: assemble(
            A, ReassignmentSpec(groups=tuple(
                ReassignmentGroup(current=w[j], target=La[j, j], chains=(
                    _break(V[:, [j]], 0.1 * V[:, [2]], poisoned),))
                for j in range(2))), space, JORDAN),
    }[name]


PRECONDITIONS = [
    ("reproduce_invariant", "lambda_compatibility"),
    ("preserve_invariant/pair", "invariant_pair_residual"),
    ("preserve_invariant/compat", "lambda_compatibility"),
    ("preserve_complementary/pair", "invariant_pair_residual"),
    ("preserve_complementary/compat", "lambda_compatibility"),
    ("no_spillover/pair", "invariant_pair_residual"),
    ("no_spillover/compat", "lambda_compatibility"),
    ("reassign_family/certificate", "symmetry_certificate"),
    ("reassign_family/z_symmetry", "z_symmetry"),
    ("reassign_family/z_real", "z_real"),
    ("reassign_family/z_real/user_built", "z_real"),
    ("reassign_no_spillover", "symmetry_certificate"),
    ("with_z", "z_symmetry"),
    ("assemble", "chain_residual"),
]


@pytest.mark.parametrize("name,condition", PRECONDITIONS,
                         ids=[n for n, _ in PRECONDITIONS])
def test_failing_precondition_is_named_with_residual(name, condition):
    with pytest.raises(StructureError) as exc:
        _case(name)()
    assert exc.value.condition == condition
    assert exc.value.residual is not None and exc.value.residual > 0


def _fails_on_nan(call, condition):
    """call raises condition with a NaN residual and its threshold: an IEEE
    comparison with NaN is false, so no test may read it as a pass."""
    with pytest.raises(StructureError) as exc:
        call()
    assert exc.value.condition == condition
    assert np.isnan(exc.value.residual)
    assert exc.value.threshold is not None


@pytest.mark.parametrize("name,condition", PRECONDITIONS,
                         ids=[n for n, _ in PRECONDITIONS])
def test_nan_input_fails_the_named_precondition(name, condition):
    _fails_on_nan(_case(name, poisoned=True), condition)


def _nan_imaginary_identity(n):
    H = np.eye(n, dtype=complex)
    H.imag[0, 0] = np.nan
    return H


@pytest.mark.parametrize("field,H,condition", [
    ("real", _nan(np.eye(4)), "H_star_symmetry"),
    ("complex", _nan(np.eye(4, dtype=complex)), "H_star_symmetry"),
    # the real part alone is a valid H
    ("real", _nan_imaginary_identity(4), "real_space_H"),
], ids=["real", "complex", "real-space-imaginary"])
def test_nan_h_is_rejected(field, H, condition):
    _fails_on_nan(lambda: ScalarProductSpace(H, field=field), condition)


@pytest.mark.parametrize("guard", [[np.nan], [1.0, np.inf]],
                         ids=["nan", "inf"])
def test_non_finite_fixed_spectrum_guard_is_refused_by_name(guard):
    # a NaN gap would read as the guard meeting the changed family
    space, A, w, V = _flip_setup()
    asm = _assembly(A, w, V, space, np.diag(_targets(space, w)))
    with pytest.raises(ArgumentError, match="fixed_spectrum_guard"):
        reassign_no_spillover(A, asm, space, JORDAN,
                              fixed_spectrum_guard=guard, verify=False)


def test_nan_right_hand_side_is_infeasible():
    space, A, w, V = _flip_setup()
    X = V[:, :2]
    B = X @ _targets(space, w) - A @ X
    _fails_on_nan(lambda: map_family(X, _nan(B), space, JORDAN), "feasibility")


@pytest.mark.parametrize("call,condition", [
    # W = X* H B carries X* H A X: only its symmetry test sees the NaN
    (lambda A, V, w, space: subspaces.reproduce_invariant(
        A, V[:, :2], _targets(space, w), space, JORDAN), "feasibility"),
    (lambda A, V, w, space: subspaces.preserve_invariant(
        A, V[:, :2], np.diag(w[:2]), np.eye(2), _targets(space, w), space,
        JORDAN), "invariant_pair_residual"),
    (lambda A, V, w, space: subspaces.preserve_complementary(
        A, V[:, :2], _targets(space, w), V[:, 2:], np.diag(w[2:]), space,
        JORDAN), "invariant_pair_residual"),
], ids=["reproduce_invariant", "preserve_invariant", "preserve_complementary"])
def test_nan_operator_fails_a_named_condition(call, condition):
    space, A, w, V = _flip_setup()
    A = A.copy()
    A[3, 4] = np.nan
    _fails_on_nan(lambda: call(A, V, w, space), condition)


def _infinite_z_member(field, star, entry):
    """A member on a dense H for an admissible Z (``Z* = -Z``, Lie class)
    with one infinite entry: on its diagonal, or an infinite imaginary
    part (on a real space); either makes the threshold infinite."""
    rng = np.random.default_rng(3)
    space = helpers.make_space(8, star, 1, field, "random", rng)
    lie = StructureClass.LIE
    X = rng.standard_normal((8, 2))
    fam = map_family(X, helpers.random_member(space, lie, seed=2) @ X,
                     space, lie)
    Z = sample_structured(space, lie, seed=3).astype(complex)
    Z[0, 0] = entry
    return lambda: fam.with_z(Z)


@pytest.mark.parametrize("field,star,entry,condition", [
    ("complex", "CT", np.inf, "z_symmetry"),
    ("real", "T", np.inf, "z_symmetry"),
    ("real", "T", complex(0.0, np.inf), "z_real"),
    ("complex", "CT", np.nan, "z_symmetry"),
    ("real", "T", complex(0.0, np.nan), "z_real"),
], ids=["complex-ct-inf", "real-t-inf", "real-t-imaginary-inf",
        "complex-ct-nan", "real-t-imaginary-nan"])
def test_non_finite_parameter_is_refused(field, star, entry, condition):
    with pytest.raises(StructureError) as exc, np.errstate(invalid="ignore"):
        _infinite_z_member(field, star, entry)()
    assert exc.value.condition == condition
    assert not np.isfinite(exc.value.residual)


def _raise_first_violation(report):
    """Raise the first violation of a feasibility report, as map_family
    does."""
    assert not report.feasible
    report.violations[0].require("infeasible")


@pytest.mark.parametrize("call,condition", [
    (lambda sp, X: subspaces.reproduce_invariant(
        np.zeros((4, 4)), X, np.eye(2), sp, JORDAN), "rank"),
    (lambda sp, X: subspaces.lambda_compatibility(X, np.eye(2), sp, JORDAN),
     "rank"),
    (lambda sp, X: map_family(X, X, sp, JORDAN), "feasibility"),
    (lambda sp, X: _raise_first_violation(
        feasibility_check(X, X, sp, JORDAN)),
     "range_condition"),
], ids=["reproduce_invariant", "lambda_compatibility", "map_family",
        "feasibility_check"])
def test_nan_basis_fails_a_named_condition(call, condition):
    # numpy's SVD raises LinAlgError on a NaN; no workflow may reach it
    X = _nan([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])  # e1+e3, e2+e4
    space = ScalarProductSpace.flip(4, star="ct")
    _fails_on_nan(lambda: call(space, X), condition)


@pytest.mark.parametrize("call,condition", [
    (lambda sp, X: subspaces.reproduce_invariant(
        np.zeros((4, 4)), X, np.eye(2), sp, JORDAN), "rank"),
    (lambda sp, X: subspaces.preserve_invariant(
        np.zeros((4, 4)), np.eye(4, 2), np.zeros((2, 2)), X[:2],
        np.zeros((2, 2)), sp, JORDAN), "nonsingular_R"),
    (lambda sp, X: classical.reproduce_invariant(
        np.zeros((4, 4)), X, np.eye(2)), "rank"),
    (lambda sp, X: classical.rado_update(
        np.zeros((4, 4)), X, np.zeros((2, 2)), np.zeros((2, 4))), "rank"),
    (lambda sp, X: classical.preserve_invariant(
        np.zeros((4, 4)), np.eye(4, 2), np.zeros((2, 2)), X[:2],
        np.zeros((2, 2))), "nonsingular_R"),
    (lambda sp, X: classical.preserve_complementary(
        np.zeros((4, 4)), X, X, np.eye(2), np.eye(2)), "nonsingular_basis"),
], ids=["reproduce_invariant", "preserve_invariant", "classical-reproduce",
        "classical-rado", "classical-preserve", "classical-complementary"])
def test_rank_failure_carries_singular_value_and_threshold(call, condition):
    space = ScalarProductSpace.flip(4, star="ct")
    with pytest.raises(StructureError) as exc:
        call(space, np.ones((4, 2)))
    assert exc.value.condition == condition
    assert exc.value.residual is not None and exc.value.threshold is not None
    assert 0.0 <= exc.value.residual <= exc.value.threshold


def test_compatibility_residual_is_the_certificate_residual(rng):
    """``|G L - e2 L* G| = |(G L)* - e1 e2 G L|`` because ``G* = e1 G``."""
    checked = 0
    for field, star, eps1 in helpers.FIELD_STAR_EPS1:
        for preset in ("identity", "flip", "signature", "skewj"):
            space = helpers.make_space(4, star, eps1, field, preset, rng)
            if space is None:
                continue
            for cls in helpers.CLASSES:
                X = helpers.random_full_rank(4, 2, rng)
                L = helpers.random_full_rank(2, 2, rng)
                G = gram_matrix(X, space)
                direct = np.linalg.norm(
                    G @ L - cls.epsilon2 * space.star_mat(L) @ G)
                cert = z_symmetry_residual(G @ L, space, cls)
                assert abs(direct - cert) <= 1e-12 * max(direct, cert), (
                    field, star, preset, cls)
                checked += 1
    assert checked == 24


def _verdicts(space, A, w, V, La):
    """Verdict of every workflow that tests compatibility: True, or the
    condition it raised."""
    X, Lc = V[:, :2], np.diag(w[:2])
    calls = [
        lambda: subspaces.reproduce_invariant(A, X, La, space, JORDAN),
        lambda: subspaces.no_spillover(A, X, Lc, La, space, JORDAN),
        lambda: subspaces.preserve_complementary(
            A, X, La, V[:, 2:], np.diag(w[2:]), space, JORDAN),
    ]
    out = [subspaces.lambda_compatibility(X, La, space, JORDAN).compatible
           or "lambda_compatibility"]
    for call in calls:
        try:
            call()
            out.append(True)
        except StructureError as e:
            out.append(e.condition)
    return out


@pytest.mark.parametrize("setup", [_flip_setup, _identity_setup],
                         ids=["flip-ct-complex", "identity-t-real"])
def test_workflows_agree_on_compatibility(setup):
    space, A, w, V = setup()
    La = _targets(space, w)
    assert _verdicts(space, A, w, V, La) == [True] * 4
    bad = La + INCOMPATIBLE_SHIFT
    G = gram_matrix(V[:, :2], space)
    assert np.linalg.norm(G @ bad - space.star_mat(bad) @ G) > 1e-6
    assert _verdicts(space, A, w, V, bad) == ["lambda_compatibility"] * 4
