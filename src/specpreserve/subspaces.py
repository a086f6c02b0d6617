"""Structured invariant-subspace workflows: reproduce a subspace, preserve
one, preserve a complementary pair (with or without knowing the fixed pair),
and the closed-form rank-bounded no-spillover update.

All updates stay inside the Jordan/Lie algebra of the space.  The central
compatibility condition is on the Gram matrix ``G = X* H X``: a target
restriction L is reachable by a structured perturbation iff
``G L = e2 L* G``.

Reproducing and preserving a subspace solve ``A X = B`` with the factored
kernel of ``mapping``: O(n^2 p), with one n-column application of ``H^-1``
(a product with the inverse a dense H gets once per space) only for the Z
term.  The complementary update is the same formula for the square basis
``[X_c X_f]``; it needs only the first p rows of the basis inverse and
``(X* H B_c)* X^-1``, both from one LU of the basis with p right-hand
sides each, so past the O(n^3) fixed-pair residual and LU
(whose condition estimate also decides nonsingularity) it costs O(n^2 p).
That LU, with its ``?gecon`` estimate, is the module's one use of
``scipy.linalg``; the no-spillover update solves with its p x p Gram matrix
through numpy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _SCIPY_LAPACK_LOCK,
    _check_full_column_rank,
    _check_invariant_pair,
    _decide,
    _gram_compatibility,
    _real_apply,
    _star_h,
    as_matrix,
    frob,
    gram_matrix,
    pseudoinverse,
)
from .errors import ArgumentError
from .mapping import _family_factors, solve_structured
from .spectral import _form_star, pairing_partner

__all__ = [
    "CompatibilityReport",
    "lambda_compatibility",
    "reproduce_invariant",
    "preserve_invariant",
    "preserve_complementary",
    "no_spillover",
    "gram_matrix",
    "gram_inverse_apply",
]

SPECTRAL_SEPARATION = 1e-6
COND_WARN = 1e8
_INCOMPATIBLE = "Lambda_a incompatible with the structure"


@dataclass(frozen=True)
class CompatibilityReport:
    """Result of the reachability test for a target restriction.

    condition_residual measures ``|G L - e2 L* G|``; compatible is the
    thresholded verdict; notes carries human-readable hints.
    """

    condition_residual: float
    compatible: bool
    notes: str = ""


def _basis_gram(X_a, Lambda_a, space, tol) -> np.ndarray:
    """``X_a* H X_a`` after checking that X_a has full column rank and
    Lambda_a is p x p."""
    p = X_a.shape[1]
    if Lambda_a.shape != (p, p):
        raise ArgumentError("Lambda_a must be p x p for X_a with p columns")
    _check_full_column_rank(X_a, tol.rank_tol, "rank", "X_a is rank deficient")
    return gram_matrix(X_a, space)


def lambda_compatibility(X_a, Lambda_a, space: ScalarProductSpace,
                         cls: StructureClass,
                         tol: ToleranceProfile | None = None) -> CompatibilityReport:
    """Test whether Lambda_a can be the restriction of a structured update
    on range(X_a): requires ``(X_a* H X_a) L_a = e2 L_a* (X_a* H X_a)``."""
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    X_a = as_matrix(X_a, "X_a", space)
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space)
    d = _gram_compatibility(_basis_gram(X_a, Lambda_a, space, tol), Lambda_a,
                            space, cls, tol)
    return CompatibilityReport(
        condition_residual=d.value, compatible=d.passed,
        notes="" if d.passed else
        "target restriction is unreachable for this structure; "
        "adjust Lambda_a so that G L = e2 L* G")


def reproduce_invariant(A, X_a, Lambda_a, space: ScalarProductSpace,
                        cls: StructureClass, Z=None,
                        tol: ToleranceProfile | None = None) -> np.ndarray:
    """Structured perturbation making range(X_a) invariant with restriction
    Lambda_a.  Z = None yields the Frobenius-minimal member of the family."""
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    X_a = as_matrix(X_a, "X_a", space)
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space)
    _gram_compatibility(_basis_gram(X_a, Lambda_a, space, tol), Lambda_a, space,
                        cls, tol).require(_INCOMPATIBLE, "condition_residual")
    B = X_a @ Lambda_a - _real_apply(A, X_a)
    return solve_structured(X_a, B, space, cls, Z, tol)


def preserve_invariant(A, X_c, Lambda_c, R, Lambda_a, space: ScalarProductSpace,
                       cls: StructureClass, Z=None,
                       tol: ToleranceProfile | None = None) -> np.ndarray:
    """Structured perturbation keeping the invariant subspace range(X_c)
    invariant, in the re-basis X_c R, with new restriction Lambda_a."""
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    X_c = as_matrix(X_c, "X_c", space)
    Lambda_c = as_matrix(Lambda_c, "Lambda_c", space)
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space)
    R = as_matrix(R, "R", space)
    p = X_c.shape[1]
    if R.shape != (p, p):
        raise ArgumentError("R must be p x p")
    _check_full_column_rank(R, tol.rank_tol, "nonsingular_R",
                            "R is numerically singular")
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol, "A X_c = X_c Lambda_c")
    GR = space.star_mat(R) @ gram_matrix(X_c, space) @ R
    _gram_compatibility(GR, Lambda_a, space, cls, tol).require(
        "Lambda_a incompatible in the basis X_c R", "condition_residual")
    Rt = R @ Lambda_a - Lambda_c @ R
    return solve_structured(X_c @ R, X_c @ Rt, space, cls, Z, tol)


def _spectral_gap(ec, ef, space, cls):
    """Distance between the paired eigenvalues ec and the eigenvalues ef."""
    paired = np.array([pairing_partner(l, cls, _form_star(space)) for l in ec])
    return float(np.min(np.abs(paired[:, None] - ef[None, :])))


def preserve_complementary(A, X_c, Lambda_a, X_f, Lambda_f,
                           space: ScalarProductSpace, cls: StructureClass,
                           tol: ToleranceProfile | None = None) -> np.ndarray:
    """Structured perturbation reassigning the restriction on range(X_c) to
    Lambda_a while fixing the complementary invariant pair (X_f, Lambda_f).

    Requires the paired spectrum of the changed block to lie more than
    ``SPECTRAL_SEPARATION`` times the spectral scale from the fixed
    spectrum; a gap within ten times that degrades the Gram matrix and is
    warned about.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    X_c = as_matrix(X_c, "X_c", space)
    X_f = as_matrix(X_f, "X_f", space)
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space)
    Lambda_f = as_matrix(Lambda_f, "Lambda_f", space)
    n = space.n
    p = X_c.shape[1]
    AX_c = _real_apply(A, X_c)
    Lambda_c = pseudoinverse(X_c, tol.rank_tol) @ AX_c
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol,
                          "invariance of range(X_c) under A")
    _check_invariant_pair(A, X_f, Lambda_f, tol.eig_tol, "A X_f = X_f Lambda_f")
    ec = np.linalg.eigvals(Lambda_c)
    ef = np.linalg.eigvals(Lambda_f)
    gap = _spectral_gap(ec, ef, space, cls)
    spectral_scale = max(1.0, frob(ec), frob(ef))
    G = gram_matrix(X_c, space)
    _decide("spectral_disjointness", gap, SPECTRAL_SEPARATION * spectral_scale,
            at_least=True).require(
        "paired spectrum of the changed block meets the fixed spectrum",
        "min gap")
    if gap < 10 * SPECTRAL_SEPARATION * spectral_scale:
        warnings.warn(
            f"spectral gap {gap:.3e} is close to the separation threshold; "
            f"Gram 1-norm condition {np.real(np.linalg.cond(G, 1)):.2e}",
            stacklevel=2)

    _gram_compatibility(G, Lambda_a, space, cls, tol).require(
        _INCOMPATIBLE, "condition_residual")

    X = np.hstack([X_c, X_f])
    if X.shape != (n, n):
        raise ArgumentError("[X_c X_f] must be square")
    # one LU of X decides nonsingularity, by LAPACK's reciprocal 1-norm
    # condition estimate (0 for an exactly singular X), and solves below
    with _SCIPY_LAPACK_LOCK:
        getrf, gecon = scipy.linalg.get_lapack_funcs(("getrf", "gecon"), (X,))
        lu, piv, _ = getrf(X)
        rcond = gecon(lu, np.abs(X).sum(axis=0).max(), norm="1")[0]
    _decide("nonsingular_basis", rcond, tol.rank_tol, at_least=True).require(
        "[X_c X_f] is numerically singular",
        "reciprocal condition estimate")
    # B = [B_c, 0]: only the first p rows of X^-1 meet B, so R = (X^-1)[:p]
    # and Q = (X* H B_c)* X^-1 come from the LU of X, as X^T [R^T Q^T]
    B_c = X_c @ Lambda_a - AX_c
    HB = space.h_apply(B_c)
    st = space.star_mat
    rhs = np.hstack([np.eye(n, p), st(st(X) @ HB).T])
    with _SCIPY_LAPACK_LOCK:
        RQ = scipy.linalg.lu_solve((lu, piv), rhs, trans=1,
                                   check_finite=False).T
    U, V = _family_factors(B_c, HB, RQ[:p], RQ[p:], space, cls)
    return U @ V


def gram_inverse_apply(G, RHS):
    """Solve ``G Y = RHS`` by LU with partial pivoting (numpy's ``?gesv``)
    plus one step of iterative refinement; returns
    (Y, one_norm_condition_estimate).  G is p x p, so factoring it again
    for the refinement step costs O(p^3), and numpy's LAPACK spares the
    command line the import of ``scipy.linalg``."""
    cond = float(np.real(np.linalg.cond(G, 1)))
    Y = np.linalg.solve(G, RHS)
    Y = Y + np.linalg.solve(G, RHS - G @ Y)
    return Y, cond


def no_spillover(A, X_c, Lambda_c, Lambda_a, space: ScalarProductSpace,
                 cls: StructureClass, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Closed-form structured update touching nothing outside range(X_c):

        delta = X_c (L_a - L_c) (X_c* H X_c)^-1 X_c* H

    Every invariant pair of A with spectrum disjoint from the changed block
    is annihilated by delta, known or not; the rank of delta equals the
    rank of ``L_a - L_c`` and never exceeds the number of changed columns.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    X_c = as_matrix(X_c, "X_c", space)
    Lambda_c = as_matrix(Lambda_c, "Lambda_c", space)
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space)
    p = X_c.shape[1]
    if Lambda_c.shape != (p, p) or Lambda_a.shape != (p, p):
        raise ArgumentError("Lambda_c and Lambda_a must be p x p")
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol, "A X_c = X_c Lambda_c")
    G = gram_matrix(X_c, space)
    _gram_compatibility(G, Lambda_a, space, cls, tol).require(
        _INCOMPATIBLE, "condition_residual")
    return _no_spillover_update(G, X_c, X_c @ (Lambda_a - Lambda_c), space,
                                tol.rank_tol)


def _no_spillover_update(G, X, B, space, rank_tol):
    """``B G^-1 X* H`` for ``B = X D`` and ``G = X* H X``, which depends
    only on the map ``X -> B``: ``(X T, B T)`` gives it for invertible T.

    G counts as singular when its smallest singular value is at most
    ``rank_tol * ||X||_F^2``.  H is unitary, so ``||G|| <= ||X||_F^2``:
    the bound scales as G does, so rescaling X leaves the decision
    unchanged as it leaves the update, and a basis that is H-isotropic up
    to rounding fails it even where G alone looks well conditioned (one
    column).  The Frobenius norm costs O(np), the 2-norm an SVD of X.
    """
    s = (np.linalg.svd(G, compute_uv=False) if np.isfinite(G).all()
         else np.full(len(G), np.nan))
    _decide("gram_singular", s[-1] if s.size else np.inf,
            rank_tol * frob(X) ** 2, at_least=True).require(
        "X_c* H X_c is numerically singular; the changed family is not "
        "self-contained under the eigenvalue pairing", "singular value")
    Y, cond = gram_inverse_apply(G, _star_h(X, space))
    if cond > COND_WARN:
        warnings.warn(
            f"Gram matrix badly conditioned (1-norm estimate {cond:.2e}); "
            "the no-spillover guarantee degrades", stacklevel=3)
    return B @ Y
