"""Structured invariant-subspace workflows: reproduce a subspace, preserve
one, preserve a complementary pair (with or without knowing the fixed pair),
and the closed-form rank-bounded no-spillover update.

All updates stay inside the Jordan/Lie algebra of the space.  The central
compatibility condition is on the Gram matrix ``G = X* H X``: a target
restriction L is reachable by a structured perturbation iff
``G L = e2 L* G``.  Each workflow decides it once, then takes one of two
closed forms.  Reproducing and preserving a subspace take the family of
``A X = B`` from ``mapping._family`` on a full-rank X, which tests only
``W = e1 e2 W*`` (W carries ``X* H A X``): O(n^2 p), with one n-column
application of ``H^-1`` (a product with the inverse a dense H gets once
per space) only for the Z term.  The complementary update is the
no-spillover update ``B_c G^-1 X_c* H``: the certified spectral gap forces
``X_c* H X_f = 0`` (``Lambda_f* Y = e2 Y Lambda_c`` has only the zero
solution; computed pairs meet it to within their residuals, so it is
decided), and the update is the unique structured delta with
``delta [X_c X_f] = [B_c, 0]``.  Both no-spillover entries form
``X_c* H`` once, for G and the update, invert G on p x p through numpy
and apply ``B G^-1`` to ``X_c* H``: O(n^2 p), with no ``H^-1``.

The complementary checks use the eight seeded probes Omega of
``core._probes`` twice: the fixed pair is judged by
``A (X_f Omega) - X_f (Lambda_f Omega)`` in O(n^2) per probe (see
``core._check_invariant_pair``), and ``X = [X_c X_f]`` is decided
nonsingular by ``1 / (|X|_F |X^-T Omega|_F)``, one numpy solve with eight
right-hand sides (see ``core._rcond_estimate``), before the update is
formed.  Every factorization here is numpy's.  A lower or upper
triangular Lambda_f, such as a Jordan form or its transpose, gives its
spectrum from its diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _check_full_column_rank,
    _check_invariant_pair,
    _decide,
    _has_svd,
    _gram_compatibility,
    _probes,
    _rcond_estimate,
    _real_apply,
    _star_h,
    as_matrix,
    frob,
    gram_matrix,
    pseudoinverse,
)
from .mapping import _family
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


def _basis_pair(X_a, Lambda_a, space, tol):
    """X_a as an n x p basis of full column rank and Lambda_a as p x p, in
    the field of the space, and ``X_a* H X_a``."""
    X_a = as_matrix(X_a, "X_a", space, (space.n, None))
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space, (X_a.shape[1],) * 2)
    _check_full_column_rank(X_a, tol.rank_tol, "rank", "X_a is rank deficient")
    return X_a, Lambda_a, gram_matrix(X_a, space)


def lambda_compatibility(X_a, Lambda_a, space: ScalarProductSpace,
                         cls: StructureClass,
                         tol: ToleranceProfile = ToleranceProfile()) -> CompatibilityReport:
    """Test whether Lambda_a can be the restriction of a structured update
    on range(X_a): requires ``(X_a* H X_a) L_a = e2 L_a* (X_a* H X_a)``."""
    cls = StructureClass.parse(cls)
    _, Lambda_a, G = _basis_pair(X_a, Lambda_a, space, tol)
    d = _gram_compatibility(G, Lambda_a, space, cls)
    return CompatibilityReport(
        condition_residual=d.value, compatible=d.passed,
        notes="" if d.passed else
        "target restriction is unreachable for this structure; "
        "adjust Lambda_a so that G L = e2 L* G")


def reproduce_invariant(A, X_a, Lambda_a, space: ScalarProductSpace,
                        cls: StructureClass, Z=None,
                        tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """Structured perturbation making range(X_a) invariant with restriction
    Lambda_a.  Z = None yields the Frobenius-minimal member of the family."""
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_a, Lambda_a, G = _basis_pair(X_a, Lambda_a, space, tol)
    _gram_compatibility(G, Lambda_a, space, cls).require(
        _INCOMPATIBLE, "condition_residual")
    B = X_a @ Lambda_a - _real_apply(A, X_a)
    # W = X_a* H B carries X_a* H A X_a, so W = e1 e2 W* is still tested
    return _family(X_a, B, space, cls, tol, "symmetry").with_z(Z)


def preserve_invariant(A, X_c, Lambda_c, R, Lambda_a, space: ScalarProductSpace,
                       cls: StructureClass, Z=None,
                       tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """Structured perturbation keeping the invariant subspace range(X_c)
    invariant, in the re-basis X_c R, with new restriction Lambda_a."""
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_c = as_matrix(X_c, "X_c", space, (space.n, None))
    p = X_c.shape[1]
    Lambda_c = as_matrix(Lambda_c, "Lambda_c", space, (p, p))
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space, (p, p))
    R = as_matrix(R, "R", space, (p, p))
    _check_full_column_rank(R, tol.rank_tol, "nonsingular_R",
                            "R is numerically singular")
    _check_full_column_rank(X_c, tol.rank_tol, "rank", "X_c is rank deficient")
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol, "A X_c = X_c Lambda_c")
    GR = space.star_mat(R) @ gram_matrix(X_c, space) @ R
    _gram_compatibility(GR, Lambda_a, space, cls).require(
        "Lambda_a incompatible in the basis X_c R", "condition_residual")
    Rt = R @ Lambda_a - Lambda_c @ R
    return _family(X_c @ R, X_c @ Rt, space, cls, tol, "symmetry").with_z(Z)


def preserve_complementary(A, X_c, Lambda_a, X_f, Lambda_f,
                           space: ScalarProductSpace, cls: StructureClass,
                           tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """Structured perturbation reassigning the restriction on range(X_c) to
    Lambda_a while fixing the complementary invariant pair (X_f, Lambda_f).

    Requires the paired spectrum of the changed block to lie more than
    ``SPECTRAL_SEPARATION`` times the spectral scale from the fixed
    spectrum; a gap within ten times that degrades the Gram matrix and is
    warned about.  The update is the no-spillover update of
    ``B_c = X_c Lambda_a - A X_c``; an empty X_c gives the zero update.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_c = as_matrix(X_c, "X_c", space, (space.n, range(space.n + 1)))
    p, m = X_c.shape[1], space.n - X_c.shape[1]
    X_f = as_matrix(X_f, "X_f", space, (space.n, m))
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space, (p, p))
    Lambda_f = as_matrix(Lambda_f, "Lambda_f", space, (m, m))
    AX_c = _real_apply(A, X_c)
    Lambda_c = pseudoinverse(X_c, tol.rank_tol) @ AX_c
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol,
                          "invariance of range(X_c) under A", AX=AX_c)
    _check_invariant_pair(A, X_f, Lambda_f, tol.eig_tol,
                          "A X_f = X_f Lambda_f")
    ec = np.linalg.eigvals(Lambda_c)
    # a triangular Lambda_f (Jordan chains) has its spectrum on the diagonal
    nz = Lambda_f != 0
    triangular = not (np.tril(nz, -1).any() and np.triu(nz, 1).any())
    ef = np.diagonal(Lambda_f) if triangular else np.linalg.eigvals(Lambda_f)
    # an empty side is disjoint from everything (gap inf)
    paired = np.array([pairing_partner(l, cls, _form_star(space))
                       for l in ec])
    gap = float(np.min(np.abs(paired[:, None] - ef[None, :]), initial=np.inf))
    spectral_scale = max(1.0, frob(ec), frob(ef))
    XsH = _star_h(X_c, space)
    G = XsH @ X_c
    _decide("spectral_disjointness", gap,
            SPECTRAL_SEPARATION * spectral_scale, at_least=True).require(
        "paired spectrum of the changed block meets the fixed spectrum",
        "min gap")
    if gap < 10 * SPECTRAL_SEPARATION * spectral_scale:
        warnings.warn(
            f"spectral gap {gap:.3e} is close to the separation threshold; "
            f"Gram 1-norm condition {np.real(np.linalg.cond(G, 1)):.2e}",
            stacklevel=2)

    _gram_compatibility(G, Lambda_a, space, cls).require(
        _INCOMPATIBLE, "condition_residual")
    _decide("nonsingular_basis",
            _rcond_estimate(np.hstack([X_c, X_f]), _probes(space.n)),
            tol.rank_tol, at_least=True).require(
        "[X_c X_f] is numerically singular", "reciprocal condition estimate")
    # the gap gives X_c* H X_f = 0, so the no-spillover update solves
    # delta [X_c X_f] = [B_c, 0]; computed pairs meet it only to their
    # residuals over the gap, in O(n p m)
    _decide("h_orthogonality", frob(XsH @ X_f),
            tol.eig_tol * frob(X_c) * frob(X_f)).require(
        "X_c* H X_f is not zero, as the spectral gap makes it")
    # X_c T, B_c T give the same update; T scales each column of X_c to unit
    # norm by a power of two (exactly), so the Gram test judges the basis, as
    # the basis decision does, and not the scale of its columns; a zero
    # column, which that decision refuses, keeps its scale
    s = np.linalg.norm(X_c, axis=0)
    t = np.exp2(-np.round(np.log2(s, out=np.zeros_like(s), where=s > 0)))
    return _require_update(*_no_spillover_update(
        t[:, None] * G * t, X_c * t, (X_c @ Lambda_a - AX_c) * t,
        t[:, None] * XsH, tol.rank_tol))


def gram_inverse_apply(G, RHS):
    """Solve ``G Y = RHS`` by LU with partial pivoting (numpy's ``?gesv``)
    plus one step of iterative refinement.  G is p x p, so factoring it
    again for the refinement step costs O(p^3).  An empty G (p = 0) gives
    an empty Y."""
    Y = np.linalg.solve(G, RHS)
    return Y + np.linalg.solve(G, RHS - G @ Y)


def no_spillover(A, X_c, Lambda_c, Lambda_a, space: ScalarProductSpace,
                 cls: StructureClass,
                 tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """Closed-form structured update touching nothing outside range(X_c):

        delta = X_c (L_a - L_c) (X_c* H X_c)^-1 X_c* H

    Every invariant pair of A with spectrum disjoint from the changed block
    is annihilated by delta, known or not; the rank of delta equals the
    rank of ``L_a - L_c`` and never exceeds the number of changed columns.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_c = as_matrix(X_c, "X_c", space, (space.n, None))
    p = X_c.shape[1]
    Lambda_c = as_matrix(Lambda_c, "Lambda_c", space, (p, p))
    Lambda_a = as_matrix(Lambda_a, "Lambda_a", space, (p, p))
    _check_invariant_pair(A, X_c, Lambda_c, tol.eig_tol, "A X_c = X_c Lambda_c")
    XsH = _star_h(X_c, space)
    G = XsH @ X_c
    _gram_compatibility(G, Lambda_a, space, cls).require(
        _INCOMPATIBLE, "condition_residual")
    return _require_update(*_no_spillover_update(
        G, X_c, X_c @ (Lambda_a - Lambda_c), XsH, tol.rank_tol))


def _no_spillover_update(G, X, B, XsH, rank_tol):
    """``(B G^-1) X* H`` for ``B = X D``, ``G = X* H X`` and ``XsH = X* H``,
    which depends only on the map ``X -> B``: ``(X T, B T)`` gives it for
    invertible T.  Returns the numbers ``_require_update`` decides: the
    ``gram_singular`` Decision, then the update and the 1-norm condition
    number ``|G|_1 |G^-1|_1``, taken with the G^-1 the update uses (1 for
    p = 0), both None when G is refused.

    G counts as singular when its smallest singular value is at most
    ``rank_tol * ||X||_F^2``.  H is unitary, so ``||G|| <= ||X||_F^2``:
    the bound scales as G does, so rescaling X leaves the decision
    unchanged as it leaves the update, and a basis that is H-isotropic up
    to rounding fails it even where G alone looks well conditioned (one
    column).  The Frobenius norm costs O(np), the 2-norm an SVD of X.
    """
    s = (np.linalg.svd(G, compute_uv=False) if _has_svd(G)
         else np.full(len(G), np.nan))
    singular = _decide("gram_singular", s[-1] if s.size else np.inf,
                       rank_tol * frob(X) ** 2, at_least=True)
    if not singular.passed:
        return singular, None, None
    G_inv = gram_inverse_apply(G, np.eye(len(G), dtype=G.dtype))
    cond = (np.linalg.norm(G, 1) * np.linalg.norm(G_inv, 1) if G.size
            else 1.0)
    return singular, (B @ G_inv) @ XsH, cond


def _require_update(singular, update, cond):
    """The update of ``_no_spillover_update``, once its Gram matrix is
    decided nonsingular; a badly conditioned one is warned about at the
    caller of the public entry that calls this."""
    singular.require(
        "X_c* H X_c is numerically singular; the changed family is not "
        "self-contained under the eigenvalue pairing", "singular value")
    if cond > COND_WARN:
        warnings.warn(
            f"Gram matrix badly conditioned (1-norm estimate {cond:.2e}); "
            "the no-spillover guarantee degrades", stacklevel=3)
    return update
