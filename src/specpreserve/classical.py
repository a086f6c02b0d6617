"""Unstructured baseline updates: rank-one eigenvalue shifts, multi-eigenvalue
replacement, and the pseudoinverse families that reproduce or preserve
invariant subspaces of a plain square matrix.

These double as cross-check oracles for the structured routines: each
operation only guarantees its algebraic identity and leaves spectral claims
to the diagnostics eigensolver.  Supplied eigen-data is held to the relative
residual EIGPAIR_TOL, and ranks to the cutoff ``core.DEFAULT_RANK_TOL``.
"""

from __future__ import annotations

import numpy as np

from .core import (DEFAULT_RANK_TOL, _check_full_column_rank,
                   _check_invariant_pair, _decide, as_matrix, pseudoinverse)
from .errors import ArgumentError

__all__ = [
    "brauer_update",
    "brauer_shift",
    "rado_update",
    "reproduce_invariant",
    "preserve_invariant",
    "preserve_complementary",
]

EIGPAIR_TOL = 1e-6


def _as_vector(x, n, name):
    x = as_matrix(x, name).reshape(-1)
    if x.shape[0] != n:
        raise ArgumentError(f"{name} must have length {n}, got {x.shape[0]}")
    return x


def brauer_update(A, x_k, lambda_k, q):
    """Rank-one update ``A + x_k q^T`` that moves the eigenvalue lambda_k to
    ``lambda_k + x_k^T q`` and keeps all other eigenvalues.

    The direction x_k stays an eigenvector of the result; that identity is
    algebraic and holds for any q.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    x_k = _as_vector(x_k, n, "x_k")
    q = _as_vector(q, n, "q")
    _check_invariant_pair(A, x_k[:, None], np.array([[lambda_k]]), EIGPAIR_TOL,
                          "eigenpair (lambda_k, x_k)", "eigenpair_residual")
    return A + np.outer(x_k, q)


def brauer_shift(A, lam, v, r, mu):
    """Replace the eigenvalue lam by mu via ``A + (mu - lam) v r^T``.

    Requires the normalization ``r^T v = 1``; the eigenvector v is kept:
    ``(A + (mu - lam) v r^T) v = mu v``.
    """
    A = as_matrix(A, "A")
    n = A.shape[0]
    v = _as_vector(v, n, "v")
    r = _as_vector(r, n, "r")
    rv = r @ v
    _decide("normalization", abs(rv - 1.0), 1e-10).require(
        f"r^T v must equal 1, got {rv}", None)
    _check_invariant_pair(A, v[:, None], np.array([[lam]]), EIGPAIR_TOL,
                          "eigenpair (lam, v)", "eigenpair_residual")
    return A + (mu - lam) * np.outer(v, r)


def rado_update(A, X, Omega, C):
    """Multi-eigenvalue update ``A + X C``.

    X holds p linearly independent eigenvectors with ``A X = X Omega``; the
    spectrum of the result is ``eig(Omega + C X)`` together with the
    untouched eigenvalues of A.
    """
    A = as_matrix(A, "A")
    X = as_matrix(X, "X")
    Omega = as_matrix(Omega, "Omega")
    C = as_matrix(C, "C")
    n = A.shape[0]
    p = X.shape[1]
    if X.shape[0] != n or Omega.shape != (p, p) or C.shape != (p, n):
        raise ArgumentError("inconsistent shapes for rado_update")
    _check_full_column_rank(X, DEFAULT_RANK_TOL, "rank",
                            "eigenvector matrix X is rank deficient")
    _check_invariant_pair(A, X, Omega, EIGPAIR_TOL, "A X = X Omega")
    return A + X @ C


def reproduce_invariant(A, X_a, Lambda_a, Z=None):
    """All perturbations making range(X_a) invariant for ``A + delta``:

        delta = (X_a L_a - A X_a) X_a^+ + Z (I - X_a X_a^+)

    Any choice of Z works; Z = None means Z = 0.
    """
    A = as_matrix(A, "A")
    X_a = as_matrix(X_a, "X_a")
    Lambda_a = as_matrix(Lambda_a, "Lambda_a")
    n = A.shape[0]
    p = X_a.shape[1]
    if X_a.shape[0] != n or Lambda_a.shape != (p, p):
        raise ArgumentError("inconsistent shapes for reproduce_invariant")
    _check_full_column_rank(X_a, DEFAULT_RANK_TOL, "rank",
                            "X_a is rank deficient")
    Xd = pseudoinverse(X_a)
    delta = (X_a @ Lambda_a - A @ X_a) @ Xd
    if Z is not None:
        Z = as_matrix(Z, "Z")
        delta = delta + Z @ (np.eye(n) - X_a @ Xd)
    return delta


def preserve_invariant(A, X_c, Lambda_c, R, Lambda_a, Z=None):
    """Perturbations keeping the invariant subspace range(X_c) invariant,
    with the restriction replaced by Lambda_a in the basis X_c R:

        delta = X_c (R L_a - L_c R) (X_c R)^+ + Z (I - X_c R (X_c R)^+)
    """
    A = as_matrix(A, "A")
    X_c = as_matrix(X_c, "X_c")
    Lambda_c = as_matrix(Lambda_c, "Lambda_c")
    Lambda_a = as_matrix(Lambda_a, "Lambda_a")
    R = as_matrix(R, "R")
    n = A.shape[0]
    p = X_c.shape[1]
    if R.shape != (p, p) or Lambda_a.shape != (p, p) or Lambda_c.shape != (p, p):
        raise ArgumentError("inconsistent shapes for preserve_invariant")
    _check_full_column_rank(R, DEFAULT_RANK_TOL, "nonsingular_R",
                            "R is numerically singular")
    _check_invariant_pair(A, X_c, Lambda_c, EIGPAIR_TOL, "A X_c = X_c Lambda_c")
    XR = X_c @ R
    XRd = pseudoinverse(XR)
    delta = X_c @ (R @ Lambda_a - Lambda_c @ R) @ XRd
    if Z is not None:
        Z = as_matrix(Z, "Z")
        delta = delta + Z @ (np.eye(n) - XR @ XRd)
    return delta


def preserve_complementary(A, X_a, X_f, Lambda_a_hat, Lambda_f_hat):
    """Perturbation assigning prescribed restrictions on a complementary pair
    of subspaces: ``delta = [X_a L_a - A X_a | X_f L_f - A X_f] [X_a X_f]^-1``.
    """
    A = as_matrix(A, "A")
    X_a = as_matrix(X_a, "X_a")
    X_f = as_matrix(X_f, "X_f")
    La = as_matrix(Lambda_a_hat, "Lambda_a_hat")
    Lf = as_matrix(Lambda_f_hat, "Lambda_f_hat")
    n = A.shape[0]
    X = np.hstack([X_a, X_f])
    if X.shape != (n, n):
        raise ArgumentError("[X_a X_f] must be square")
    _check_full_column_rank(X, DEFAULT_RANK_TOL, "nonsingular_basis",
                            "[X_a X_f] is numerically singular")
    B = np.hstack([X_a @ La - A @ X_a, X_f @ Lf - A @ X_f])
    return np.linalg.solve(X.T, B.T).T
