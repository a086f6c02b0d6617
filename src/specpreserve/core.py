"""Scalar-product spaces, adjoints and shared numerical kernels.

A space is defined by a unitary matrix H with ``H* = eps1 * H`` (star is
either plain transpose or conjugate transpose) through the form
``<x, y> = y* H x``.  The adjoint of A with respect to that form is
``H^-1 A* H``; requiring the adjoint to equal ``+A`` or ``-A`` carves out
the Jordan and Lie algebras this library works in.  With H the block flip
``[[0, I], [I, 0]]`` these are the familiar Hamiltonian-type classes.

``H^-1`` is applied by indexing when H is a signed or phased permutation,
and otherwise as a product with the inverse of H, formed once per space.
"""

from __future__ import annotations

import enum
import functools
import threading
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, StructureError

__all__ = [
    "StructureClass",
    "ToleranceProfile",
    "ScalarProductSpace",
    "adjoint",
    "structure_residual",
    "is_member",
    "pseudoinverse",
    "numerical_rank",
    "sample_structured",
    "z_symmetry_residual",
    "frob",
]

DEFAULT_STRUCTURE_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-8


def frob(A) -> float:
    """Frobenius norm, accepting anything array-like (including scalars)."""
    return float(np.linalg.norm(np.atleast_1d(np.asarray(A))))


class Decision(NamedTuple):
    """The outcome of one threshold test, made by ``_decide``."""

    condition: str
    value: float
    threshold: float
    passed: bool

    def require(self, what, measure="residual"):
        """Raise StructureError unless passed, with the message
        ``what (measure value)``, or what alone when measure is None."""
        if not self.passed:
            if measure is not None:
                what = f"{what} ({measure} {self.value:.3e})"
            raise StructureError(self.condition, what, residual=self.value,
                                 threshold=self.threshold)


def _decide(condition, value, threshold, *, at_least=False) -> Decision:
    """The one threshold rule: a residual passes when ``value <= threshold``,
    a lower bound (at_least: a gap, an rcond, a singular value) when
    ``value > threshold``, so zero never does.  A NaN on either side fails."""
    value, threshold = float(value), float(threshold)
    return Decision(condition, value, threshold,
                    value > threshold if at_least else value <= threshold)


def as_matrix(A, name="matrix", space=None) -> np.ndarray:
    """A as a 2-D array in its field, the one place a field is decided:
    float64 when the data is exactly real, unless the space is complex;
    complex128 when it has a nonzero imaginary entry or the space is
    complex.  Anything with a ``field`` (a space, an instance recipe) can
    stand in for the space.  The test is exact, so nothing is dropped."""
    A = np.asarray(A)
    if (getattr(space, "field", "real") == "complex"
            or np.iscomplexobj(A) and np.any(A.imag)):
        A = A.astype(complex, copy=False)
    else:
        A = np.ascontiguousarray(A.real, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ArgumentError(f"{name} must be 2-dimensional, got shape {A.shape}")
    return A


class StructureClass(enum.Enum):
    """Which algebra of the scalar product a matrix is required to live in.

    The enum value is the sign eps2 appearing in ``adjoint(A) = eps2 * A``:
    +1 selects the Jordan algebra, -1 the Lie algebra.
    """

    JORDAN = 1
    LIE = -1

    @property
    def epsilon2(self) -> int:
        return self.value

    @classmethod
    def parse(cls, value) -> "StructureClass":
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key in ("jordan", "j", "+1", "1"):
            return cls.JORDAN
        if key in ("lie", "l", "-1"):
            return cls.LIE
        raise ArgumentError(f"unknown structure class {value!r}")


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical thresholds shared by every operation.

    structure_tol gates membership checks, rank_tol is the relative
    singular-value cutoff, residual_tol gates interpolation residuals.
    The defaults suit double-precision data; matrices transcribed at a
    few decimals need a user profile around 1e-3.
    """

    structure_tol: float = DEFAULT_STRUCTURE_TOL
    rank_tol: float = DEFAULT_RANK_TOL
    residual_tol: float = DEFAULT_RESIDUAL_TOL

    @property
    def eig_tol(self) -> float:
        """Relative residual allowed for computed eigen-data (invariant
        pairs, Jordan chains, spectrum matching): residual_tol, but never
        below 1e-6, the accuracy of eigenvectors from a dense solver."""
        return max(1e-6, self.residual_tol)

    def __post_init__(self):
        for name in ("structure_tol", "rank_tol", "residual_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ArgumentError(f"{name} must lie strictly between 0 and 1, got {v}")


def _normalize_star(star) -> str:
    key = str(star).strip().lower().replace("-", "").replace("_", "")
    if key in ("t", "transpose", "bilinear"):
        return "T"
    if key in ("ct", "*", "conjugatetranspose", "conjugate", "sesquilinear", "h"):
        return "CT"
    raise ArgumentError(f"unknown star flavor {star!r} (expected 't' or 'ct')")


def _star(M, star, field) -> np.ndarray:
    """The star of a (star, field) pair applied to matrix data in its field:
    the plain transpose only for the bilinear form on a complex space."""
    M = np.asarray(M)
    if star == "T" and field == "complex":
        return M.T.copy()
    return M.conj().T.copy()


def _swap_h(n, sign) -> np.ndarray:
    """``[[0, I], [sign I, 0]]`` for even n: the flip (sign 1) and skewj
    (sign -1) presets, whose eps1 is the sign."""
    m = n // 2
    H = np.zeros((n, n))
    H[:m, m:] = np.eye(m)
    H[m:, :m] = sign * np.eye(m)
    return H


class _MonomialH:
    """H with exactly one unimodular entry per row and column,
    ``H[i, cols[i]] = vals[i]``: H and ``H^-1 = H^H`` act by indexing and
    scaling, which is exact."""

    def __init__(self, H, cols):
        self.cols = cols
        self.vals = H[np.arange(H.shape[0]), cols]
        self.rows = np.argsort(cols)
        self.inv_vals = np.conj(self.vals)[self.rows]

    @staticmethod
    def _scale_rows(v, M):
        return v.reshape((-1,) + (1,) * (M.ndim - 1)) * M

    def apply(self, B):
        return self._scale_rows(self.vals, B[self.cols])

    def solve(self, B):
        return self._scale_rows(self.inv_vals, B[self.rows])


# scipy's LAPACK wrappers can return wrong values, or corrupt the heap,
# when two threads call them at once (seen with scipy 1.17.1 lu_solve on one
# shared LU), so every scipy.linalg call in the package runs under this one
# lock; numpy.linalg gave the sequential results in the same test
_SCIPY_LAPACK_LOCK = threading.Lock()


class _DenseH:
    """Any other H: H and H^-1 applied by products, with H^-1 formed by
    ``np.linalg.inv`` (LU with partial pivoting) on the first solve.  H is
    unitary, so kappa(H) = 1 and the product is as accurate as solving with
    the LU factors."""

    def __init__(self, H):
        self.H = H

    @functools.cached_property
    def inv(self):
        return np.linalg.inv(self.H)

    def apply(self, B):
        return _real_apply(self.H, B)

    def solve(self, B):
        return _real_apply(self.inv, B)


def _real_apply(M, B) -> np.ndarray:
    """``M B``; a real M meets complex B as one real product with
    ``[Re B, Im B]``, never cast to complex."""
    if np.iscomplexobj(M) or not np.iscomplexobj(B):
        return M @ B
    R = B.reshape(B.shape[0], -1)
    k = R.shape[1]
    Y = M @ np.hstack([R.real, R.imag])
    return (Y[:, :k] + 1j * Y[:, k:]).reshape(Y.shape[:1] + B.shape[1:])


def _h_operator(H):
    """The cheapest exact way to apply H and H^-1."""
    nz = H != 0
    if (np.all(np.count_nonzero(nz, axis=0) == 1)
            and np.all(np.count_nonzero(nz, axis=1) == 1)
            and np.all(np.abs(H[nz]) == 1.0)):
        return _MonomialH(H, np.argmax(nz, axis=1))
    return _DenseH(H)


@dataclass(frozen=True, eq=False)
class ScalarProductSpace:
    """The matrix H, the star flavor and the sign eps1 defining the form.

    Parameters
    ----------
    H : array_like
        Unitary (orthogonal when real) n-by-n matrix with ``H* = eps1 H``.
    star : str
        ``"t"`` for the bilinear form (plain transpose) or ``"ct"`` for the
        sesquilinear form (conjugate transpose).
    field : str, optional
        ``"real"`` or ``"complex"``; inferred from H when omitted.  A real
        space restricts members to real matrices but still admits complex
        eigenvector data, on which the form acts sesquilinearly.
    structure_tol : float
        Validation threshold for unitarity and the eps1 symmetry of H.

    The sign eps1 is detected from H and both defining properties are
    checked at construction; an H that fails them (for instance one typed
    in at too few decimals for the requested tolerance) is rejected rather
    than re-orthogonalized.  H is stored read-only in its field (float64 on
    real spaces).  Spaces compare and hash by value: H entrywise, star,
    field, eps1 and structure_tol.
    """

    H: np.ndarray
    star: str = "CT"
    field: str = dc_field(default="")
    epsilon1: int = dc_field(default=0, init=False)
    structure_tol: float = DEFAULT_STRUCTURE_TOL

    def __post_init__(self):
        H = as_matrix(self.H, "H")
        n = H.shape[0]
        if H.shape[0] != H.shape[1]:
            raise ArgumentError(f"H must be square, got shape {H.shape}")
        star = _normalize_star(self.star)
        field = self.field or ("complex" if np.iscomplexobj(H) else "real")
        if field not in ("real", "complex"):
            raise ArgumentError(f"unknown field {self.field!r}")
        if field == "real":
            _decide("real_space_H", np.max(np.abs(H.imag)),
                    self.structure_tol).require(
                "real-field space requires a real H", None)
            H = H.real
            star = "T"
        object.__setattr__(self, "field", field)
        H = as_matrix(H, "H", self)

        Hs = _star(H, star, field)
        r_plus = np.linalg.norm(Hs - H)
        r_minus = np.linalg.norm(Hs + H)
        eps1 = 1 if r_plus <= r_minus else -1
        scale = max(1.0, float(np.linalg.norm(H)))
        _decide("H_star_symmetry", min(r_plus, r_minus),
                self.structure_tol * scale).require(
            f"H fails H* = +/-H at tolerance {self.structure_tol:g}")
        # unitarity is always with respect to the conjugate transpose, even
        # when the form itself is bilinear
        _decide("H_unitary", np.linalg.norm(H.conj().T @ H - np.eye(n)),
                self.structure_tol * max(1.0, scale**2)).require(
            f"H fails unitarity at tolerance {self.structure_tol:g}")

        H = np.array(H, order="C")
        H.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "star", star)
        object.__setattr__(self, "epsilon1", eps1)

    def _key(self):
        return (self.star, self.field, self.epsilon1, self.structure_tol)

    def __eq__(self, other):
        if not isinstance(other, ScalarProductSpace):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.H, other.H)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which array_equal treats as equal
        return hash(self._key() + (self.H.shape, (self.H + 0.0).tobytes()))

    @property
    def n(self) -> int:
        return self.H.shape[0]

    def star_mat(self, M) -> np.ndarray:
        """Apply the star of this space to matrix data."""
        return _star(M, self.star, self.field)

    def star_scalar(self, lam) -> complex:
        if self.star == "T" and self.field == "complex":
            return complex(lam)
        return complex(np.conj(lam))

    @functools.cached_property
    def _h_op(self):
        # built on first use and kept for the life of the space; not a
        # field, so it stays out of eq, hash and repr
        return _h_operator(self.H)

    def h_apply(self, B) -> np.ndarray:
        """The product ``H B`` in the field of B and H, by indexing when H
        is a signed or phased permutation."""
        return self._h_op.apply(np.asarray(B))

    def h_solve(self, B) -> np.ndarray:
        """Solve ``H X = B``.

        A signed or phased permutation H (one entry of modulus exactly 1 per
        row and column) is inverted exactly as ``H^H``; any other H as the
        product with its inverse, formed once per space by LU with partial
        pivoting.  ``H^H`` is never substituted for a dense H: an H given at
        low precision is unitary only to that precision.  Real B on a real
        space gives a real result.
        """
        return self._h_op.solve(np.asarray(B))

    # -- common presets -------------------------------------------------

    @classmethod
    def identity(cls, n, *, star="CT", field="complex", structure_tol=DEFAULT_STRUCTURE_TOL):
        return cls(np.eye(n), star=star, field=field, structure_tol=structure_tol)

    @classmethod
    def flip(cls, n, *, star="CT", field="complex", structure_tol=DEFAULT_STRUCTURE_TOL):
        """H = [[0, I], [I, 0]] (n must be even)."""
        if n % 2:
            raise ArgumentError("flip space needs even dimension")
        return cls(_swap_h(n, 1), star=star, field=field, structure_tol=structure_tol)

    @classmethod
    def skewj(cls, n, *, star="CT", field="complex", structure_tol=DEFAULT_STRUCTURE_TOL):
        """H = [[0, I], [-I, 0]] (n must be even)."""
        if n % 2:
            raise ArgumentError("skewj space needs even dimension")
        return cls(_swap_h(n, -1), star=star, field=field, structure_tol=structure_tol)

    @classmethod
    def signature(cls, signs, *, star="CT", field="complex", structure_tol=DEFAULT_STRUCTURE_TOL):
        """H = diag(signs) with signs in {+1, -1}."""
        signs = np.asarray(signs, dtype=float)
        if not np.all(np.isin(signs, (1.0, -1.0))):
            raise ArgumentError("signature entries must be +1 or -1")
        return cls(np.diag(signs), star=star, field=field, structure_tol=structure_tol)


def adjoint(A, space: ScalarProductSpace) -> np.ndarray:
    """Adjoint of A with respect to the scalar product: ``H^-1 A* H``.

    Computed in the field of A and H, so real data gets real arithmetic and
    a real result.  ``H^-1`` comes from ``space.h_solve``: indexing for a
    signed or phased permutation H, which gives a dense solve's result up
    to the sign of zeros, and a product with the inverse formed once per
    space for any other H.
    """
    A = as_matrix(A, "A")
    n = space.n
    if A.shape != (n, n):
        raise ArgumentError(f"A has shape {A.shape}, space has dimension {n}")
    return space.h_solve(_star_h(A, space))


def structure_residual(A, space: ScalarProductSpace, cls: StructureClass) -> float:
    """Frobenius distance of A from its defining symmetry, ``|adj(A) - eps2 A|``."""
    A = as_matrix(A, "A")
    cls = StructureClass.parse(cls)
    return float(np.linalg.norm(adjoint(A, space) - cls.epsilon2 * A))


def is_member(A, space: ScalarProductSpace, cls: StructureClass,
              tol: ToleranceProfile | float = None) -> bool:
    """True when A belongs to the Jordan/Lie algebra at the given tolerance."""
    if tol is None:
        tol = ToleranceProfile()
    structure_tol = tol.structure_tol if isinstance(tol, ToleranceProfile) else float(tol)
    A = as_matrix(A, "A")
    bound = structure_tol * max(1.0, frob(A))
    # a real space admits only real matrices
    return ((space.field == "complex" or frob(A.imag) <= bound)
            and structure_residual(A, space, cls) <= bound)


def pseudoinverse(X, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    ``rank_tol * sigma_max`` treated as zero, in the dtype of X.  An X
    with a NaN or infinite entry has no SVD; it gets an all-NaN result, so
    every residual that uses it is NaN and fails its decision."""
    X = np.asarray(X)
    X = X if X.ndim == 2 else as_matrix(X, "X")
    if not np.isfinite(X).all():
        return np.full(X.shape[::-1], np.nan, dtype=X.dtype)
    return np.linalg.pinv(X, rcond=rank_tol)


def numerical_rank(X, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above ``rank_tol * sigma_max``, taken in the
    field of X."""
    X = as_matrix(X, "X")
    if X.size == 0:
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def _check_full_column_rank(M, rank_tol, condition, what):
    """Raise unless M has full column rank: for p columns, the p-th
    singular value must exceed ``rank_tol * sigma_max``.  No columns always
    pass; an M with a NaN or infinite entry fails with NaN singular
    values."""
    p = M.shape[1]
    s = (np.linalg.svd(M, compute_uv=False) if np.isfinite(M).all()
         else np.full(min(M.shape), np.nan))
    pth = np.inf if p == 0 else s[p - 1] if p <= s.size else 0.0
    _decide(condition, pth, rank_tol * (s[0] if s.size else 0.0),
            at_least=True).require(what, "singular value")


def _star_h(X, space) -> np.ndarray:
    """``X* H``; on a real space ``e1 (H X)*``, so H never meets complex X."""
    if space.field == "complex":
        return space.star_mat(X) @ space.H
    return space.epsilon1 * space.star_mat(space.h_apply(X))


def gram_matrix(X, space: ScalarProductSpace) -> np.ndarray:
    """The form's Gram matrix ``X* H X`` of a chain/basis matrix."""
    X = as_matrix(X, "X", space)
    return _star_h(X, space) @ X


def z_symmetry_residual(Z, space: ScalarProductSpace, cls: StructureClass) -> float:
    """Distance of Z from the admissible parameter class ``Z* = eps1 eps2 Z``.

    This is the symmetry the free parameter of the structured linear-map
    solver must carry, and the one test of the Gram certificate
    ``W = e1 e2 W*`` of the reassignment, mapping and subspace updates; it
    differs from membership in the algebra itself.
    """
    Z = as_matrix(Z, "Z", space)
    cls = StructureClass.parse(cls)
    s = space.epsilon1 * cls.epsilon2
    return float(np.linalg.norm(space.star_mat(Z) - s * Z))


def _gram_compatibility(G, L, space, cls, tol,
                        condition="lambda_compatibility") -> Decision:
    """Whether the target restriction L is reachable on a basis with Gram
    matrix G.

    Because ``G* = e1 G``, ``G L = e2 L* G`` is the certificate
    ``W = e1 e2 W*`` for ``W = G L``, with the same residual norm.  The
    threshold scales with ``|G| |L|``, the rounding scale of forming W.
    """
    return _decide(condition, z_symmetry_residual(G @ L, space, cls),
                   tol.structure_tol * max(1.0, frob(G) * frob(L)))


def _check_invariant_pair(A, X, L, tol, what, condition="invariant_pair_residual"):
    """Raise unless ``A X = X L`` holds to the relative residual
    ``|A X - X L| / (|A| |X|)`` at most tol."""
    _decide(condition, frob(_real_apply(A, X) - X @ L)
            / max(frob(A) * frob(X), 1e-300), tol).require(
        f"{what} fails", "relative residual")


def sample_structured(space: ScalarProductSpace, cls: StructureClass, seed,
                      scale: float = 1.0) -> np.ndarray:
    """Seeded random matrix with ``Z* = eps1 eps2 Z``, by symmetrization.

    Real spaces get real samples.  The output is the admissible free
    parameter for the structured solver family.
    """
    cls = StructureClass.parse(cls)
    rng = np.random.default_rng(seed)
    n = space.n
    M = rng.standard_normal((n, n))
    if space.field == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    M = scale * M
    s = space.epsilon1 * cls.epsilon2
    return (M + s * space.star_mat(M)) / 2.0
