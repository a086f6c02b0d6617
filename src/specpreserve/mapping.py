"""Structured linear-map solver: all members A of the Jordan/Lie algebra
with ``A X = B``, the feasibility test, and the Frobenius-minimal member.

The whole solution family is

    A(Z) = B X^+ + e1 e2 H^-1 [(H B X^+)* - (X^+)* (X* H B)* X^+]
           + H^-1 (I - X X^+)* Z (I - X X^+)

over free parameters Z with ``Z* = e1 e2 Z``; Z = 0 gives the unique
Frobenius-minimal solution.  Star is the star of the space throughout.

The Z = 0 member is kept as factors ``U V`` of width 2p and multiplied out
once, so it costs O(n^2 p) and forms no n x n matrix before that product;
the Z term, ``H^-1 P* Z P`` with ``P = I - X X^+``, is expanded without
forming P and takes the only n-column application of ``H^-1``, a product
with the inverse a dense H gets once per space: no call solves with H.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _decide,
    as_matrix,
    frob,
    pseudoinverse,
    z_symmetry_residual,
)
from .errors import ArgumentError

__all__ = [
    "FeasibilityReport",
    "StructuredMapSolution",
    "feasibility_check",
    "map_family",
    "solve_structured",
    "minimal_structured",
]

ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the solvability test for ``A X = B`` with A structured.

    feasible is True when both the range condition ``B X^+ X = B`` and the
    symmetry condition ``X* H B = e1 e2 (X* H B)*`` hold at the tolerance;
    violations lists the failed ones as ``core.Decision`` tuples
    (condition name, residual, threshold, passed).
    """

    feasible: bool
    range_residual: float
    symmetry_residual: float
    violations: tuple


def _family_factors(B, HB, R, Q, space, cls):
    """Factors ``(U, V)`` of the Z = 0 member, ``U @ V``:

        B R + e1 e2 H^-1 R* [(H B)* - Q],   U = [B, e1 e2 H^-1 R*],
                                            V = [R; (H B)* - Q]

    with ``R = X^+`` and ``Q = (X* H B)* X^+``.  When only the first p
    columns of B are nonzero, B may be passed as those columns, with R and
    Q the matching p rows.
    """
    s = space.epsilon1 * cls.epsilon2
    st = space.star_mat
    U = np.hstack([B, s * space.h_solve(st(R))])
    V = np.vstack([R, st(HB) - Q])
    return U, V


def _map_factors(X, B, Xd, space, cls):
    """``(U, V, W)``: the family factors of ``A X = B`` for ``X^+ = Xd``,
    and ``W = X* H B``."""
    HB = space.h_apply(B)
    W = space.star_mat(X) @ HB
    U, V = _family_factors(B, HB, Xd, space.star_mat(W) @ Xd, space, cls)
    return U, V, W


def _z_term(Z, X, Xd, space):
    """``H^-1 P* Z P`` for ``P = I - X X^+``, expanded without forming P."""
    st = space.star_mat
    XsZ = st(X) @ Z
    ZX = Z @ X
    M = Z - st(Xd) @ (XsZ - (XsZ @ X) @ Xd) - ZX @ Xd
    return space.h_solve(M)


def _admissible_z(Z, space, cls, tol, real=False) -> np.ndarray:
    """Z as an n x n matrix, checked to be an admissible family parameter:
    when real is set, real to the structure tolerance (checked first, and
    its real part is returned), and ``Z* = e1 e2 Z``."""
    Z = as_matrix(Z, "Z", space)
    if Z.shape != (space.n, space.n):
        raise ArgumentError("Z must be n x n")
    thr = tol.structure_tol * max(1.0, frob(Z))
    if real and np.iscomplexobj(Z):
        _decide("z_real", np.max(np.abs(Z.imag)), thr).require(
            "real arrangements require a real parameter Z", None)
    _decide("z_symmetry", z_symmetry_residual(Z, space, cls), thr).require(
        "Z fails Z* = e1 e2 Z")
    return np.ascontiguousarray(Z.real) if real else Z


def _feasibility(X, B, Xd, W, space, cls, tol) -> FeasibilityReport:
    r_range = float(np.linalg.norm(B @ (Xd @ X) - B))
    thr_range = tol.residual_tol * frob(B) + ABS_FLOOR * max(1.0, frob(B))

    r_sym = z_symmetry_residual(W, space, cls)
    # the floor follows the rounding scale of forming W itself: W can vanish
    # identically (isotropic X) while carrying O(eps |X||B|) noise
    thr_sym = tol.residual_tol * frob(W) + ABS_FLOOR * max(
        1.0, frob(X) * frob(B))

    violations = tuple(d for d in (
        _decide("range_condition", r_range, thr_range),
        _decide("symmetry_condition", r_sym, thr_sym)) if not d.passed)
    return FeasibilityReport(
        feasible=not violations,
        range_residual=r_range,
        symmetry_residual=r_sym,
        violations=violations,
    )


def _check_shapes(X, B, space):
    X = as_matrix(X, "X", space)
    B = as_matrix(B, "B", space)
    if X.shape != B.shape or X.shape[0] != space.n:
        raise ArgumentError(
            f"X and B must both be {space.n} x p, got {X.shape} and {B.shape}")
    return X, B


def feasibility_check(X, B, space: ScalarProductSpace, cls: StructureClass,
                      tol: ToleranceProfile | None = None) -> FeasibilityReport:
    """Check whether some structured A satisfies ``A X = B``."""
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    X, B = _check_shapes(X, B, space)
    Xd = pseudoinverse(X, tol.rank_tol)
    W = space.star_mat(X) @ space.h_apply(B)
    return _feasibility(X, B, Xd, W, space, cls, tol)


@dataclass(frozen=True)
class StructuredMapSolution:
    """The Z = 0 solution plus everything needed to enumerate the family.

    The solution is held as ``factors = (U, V)`` with ``family_base = U @ V``,
    together with X and its pseudoinverse, from which the projector
    ``I - X X^+`` and every member ``with_z`` are computed on demand.
    """

    factors: tuple
    X: np.ndarray
    X_pinv: np.ndarray
    space: ScalarProductSpace
    cls: StructureClass

    @functools.cached_property
    def family_base(self) -> np.ndarray:
        U, V = self.factors
        return U @ V

    @property
    def projector(self) -> np.ndarray:
        return np.eye(self.space.n) - self.X @ self.X_pinv

    def with_z(self, Z, tol: ToleranceProfile | None = None) -> np.ndarray:
        """Family member for an admissible parameter Z (``Z* = e1 e2 Z``,
        real on a real space)."""
        Z = _admissible_z(Z, self.space, self.cls, tol or ToleranceProfile(),
                          real=self.space.field == "real")
        return self.family_base + _z_term(Z, self.X, self.X_pinv, self.space)


def map_family(X, B, space: ScalarProductSpace, cls: StructureClass,
               tol: ToleranceProfile | None = None) -> StructuredMapSolution:
    """Solve ``A X = B`` over the structured class, returning the family.

    Raises StructureError when the feasibility conditions fail.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    X, B = _check_shapes(X, B, space)
    Xd = pseudoinverse(X, tol.rank_tol)
    U, V, W = _map_factors(X, B, Xd, space, cls)
    report = _feasibility(X, B, Xd, W, space, cls, tol)
    if not report.feasible:
        # the first failed condition's residual and threshold, renamed
        report.violations[0]._replace(condition="feasibility").require(
            "A X = B has no structured solution: "
            f"{', '.join(v.condition for v in report.violations)} failed "
            f"(range {report.range_residual:.3e}, symmetry "
            f"{report.symmetry_residual:.3e})", None)
    return StructuredMapSolution(factors=(U, V), X=X, X_pinv=Xd, space=space,
                                 cls=cls)


def solve_structured(X, B, space: ScalarProductSpace, cls: StructureClass,
                     Z=None, tol: ToleranceProfile | None = None) -> np.ndarray:
    """Structured solution of ``A X = B`` for one choice of parameter Z."""
    family = map_family(X, B, space, cls, tol)
    if Z is None:
        return family.family_base
    return family.with_z(Z, tol)


def minimal_structured(X, B, space: ScalarProductSpace, cls: StructureClass,
                       tol: ToleranceProfile | None = None) -> np.ndarray:
    """The unique Frobenius-minimal structured solution of ``A X = B``."""
    return map_family(X, B, space, cls, tol).family_base
