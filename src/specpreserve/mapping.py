"""Structured linear-map solver: all members A of the Jordan/Lie algebra
with ``A X = B``, the feasibility test, and the Frobenius-minimal member.

The whole solution family is

    A(Z) = B X^+ + e1 e2 H^-1 [(H B X^+)* - (X^+)* (X* H B)* X^+]
           + H^-1 (I - X X^+)* Z (I - X X^+)

over free parameters Z with ``Z* = e1 e2 Z``; Z = 0 gives the unique
Frobenius-minimal solution.  Star is the star of the space throughout.

The Z = 0 member is kept as factors ``U V`` of width 2p and multiplied out
once, so it costs O(n^2 p) and forms no n x n matrix before that product;
a member with a parameter Z is ``H^-1 Z + L R``, the Z term ``H^-1 P* Z P``
(``P = I - X X^+``, never formed) folded into factors L, R of that width.
``H^-1 Z`` is the one n-column ``H^-1``: no call solves with H.

Every member is built by ``_family``, after the feasibility test its caller
names: the public functions test the range and symmetry conditions; the
subspace workflows, which have checked that X has full column rank (so the
range condition holds), only ``W = e1 e2 W*``, whose W carries ``X* H A X``
there; the reassignment, whose W is the certificate ``X* H X D`` it has
decided itself, neither.
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
    _real_apply,
    as_matrix,
    frob,
    pseudoinverse,
    z_symmetry_residual,
)

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


def _map_factors(X, B, Xd, space, cls, HB=None, W=None):
    """``(U, V, W)``: the factors of the Z = 0 member of the family of
    ``A X = B`` for ``X^+ = Xd``, and ``W = X* H B`` (HB, W when given):

        B X^+ + e1 e2 H^-1 (X^+)* [(H B)* - W* X^+],
            U = [B, e1 e2 H^-1 (X^+)*],   V = [X^+; (H B)* - W* X^+]
    """
    st = space.star_mat
    HB = space.h_apply(B) if HB is None else HB
    W = st(X) @ HB if W is None else W
    U = np.hstack([B, space.epsilon1 * cls.epsilon2 * space.h_solve(st(Xd))])
    V = np.vstack([Xd, st(HB) - st(W) @ Xd])
    return U, V, W


def _z_member(Z, X, Xd, U, V, space, cls):
    """``H^-1 Z + L R`` for Z and the Z = 0 factors ``[B, U2] [X^+; V2]``:
    ``L = [B - H^-1 Z X, U2]``, ``R = [X^+; V2 - e1 e2 X* Z P]``, with
    ``H^-1 Z`` added last.  A real Z meets complex X only in real products
    (on a real space, whose star conjugates)."""
    p = X.shape[1]
    real_view = np.iscomplexobj(X) and not np.iscomplexobj(Z)
    XsZ = (_real_apply(Z.T, X.conj()).T if real_view
           else space.star_mat(X) @ Z)
    L = np.hstack([U[:, :p] - space.h_solve(_real_apply(Z, X)), U[:, p:]])
    R = np.vstack([Xd, V[p:] - space.epsilon1 * cls.epsilon2 * (
        XsZ - (XsZ @ X) @ Xd)])
    out = L @ R
    out += space.h_solve(Z)  # into L R, which complex chains make complex
    return out


def _feasibility(X, B, Xd, W, space, cls, tol, ranged=True) -> tuple:
    """The decisions of the range condition (unless ranged is False) and
    the symmetry condition of ``A X = B``, for ``W = X* H B``."""
    # the floor follows the rounding scale of forming W itself: W can vanish
    # identically (isotropic X) while carrying O(eps |X||B|) noise
    thr_sym = tol.residual_tol * frob(W) + ABS_FLOOR * max(
        1.0, frob(X) * frob(B))
    sym = _decide("symmetry_condition", z_symmetry_residual(W, space, cls),
                  thr_sym)
    if not ranged:
        return (sym,)
    r_range = float(np.linalg.norm(B @ (Xd @ X) - B))
    thr_range = tol.residual_tol * frob(B) + ABS_FLOOR * max(1.0, frob(B))
    return _decide("range_condition", r_range, thr_range), sym


def feasibility_check(X, B, space: ScalarProductSpace, cls: StructureClass,
                      tol: ToleranceProfile = ToleranceProfile()) -> FeasibilityReport:
    """Check whether some structured A satisfies ``A X = B``."""
    cls = StructureClass.parse(cls)
    X = as_matrix(X, "X", space, (space.n, None))
    B = as_matrix(B, "B", space, X.shape)
    W = space.star_mat(X) @ space.h_apply(B)
    r_range, r_sym = _feasibility(X, B, pseudoinverse(X, tol.rank_tol), W,
                                  space, cls, tol)
    violations = tuple(d for d in (r_range, r_sym) if not d.passed)
    return FeasibilityReport(not violations, r_range.value, r_sym.value,
                             violations)


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

    def with_z(self, Z) -> np.ndarray:
        """Family member for an admissible parameter Z; Z = None gives
        ``family_base``.  Z is checked to be n x n, real to the space's
        structure tolerance on a real space (checked first; its real part
        is used), and ``Z* = e1 e2 Z``."""
        if Z is None:
            return self.family_base
        real = self.space.field == "real"
        Z = as_matrix(Z, "Z", self.space, (self.space.n,) * 2)
        thr = self.space.structure_tol * max(1.0, frob(Z))
        if real and np.iscomplexobj(Z):
            _decide("z_real", np.max(np.abs(Z.imag)), thr).require(
                "a real space requires a real parameter Z", None)
        _decide("z_symmetry", z_symmetry_residual(Z, self.space, self.cls),
                thr).require("Z fails Z* = e1 e2 Z")
        if real:
            Z = np.ascontiguousarray(Z.real)
        return _z_member(Z, self.X, self.X_pinv, *self.factors,
                         self.space, self.cls)


def _family(X, B, space, cls, tol, test="full", HB=None,
            W=None) -> StructuredMapSolution:
    """The family of ``A X = B``, the one entry of every member, after the
    feasibility test its caller names; the first failed condition is raised
    as ``feasibility``.  "full" tests the range and symmetry conditions,
    "symmetry" only ``W = e1 e2 W*`` (X has been checked to have full
    column rank, which gives the range condition), None neither (W is a
    certificate the caller has decided); ``HB = H B`` and W may be passed."""
    Xd = pseudoinverse(X, tol.rank_tol)
    U, V, W = _map_factors(X, B, Xd, space, cls, HB, W)
    failed = [d for d in (_feasibility(X, B, Xd, W, space, cls, tol,
                                       test == "full") if test else ())
              if not d.passed]
    if failed:
        names = ", ".join(d.condition for d in failed)
        failed[0]._replace(condition="feasibility").require(
            f"A X = B has no structured solution: {names} failed")
    return StructuredMapSolution((U, V), X, Xd, space, cls)


def map_family(X, B, space: ScalarProductSpace, cls: StructureClass,
               tol: ToleranceProfile = ToleranceProfile()) -> StructuredMapSolution:
    """Solve ``A X = B`` over the structured class, returning the family.

    Raises StructureError when the feasibility conditions fail.
    """
    cls = StructureClass.parse(cls)
    X = as_matrix(X, "X", space, (space.n, None))
    B = as_matrix(B, "B", space, X.shape)
    return _family(X, B, space, cls, tol)


def solve_structured(X, B, space: ScalarProductSpace, cls: StructureClass,
                     Z=None, tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """Structured solution of ``A X = B`` for one choice of parameter Z."""
    return map_family(X, B, space, cls, tol).with_z(Z)


def minimal_structured(X, B, space: ScalarProductSpace, cls: StructureClass,
                       tol: ToleranceProfile = ToleranceProfile()) -> np.ndarray:
    """The unique Frobenius-minimal structured solution of ``A X = B``."""
    return map_family(X, B, space, cls, tol).family_base
