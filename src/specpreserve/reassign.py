"""Structured eigenvalue reassignment.

Given a validated assembly (X_c, Lambda_c, Lambda_a) for a structured A,
two constructors are provided: the full parametric family

    delta = X_c D X^+ + e2 H^-1 (X^+)* D* X* H - H^-1 (X^+)* X* H X D X^+
            + H^-1 (I - X X^+)* Z (I - X X^+),      D = Lambda_a - Lambda_c

over admissible parameters Z, and the closed-form no-spillover update

    delta = X_c D (X_c* H X_c)^-1 X_c* H

whose rank equals rank(D) and which leaves every other Jordan pair of A
untouched, known or not.  Real arrangements produce float64 perturbations
by construction: the kernel runs on a real basis of chains checked to be
closed under conjugation, and on the real part of a Z checked to be real
to the space's structure tolerance.

Under the Gram certificate (``W = e1 e2 W*`` for ``W = X* H X D``) the
family is the solution family of ``delta X = X D``.  The certificate is
decided once, here, from the one ``H X_c``; ``mapping._family`` then takes
``H B = (H X_c) D`` and its W, ``G D``, from it, with no feasibility test:
O(n^2 p), plus for a parameter Z the one n-column ``H^-1``, ``H^-1 Z``, a
product with the inverse a dense H gets once per space.  The no-spillover
update applies the p x p inverse of the certificate's G to its ``X_c* H``
(a real basis takes the real basis of ``H X_c``): O(n^2 p), no ``H^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _decide,
    _gram_compatibility,
    _star_h,
    as_matrix,
    frob,
)
from .diagnostics import PerturbationReport, verify_reassignment
from .errors import ArgumentError, RealnessError
from .mapping import _family
from .spectral import (
    SNAP_TOL,
    ReassignmentAssembly,
    ReassignmentGroup,
    ReassignmentSpec,
    _pairing_orbit,
    assemble,
)
from .subspaces import SPECTRAL_SEPARATION, _no_spillover_update, _require_update

__all__ = [
    "ReassignmentResult",
    "reassign_family",
    "reassign_no_spillover",
    "reassign_simple",
]

IMAG_CAST_TOL = 1e-10


@dataclass(frozen=True)
class ReassignmentResult:
    """A perturbation together with its verification bundle."""

    delta: np.ndarray
    report: PerturbationReport | None


def _check_certificate(assembly, space, cls):
    """Raise unless the Gram certificate holds; returns the assembly's n x p
    X_c in the field of the space, ``D = Lambda_a - Lambda_c``, the one
    ``H X_c``, and the ``X_c* H`` and ``G = X_c* H X_c`` it tested."""
    X = as_matrix(assembly.X_c, "X_c", space, (space.n, None))
    p = X.shape[1]
    D = (as_matrix(assembly.Lambda_a, "Lambda_a", space, (p, p))
         - as_matrix(assembly.Lambda_c, "Lambda_c", space, (p, p)))
    HX = space.h_apply(X)
    XsH = _star_h(X, space, HX)
    G = XsH @ X
    _gram_compatibility(G, D, space, cls, "symmetry_certificate").require(
        "assembly fails the Gram symmetry certificate; the requested targets "
        "are incompatible with the structure", "condition_residual")
    return X, D, HX, XsH, G


def _real_basis(assembly, X, B, HM):
    """The kernel's ``(X, B, HM)`` for ``delta X_c = X_c (Lambda_a -
    Lambda_c)``, given the assembly's X_c, B and ``HM = H X_c`` or ``H B``:
    on a real arrangement the real basis ``X_c T``, ``B T``, ``HM T``
    (``Re x_i, Im x_i`` per conjugate pair, ``Re x_i`` per self-conjugate
    column), which gives the same update; realness is checked on X and B,
    ``conj(M) = M R`` for the exact 0/1 symmetric permutation R.  Real
    data under the identity map (a real arrangement of real values) is
    its own real basis and is returned as it is."""
    if not assembly.real_output:
        return X, B, HM
    if assembly.conjugation is None:
        raise ArgumentError("a real arrangement needs its conjugation map")
    R = as_matrix(assembly.conjugation, "conjugation", shape=(X.shape[1],) * 2)
    k, partner = np.arange(len(R)), np.argmax(R, axis=0)  # conj x_k = x_partner
    if not (np.array_equal(R, np.eye(len(R))[:, partner])
            and np.array_equal(partner[partner], k)):
        raise ArgumentError("conjugation must be a symmetric 0/1 permutation")
    if np.array_equal(partner, k) and not any(map(np.iscomplexobj, (X, B, HM))):
        return X, B, HM
    for M in (X, B):
        err = frob(np.conj(M) - M[:, partner])
        if err > IMAG_CAST_TOL * max(frob(M), 1e-300):
            raise RealnessError(
                f"real arrangement not closed under conjugation (residual "
                f"{err:.3e}); check the conjugate chains", imag_magnitude=err)
    first = np.minimum(k, partner)
    return tuple(np.where(partner >= k, M[:, first].real, M[:, first].imag)
                 for M in (X, B, HM))


def reassign_family(A, assembly: ReassignmentAssembly, space: ScalarProductSpace,
                    cls: StructureClass, Z=None,
                    tol: ToleranceProfile = ToleranceProfile(),
                    verify: bool = True) -> ReassignmentResult:
    """Member of the parametric family of structured perturbations replacing
    the assembly's current eigenvalues by its targets while keeping the
    aggregated Jordan chains.

    Z = None takes the Z = 0 member.  The result satisfies
    ``(A + delta) X_c = X_c Lambda_a`` and stays in the algebra.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_c, D, HX, _, G = _check_certificate(assembly, space, cls)
    X, B, HB = _real_basis(assembly, X_c, X_c @ D, HX @ D)
    # a real basis forms its own W
    W = None if assembly.real_output else G @ D
    delta = _family(X, B, space, cls, tol, None, HB, W).with_z(Z)
    report = None
    if verify:
        report = verify_reassignment(A, delta, assembly, space, cls, tol=tol,
                                     check_spillover=False)
    return ReassignmentResult(delta=delta, report=report)


def reassign_no_spillover(A, assembly: ReassignmentAssembly,
                          space: ScalarProductSpace, cls: StructureClass,
                          fixed_spectrum_guard=None,
                          tol: ToleranceProfile = ToleranceProfile(),
                          verify: bool = True) -> ReassignmentResult:
    """Closed-form no-spillover perturbation of rank ``rank(L_a - L_c)``.

    Every Jordan pair of A whose eigenvalue avoids the changed family stays
    a Jordan pair of ``A + delta`` even when unknown.  When the fixed
    spectrum is known, pass its values as fixed_spectrum_guard (finite,
    flattened) to certify the disjointness hypothesis: the currents and the
    targets must each lie more than ``SPECTRAL_SEPARATION`` times their
    scale from it, or the update is refused.  Without a guard the update
    proceeds uncertified.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    X_c, D, HX, XsH, G = _check_certificate(assembly, space, cls)

    if fixed_spectrum_guard is not None:
        # an empty fixed spectrum is disjoint from everything (gap inf)
        guard = np.asarray(fixed_spectrum_guard)
        if guard.dtype == object and np.iterable(fixed_spectrum_guard):
            guard = np.asarray(list(fixed_spectrum_guard))
        if guard.dtype.kind not in "iufc" or not np.isfinite(guard).all():
            raise ArgumentError("fixed_spectrum_guard must hold finite numbers")
        for what, values in (("changed eigenvalue family", assembly.current_values),
                             ("target values", assembly.target_values)):
            scale = max(1.0, float(np.max(np.abs(values))),
                        float(np.max(np.abs(guard), initial=0.0)))
            _decide("spectral_disjointness", np.min(
                np.abs(values[:, None] - guard.ravel()[None, :]), initial=np.inf),
                SPECTRAL_SEPARATION * scale, at_least=True).require(
                f"fixed spectrum meets the {what}; the no-spillover "
                "hypothesis fails", "min gap")

    X, B, HX = _real_basis(assembly, X_c, X_c @ D, HX)
    if X is not X_c:
        XsH = _star_h(X, space, HX)
        G = XsH @ X
    delta = _require_update(*_no_spillover_update(G, X, B, XsH, tol.rank_tol))
    report = None
    if verify:
        report = verify_reassignment(A, delta, assembly, space, cls, tol=tol)
    return ReassignmentResult(delta=delta, report=report)


def reassign_simple(A, eigpairs, targets, space: ScalarProductSpace,
                    cls: StructureClass, Z=None, mode: str = "no-spillover",
                    complete_pairing: bool = False,
                    tol: ToleranceProfile = ToleranceProfile(),
                    verify: bool = True) -> ReassignmentResult:
    """Convenience wrapper for simple, mutually distinct eigenvalues.

    eigpairs is a sequence of (eigenvalue, eigenvector); targets the
    parallel sequence of replacement values.  The wrapper builds one-column
    chains, refuses eigenvalues that coincide within ``SNAP_TOL`` times the
    spectral scale, snaps near-conjugate inputs within that band into exact
    conjugate pairs, assembles them with ``assemble`` (whose arrangement
    the space and cls decide) and dispatches by mode: "no-spillover"
    (default, Z must be None) or "family" (Z allowed).

    complete_pairing inserts the missing orbit members that the pairing
    table marks as conjugates of a given group; this only works in a
    real-field space, where the partner chain is the conjugate of the given
    one.  Partners under the ``lambda -> e2 lambda*`` pairing that involve
    independent eigenvector data (for instance -lambda in the real Lie
    case) are never invented.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space, (space.n,) * 2)
    eigpairs = [(complex(l), np.asarray(x).reshape(-1, 1)) for l, x in eigpairs]
    targets = [complex(t) for t in targets]
    if len(eigpairs) != len(targets):
        raise ArgumentError("eigpairs and targets must have equal length")

    values = [l for l, _ in eigpairs]
    scale = max([1.0] + [abs(v) for v in values])
    band = SNAP_TOL * scale
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            _decide("multiplicity", abs(values[i] - values[j]), band,
                    at_least=True).require(
                f"eigenvalues {values[i]:.6g} and {values[j]:.6g} coincide; "
                "simple reassignment needs distinct simple eigenvalues "
                "(build Jordan chains and use the assembly path instead)", None)

    groups = [ReassignmentGroup(current=l, target=t, chains=(x,))
              for (l, x), t in zip(eigpairs, targets)]

    if complete_pairing:
        if space.field != "real":
            raise ArgumentError(
                "complete_pairing can only invent conjugate partners, which "
                "requires a real-field space")
        extra = []
        have = [g.current for g in groups]
        for g in groups:
            orbit = _pairing_orbit(g.current, cls, "T", "real", band)
            j = orbit.row.conj[0]
            if j == 0:
                continue
            c = orbit.images(g.current)[j]
            if any(abs(c - v) <= band for v in have):
                continue
            extra.append(ReassignmentGroup(
                current=c, target=orbit.images(g.target)[j],
                chains=(np.conj(g.chains[0]),)))
            have.append(c)
        groups = groups + extra

    assembly = assemble(A, ReassignmentSpec(groups=tuple(groups)), space, cls,
                        tol=tol)

    if mode == "family":
        return reassign_family(A, assembly, space, cls, Z=Z, tol=tol, verify=verify)
    if mode == "no-spillover":
        if Z is not None:
            raise ArgumentError("the no-spillover update has no free parameter Z")
        return reassign_no_spillover(A, assembly, space, cls, tol=tol, verify=verify)
    raise ArgumentError(f"unknown mode {mode!r} (expected 'family' or 'no-spillover')")
