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
to the structure tolerance.

Under the Gram certificate (``W = e1 e2 W*`` for ``W = X* H X D``) the
family is the solution family of ``delta X = X D`` and is evaluated by the
factored kernel of ``mapping``: O(n^2 p), with one n-column application of
``H^-1`` only for the Z term, a product with the inverse a dense H gets
once per space.  The no-spillover update applies the inverse Gram matrix
to ``X_c* H``, also O(n^2 p).
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
    as_matrix,
    frob,
    gram_matrix,
    pseudoinverse,
)
from .diagnostics import PerturbationReport, verify_reassignment
from .errors import ArgumentError, RealnessError
from .mapping import _admissible_z, _map_factors, _z_term
from .spectral import (
    SNAP_TOL,
    ReassignmentAssembly,
    ReassignmentGroup,
    ReassignmentSpec,
    _pairing_orbit,
    assemble_complex,
    assemble_real_jordan,
    assemble_real_lie,
)
from .subspaces import SPECTRAL_SEPARATION, _no_spillover_update

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


def _check_certificate(assembly, space, cls, tol):
    """Raise unless the Gram certificate holds; returns ``X_c* H X_c``."""
    G = gram_matrix(assembly.X_c, space)
    _gram_compatibility(G, assembly.Lambda_a - assembly.Lambda_c, space, cls,
                        tol, "symmetry_certificate").require(
        "assembly fails the Gram symmetry certificate; the requested targets "
        "are incompatible with the structure", "condition_residual")
    return G


def _real_basis(assembly):
    """The kernel's ``(X, B)`` for ``delta X_c = X_c (Lambda_a - Lambda_c)``:
    on a real arrangement the real basis ``X_c T``, ``B T`` (``Re x_i, Im x_i``
    per conjugate pair, ``Re x_i`` per self-conjugate column), which gives
    the same update; realness is checked on it, ``conj(M) = M R``."""
    X, R = assembly.X_c, assembly.conjugation
    B = X @ (assembly.Lambda_a - assembly.Lambda_c)
    if not assembly.real_output:
        return X, B
    if R is None:
        raise ArgumentError("a real arrangement needs its conjugation map")
    for M in (X, B):
        err = frob(np.conj(M) - M @ R)
        if err > IMAG_CAST_TOL * max(frob(M), 1e-300):
            raise RealnessError(
                f"real arrangement not closed under conjugation (residual "
                f"{err:.3e}); check the conjugate chains", imag_magnitude=err)
    k, partner = np.arange(len(R)), np.argmax(R, axis=0)  # conj x_k = x_partner
    first = np.minimum(k, partner)
    return tuple(np.where(partner >= k, M[:, first].real, M[:, first].imag)
                 for M in (X, B))


def reassign_family(A, assembly: ReassignmentAssembly, space: ScalarProductSpace,
                    cls: StructureClass, Z=None,
                    tol: ToleranceProfile | None = None,
                    verify: bool = True) -> ReassignmentResult:
    """Member of the parametric family of structured perturbations replacing
    the assembly's current eigenvalues by its targets while keeping the
    aggregated Jordan chains.

    Z = None takes the Z = 0 member.  The result satisfies
    ``(A + delta) X_c = X_c Lambda_a`` and stays in the algebra.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    n = space.n
    if A.shape != (n, n):
        raise ArgumentError("A must match the space dimension")
    _check_certificate(assembly, space, cls, tol)

    X, B = _real_basis(assembly)
    Xd = pseudoinverse(X, tol.rank_tol)
    U, V, _ = _map_factors(X, B, Xd, space, cls)
    delta = U @ V
    if Z is not None:
        Z = _admissible_z(Z, space, cls, tol, real=assembly.real_output)
        delta = delta + _z_term(Z, X, Xd, space)
    report = None
    if verify:
        report = verify_reassignment(A, delta, assembly, space, cls, tol=tol,
                                     check_spillover=False)
    return ReassignmentResult(delta=delta, report=report)


def reassign_no_spillover(A, assembly: ReassignmentAssembly,
                          space: ScalarProductSpace, cls: StructureClass,
                          fixed_spectrum_guard=None,
                          tol: ToleranceProfile | None = None,
                          verify: bool = True) -> ReassignmentResult:
    """Closed-form no-spillover perturbation of rank ``rank(L_a - L_c)``.

    Every Jordan pair of A whose eigenvalue avoids the changed family stays
    a Jordan pair of ``A + delta`` even when unknown.  When the fixed
    spectrum is known, pass it as fixed_spectrum_guard to certify the
    disjointness hypothesis: the currents and the targets must each lie
    more than ``SPECTRAL_SEPARATION`` times their scale from it, or the
    update is refused.  Without a guard the update proceeds uncertified.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
    n = space.n
    if A.shape != (n, n):
        raise ArgumentError("A must match the space dimension")
    G = _check_certificate(assembly, space, cls, tol)

    if fixed_spectrum_guard is not None:
        # an empty fixed spectrum is disjoint from everything (gap inf)
        guard = np.asarray(list(fixed_spectrum_guard))
        for what, values in (("changed eigenvalue family", assembly.current_values),
                             ("target values", assembly.target_values)):
            scale = max(1.0, float(np.max(np.abs(values))),
                        float(np.max(np.abs(guard), initial=0.0)))
            _decide("spectral_disjointness", np.min(
                np.abs(values[:, None] - guard[None, :]), initial=np.inf),
                SPECTRAL_SEPARATION * scale, at_least=True).require(
                f"fixed spectrum meets the {what}; the no-spillover "
                "hypothesis fails", "min gap")

    X, B = _real_basis(assembly)
    delta = _no_spillover_update(
        G if X is assembly.X_c else gram_matrix(X, space), X, B, space,
        tol.rank_tol)
    report = None
    if verify:
        report = verify_reassignment(A, delta, assembly, space, cls, tol=tol)
    return ReassignmentResult(delta=delta, report=report)


def reassign_simple(A, eigpairs, targets, space: ScalarProductSpace,
                    cls: StructureClass, Z=None, mode: str = "no-spillover",
                    complete_pairing: bool = False,
                    tol: ToleranceProfile | None = None,
                    verify: bool = True) -> ReassignmentResult:
    """Convenience wrapper for simple, mutually distinct eigenvalues.

    eigpairs is a sequence of (eigenvalue, eigenvector); targets the
    parallel sequence of replacement values.  The wrapper builds one-column
    chains, refuses eigenvalues that coincide within ``SNAP_TOL`` times the
    spectral scale, snaps near-conjugate inputs within that band into exact
    conjugate pairs, selects the arrangement matching the space (complex,
    real Lie or real Jordan) and dispatches by mode: "no-spillover"
    (default, Z must be None) or "family" (Z allowed).

    complete_pairing inserts the missing orbit members that the pairing
    table marks as conjugates of a given group; this only works in a
    real-field space, where the partner chain is the conjugate of the given
    one.  Partners under the ``lambda -> e2 lambda*`` pairing that involve
    independent eigenvector data (for instance -lambda in the real Lie
    case) are never invented.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", space)
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

    spec = ReassignmentSpec(groups=tuple(groups))
    if space.field != "real":
        assemble = assemble_complex
    else:
        assemble = (assemble_real_lie if cls is StructureClass.LIE
                    else assemble_real_jordan)
    assembly = assemble(A, spec, space, cls, tol=tol)

    if mode == "family":
        return reassign_family(A, assembly, space, cls, Z=Z, tol=tol, verify=verify)
    if mode == "no-spillover":
        if Z is not None:
            raise ArgumentError("the no-spillover update has no free parameter Z")
        return reassign_no_spillover(A, assembly, space, cls, tol=tol, verify=verify)
    raise ArgumentError(f"unknown mode {mode!r} (expected 'family' or 'no-spillover')")
