"""Independent verification oracle and structured test-instance generation.

Nothing here reuses the perturbation constructors: spectra come from a
dense eigensolver, residuals from direct multiplication, and generated
instances are built from exact canonical blocks conjugated by exact
automorphisms of the form, so the oracle genuinely cross-checks the
library instead of echoing it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.linalg

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    as_matrix,
    frob,
    numerical_rank,
    structure_residual,
    working_field,
)
from .errors import ArgumentError, InfeasiblePlanError
from .spectral import JordanPair, ReassignmentAssembly, jordan_block

__all__ = [
    "oracle_dim_limit",
    "SpectrumVerdict",
    "spectrum_multiset_compare",
    "PerturbationReport",
    "verify_reassignment",
    "PlanGroup",
    "InstanceRecipe",
    "GeneratedInstance",
    "generate_instance",
]

ORACLE_NMAX_ENV = "SPECPRESERVE_ORACLE_NMAX"


def oracle_dim_limit() -> int:
    """Largest dimension the dense eigensolver oracle will touch.

    Unset or empty means 64; a value that is not an integer is an error.
    """
    raw = os.environ.get(ORACLE_NMAX_ENV, "").strip()
    if not raw:
        return 64
    try:
        return int(raw)
    except ValueError:
        raise ArgumentError(
            f"{ORACLE_NMAX_ENV} must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumVerdict:
    """Multiset comparison of two spectra by optimal assignment.

    pairs holds (value_a, value_b, distance) for every matched couple;
    unmatched_a / unmatched_b collect the two sides of pairs whose distance
    exceeded the threshold. matched is True when every pair is within it.
    """

    pairs: tuple
    unmatched_a: tuple
    unmatched_b: tuple
    max_distance: float
    threshold: float

    @property
    def matched(self) -> bool:
        return self.max_distance <= self.threshold

    def summary(self) -> dict:
        return {
            "matched": self.matched,
            "max_distance": self.max_distance,
            "threshold": self.threshold,
            "n_pairs": len(self.pairs),
            "unmatched_a": [[v.real, v.imag] for v in self.unmatched_a],
            "unmatched_b": [[v.real, v.imag] for v in self.unmatched_b],
        }


def _assign_multisets(ea, eb):
    """Optimal pairing of two complex multisets (Hungarian).

    Returns the row indices into ea, the column indices into eb and the
    paired distances; when the sizes differ, the smaller side is paired in
    full.
    """
    cost = np.abs(np.subtract.outer(ea, eb))
    # scipy.optimize is not imported at the top: scipy (>= 1.9) loads it on
    # this first attribute access, which keeps ~0.1 s off the start-up of
    # every command that never pairs spectra
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return rows, cols, cost[rows, cols]


def _compare_spectra(ea, eb, tol) -> SpectrumVerdict:
    """Verdict on two equal-size eigenvalue multisets at ``tol * scale``."""
    scale = max(1.0, float(np.max(np.abs(ea)) if ea.size else 0.0),
                float(np.max(np.abs(eb)) if eb.size else 0.0))
    threshold = tol * scale
    rows, cols, dist = _assign_multisets(ea, eb)
    pairs = [(complex(ea[i]), complex(eb[j]), float(d))
             for i, j, d in zip(rows, cols, dist)]
    bad = [p for p in pairs if p[2] > threshold]
    maxd = max((p[2] for p in pairs), default=0.0)
    return SpectrumVerdict(
        pairs=tuple(pairs),
        unmatched_a=tuple(p[0] for p in bad),
        unmatched_b=tuple(p[1] for p in bad),
        max_distance=float(maxd),
        threshold=float(threshold),
    )


def spectrum_multiset_compare(A, B, tol: float = 1e-8) -> SpectrumVerdict:
    """Compare the spectra of A and B as multisets.

    Eigenvalues are paired by the Hungarian method on pairwise distances
    (a greedy pass would misreport swapped conjugate pairs); the verdict is
    matched when the largest paired distance stays below
    ``tol * max(1, spectral scale)``.  Each spectrum is computed in the
    working field of its matrix.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ArgumentError("A and B must be square and of equal size")
    if A.shape[0] > oracle_dim_limit():
        raise ArgumentError(
            f"oracle limited to n <= {oracle_dim_limit()} "
            f"(set {ORACLE_NMAX_ENV} to raise)")
    return _compare_spectra(np.linalg.eigvals(working_field(A)),
                            np.linalg.eigvals(working_field(B)), tol)


# ---------------------------------------------------------------------------
# perturbation verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """Everything a reassignment run should be judged by.

    All residuals are Frobenius norms of directly recomputed identities;
    the spectrum verdict compares the perturbed spectrum against the
    planned replacement multiset derived from the unperturbed one.
    """

    delta: np.ndarray
    reassigned_residual: float
    structure_residual: float
    delta_rank: int
    gram_condition_estimate: float
    realness: bool
    spectrum_verdict: SpectrumVerdict | None
    fixed_residual: float | None = None
    notes: tuple = dc_field(default=())

    def summary(self) -> dict:
        d = {
            "reassigned_residual": self.reassigned_residual,
            "structure_residual": self.structure_residual,
            "delta_rank": self.delta_rank,
            "gram_condition_estimate": self.gram_condition_estimate,
            "realness": self.realness,
            "fixed_residual": self.fixed_residual,
            "notes": list(self.notes),
        }
        d["spectrum"] = self.spectrum_verdict.summary() if self.spectrum_verdict else None
        return d


def _planned_spectrum(eigs_a, currents, targets, match_tol, scale, notes):
    """Replace the current eigenvalues inside sigma(A) by the targets.

    Currents are paired with eigenvalues of A by the same optimal
    assignment the verdict uses.
    """
    rows, cols, dist = _assign_multisets(currents, eigs_a)
    paired = dict(zip(rows.tolist(), dist.tolist()))
    planned = []
    for i, (c, t) in enumerate(zip(currents, targets)):
        if i not in paired:
            notes.append(f"no eigenvalue of A left to match {c:.6g}")
            continue
        if paired[i] > match_tol * scale:
            notes.append(
                f"current value {c:.6g} not found in the spectrum of A "
                f"(paired at distance {paired[i]:.3e})")
        planned.append(t)
    remaining = np.delete(eigs_a, cols)
    return np.concatenate([np.asarray(planned, dtype=complex), remaining])


def verify_reassignment(A, delta, assembly: ReassignmentAssembly,
                        space: ScalarProductSpace, cls: StructureClass,
                        fixed_pairs=None, tol: ToleranceProfile | None = None,
                        match_tol: float = 1e-6,
                        gram_condition: float | None = None,
                        check_spillover: bool = True) -> PerturbationReport:
    """Build the verification bundle for a perturbation.

    fixed_pairs may be a tuple (X_f, Lambda_f) of a known fixed invariant
    pair; when omitted, check_spillover is set and the matrix is
    oracle-sized, fixed eigenpairs are recovered from a dense
    eigendecomposition of A (eigenvalues away from the changed family) and
    their residual is reported.  Family-of-solutions members with a free
    parameter make no claim about the complement, so callers verify them
    with check_spillover=False, which skips the fixed-pair and
    spectrum-replacement checks.  The eigensolves, the rank SVD and the
    adjoint solve run in the working field of their matrices: real LAPACK
    for exactly real data.
    """
    tol = tol or ToleranceProfile()
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A")
    delta = as_matrix(delta, "delta")
    notes = []
    X = assembly.X_c
    perturbed = A + delta
    reassigned = float(np.linalg.norm(perturbed @ X - X @ assembly.Lambda_a))
    struct = structure_residual(delta, space, cls)
    rank = numerical_rank(delta, tol.rank_tol)
    if gram_condition is None:
        G = space.star_mat(X) @ space.H @ X
        gram_condition = float(np.real(np.linalg.cond(G, 1)))
    scale = max(frob(delta), 1e-300)
    realness = bool(np.max(np.abs(delta.imag)) <= 1e-10 * scale)

    currents = assembly.current_values
    targets = assembly.target_values
    sp_scale = max(1.0, float(np.max(np.abs(currents))) if currents.size else 0.0)

    fixed_res = None
    if fixed_pairs is not None:
        X_f, L_f = fixed_pairs
        X_f = as_matrix(X_f, "X_f")
        L_f = as_matrix(L_f, "Lambda_f")
        fixed_res = float(np.linalg.norm(perturbed @ X_f - X_f @ L_f))

    verdict = None
    if not check_spillover:
        notes.append(
            "family member: no claim on the complement, spectrum "
            "replacement not checked")
    elif A.shape[0] <= oracle_dim_limit():
        w, V = np.linalg.eig(working_field(A))
        planned = _planned_spectrum(w, currents, targets, match_tol, sp_scale,
                                    notes)
        verdict = _compare_spectra(np.linalg.eigvals(working_field(perturbed)),
                                   planned, match_tol)
        if fixed_pairs is None:
            keep = [i for i, lam in enumerate(w)
                    if currents.size == 0
                    or np.min(np.abs(lam - currents)) > match_tol * sp_scale]
            if keep:
                X_f = V[:, keep]
                L_f = np.diag(w[keep])
                fixed_res = float(np.linalg.norm(perturbed @ X_f - X_f @ L_f))
                notes.append(
                    f"fixed pair recovered by the eigensolver oracle "
                    f"({len(keep)} eigenvalues)")
    else:
        notes.append("matrix exceeds the oracle bound; spectrum not compared")

    return PerturbationReport(
        delta=delta,
        reassigned_residual=reassigned,
        structure_residual=struct,
        delta_rank=rank,
        gram_condition_estimate=float(gram_condition),
        realness=realness,
        spectrum_verdict=verdict,
        fixed_residual=fixed_res,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# instance generation: canonical blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanGroup:
    """One planned eigenvalue with its Jordan chain lengths."""

    value: complex
    chains: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        chains = tuple(int(k) for k in self.chains)
        if not chains or any(k < 1 for k in chains):
            raise ArgumentError("chain lengths must be positive integers")
        object.__setattr__(self, "chains", chains)

    @property
    def multiplicity(self) -> int:
        return int(sum(self.chains))


@dataclass(frozen=True)
class InstanceRecipe:
    """Deterministic description of a structured test instance.

    space_kind picks H: identity, flip ([[0,I],[I,0]]), signature
    (diag of +-1, inertia taken from the plan), skewj ([[0,I],[-I,0]]) or
    random (a seeded unitary congruence of the canonical form).  The plan
    must be closed under the eigenvalue pairing of the class and, for real
    instances, under conjugation.
    """

    space_kind: str
    cls: StructureClass
    field: str = "complex"
    star: str = "CT"
    plan: tuple = ()
    seed: int = 0
    cayley_strength: float = 0.3
    eps1: int = 0  # 0 = implied by the preset; random spaces accept +-1

    def __post_init__(self):
        object.__setattr__(self, "cls", StructureClass.parse(self.cls))
        object.__setattr__(self, "plan", tuple(self.plan))
        if self.space_kind not in ("identity", "flip", "signature", "skewj", "random"):
            raise ArgumentError(f"unknown space kind {self.space_kind!r}")
        if self.field not in ("real", "complex"):
            raise ArgumentError(f"unknown field {self.field!r}")
        implied = {"identity": 1, "flip": 1, "signature": 1, "skewj": -1}.get(
            self.space_kind)
        if self.eps1 not in (-1, 0, 1):
            raise ArgumentError("eps1 must be -1, 0 or +1")
        if self.eps1 and implied is not None and self.eps1 != implied:
            raise ArgumentError(
                f"space kind {self.space_kind!r} forces eps1 = {implied}")

    @property
    def n(self) -> int:
        return int(sum(g.multiplicity for g in self.plan))


@dataclass(frozen=True)
class GeneratedInstance:
    """A structured matrix with exact ground-truth Jordan pairs."""

    A: np.ndarray
    space: ScalarProductSpace
    cls: StructureClass
    pairs: tuple
    recipe: InstanceRecipe


def _sip(k):
    return np.fliplr(np.eye(k))


def _embed(block_chains, offset, width, total):
    """Lift block-local chains (value, X_local) to global coordinates."""
    out = []
    for lam, Xl in block_chains:
        X = np.zeros((total, Xl.shape[1]), dtype=complex)
        X[offset:offset + width, :] = Xl
        out.append((lam, X))
    return out


def _unit_couple(lam, k, eps1, eps2, sesquilinear):
    """Canonical block for a non-self-paired couple (lam, e2 lam*)."""
    J = jordan_block(lam, k)
    S = _sip(k)
    Js = J.conj().T if sesquilinear else J.T
    B = eps2 * S @ Js @ S
    A = scipy.linalg.block_diag(J, B)
    H = np.zeros((2 * k, 2 * k), dtype=complex)
    H[:k, k:] = S
    H[k:, :k] = eps1 * S
    mu = eps2 * (np.conj(lam) if sesquilinear else lam)
    D = np.diag([float(eps2) ** j for j in range(k)])
    X1 = np.vstack([np.eye(k), np.zeros((k, k))]).astype(complex)
    X2 = np.vstack([np.zeros((k, k)), D]).astype(complex)
    return A, H, [(complex(lam), X1), (complex(mu), X2)]


def _unit_self_jordan(lam, k, eps1):
    """Self-paired Jordan-algebra block: J_k(lam) against +-S or iS."""
    J = jordan_block(lam, k)
    H = _sip(k).astype(complex)
    if eps1 == -1:
        H = 1j * H
    X = np.eye(k, dtype=complex)
    return J, H, [(complex(lam), X)]


def _unit_self_lie_sesq(beta, k, eps1):
    """Self-paired Lie block for the sesquilinear form: eigenvalue i*beta."""
    A = -1j * jordan_block(-float(beta), k)
    H = _sip(k).astype(complex)
    if eps1 == -1:
        H = 1j * H
    X = np.diag([1j ** j for j in range(k)]).astype(complex)
    return A, H, [(complex(1j * beta), X)]


def _unit_self_doubled(lam, k, eps1):
    """Twin equal Jordan blocks against an antisymmetric H; the shape of
    self-paired eigenvalues when the bilinear form is skew (eps1 = -1)."""
    J = jordan_block(lam, k)
    A = scipy.linalg.block_diag(J, J)
    S = _sip(k)
    H = np.zeros((2 * k, 2 * k), dtype=complex)
    H[:k, k:] = S
    H[k:, :k] = eps1 * S
    X1 = np.vstack([np.eye(k), np.zeros((k, k))]).astype(complex)
    X2 = np.vstack([np.zeros((k, k)), np.eye(k)]).astype(complex)
    return A, H, [(complex(lam), X1), (complex(lam), X2)]


def _realify(A_c, H_c, chains):
    """Turn a conjugation-symmetric complex block into a real one.

    The input is a 2m-dimensional structure X satisfying
    ``conj(X) = P X P`` with P the half-swap; conjugating by the unitary
    T = (1/sqrt2) [[I, iI], [I, -iI]] then produces a real matrix.  Chains
    map through the same change of basis.
    """
    m = A_c.shape[0] // 2
    I = np.eye(m)
    T = np.block([[I, 1j * I], [I, -1j * I]]) / np.sqrt(2.0)
    Ts = T.conj().T
    A_r = Ts @ A_c @ T
    H_r = Ts @ H_c @ T
    if max(np.max(np.abs(A_r.imag)), np.max(np.abs(H_r.imag))) > 1e-12 * max(
            1.0, frob(A_c), frob(H_c)):
        raise InfeasiblePlanError(
            "internal: block realification produced a complex result")
    new_chains = [(lam, Ts @ X) for lam, X in chains]
    return A_r.real.astype(complex), H_r.real.astype(complex), new_chains


def _pair_with_conjugate(A_c, H_c, chains):
    """diag(block, conj block) with the conjugate's chains, then realify."""
    m = A_c.shape[0]
    A_p = scipy.linalg.block_diag(A_c, np.conj(A_c))
    H_p = scipy.linalg.block_diag(H_c, np.conj(H_c))
    up = [(lam, np.vstack([X, np.zeros_like(X)])) for lam, X in chains]
    dn = [(np.conj(lam), np.vstack([np.zeros_like(X), np.conj(X)]))
          for lam, X in chains]
    return _realify(A_p, H_p, up + dn)


# ---------------------------------------------------------------------------
# instance generation: plan grouping
# ---------------------------------------------------------------------------

def _match_plan(groups, used, value, band):
    for i, g in enumerate(groups):
        if i not in used and abs(g.value - value) <= band:
            return i
    return None


def _plan_units_complex(recipe, band):
    """Emit canonical units for a complex-field plan."""
    eps1 = _preset_eps1(recipe)
    eps2 = recipe.cls.epsilon2
    sesq = recipe.star != "T"
    groups = list(recipe.plan)
    used = set()
    units = []
    for i, g in enumerate(groups):
        if i in used:
            continue
        partner = eps2 * (np.conj(g.value) if sesq else g.value)
        if abs(partner - g.value) <= band:
            used.add(i)
            if recipe.cls is StructureClass.LIE and not sesq:
                raise InfeasiblePlanError(
                    f"value {g.value:.6g} is self-paired for the bilinear Lie "
                    "algebra only at zero, which is not supported")
            if recipe.cls is StructureClass.LIE:
                if abs(g.value.real) > band:
                    raise InfeasiblePlanError(
                        f"self-paired Lie value {g.value:.6g} must be imaginary")
                for k in g.chains:
                    units.append(_unit_self_lie_sesq(g.value.imag, k, eps1))
            else:
                if sesq and abs(g.value.imag) > band:
                    raise InfeasiblePlanError(
                        f"self-paired Jordan value {g.value:.6g} must be real")
                if eps1 == -1 and not sesq:
                    # a skew bilinear form forces twin blocks
                    counts = {}
                    for k in g.chains:
                        counts[k] = counts.get(k, 0) + 1
                    if any(c % 2 for c in counts.values()):
                        raise InfeasiblePlanError(
                            "a skew bilinear form forces even chain "
                            f"multiplicities; value {g.value:.6g} violates this")
                    for k, c in counts.items():
                        for _ in range(c // 2):
                            units.append(_unit_self_doubled(g.value, k, eps1))
                else:
                    for k in g.chains:
                        units.append(_unit_self_jordan(g.value, k, eps1))
            continue
        j = _match_plan(groups, used | {i}, partner, band)
        if j is None:
            raise InfeasiblePlanError(
                f"plan is not closed under pairing: {g.value:.6g} needs "
                f"{partner:.6g}")
        if sorted(groups[j].chains) != sorted(g.chains):
            raise InfeasiblePlanError(
                f"paired values {g.value:.6g}/{groups[j].value:.6g} need "
                "equal chain lengths")
        used.update((i, j))
        for k in sorted(g.chains, reverse=True):
            units.append(_unit_couple(g.value, k, eps1, eps2, sesq))
    return units


def _plan_units_real(recipe, band):
    """Emit canonical real units for a real-field plan."""
    eps1 = _preset_eps1(recipe)
    eps2 = recipe.cls.epsilon2
    groups = list(recipe.plan)
    used = set()
    units = []

    def grab(value, errmsg):
        j = _match_plan(groups, used, value, band)
        if j is None:
            raise InfeasiblePlanError(errmsg)
        used.add(j)
        return groups[j]

    for i, g in enumerate(groups):
        if i in used:
            continue
        used.add(i)
        v = g.value
        is_real = abs(v.imag) <= band
        is_imag = abs(v.real) <= band
        if is_real and is_imag:
            raise InfeasiblePlanError("zero eigenvalues are not supported")
        if recipe.cls is StructureClass.JORDAN:
            if is_real:
                if eps1 == -1:
                    counts = {}
                    for k in g.chains:
                        counts[k] = counts.get(k, 0) + 1
                    if any(c % 2 for c in counts.values()):
                        raise InfeasiblePlanError(
                            "a real skew form forces even chain multiplicities "
                            f"for real value {v.real:.6g}")
                    for k, c in counts.items():
                        for _ in range(c // 2):
                            units.append(_unit_self_doubled(v.real, k, eps1))
                else:
                    for k in g.chains:
                        units.append(_unit_self_jordan(v.real, k, eps1))
            else:
                if eps1 == -1:
                    raise InfeasiblePlanError(
                        "complex conjugate couples over a real skew form are "
                        "not in the generator catalogue")
                h = grab(np.conj(v), f"plan needs the conjugate of {v:.6g}")
                if sorted(h.chains) != sorted(g.chains):
                    raise InfeasiblePlanError(
                        f"conjugate values {v:.6g} need equal chain lengths")
                for k in sorted(g.chains, reverse=True):
                    # the couple block diag(J(lam), J(conj lam)) is already
                    # conjugation-symmetric; realify it in place
                    units.append(_realify(*_unit_couple(v, k, eps1, 1, True)))
        else:
            if is_real:
                h = grab(-v, f"plan needs the negated value {-v.real:.6g}")
                if sorted(h.chains) != sorted(g.chains):
                    raise InfeasiblePlanError(
                        f"paired values {v:.6g}/{-v:.6g} need equal chain lengths")
                for k in sorted(g.chains, reverse=True):
                    units.append(_unit_couple(v.real, k, eps1, eps2, False))
            elif is_imag:
                h = grab(np.conj(v), f"plan needs the conjugate of {v:.6g}")
                if sorted(h.chains) != sorted(g.chains):
                    raise InfeasiblePlanError(
                        f"conjugate values {v:.6g} need equal chain lengths")
                for k in sorted(g.chains, reverse=True):
                    units.append(_pair_with_conjugate(
                        *_unit_self_lie_sesq(v.imag, k, eps1)))
            else:
                hc = grab(np.conj(v), f"plan needs the conjugate of {v:.6g}")
                hm = grab(-v, f"plan needs the negated value {-v:.6g}")
                hmc = grab(-np.conj(v), f"plan needs {-np.conj(v):.6g}")
                for other in (hc, hm, hmc):
                    if sorted(other.chains) != sorted(g.chains):
                        raise InfeasiblePlanError(
                            f"the family of {v:.6g} needs equal chain lengths")
                for k in sorted(g.chains, reverse=True):
                    units.append(_pair_with_conjugate(
                        *_unit_couple(v, k, eps1, eps2, True)))
    return units


# ---------------------------------------------------------------------------
# instance generation: moving the canonical form onto the requested H
# ---------------------------------------------------------------------------

def _preset_eps1(recipe) -> int:
    if recipe.space_kind == "skewj":
        return -1
    if recipe.space_kind in ("identity", "flip", "signature"):
        return 1
    return recipe.eps1 or 1


def _skewj(n):
    m = n // 2
    H = np.zeros((n, n))
    H[:m, m:] = np.eye(m)
    H[m:, :m] = -np.eye(m)
    return H


def _flip(n):
    m = n // 2
    H = np.zeros((n, n))
    H[:m, m:] = np.eye(m)
    H[m:, :m] = np.eye(m)
    return H


def _skew_orthogonal_normalize(H):
    """Real orthogonal Q with Q^T H Q = skewJ for real skew-orthogonal H."""
    H = np.real_if_close(H, tol=1e6)
    n = H.shape[0]
    if n % 2:
        raise InfeasiblePlanError("a skew form needs even dimension")
    T, Q = scipy.linalg.schur(np.asarray(H, dtype=float), output="real")
    # T is block diagonal with [[0, b], [-b, 0]] blocks, b = +-1
    for i in range(0, n, 2):
        if abs(T[i, i + 1]) < 0.5:
            raise InfeasiblePlanError(
                "internal: Schur normal form of the skew form is not "
                "block-paired")
        if T[i, i + 1] < 0:
            Q[:, [i, i + 1]] = Q[:, [i + 1, i]]
    # interleaved blocks -> [[0, I], [-I, 0]] ordering
    perm = list(range(0, n, 2)) + list(range(1, n, 2))
    return Q[:, perm]


def _hermitian_congruence(H0, H1, scale_i=False):
    """Unitary U with U* H0 U = H1 for unitary (skew-)Hermitian H0, H1."""
    M0 = 1j * H0 if scale_i else H0
    M1 = 1j * H1 if scale_i else H1
    w0, Q0 = np.linalg.eigh(M0)
    w1, Q1 = np.linalg.eigh(M1)
    s0 = np.sign(np.round(w0).astype(int))
    s1 = np.sign(np.round(w1).astype(int))
    if list(s0) != list(s1):
        raise InfeasiblePlanError(
            "the requested H is incompatible with the plan: the form's "
            f"inertia differs (plan {list(s0)}, preset {list(s1)})")
    return Q0 @ Q1.conj().T


def _involutory_symmetric_sqrt(H):
    """Unitary symmetric W with W W^T = H, for real symmetric orthogonal H."""
    if np.max(np.abs(np.asarray(H).imag)) > 1e-12:
        raise InfeasiblePlanError(
            "the bilinear congruence route needs a real symmetric H")
    Hr = np.asarray(H, dtype=complex)
    n = Hr.shape[0]
    if np.linalg.norm(Hr @ Hr - np.eye(n)) > 1e-10 * n:
        raise InfeasiblePlanError("H must be involutory for the sqrt route")
    return ((1 - 1j) * Hr + (1 + 1j) * np.eye(n)) / 2.0


def _congruence_transform(H0, H1, star, eps1, field):
    """Unitary U with ``U* H0 U = H1`` (star of the space)."""
    if field == "real" or star != "T":
        if eps1 == 1:
            return _hermitian_congruence(H0, H1, scale_i=False)
        if field == "real":
            Q0 = _skew_orthogonal_normalize(H0)
            Q1 = _skew_orthogonal_normalize(H1)
            return Q0 @ Q1.T
        return _hermitian_congruence(H0, H1, scale_i=True)
    # complex bilinear
    if eps1 == 1:
        W0 = _involutory_symmetric_sqrt(H0)
        W1 = _involutory_symmetric_sqrt(H1)
        return np.conj(W0) @ W1.T
    Q0 = _skew_orthogonal_normalize(H0)
    Q1 = _skew_orthogonal_normalize(H1)
    return Q0 @ Q1.T


def _balance_signs(units, recipe, n):
    """Choose the free sign of each block's H so the stacked form reaches
    the inertia of the requested preset.

    Negating a block's H never breaks membership, so odd-inertia blocks
    (self-paired chains of odd length) are sign characteristic freedom the
    generator can spend; presets with balanced inertia (flip, skewj) or
    definite inertia (identity) constrain the total.
    """
    eps1 = _preset_eps1(recipe)
    sesq_complex = recipe.field == "complex" and recipe.star != "T"
    hermitian_route = eps1 == 1 and (recipe.field == "real" or recipe.star != "T")
    skew_herm_route = eps1 == -1 and sesq_complex
    if not (hermitian_route or skew_herm_route):
        return units
    if recipe.space_kind == "identity":
        target = n
    elif recipe.space_kind in ("flip", "skewj"):
        target = n // 2
    else:
        return units

    def positives(H):
        M = 1j * H if skew_herm_route else H
        w = np.linalg.eigvalsh(M)
        return int(np.count_nonzero(w > 0))

    pos = [positives(u[1]) for u in units]
    total = sum(pos)
    delta = target - total
    flips = []
    for i, u in enumerate(units):
        m = u[1].shape[0]
        d = (m - pos[i]) - pos[i]  # change in positives when negating H
        if d != 0:
            flips.append((i, d))
    out = list(units)
    for i, d in flips:
        if delta == 0:
            break
        if np.sign(d) == np.sign(delta) and abs(d) <= abs(delta):
            A_u, H_u, ch = out[i]
            out[i] = (A_u, -H_u, ch)
            delta -= d
    if delta != 0:
        raise InfeasiblePlanError(
            f"the plan cannot reach the inertia of the "
            f"{recipe.space_kind} form (off by {delta} after balancing "
            "sign characteristics)")
    return out


def _build_preset_h(recipe, H0):
    n = H0.shape[0]
    kind = recipe.space_kind
    if kind == "identity":
        return np.eye(n)
    if kind == "flip":
        if n % 2:
            raise InfeasiblePlanError("flip space needs even dimension")
        return _flip(n)
    if kind == "skewj":
        if n % 2:
            raise InfeasiblePlanError("skewj space needs even dimension")
        return _skewj(n)
    if kind == "signature":
        if recipe.field == "real" or recipe.star != "T":
            w = np.linalg.eigvalsh(H0 if _preset_eps1(recipe) == 1 else 1j * H0)
            p = int(np.count_nonzero(w > 0))
        else:
            p = (n + 1) // 2
        return np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
    raise ArgumentError(f"unknown space kind {kind!r}")


def _random_automorphism(space_H, star_mat, eps1, field, rng, strength):
    """Cayley transform of a sampled element of the form's automorphism
    Lie algebra; satisfies G* H G = H exactly in exact arithmetic."""
    n = space_H.shape[0]
    M = rng.standard_normal((n, n))
    if field == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    K = (M - eps1 * star_mat(M)) / 2.0
    W = np.linalg.solve(space_H, K)
    nrm = np.linalg.norm(W, 2)
    if nrm > 0:
        W = W * (strength / nrm)
    I = np.eye(n)
    return np.linalg.solve((I + W).T, (I - W).T).T


def generate_instance(recipe: InstanceRecipe,
                      snap_tol: float = 1e-8) -> GeneratedInstance:
    """Build a structured matrix realizing the recipe's spectrum plan.

    Canonical blocks realizing each pairing family are stacked, moved onto
    the requested H by an exact unitary congruence, and conjugated by a
    seeded Cayley automorphism of the form.  Ground-truth Jordan pairs are
    carried through both transformations, so membership and the planned
    Jordan structure hold to machine precision.

    Plans the catalogue cannot realize for the requested space (wrong
    inertia, pairing violations, structurally forced even multiplicities)
    raise InfeasiblePlanError.
    """
    if not recipe.plan:
        raise ArgumentError("recipe has an empty spectrum plan")
    scale = max([1.0] + [abs(g.value) for g in recipe.plan])
    band = snap_tol * scale
    if recipe.field == "real":
        units = _plan_units_real(recipe, band)
    else:
        units = _plan_units_complex(recipe, band)

    n = recipe.n
    units = _balance_signs(units, recipe, n)
    A0 = scipy.linalg.block_diag(*[u[0] for u in units]).astype(complex)
    H0 = scipy.linalg.block_diag(*[u[1] for u in units]).astype(complex)
    chains = []
    offset = 0
    for A_u, H_u, ch in units:
        w = A_u.shape[0]
        chains.extend(_embed(ch, offset, w, n))
        offset += w
    if offset != n:
        raise InfeasiblePlanError(
            f"internal: unit sizes ({offset}) disagree with the plan ({n})")

    eps1 = _preset_eps1(recipe)
    rng = np.random.default_rng(recipe.seed)

    def star_mat(M):
        M = np.asarray(M, dtype=complex)
        if recipe.star == "T" and recipe.field == "complex":
            return M.T
        return M.conj().T

    if recipe.space_kind == "random":
        V = rng.standard_normal((n, n))
        if recipe.field == "complex":
            V = V + 1j * rng.standard_normal((n, n))
        V, _ = np.linalg.qr(V)
        H1 = star_mat(V) @ H0 @ V
        U = V
    else:
        H1 = _build_preset_h(recipe, H0).astype(complex)
        U = _congruence_transform(H0, H1, recipe.star, eps1, recipe.field)
        err = np.linalg.norm(star_mat(U) @ H0 @ U - H1)
        if err > 1e-8 * max(1.0, frob(H0)):
            raise InfeasiblePlanError(
                f"internal: congruence onto the preset failed (residual {err:.3e})")

    G = _random_automorphism(H1, star_mat, eps1, recipe.field, rng,
                             recipe.cayley_strength)
    UG = U @ G
    A = np.linalg.solve(UG, A0 @ UG)
    # one solve for every chain: UG is factored once
    values, blocks = zip(*chains)
    moved_blocks = np.hsplit(np.linalg.solve(UG, np.hstack(blocks)),
                             np.cumsum([X.shape[1] for X in blocks])[:-1])
    moved = list(zip(values, moved_blocks))

    if recipe.field == "real":
        imax = float(np.max(np.abs(A.imag)))
        if imax > 1e-10 * max(1.0, frob(A)):
            raise InfeasiblePlanError(
                f"internal: real instance came out complex (imag {imax:.3e})")
        A = A.real.astype(complex)

    space = ScalarProductSpace(H1, star=recipe.star, field=recipe.field)
    pairs = []
    for lam, X in moved:
        X = X / np.linalg.norm(X[:, 0])
        pairs.append(JordanPair(value=lam, chain=X))
    return GeneratedInstance(A=A, space=space, cls=recipe.cls,
                             pairs=tuple(pairs), recipe=recipe)
