"""Independent verification oracle and structured test-instance generation.

Nothing here reuses the perturbation constructors: spectra come from a
dense eigenvalue solver, residuals from direct multiplication, the rank
and structure residual of an update from a seeded sketch of it or, past
eight columns when the sketch fails, from the eight seeded probes of
``core._probes`` (a full-rank certificate and a probed residual), the
no-spillover claim from a randomized annihilation identity, and generated
instances are built from exact canonical blocks conjugated by exact
automorphisms of the form, so the oracle genuinely cross-checks the
library instead of echoing it.  Its one compiled routine past numpy is
scipy's ``linear_sum_assignment``, which pairs tied spectra and links no
LAPACK: ``_linear_sum_assignment`` loads it without ``scipy.optimize``.

The one thing kept between calls is the spectrum of the unperturbed A in
``verify_reassignment``: a process-wide memo of _SPECTRA_SIZE entries, each
the read-only LAPACK eigenvalues of one A (O(n) memory, no copy of A),
keyed by a blake2b digest of A's dtype, shape and bytes and by the tier
taken.  The perturbed matrix under test, and both matrices of
``spectrum_multiset_compare``, are solved afresh on every call.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import numbers
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _PROBES,
    _decide,
    _normalize_star,
    _probes,
    _rcond_estimate,
    _real_apply,
    _require_finite,
    _square,
    _star,
    _star_h,
    as_matrix,
    frob,
    gram_matrix,
    numerical_rank,
    structure_residual,
)
from .errors import ArgumentError, InfeasiblePlanError
from .spectral import (SNAP_TOL, JordanPair, ReassignmentAssembly,
                       _block_diag, _group_orbits)

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

# eps1 of each preset H; random spaces take the recipe's (default +1)
_PRESET_EPS1 = {"identity": 1, "flip": 1, "signature": 1, "skewj": -1}
# spectral norm of the Lie-algebra element behind the Cayley automorphism
CAYLEY_STRENGTH = 0.3


def oracle_dim_limit() -> int:
    """Largest dimension the dense eigensolver oracle will touch.

    Unset or empty means 64 and 0 turns the dense tier off; a value that is
    not a non-negative integer is an error.
    """
    raw = os.environ.get(ORACLE_NMAX_ENV, "").strip()
    if not raw:
        return 64
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ArgumentError(
            f"{ORACLE_NMAX_ENV} must be a non-negative integer, got {raw!r}")
    return limit


# ---------------------------------------------------------------------------
# spectrum comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumVerdict:
    """Multiset comparison of two spectra by optimal assignment.

    pairs holds (value_a, value_b, distance) for every matched couple;
    slack is how far the exact eigenvalues may sit from the computed ones
    (nonzero only on the Hermitian tier, see ``_eigenvalues``);
    unmatched_a / unmatched_b collect the two sides of pairs whose distance
    plus the slack exceeded the threshold. matched is True when every pair
    is within it.
    """

    pairs: tuple
    unmatched_a: tuple
    unmatched_b: tuple
    max_distance: float
    threshold: float
    slack: float = 0.0

    @property
    def matched(self) -> bool:
        return self.max_distance + self.slack <= self.threshold

    def summary(self) -> dict:
        d = {"matched": self.matched, "max_distance": self.max_distance}
        # only verdicts on the Hermitian tier carry the key, so the others
        # keep their old fields
        if self.slack:
            d["slack"] = self.slack
        d.update(threshold=self.threshold, n_pairs=len(self.pairs),
                 unmatched_a=[[v.real, v.imag] for v in self.unmatched_a],
                 unmatched_b=[[v.real, v.imag] for v in self.unmatched_b])
        return d


@functools.cache
def _linear_sum_assignment():
    """scipy's compiled ``linear_sum_assignment``, without
    ``scipy.optimize``, which loads sparse, spatial, special and fft (about
    45 MB): the extension module ``scipy.optimize._lsap``, loaded from its
    own file under scipy's directory, which is found without importing
    scipy, so no package init runs.  It goes in ``sys.modules``, so the
    function is the one the package exports, whichever is imported first.
    There is no fallback to the package: a scipy without the module
    raises."""
    name = "scipy.optimize._lsap"
    pkg = importlib.util.find_spec("scipy")
    spec = pkg and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(pkg.submodule_search_locations[0], "optimize")])
    if spec is None:
        raise ImportError(f"scipy has no extension module {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


def _assign_multisets(ea, eb):
    """Optimal pairing of two complex multisets.

    Returns the row indices into ea, the column indices into eb and the
    paired distances; when the sizes differ, the smaller side is paired in
    full.  The pairing is scipy's ``linear_sum_assignment`` on the
    distances, ties and all, loaded by ``_linear_sum_assignment``.
    """
    cost = np.abs(np.subtract.outer(ea, eb))
    rows, cols = _linear_sum_assignment()(cost)
    return rows, cols, cost[rows, cols]


def _compare_spectra(ea, eb, tol, slack=0.0) -> SpectrumVerdict:
    """Verdict on two equal-size eigenvalue multisets at ``tol * scale``,
    each paired distance counted with the slack of the two spectra.  The
    pairing is ``_assign_multisets``: a planned spectrum repeats a moved
    value once per chain column, and scipy's compiled routine settles those
    ties."""
    scale = max(1.0, float(np.max(np.abs(ea)) if ea.size else 0.0),
                float(np.max(np.abs(eb)) if eb.size else 0.0))
    threshold = tol * scale
    rows, cols, dist = _assign_multisets(ea, eb)
    pairs = [(complex(ea[i]), complex(eb[j]), float(d))
             for i, j, d in zip(rows, cols, dist)]
    bad = [p for p in pairs if p[2] + slack > threshold]
    maxd = max((p[2] for p in pairs), default=0.0)
    return SpectrumVerdict(
        pairs=tuple(pairs),
        unmatched_a=tuple(p[0] for p in bad),
        unmatched_b=tuple(p[1] for p in bad),
        max_distance=float(maxd),
        threshold=float(threshold),
        slack=float(slack),
    )


# the share of the matching threshold the Hermitian tier's slack may take
_HERMITIAN_SHARE = 1e-2


def _eigenvalues(M, tol, notes, name, memo=False):
    """Eigenvalues of M for a verdict at ``tol``, and their slack.

    With ``K = (M - M*)/2`` the anti-Hermitian part, every eigenvalue of M
    lies within ``||K||_2`` of an eigenvalue of the Hermitian part
    ``(M + M*)/2`` (Bauer-Fike), and by continuity the two multisets pair
    within ``s = 2 n ||K||_F``.  The ``hermitian_tier`` gate passes when s
    is at most a hundredth of ``tol * max(1, ||M||_F / sqrt(n))``, which
    is at most the smallest threshold a verdict on M can have, since
    ``||M||_F / sqrt(n)`` bounds the spectral radius of a Hermitian M from
    below.  Then the eigenvalues come from ``eigvalsh`` of the Hermitian
    part with slack s, otherwise from ``eigvals`` with slack 0.  A note
    records the gate when it passes, or when it fails on an M that is
    Hermitian within the matching tolerance itself.  The gate, the slack
    and the notes are worked out on every call; with memo set only the
    LAPACK solve goes through ``_memoized_solve``.
    """
    n = M.shape[0]
    slack = 2 * n * frob((M - M.conj().T) / 2)
    limit = tol * max(1.0, frob(M) / np.sqrt(max(n, 1)))
    gate = _decide("hermitian_tier", slack, _HERMITIAN_SHARE * limit)
    if gate.passed:
        notes.append(f"eigenvalues of {name} from its Hermitian part "
                     f"(hermitian_tier slack {slack:.3e} <= {gate.threshold:.3e})")
        tier = "eigvalsh"
    else:
        if slack <= limit:
            notes.append(f"{name} is Hermitian only to slack {slack:.3e} "
                         f"(hermitian_tier gate {gate.threshold:.3e}): "
                         f"eigenvalues from eigvals")
        tier, slack = "eigvals", 0.0
    return (_memoized_solve(M, tier) if memo else _solve(M, tier)), slack


def _solve(M, tier):
    """The LAPACK eigenvalues of M on the tier ``_eigenvalues`` chose."""
    if tier == "eigvalsh":
        return np.linalg.eigvalsh((M + M.conj().T) / 2)
    return np.linalg.eigvals(M)


# the memo of ``_memoized_solve``: digest -> read-only eigenvalues, oldest
# first; a fixed size, so at most _SPECTRA_SIZE vectors of n values
_SPECTRA_SIZE = 8
_SPECTRA = OrderedDict()
_SPECTRA_LOCK = threading.Lock()


def _memoized_solve(M, tier):
    """``_solve(M, tier)``, computed once per distinct M and tier.

    The key is a blake2b digest of M's dtype, shape and C-order bytes and
    the tier, so a matrix changed in place, or the same bytes read as
    another dtype or shape, is solved again; no copy of M is kept.  The
    lock guards lookup and insertion only: the solve runs outside it, and
    two threads that miss on the same key both solve and store equal
    values.  Least recently used entries go first.
    """
    import hashlib
    h = hashlib.blake2b(f"{tier}|{M.dtype.str}|{M.shape}|".encode())
    h.update(np.ascontiguousarray(M).data)
    key = h.digest()
    with _SPECTRA_LOCK:
        w = _SPECTRA.get(key)
        if w is not None:
            _SPECTRA.move_to_end(key)
            return w
    w = _solve(M, tier)
    w.flags.writeable = False
    with _SPECTRA_LOCK:
        _SPECTRA[key] = w
        _SPECTRA.move_to_end(key)
        while len(_SPECTRA) > _SPECTRA_SIZE:
            _SPECTRA.popitem(last=False)
    return w


def spectrum_multiset_compare(A, B, tol: float = 1e-8) -> SpectrumVerdict:
    """Compare the spectra of A and B as multisets.

    Eigenvalues are paired by scipy's compiled minimum-cost assignment on
    pairwise distances (``_assign_multisets``), not nearest-first: a greedy
    pass would misreport swapped conjugate pairs.  The verdict is matched when
    the largest paired distance, plus the slack of the Hermitian tier
    (``_eigenvalues``), stays below ``tol * max(1, spectral scale)``.  Each
    spectrum is computed in the field of its matrix, afresh on every call.
    """
    A = as_matrix(A, "A", shape=_square(A))
    B = as_matrix(B, "B", shape=A.shape)
    if A.shape[0] > oracle_dim_limit():
        raise ArgumentError(
            f"oracle limited to n <= {oracle_dim_limit()} "
            f"(set {ORACLE_NMAX_ENV} to raise)")
    _require_finite(A, "A")
    _require_finite(B, "B")
    ea, slack_a = _eigenvalues(A, tol, [], "A")
    eb, slack_b = _eigenvalues(B, tol, [], "B")
    return _compare_spectra(ea, eb, tol, slack_a + slack_b)


# ---------------------------------------------------------------------------
# perturbation verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """Everything a reassignment run should be judged by.

    All residuals are Frobenius norms of directly recomputed identities;
    the spectrum verdict compares the perturbed spectrum against the
    planned replacement multiset derived from the unperturbed one.
    spillover_residual is the relative complement-annihilation residual of
    a no-spillover claim (None for family members, which make none, and
    when the currents leave no complement).
    """

    delta: np.ndarray
    reassigned_residual: float
    structure_residual: float
    delta_rank: int
    gram_condition_estimate: float
    realness: bool
    spectrum_verdict: SpectrumVerdict | None
    spillover_residual: float | None = None
    notes: tuple = dc_field(default=())

    def summary(self) -> dict:
        d = {
            "reassigned_residual": self.reassigned_residual,
            "structure_residual": self.structure_residual,
            "delta_rank": self.delta_rank,
            "gram_condition_estimate": self.gram_condition_estimate,
            "realness": self.realness,
        }
        # only reports that ran the check carry the key, so the summaries
        # of family members keep their old fields
        if self.spillover_residual is not None:
            d["spillover_residual"] = self.spillover_residual
        d["notes"] = list(self.notes)
        d["spectrum"] = self.spectrum_verdict.summary() if self.spectrum_verdict else None
        return d


def _planned_spectrum(eigs_a, currents, targets, tol, scale, notes):
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
        if paired[i] > tol * scale:
            notes.append(
                f"current value {c:.6g} not found in the spectrum of A "
                f"(paired at distance {paired[i]:.3e})")
        planned.append(t)
    remaining = np.delete(eigs_a, cols)
    return np.concatenate([planned, remaining])


# seeded check columns: the same report for the same input
_SPILL_COLUMNS = 3
_SPILL_SEED = 20250101


def _spillover_residual(A, delta, currents) -> float:
    """``||delta Y|| / (||delta|| ||Y||)`` with ``Y = q(A) R``.

    ``q(z) = prod (z - c_i)`` runs over the current values with their
    multiplicity (a length-k chain contributes ``(A - cI)^k``), so q(A)
    annihilates the moved generalized eigenspaces and Y is a random
    vector block of the complement; a no-spillover delta must annihilate
    it.  R holds _SPILL_COLUMNS seeded real columns, and Y is renormalised
    after each factor.  The roots of q are the current values as given, so
    error in those values raises the residual as spillover does.  Uses
    only A, delta and the currents: O(n^2 deg(q) _SPILL_COLUMNS).
    """
    Y = np.random.default_rng(_SPILL_SEED).standard_normal(
        (A.shape[0], _SPILL_COLUMNS))
    for c in currents:
        Y = _real_apply(A, Y) - c * Y
        Y /= max(frob(Y), 1e-300)
    return frob(_real_apply(delta, Y)) / max(frob(delta) * frob(Y), 1e-300)


# seeded sketch of delta: the same report for the same input
_SKETCH_OVERSAMPLE = 10
_SKETCH_SEED = 20250102
# allowance for ||delta - Q B||_F / ||delta||_F, in units of the unit
# roundoff u: clean updates read 1-10 u.  An accepted sketch misses only
# singular values below 256 u ||delta||_F, far under the default rank
# cutoff, and moves the structure residual by at most 512 u ||delta||_F
_SKETCH_ROUNDING = 256
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _rank_and_structure(delta, space, cls, k, rank_tol, notes):
    """delta_rank and the structure residual of delta.

    A seeded Gaussian sketch of k columns (Halko, Martinsson & Tropp, SIAM
    Review 53, 2011) gives ``Q, R = qr(delta Omega)`` and ``B = Q* delta``.
    When the ``sketch_full_rank`` decision finds ``delta Omega`` of full
    column rank (``sigma_min(R) > rank_tol sigma_max(R)``, from the
    condition number of the k x k R), delta has rank at least k, beyond the
    rank bound 2p < k of every update the sketch is sized for, so it goes
    straight to the fallback (noted).  Otherwise the sketch is accepted when
    the ``sketch_residual`` gate ``||delta - Q B||_F <= 256 u ||delta||_F``
    passes; delta_rank is then the rank of the k x n matrix B, and the
    structure residual that of ``Q B``:
    ``adj(Q B) - e2 Q B = [H^-1 B*, Q] [Q* H; -e2 B]``, whose norm is that
    of ``[Q* H; -e2 B]`` times the triangular factor of a thin QR of the
    n x 2k left factor, with ``H^-1`` applied by ``space.h_solve`` to its
    n x k block (a product with the inverse a dense H gets once per space).
    That is O(n^2 k) with no n x n factorization of delta.

    The fallback takes k >= n, and a sketch refused or rejected (noted).
    At most _PROBES columns, the full SVD and ``structure_residual``
    answer, to the bit.  Past that, the eight seeded probes
    ``Omega = core._probes(n)``, drawn once, answer.  The
    ``full_rank_certificate`` decision passes when
    ``core._rcond_estimate(delta, Omega)``, one solve with eight right-hand
    sides, exceeds ``10 rank_tol``; then
    ``sigma_n / sigma_1 >= 1 / kappa_F > rank_tol`` and delta_rank is n,
    except with probability at most ``P(chi2_8 <= 0.08) = 1.03e-7``
    (Dixon, SIAM J. Numer. Anal. 20, 1983).  When it fails, the full SVD
    gives the rank.  The structure residual is estimated as
    ``|H^-1 delta* H Omega - e2 delta Omega|_F``, whose expected square is
    the exact residual's: O(n^2) per probe, with no adjoint of delta.  Both
    are noted.
    """
    n = delta.shape[0]
    if k < n:
        omega = np.random.default_rng(_SKETCH_SEED).standard_normal((n, k))
        Q, R = np.linalg.qr(delta @ omega)
        full = _decide("sketch_full_rank", 1.0 / np.linalg.cond(R), rank_tol,
                       at_least=True)
        if full.passed:
            notes.append(f"a {k}-column sketch is refused: delta Omega has "
                         f"full column rank (sketch_full_rank "
                         f"{full.value:.3e} > {full.threshold:.3e}), so "
                         f"rank delta >= {k}")
        else:
            B = Q.conj().T @ delta
            fit = _decide("sketch_residual",
                          frob(Q @ B - delta) / max(frob(delta), 1e-300),
                          _SKETCH_ROUNDING * _UNIT_ROUNDOFF)
            if fit.passed:
                notes.append(f"rank and structure from a {k}-column sketch "
                             f"of delta (sketch_residual {fit.value:.3e} <= "
                             f"{fit.threshold:.3e})")
                left = np.hstack([space.h_solve(space.star_mat(B)), Q])
                right = np.vstack([_star_h(Q, space), -cls.epsilon2 * B])
                return numerical_rank(B, rank_tol), frob(
                    np.linalg.qr(left, mode="r") @ right)
            notes.append(f"a {k}-column sketch does not capture delta "
                         f"(sketch_residual {fit.value:.3e} > "
                         f"{fit.threshold:.3e})")
    if n <= _PROBES:
        return (numerical_rank(delta, rank_tol),
                structure_residual(delta, space, cls))
    omega = _probes(n)
    cert = _decide("full_rank_certificate", _rcond_estimate(delta, omega),
                   10 * rank_tol, at_least=True)
    if cert.passed:
        rank = n
        notes.append(f"delta_rank {n} from the full_rank_certificate "
                     f"{cert.value:.3e} > {cert.threshold:.3e} "
                     f"(probes={_PROBES})")
    else:
        rank = numerical_rank(delta, rank_tol)
        notes.append(f"delta_rank from the full SVD: full_rank_certificate "
                     f"{cert.value:.3e} <= {cert.threshold:.3e} "
                     f"(probes={_PROBES})")
    # delta* H Omega as star(star(H Omega) delta): no n x n copy of delta
    h_omega = space.h_apply(omega)
    struct = frob(space.h_solve(space.star_mat(space.star_mat(h_omega) @ delta))
                  - cls.epsilon2 * (delta @ omega))
    notes.append(f"structure residual {struct:.3e} estimated on delta Omega "
                 f"(probes={_PROBES})")
    return rank, struct


def verify_reassignment(A, delta, assembly: ReassignmentAssembly,
                        space: ScalarProductSpace, cls: StructureClass,
                        tol: ToleranceProfile = ToleranceProfile(),
                        check_spillover: bool = True) -> PerturbationReport:
    """Build the verification bundle for a perturbation.

    With check_spillover set, the no-spillover claim is checked at every
    size by complement annihilation (``_spillover_residual``; skipped when
    the currents fill the whole spectrum, leaving no complement): no
    eigenvectors are computed.
    The spectrum verdict needs the eigenvalues of A and A + delta
    (``_eigenvalues``: ``eigvalsh`` of the Hermitian part, with its slack,
    for a matrix Hermitian up to rounding, ``eigvals`` otherwise), matches
    at ``tol.eig_tol`` and runs only while n <= oracle_dim_limit().  The
    LAPACK eigenvalues of A are memoized per process (``_memoized_solve``:
    keyed by a digest of A's dtype, shape and bytes and the tier, at most
    _SPECTRA_SIZE entries of O(n) each, no copy of A), so verifying several
    updates of one A solves it once; A + delta, the output under test, is
    solved on every call, and the gate, slack and notes are recomputed, so
    a report is the same whether A was cached or not.
    delta_rank and the structure residual come from a seeded sketch of
    delta in O(n^2 p) (``_rank_and_structure``).  When p is close to n or
    the sketch is refused (delta of rank at least the sketch width, as a
    family member with a parameter) or does not capture delta, the full
    SVD and adjoint answer up to eight columns; past eight, a full-rank
    certificate from one solve with the eight seeded probes gives rank n
    (the SVD decides when it fails) and the probes estimate the structure
    residual in O(n^2) each.  A delta with a NaN or infinite entry is never
    factored or solved: its residuals come out NaN, delta_rank is the
    bound n and the spectrum is not compared, each with a note.  An A with
    such an entry is not solved or memoized either: the residuals that
    multiply it come out NaN and the spectrum is not compared (noted).
    Family-of-solutions members with a free parameter make no claim about
    the complement, so callers verify them with check_spillover=False,
    which skips the spillover and spectrum-replacement checks.  The
    eigenvalue solves, the factorizations and every product run in the
    field of their matrices: real LAPACK and BLAS for exactly real data.
    """
    cls = StructureClass.parse(cls)
    A = as_matrix(A, "A", shape=(space.n, space.n))
    delta = as_matrix(delta, "delta", shape=A.shape)
    notes = []
    X = assembly.X_c
    perturbed = A + delta
    reassigned = float(np.linalg.norm(
        _real_apply(perturbed, X) - X @ assembly.Lambda_a))
    # a NaN or infinite entry has no SVD or eigenvalues: the residuals are
    # products and come out NaN, and no delta, A or A + delta is factored
    finite = bool(np.isfinite(delta).all())
    finite_a = bool(np.isfinite(A).all())
    if finite:
        # k covers the rank bound 2p of every update
        rank, struct = _rank_and_structure(
            delta, space, cls, 2 * X.shape[1] + _SKETCH_OVERSAMPLE,
            tol.rank_tol, notes)
    else:
        rank, struct = A.shape[0], float("nan")
        notes.append("delta has non-finite entries: rank and structure not "
                     "computed (delta_rank is the bound n)")
    gram_condition = float(np.real(np.linalg.cond(gram_matrix(X, space), 1)))
    realness = (not np.iscomplexobj(delta) or bool(
        np.max(np.abs(delta.imag)) <= 1e-10 * max(frob(delta), 1e-300)))

    currents = assembly.current_values
    targets = assembly.target_values
    sp_scale = max(1.0, float(np.max(np.abs(currents))) if currents.size else 0.0)

    spill_res = None
    verdict = None
    if not check_spillover:
        notes.append(
            "family member: no claim on the complement, spectrum "
            "replacement not checked")
    else:
        if not (finite and finite_a):
            notes.append(f"{'A' if finite else 'delta'} has non-finite "
                         "entries; spectrum not compared")
        elif A.shape[0] <= oracle_dim_limit():
            eigs_a, slack_a = _eigenvalues(A, tol.eig_tol, notes, "A",
                                           memo=True)
            planned = _planned_spectrum(eigs_a, currents, targets,
                                        tol.eig_tol, sp_scale, notes)
            eigs_p, slack_p = _eigenvalues(perturbed, tol.eig_tol, notes,
                                           "A + delta")
            verdict = _compare_spectra(eigs_p, planned, tol.eig_tol,
                                       slack_a + slack_p)
        else:
            notes.append(
                "matrix exceeds the oracle bound; spectrum not compared")
        if currents.size < A.shape[0]:
            spill_res = _spillover_residual(A, delta, currents)
            notes.append(
                f"spillover checked by complement annihilation (q(A) of "
                f"degree {currents.size}, {_SPILL_COLUMNS} seeded columns)")

    return PerturbationReport(
        delta=delta,
        reassigned_residual=reassigned,
        structure_residual=struct,
        delta_rank=rank,
        gram_condition_estimate=gram_condition,
        realness=realness,
        spectrum_verdict=verdict,
        spillover_residual=spill_res,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# instance generation: recipes and canonical units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanGroup:
    """One planned eigenvalue with its Jordan chain lengths."""

    value: complex
    chains: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        chains = tuple(self.chains)
        # int() would truncate 1.9 to 1 and read True or "2" as a length
        if not chains or not all(
                isinstance(k, numbers.Real) and not isinstance(k, bool)
                and k % 1 == 0 and k >= 1 for k in chains):
            raise ArgumentError(
                f"chain lengths must be positive integers, got {chains!r}")
        object.__setattr__(self, "chains", tuple(int(k) for k in chains))

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
    instances, under conjugation.  star takes the spellings a
    ScalarProductSpace accepts and is stored as "T" or "CT".
    """

    space_kind: str
    cls: StructureClass
    field: str = "complex"
    star: str = "CT"
    plan: tuple = ()
    seed: int = 0
    eps1: int = 0  # 0 = implied by the preset; random spaces accept +-1

    def __post_init__(self):
        object.__setattr__(self, "cls", StructureClass.parse(self.cls))
        object.__setattr__(self, "star", _normalize_star(self.star))
        object.__setattr__(self, "plan", tuple(self.plan))
        if self.space_kind not in ("identity", "flip", "signature", "skewj", "random"):
            raise ArgumentError(f"unknown space kind {self.space_kind!r}")
        if self.field not in ("real", "complex"):
            raise ArgumentError(f"unknown field {self.field!r}")
        implied = _PRESET_EPS1.get(self.space_kind)
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


def _plan_units(recipe, band):
    """Canonical units for the recipe's plan, orbit by orbit in plan order:
    each orbit's units come from its pairing-table row, longest chain first
    for multi-member orbits and as planned for single ones."""
    eps1 = _preset_eps1(recipe)
    orbits, violations = _group_orbits(
        [(g.value, None, g.chains) for g in recipe.plan], recipe.cls,
        recipe.star, recipe.field, band)
    if violations:
        raise InfeasiblePlanError("; ".join(violations))
    units = []
    for orbit, _, members in orbits:
        g = recipe.plan[members[0]]
        build = orbit.row.units[eps1 == -1]
        if isinstance(build, str):
            raise InfeasiblePlanError(f"{g.value:.6g}: {build}")
        ks = g.chains if len(members) == 1 else sorted(g.chains, reverse=True)
        units.extend(build(g.value, ks, eps1, recipe.cls.epsilon2))
    return units


# ---------------------------------------------------------------------------
# instance generation: moving the canonical form onto the requested H
# ---------------------------------------------------------------------------

def _preset_eps1(recipe) -> int:
    return _PRESET_EPS1.get(recipe.space_kind) or recipe.eps1 or 1


def _inertia_carrier(H, eps1, star, field):
    """The Hermitian matrix that carries the inertia of the form ``H``:
    H itself when eps1 = +1 and the form is sesquilinear or real, ``iH``
    for a complex skew-Hermitian form, and None for a complex bilinear or a
    real skew form, whose congruence classes have no inertia."""
    if field == "real" or star != "T":
        if eps1 == 1:
            return H
        if field == "complex":
            return 1j * H
    return None


def _positives(M) -> int:
    """The number of positive eigenvalues of the Hermitian M."""
    return int(np.count_nonzero(np.linalg.eigvalsh(M) > 0))


def _involutory_symmetric_sqrt(H):
    """Unitary symmetric W with W W^T = H, for real symmetric orthogonal H."""
    if np.max(np.abs(H.imag)) > 1e-12:
        raise InfeasiblePlanError(
            "the bilinear congruence route needs a real symmetric H")
    n = H.shape[0]
    if np.linalg.norm(H @ H - np.eye(n)) > 1e-10 * n:
        raise InfeasiblePlanError("H must be involutory for the sqrt route")
    return ((1 - 1j) * H + (1 + 1j) * np.eye(n)) / 2.0


def _congruence_transform(H0, H1, star, eps1, field):
    """Unitary U with ``U* H0 U = H1`` (star of the space).  A form with an
    inertia is moved by the eigenvectors of its carriers, which must have
    the same inertia."""
    M0 = _inertia_carrier(H0, eps1, star, field)
    if M0 is not None:
        w0, Q0 = np.linalg.eigh(M0)
        w1, Q1 = np.linalg.eigh(_inertia_carrier(H1, eps1, star, field))
        s0 = np.sign(np.round(w0).astype(int))
        s1 = np.sign(np.round(w1).astype(int))
        if list(s0) != list(s1):
            raise InfeasiblePlanError(
                "the requested H is incompatible with the plan: the form's "
                f"inertia differs (plan {list(s0)}, preset {list(s1)})")
        return Q0 @ Q1.conj().T
    if eps1 == 1:  # complex bilinear symmetric
        W0 = _involutory_symmetric_sqrt(H0)
        W1 = _involutory_symmetric_sqrt(H1)
        return np.conj(W0) @ W1.T
    # a real skew-orthogonal H0 (only skewj comes here, so H1 is J): iH0
    # is Hermitian with eigenvalues +-1, and its +1 eigenvectors V give the
    # real orthogonal U = sqrt(2) [Im V, Re V] with U^T H0 U = J
    n = H0.shape[0]
    V = np.linalg.eigh(1j * np.real(H0))[1][:, n // 2:]
    return np.sqrt(2.0) * np.hstack([V.imag, V.real])


def _balance_signs(units, space, kind):
    """Choose the free sign of each block's H so the stacked form reaches
    the inertia of the preset space.

    Negating a block's H never breaks membership, so odd-inertia blocks
    (self-paired chains of odd length) are sign characteristic freedom the
    generator can spend; presets with balanced inertia (flip, skewj) or
    definite inertia (identity) constrain the total.
    """
    def carrier(H):
        return _inertia_carrier(H, space.epsilon1, space.star, space.field)

    target = carrier(space.H)
    if target is None:
        return units
    pos = [_positives(carrier(u[1])) for u in units]
    delta = _positives(target) - sum(pos)
    out = list(units)
    for i, (A_u, H_u, ch) in enumerate(units):
        d = H_u.shape[0] - 2 * pos[i]  # change in positives when negating H
        if delta and np.sign(d) == np.sign(delta) and abs(d) <= abs(delta):
            out[i] = (A_u, -H_u, ch)
            delta -= d
    if delta != 0:
        raise InfeasiblePlanError(
            f"the plan cannot reach the inertia of the {kind} form (off by "
            f"{delta} after balancing sign characteristics)")
    return out


def _random_automorphism(space, recipe, eps1, rng):
    """Cayley transform of a sampled element of the form's automorphism
    Lie algebra, scaled to spectral norm CAYLEY_STRENGTH; satisfies
    G* H G = H exactly in exact arithmetic."""
    n = space.n
    M = rng.standard_normal((n, n))
    if recipe.field == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    K = (M - eps1 * _star(M, recipe.star, recipe.field)) / 2.0
    W = space.h_solve(K)
    nrm = np.linalg.norm(W, 2)
    if nrm > 0:
        W = W * (CAYLEY_STRENGTH / nrm)
    I = np.eye(n)
    return np.linalg.solve((I + W).T, (I - W).T).T


def generate_instance(recipe: InstanceRecipe) -> GeneratedInstance:
    """Build a structured matrix realizing the recipe's spectrum plan.

    Canonical blocks realizing each pairing family are stacked, moved onto
    the requested H by an exact unitary congruence, and conjugated by a
    seeded Cayley automorphism of the form.  Ground-truth Jordan pairs are
    carried through both transformations, so membership and the planned
    Jordan structure hold to machine precision.  A real recipe is built in
    float64 throughout and gives a float64 A.  Plan values within
    ``SNAP_TOL`` times the spectral scale pair up as one orbit's members.

    Plans the catalogue cannot realize for the requested space (wrong
    inertia, pairing violations, structurally forced even multiplicities)
    raise InfeasiblePlanError.
    """
    if not recipe.plan:
        raise ArgumentError("recipe has an empty spectrum plan")
    scale = max([1.0] + [abs(g.value) for g in recipe.plan])
    band = SNAP_TOL * scale
    units = _plan_units(recipe, band)

    n = recipe.n
    kind = recipe.space_kind
    eps1 = _preset_eps1(recipe)
    kw = dict(star=recipe.star, field=recipe.field)
    if kind in ("flip", "skewj") and n % 2:
        raise InfeasiblePlanError(f"{kind} space needs even dimension")
    if kind in ("identity", "flip", "skewj"):
        space = getattr(ScalarProductSpace, kind)(n, **kw)
        units = _balance_signs(units, space, kind)
    A0 = as_matrix(_block_diag(*[u[0] for u in units]), "A0", recipe)
    H0 = as_matrix(_block_diag(*[u[1] for u in units]), "H0", recipe)
    chains = []
    offset = 0
    for A_u, H_u, ch in units:
        w = A_u.shape[0]
        for lam, Xl in ch:  # block-local chains lifted to global coordinates
            X = np.zeros((n, Xl.shape[1]), Xl.dtype)
            X[offset:offset + w, :] = Xl
            chains.append((lam, X))
        offset += w
    if offset != n:
        raise InfeasiblePlanError(
            f"internal: unit sizes ({offset}) disagree with the plan ({n})")

    rng = np.random.default_rng(recipe.seed)
    if kind == "random":
        V = rng.standard_normal((n, n))
        if recipe.field == "complex":
            V = V + 1j * rng.standard_normal((n, n))
        U = as_matrix(np.linalg.qr(V)[0], "U", recipe)
        space = ScalarProductSpace(
            _star(U, recipe.star, recipe.field) @ H0 @ U, **kw)
    else:
        if kind == "signature":
            M0 = _inertia_carrier(H0, eps1, recipe.star, recipe.field)
            p = (n + 1) // 2 if M0 is None else _positives(M0)
            space = ScalarProductSpace.signature([1] * p + [-1] * (n - p), **kw)
        U = as_matrix(_congruence_transform(H0, space.H, recipe.star, eps1,
                                            recipe.field), "U", recipe)
        err = np.linalg.norm(
            _star(U, recipe.star, recipe.field) @ H0 @ U - space.H)
        if err > 1e-8 * max(1.0, frob(H0)):
            raise InfeasiblePlanError(
                f"internal: congruence onto the preset failed (residual {err:.3e})")

    G = as_matrix(_random_automorphism(space, recipe, eps1, rng), "G", recipe)
    UG = U @ G
    A = as_matrix(np.linalg.solve(UG, A0 @ UG), "A", recipe)
    # one solve for every chain: UG is factored once
    values, blocks = zip(*chains)
    moved_blocks = np.hsplit(np.linalg.solve(UG, np.hstack(blocks)),
                             np.cumsum([X.shape[1] for X in blocks])[:-1])

    pairs = []
    for lam, X in zip(values, moved_blocks):
        X = X / np.linalg.norm(X[:, 0])
        pairs.append(JordanPair(value=lam, chain=X))
    return GeneratedInstance(A=A, space=space, cls=recipe.cls,
                             pairs=tuple(pairs), recipe=recipe)
