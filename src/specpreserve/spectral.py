"""Eigenvalue pairing, Jordan chains, Gram-block structure and the ordered
block assemblies feeding the reassignment constructors.

Members of the Jordan/Lie algebra carry a spectrum symmetry: eigenvalues
occur in pairs ``lambda <-> e2 lambda*`` with equal partial multiplicities.
Any set of eigenvalues to be replaced, and the replacement targets, must be
closed under that pairing; real matrices additionally force closure under
conjugation, which splits the real case into quadruples
``{l, conj l, -l, -conj l}``, imaginary pairs and real pairs for the Lie
algebra, and conjugate couples plus real singletons for the Jordan algebra.
One table, ``_ORBITS``, lists these orbit kinds with their members, their
conjugation pattern and the canonical block the instance generator builds
for each (Mackey, Mackey & Tisseur, SIAM J. Matrix Anal. Appl. 27, 2006);
closure validation, the assemblies and the generator all group eigenvalues
through it.
"""

from __future__ import annotations

import collections
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    _check_invariant_pair,
    _decide,
    _normalize_star,
    as_matrix,
    frob,
    gram_matrix,
    z_symmetry_residual,
)
from .errors import ArgumentError, InfeasiblePlanError, StructureError

__all__ = [
    "JordanPair",
    "ReassignmentGroup",
    "ReassignmentSpec",
    "ReassignmentAssembly",
    "FamilyBlock",
    "jordan_block",
    "pairing_partner",
    "validate_pairing_closure",
    "extract_jordan_pairs",
    "gram_blocks",
    "GramBlocks",
    "assemble_complex",
    "assemble_real_lie",
    "assemble_real_jordan",
    "certificate_residual",
]

SNAP_TOL = 1e-8
CHAIN_MATCH_TOL = 1e-2
MAX_EXTRACT_DIM = 64
CLUSTER_TOL = 1e-3


def jordan_block(lam, k: int) -> np.ndarray:
    """Upper Jordan block of size k for eigenvalue lam."""
    J = np.eye(k, dtype=complex) * complex(lam)
    J += np.diag(np.ones(k - 1), 1) if k > 1 else 0.0
    return J


@dataclass(frozen=True)
class JordanPair:
    """Eigenvalue with one Jordan chain: ``A X = X J(value)`` where the
    chain matrix X has the chain length many columns."""

    value: complex
    chain: np.ndarray

    def __post_init__(self):
        chain = as_matrix(self.chain, "chain")
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "value", complex(self.value))

    @property
    def length(self) -> int:
        return self.chain.shape[1]

    def residual(self, A) -> float:
        A = as_matrix(A, "A")
        return float(np.linalg.norm(
            A @ self.chain - self.chain @ jordan_block(self.value, self.length)))


def pairing_partner(lam, cls: StructureClass, star) -> complex:
    """The eigenvalue forced alongside lam by the structure:
    ``e2 * lam`` for the bilinear form, ``e2 * conj(lam)`` for the
    sesquilinear one.  On a real field the orbit of lam also contains the
    conjugates of both (see ``_pairing_orbit``)."""
    cls = StructureClass.parse(cls)
    if _normalize_star(star) == "T":
        return cls.epsilon2 * complex(lam)
    return cls.epsilon2 * complex(np.conj(lam))


def _form_star(space: ScalarProductSpace) -> str:
    """The star the form applies to eigenvalues: complex eigenvector data
    of a real space lives in its sesquilinear complexification."""
    return space.star if space.field == "complex" else "CT"


@dataclass(frozen=True)
class ReassignmentGroup:
    """One eigenvalue to change, its target, and its Jordan chains."""

    current: complex
    target: complex
    chains: tuple

    def __post_init__(self):
        chains = tuple(as_matrix(c, "chain") for c in self.chains)
        if not chains:
            raise ArgumentError("a reassignment group needs at least one chain")
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "current", complex(self.current))
        object.__setattr__(self, "target", complex(self.target))

    @property
    def chain_lengths(self) -> tuple:
        return tuple(c.shape[1] for c in self.chains)

    @property
    def multiplicity(self) -> int:
        return int(sum(self.chain_lengths))


@dataclass(frozen=True)
class ReassignmentSpec:
    """Ordered collection of reassignment groups; must be closed under the
    eigenvalue pairing of the structure before assembly."""

    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))

    @property
    def spectral_scale(self) -> float:
        vals = [abs(g.current) for g in self.groups] + [abs(g.target) for g in self.groups]
        return max([1.0] + vals)


@dataclass(frozen=True)
class FamilyBlock:
    """Bookkeeping for one pairing family inside an assembly."""

    kind: str               # "couple" | "self" | "generic" | "imag" | "real"
    current: complex        # representative current eigenvalue
    target: complex         # representative target
    size: int               # number of columns this family contributes


@dataclass(frozen=True)
class ReassignmentAssembly:
    """Validated, ordered aggregation (X_c, Lambda_c, Lambda_a).

    Lambda_c and Lambda_a are block diagonal with identical partitions;
    ``A X_c = X_c Lambda_c``.  real_output records that the downstream
    perturbation must come out real; conjugation holds the permutation R
    with ``conj(X_c) = X_c R`` for real arrangements (None otherwise).
    """

    X_c: np.ndarray
    Lambda_c: np.ndarray
    Lambda_a: np.ndarray
    arrangement: str
    blocks: tuple
    real_output: bool = False
    conjugation: np.ndarray | None = None

    @property
    def width(self) -> int:
        return self.X_c.shape[1]

    @property
    def current_values(self) -> np.ndarray:
        return np.diag(self.Lambda_c)

    @property
    def target_values(self) -> np.ndarray:
        return np.diag(self.Lambda_a)


def certificate_residual(assembly: ReassignmentAssembly, space: ScalarProductSpace,
                         cls: StructureClass) -> float:
    """Residual of the key symmetry ``W = e1 e2 W*`` for
    ``W = X_c* H X_c (Lambda_a - Lambda_c)``; the reassignment formulas are
    valid exactly when this holds."""
    return z_symmetry_residual(
        gram_matrix(assembly.X_c, space) @ (assembly.Lambda_a - assembly.Lambda_c),
        space, cls)


# ---------------------------------------------------------------------------
# pairing orbits
# ---------------------------------------------------------------------------

def _snap(lam: complex, band: float) -> complex:
    re, im = lam.real, lam.imag
    if abs(im) <= band:
        im = 0.0
    if abs(re) <= band:
        re = 0.0
    return complex(re, im)


def _block_diag(*blocks):
    """``scipy.linalg.block_diag`` for 2-D blocks, without loading
    ``scipy.linalg``: the blocks on the diagonal in their result dtype, a
    scalar or 1-D block taken as one row, and no blocks as shape (1, 0)."""
    blocks = [np.atleast_2d(b) for b in blocks or ([],)]
    out = np.zeros(tuple(np.sum([b.shape for b in blocks], axis=0)),
                   dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _sip(k):
    return np.fliplr(np.eye(k))


def _unit_couple(lam, k, eps1, eps2, sesquilinear):
    """Canonical block for a non-self-paired couple (lam, e2 lam*)."""
    J = jordan_block(lam, k)
    S = _sip(k)
    Js = J.conj().T if sesquilinear else J.T
    B = eps2 * S @ Js @ S
    A = _block_diag(J, B)
    H = np.zeros((2 * k, 2 * k), dtype=complex)
    H[:k, k:] = S
    H[k:, :k] = eps1 * S
    mu = pairing_partner(lam, StructureClass(eps2), "CT" if sesquilinear else "T")
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
    A = _block_diag(J, J)
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
    A_p = _block_diag(A_c, np.conj(A_c))
    H_p = _block_diag(H_c, np.conj(H_c))
    up = [(lam, np.vstack([X, np.zeros_like(X)])) for lam, X in chains]
    dn = [(np.conj(lam), np.vstack([np.zeros_like(X), np.conj(X)]))
          for lam, X in chains]
    return _realify(A_p, H_p, up + dn)


def _per_chain(block):
    """Unit builder: one ``block(v, k, eps1, eps2)`` per chain length k."""
    return lambda v, ks, eps1, eps2: [block(v, k, eps1, eps2) for k in ks]


def _twins(part):
    """Unit builder for a self-paired value of a skew bilinear form: equal
    chains come in twins, each pair one doubled block at ``part(v)``."""
    def build(v, ks, eps1, eps2):
        counts = collections.Counter(ks)
        if any(c % 2 for c in counts.values()):
            raise InfeasiblePlanError(f"{v:.6g}: {_ODD_TWINS}")
        return [_unit_self_doubled(part(v), k, eps1)
                for k, c in counts.items() for _ in range(c // 2)]
    return build


_REAL_LIE_ZERO = "zero eigenvalues are not supported in the real Lie case"
_BILINEAR_LIE_SELF = ("the bilinear Lie algebra pairs a value with itself "
                      "only at zero, which has no canonical block")
_REAL_SKEW_COUPLE = ("complex conjugate couples over a real skew form are "
                     "not in the generator catalogue")
_ODD_TWINS = "a skew bilinear form forces even chain multiplicities"


@dataclass(frozen=True)
class _OrbitRow:
    """One kind of pairing orbit.

    members lists the images of the representative l, in emission order:
    0 is l, 1 conj l, 2 the pairing partner p l, 3 conj p l.  On real
    fields conj[i] is the member that is the conjugate of member i: i
    itself for a real member, a later member when member i carries chain
    data whose conjugate is that member's, an earlier one when member i is
    that conjugate.  units holds the canonical unit builders for eps1 = +1
    and -1, ``builder(v, chain_lengths, eps1, eps2)``, or the reason the
    generator has none; reason, when set, says why the library does not
    support the orbit at all.
    """

    kind: str
    members: tuple
    conj: tuple | None = None
    units: tuple = ()
    reason: str | None = None


_SELF_JORDAN = _per_chain(lambda v, k, e1, e2: _unit_self_jordan(v, k, e1))
_SELF_LIE = _per_chain(lambda v, k, e1, e2: _unit_self_lie_sesq(v.imag, k, e1))
_COUPLE_SESQ = _per_chain(lambda v, k, e1, e2: _unit_couple(v, k, e1, e2, True))
_COUPLE_BILINEAR = _per_chain(
    lambda v, k, e1, e2: _unit_couple(v, k, e1, e2, False))
_REAL_JORDAN = _OrbitRow("real", (0,), (0,), (
    _per_chain(lambda v, k, e1, e2: _unit_self_jordan(v.real, k, e1)),
    _twins(lambda v: v.real)))
_REAL_COUPLE = _OrbitRow("couple", (0, 1), (1, 0), (
    # diag(J(l), J(conj l)) is already conjugation-symmetric
    _per_chain(lambda v, k, e1, e2: _realify(*_unit_couple(v, k, e1, 1, True))),
    _REAL_SKEW_COUPLE))
_SESQ_COUPLE = _OrbitRow("couple", (0, 2), units=(_COUPLE_SESQ, _COUPLE_SESQ))

# (field, star, class, shape of l) -> row; the shape is self/couple on the
# complex field and zero/real/imag/generic (after snapping) on the real one
_ORBITS = {
    ("complex", "CT", StructureClass.JORDAN, "self"):
        _OrbitRow("self", (0,), units=(_SELF_JORDAN, _SELF_JORDAN)),
    ("complex", "CT", StructureClass.JORDAN, "couple"): _SESQ_COUPLE,
    ("complex", "T", StructureClass.JORDAN, "self"):
        _OrbitRow("self", (0,), units=(_SELF_JORDAN, _twins(lambda v: v))),
    ("complex", "CT", StructureClass.LIE, "self"):
        _OrbitRow("self", (0,), units=(_SELF_LIE, _SELF_LIE)),
    ("complex", "CT", StructureClass.LIE, "couple"): _SESQ_COUPLE,
    ("complex", "T", StructureClass.LIE, "self"):
        _OrbitRow("self", (0,), units=(_BILINEAR_LIE_SELF, _BILINEAR_LIE_SELF)),
    ("complex", "T", StructureClass.LIE, "couple"):
        _OrbitRow("couple", (0, 2), units=(_COUPLE_BILINEAR, _COUPLE_BILINEAR)),
    ("real", "T", StructureClass.JORDAN, "zero"): _REAL_JORDAN,
    ("real", "T", StructureClass.JORDAN, "real"): _REAL_JORDAN,
    ("real", "T", StructureClass.JORDAN, "imag"): _REAL_COUPLE,
    ("real", "T", StructureClass.JORDAN, "generic"): _REAL_COUPLE,
    ("real", "T", StructureClass.LIE, "zero"):
        _OrbitRow("zero", (0,), (0,), reason=_REAL_LIE_ZERO),
    ("real", "T", StructureClass.LIE, "real"): _OrbitRow("real", (0, 2), (0, 1), (
        _per_chain(lambda v, k, e1, e2: _unit_couple(v.real, k, e1, e2, False)),) * 2),
    ("real", "T", StructureClass.LIE, "imag"): _OrbitRow("imag", (0, 1), (1, 0), (
        _per_chain(lambda v, k, e1, e2: _pair_with_conjugate(
            *_unit_self_lie_sesq(v.imag, k, e1))),) * 2),
    ("real", "T", StructureClass.LIE, "generic"): _OrbitRow(
        "generic", (0, 1, 2, 3), (1, 0, 3, 2), (
            _per_chain(lambda v, k, e1, e2: _pair_with_conjugate(
                *_unit_couple(v, k, e1, e2, True))),) * 2),
}

# assembly block order: couples, then selfs (complex); generic, imag, real
# (real Lie); couples, then reals (real Jordan)
_KIND_ORDER = ("couple", "generic", "imag", "real", "self")
_KIND_WORDS = {"self": "self-paired", "couple": "paired with another value",
               "generic": "neither real nor imaginary", "imag": "imaginary",
               "real": "real", "zero": "zero"}


class _Orbit(NamedTuple):
    row: _OrbitRow
    rep: complex        # the representative: snapped on real fields
    values: tuple       # member values, in emission order
    images: Callable    # z -> the member maps applied to z


def _pairing_orbit(lam, cls, star, field, band=0.0) -> _Orbit:
    """The orbit of lam under ``l -> e2 l*`` and, on a real field, also
    ``l -> conj l``: its table row and member values.

    On a real field lam is snapped (parts within band become exactly 0)
    and the star is the transpose; a real representative is held as a
    float, so its members are computed exactly from it.
    """
    cls = StructureClass.parse(cls)
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ArgumentError(f"eigenvalue {lam} is not finite")
    if field == "real":
        star = "T"
        rep = _snap(lam, band)
        shape = ("zero" if rep == 0 else "real" if rep.imag == 0.0
                 else "imag" if rep.real == 0.0 else "generic")
    else:
        star = _normalize_star(star)
        rep = lam
        self_paired = abs(pairing_partner(lam, cls, star) - lam) <= band
        shape = "self" if self_paired else "couple"
    row = _ORBITS[field, star, cls, shape]
    if row.kind == "real":
        rep = rep.real

    def images(z):
        out = []
        for k in row.members:
            w = pairing_partner(z, cls, star) if k & 2 else z
            out.append(np.conj(w) if k & 1 else w)
        return tuple(out)

    return _Orbit(row, rep, images(rep), images)


def _group_orbits(entries, cls, star, field, band):
    """Collect ``(value, target, chain_lengths)`` entries into orbits.

    Each entry not yet used represents its orbit; every further member
    takes the first unused entry within band of its value, which must
    carry the same map applied to the representative's target (unless the
    targets are None) and the same chain lengths.  Returns
    ``(orbits, violations)``, orbits as ``(orbit, member targets, member
    entry indices)`` in order of their representatives.
    """
    orbits, violations, used = [], [], set()
    for i, (value, target, lengths) in enumerate(entries):
        if i in used:
            continue
        used.add(i)
        orbit = _pairing_orbit(value, cls, star, field, band)
        row = orbit.row
        if row.reason:
            violations.append(f"{value:.6g}: {row.reason}")
            continue
        targets = None
        if target is not None:
            t = _pairing_orbit(target, cls, star, field, band)
            kind = t.row.kind
            # a couple may also move onto a self-paired target
            allowed = (row.kind, "self") if row.kind == "couple" else (row.kind,)
            if t.row.reason or kind not in allowed:
                violations.append(
                    f"current {value:.6g} is {_KIND_WORDS[row.kind]} but "
                    f"target {target:.6g} is {_KIND_WORDS[kind]}")
                continue
            targets = orbit.images(t.rep)
        members = [i]
        for m, want in enumerate(orbit.values[1:], 1):
            j = next((j for j, e in enumerate(entries)
                      if j not in used and abs(e[0] - want) <= band), None)
            if j is None:
                violations.append(
                    f"current {value:.6g} needs partner group at {want:.6g}")
                break
            used.add(j)
            members.append(j)
            _, got, other = entries[j]
            if targets is not None and abs(got - targets[m]) > band:
                violations.append(
                    f"partner of {value:.6g} at {want:.6g} must target "
                    f"{targets[m]:.6g}, got {got:.6g}")
            if sorted(other) != sorted(lengths):
                violations.append(
                    f"partner groups {value:.6g} / {want:.6g} have different "
                    f"chain lengths {tuple(lengths)} vs {tuple(other)}")
        else:
            orbits.append((orbit, targets, members))
    return orbits, violations


def _spec_entries(spec):
    return [(g.current, g.target, g.chain_lengths) for g in spec.groups]


def validate_pairing_closure(spec: ReassignmentSpec, space: ScalarProductSpace,
                             cls: StructureClass) -> list:
    """Check that the requested replacement is closed under the pairing
    ``lambda <-> e2 lambda*``, and on a real space also under conjugation.

    Returns a list of violation strings (empty means closed): every member
    of each orbit needs its own group, carrying the same map of the
    representative's target and matching chain lengths; a target must be
    of its current's orbit kind (a self-paired current needs a self-paired
    target; a couple may also move onto a self-paired target).  Values
    within ``SNAP_TOL`` times the spectral scale count as equal.
    """
    band = SNAP_TOL * spec.spectral_scale
    return _group_orbits(_spec_entries(spec), cls, _form_star(space),
                         space.field, band)[1]


# ---------------------------------------------------------------------------
# Jordan extraction (desk scale)
# ---------------------------------------------------------------------------

def _nullspace(M, threshold):
    """Orthonormal nullspace basis with an absolute singular-value cutoff."""
    u, s, vh = np.linalg.svd(M)
    r = int(np.count_nonzero(s > threshold))
    return vh[r:].conj().T


def extract_jordan_pairs(A, tol: ToleranceProfile | None = None) -> list:
    """Compute all Jordan pairs of a desk-scale matrix.

    Eigenvalues come from ``eigvals`` in complex arithmetic (the diagonal
    of the complex Schur form, which is all this needs) and are clustered at
    ``CLUSTER_TOL`` (relative); chains are then built from nullspace
    staircases of ``(A - lambda I)^l``.  A defective eigenvalue with a
    chain of length l scatters by roughly eps^(1/l) in floating point, so
    the default tolerance accommodates chains up to length four or five;
    distinct eigenvalues closer than the tolerance get merged, so keep
    instances well separated relative to it.  A is limited to
    ``MAX_EXTRACT_DIM`` rows.
    """
    tol = tol or ToleranceProfile()
    A = as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ArgumentError("A must be square")
    if n > MAX_EXTRACT_DIM:
        raise ArgumentError(f"Jordan extraction is desk-scale only "
                            f"(n <= {MAX_EXTRACT_DIM}), got {n}")
    eigs = np.linalg.eigvals(np.asarray(A, dtype=complex))
    scale = max(1.0, float(np.max(np.abs(eigs))))

    # cluster by connected components at CLUSTER_TOL * scale
    order = np.argsort(eigs.real + 1e-9 * eigs.imag, kind="stable")
    clusters = []
    for idx in order:
        placed = False
        for members in clusters:
            if any(abs(eigs[idx] - eigs[m]) <= CLUSTER_TOL * scale for m in members):
                members.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])

    centers = [np.mean(eigs[m]) for m in clusters]
    gaps = [abs(centers[i] - centers[j])
            for i in range(len(centers)) for j in range(i + 1, len(centers))]
    if gaps and min(gaps) < 10 * CLUSTER_TOL * scale:
        warnings.warn(
            f"eigenvalue clusters nearly merge (gap {min(gaps):.3e}); "
            "chain structure decisions may be unreliable", stacklevel=2)

    pairs = []
    for members, lam in zip(clusters, centers):
        m_alg = len(members)
        M = A - lam * np.eye(n)
        nrm = float(np.linalg.norm(M, 2))
        # nullspace dimensions of successive powers; the rank cutoff is
        # scaled by |M|_2^l since the powers themselves are nearly nilpotent
        null_bases = []
        P = np.eye(n, dtype=complex)
        dims = [0]
        while dims[-1] < m_alg:
            P = P @ M
            level = len(dims)
            nb = _nullspace(P, tol.rank_tol * max(nrm ** level, 1e-300))
            if nb.shape[1] <= dims[-1]:
                raise StructureError(
                    "jordan_staircase",
                    f"nullspace staircase stalled for eigenvalue {lam:.6g} "
                    f"(algebraic multiplicity {m_alg}, reached {dims[-1]}); "
                    "the cluster tolerance likely merged distinct eigenvalues")
            null_bases.append(nb)
            dims.append(nb.shape[1])
        q = len(null_bases)
        weyr = [dims[l + 1] - dims[l] for l in range(q)] + [0]

        chains = []          # list of (top_height, generating vector)
        for level in range(q, 0, -1):
            need = weyr[level - 1] - weyr[level]
            if need == 0:
                continue
            # span to avoid: lower nullspace plus this-level vectors of taller chains
            avoid = []
            if level >= 2:
                avoid.append(null_bases[level - 2])
            for h, v in chains:
                w = v
                for _ in range(h - level):
                    w = M @ w
                avoid.append(w.reshape(-1, 1))
            Nl = null_bases[level - 1]
            if avoid:
                Av = np.hstack(avoid)
                Q, _ = np.linalg.qr(Av)
                C = Nl - Q @ (Q.conj().T @ Nl)
            else:
                C = Nl
            u, s, _ = np.linalg.svd(C, full_matrices=False)
            pick = u[:, :need]
            _decide("jordan_staircase", s[need - 1] if s.size >= need else 0.0,
                    tol.rank_tol * max(1.0, np.max(s, initial=0.0)),
                    at_least=True).require(
                f"could not isolate {need} new chain(s) of height {level} "
                f"for eigenvalue {lam:.6g}", None)
            for j in range(need):
                chains.append((level, pick[:, j]))

        for h, v in chains:
            cols = [v]
            for _ in range(h - 1):
                cols.append(M @ cols[-1])
            X = np.column_stack(cols[::-1])
            X = X / np.linalg.norm(X[:, 0])
            pairs.append(JordanPair(value=lam, chain=X))
    return pairs


# ---------------------------------------------------------------------------
# Gram blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramBlocks:
    """Gram matrix of aggregated chains with its predicted zero pattern.

    predicted_zero[j, k] is True when the pairing forces block (j, k) of
    ``X* H X`` to vanish; deviations holds the measured Frobenius norm of
    every block so predictions can be audited.
    """

    matrix: np.ndarray
    slices: tuple
    predicted_zero: np.ndarray
    deviations: np.ndarray

    @property
    def max_predicted_deviation(self) -> float:
        if not self.predicted_zero.any():
            return 0.0
        return float(np.max(self.deviations[self.predicted_zero]))


def gram_blocks(pairs, space: ScalarProductSpace, cls: StructureClass,
                gap_tol: float = 1e-6) -> GramBlocks:
    """Gram matrix ``X* H X`` over a list of Jordan pairs of one structured
    matrix, with the zero pattern the pairing predicts."""
    cls = StructureClass.parse(cls)
    pairs = list(pairs)
    if not pairs:
        raise ArgumentError("need at least one Jordan pair")
    X = np.hstack([p.chain for p in pairs])
    G = gram_matrix(X, space)
    m = len(pairs)
    scale = max(1.0, max(abs(p.value) for p in pairs))
    slices = []
    start = 0
    for p in pairs:
        slices.append((start, start + p.length))
        start += p.length
    predicted = np.zeros((m, m), dtype=bool)
    deviations = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            partner = pairing_partner(pairs[j].value, cls, _form_star(space))
            predicted[j, k] = abs(partner - pairs[k].value) > gap_tol * scale
            bj, bk = slices[j], slices[k]
            deviations[j, k] = float(np.linalg.norm(G[bj[0]:bj[1], bk[0]:bk[1]]))
    return GramBlocks(matrix=G, slices=tuple(slices),
                      predicted_zero=predicted, deviations=deviations)


# ---------------------------------------------------------------------------
# assemblies
# ---------------------------------------------------------------------------

def _group_lambda(value, chains):
    return _block_diag(*[jordan_block(value, X.shape[1]) for X in chains])


def _sorted_chains(group):
    return tuple(sorted(group.chains, key=lambda X: -X.shape[1]))


def _conjugate_merge(rep_chains, conj_chains, label):
    """Snap a conjugate partner's chains onto the representative's.

    Chains come sorted by length, with equal lengths checked by the orbit
    grouping; each partner chain is scalar-aligned to
    the conjugate of the representative chain before averaging, so an
    eigensolver's arbitrary phase does not corrupt the merge.  A mismatch
    beyond CHAIN_MATCH_TOL after alignment means the inputs do not describe
    conjugate chains and is an error.
    """
    merged = []
    for X, Y in zip(rep_chains, conj_chains):
        if X.shape != Y.shape:
            raise StructureError(
                "conjugate_chains",
                f"{label}: chain shapes differ ({X.shape} vs {Y.shape})")
        Yc = np.conj(Y)
        c = np.vdot(Yc, X) / max(np.vdot(Yc, Yc).real, 1e-300)
        mismatch = np.linalg.norm(c * Yc - X) / max(np.linalg.norm(X), 1e-300)
        _decide("conjugate_chains", mismatch, CHAIN_MATCH_TOL).require(
            f"{label}: partner chain is not a conjugate of the representative "
            "chain", "relative mismatch")
        merged.append((X + c * Yc) / 2.0)
    return merged


def _realify_chain(X, label):
    """Cast a chain that must be real, erroring on large imaginary parts.

    A unimodular phase is divided out first: eigensolvers are free to
    return a real chain rotated by e^{i theta}.
    """
    flat = X.reshape(-1)
    lead = flat[np.argmax(np.abs(flat))]
    if abs(lead) > 0:
        X = X * (np.conj(lead) / abs(lead))
    _decide("real_chain", np.max(np.abs(X.imag)),
            CHAIN_MATCH_TOL * max(1.0, float(np.max(np.abs(X))))).require(
        f"{label}: chain must be real", "max imaginary part")
    return np.ascontiguousarray(X.real)


def _assemble(A, spec, space, cls, field, tol):
    """The one assembly body: group the spec into pairing orbits, then
    emit them in block order, each orbit's members in table order with
    their chains longest first, each held to ``tol.eig_tol`` in
    ``A X = X J(lambda)`` when A is given.  Values within ``SNAP_TOL``
    times the spectral scale count as one orbit member.

    On the complex field every member keeps its own group's values and
    chains.  On a real field the values are the table's images of the
    snapped representative and target; a real member's chains are cast
    real, a member with a conjugate partner has the partner's chains merged
    onto its own, and the partner emits their exact conjugates.
    """
    cls = StructureClass.parse(cls)
    A = None if A is None else as_matrix(A, "A", space)
    tol = tol or ToleranceProfile()
    band = SNAP_TOL * spec.spectral_scale
    groups = spec.groups
    orbits, violations = _group_orbits(_spec_entries(spec), cls,
                                       _form_star(space), field, band)
    if violations:
        raise StructureError("pairing_closure", "; ".join(violations))
    orbits.sort(key=lambda o: _KIND_ORDER.index(o[0].row.kind))

    X_parts, Lc_parts, La_parts, blocks, R_parts = [], [], [], [], []
    for orbit, targets, members in orbits:
        kind, conj = orbit.row.kind, orbit.row.conj
        gs = [groups[j] for j in members]
        if conj is None:
            values = [(g.current, g.target) for g in gs]
        else:
            values = list(zip(orbit.values, targets))
        label = f"{kind} orbit of {orbit.rep:.6g}"
        emitted = []
        for i, (g, (value, target)) in enumerate(zip(gs, values)):
            chains = _sorted_chains(g)
            j = i if conj is None else conj[i]
            if j < i:
                chains = [np.conj(X) for X in emitted[j]]
            elif j > i:
                chains = _conjugate_merge(chains, _sorted_chains(gs[j]), label)
            elif conj is not None:
                chains = [_realify_chain(X, label) for X in chains]
            if A is not None and j >= i:
                for X in chains:
                    _check_invariant_pair(
                        A, X, jordan_block(value, X.shape[1]), tol.eig_tol,
                        f"chain for eigenvalue {value:.6g}: A X = X J(lambda)",
                        "chain_residual")
            emitted.append(chains)
            X_parts.extend(chains)
            Lc_parts.append(_group_lambda(value, chains))
            La_parts.append(_group_lambda(target, chains))
        width = sum(X.shape[1] for X in emitted[0])
        blocks.append(FamilyBlock(kind, *values[0], width * len(members)))
        if conj is not None:
            R_parts.append(np.kron(np.eye(len(conj))[list(conj)], np.eye(width)))

    real = field == "real"
    return ReassignmentAssembly(
        X_c=as_matrix(np.hstack(X_parts), "X_c", space),
        Lambda_c=as_matrix(_block_diag(*Lc_parts), "Lambda_c", space),
        Lambda_a=as_matrix(_block_diag(*La_parts), "Lambda_a", space),
        arrangement=f"real-{cls.name.lower()}" if real else "complex",
        blocks=tuple(blocks),
        real_output=real,
        conjugation=_block_diag(*R_parts) if real else None,
    )


def _require_real(fn, space, cls, want):
    cls = StructureClass.parse(cls)
    if cls is not want:
        raise ArgumentError(f"{fn} is for the {want.name.capitalize()} algebra")
    if space.field != "real":
        raise ArgumentError(f"{fn} needs a real-field space")
    return cls


def assemble_complex(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                     cls: StructureClass,
                     tol: ToleranceProfile | None = None) -> ReassignmentAssembly:
    """Order the groups for a complex-field reassignment: non-self-paired
    couples first, each as (representative chains, partner chains), then the
    self-paired groups.  Every group keeps its own values."""
    return _assemble(A, spec, space, cls, "complex", tol)


def assemble_real_lie(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                      cls: StructureClass = StructureClass.LIE,
                      tol: ToleranceProfile | None = None) -> ReassignmentAssembly:
    """Real Lie-algebra arrangement.

    Nonzero eigenvalues are grouped into quadruples
    ``{l, conj l, -l, -conj l}`` (generic), imaginary pairs ``{l, conj l}``
    and real pairs ``{l, -l}``, emitted in that order; targets must fall in
    the same category and follow the family.  Partner chains are snapped
    to exact conjugates so the resulting perturbation is real.
    """
    cls = _require_real("assemble_real_lie", space, cls, StructureClass.LIE)
    return _assemble(A, spec, space, cls, "real", tol)


def assemble_real_jordan(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                         cls: StructureClass = StructureClass.JORDAN,
                         tol: ToleranceProfile | None = None) -> ReassignmentAssembly:
    """Real Jordan-algebra arrangement: conjugate couples first (chains and
    their exact conjugates), then real eigenvalues with real chains."""
    cls = _require_real("assemble_real_jordan", space, cls,
                        StructureClass.JORDAN)
    return _assemble(A, spec, space, cls, "real", tol)
