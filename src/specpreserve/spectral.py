"""Eigenvalue pairing, Jordan chains, Gram-block structure and the ordered
block assemblies feeding the reassignment constructors.

Members of the Jordan/Lie algebra carry a spectrum symmetry: eigenvalues
occur in pairs ``lambda <-> e2 lambda*`` with equal partial multiplicities.
Any set of eigenvalues to be replaced, and the replacement targets, must be
closed under that pairing; real matrices additionally force closure under
conjugation, which splits the real case into quadruples
``{l, conj l, -l, -conj l}``, imaginary pairs and real pairs for the Lie
algebra, and conjugate couples plus real singletons for the Jordan algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    as_matrix,
    frob,
)
from .errors import ArgumentError, StructureError

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
CHAIN_TOL = 1e-6
CHAIN_MATCH_TOL = 1e-2
MAX_EXTRACT_DIM = 64


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
    sesquilinear one."""
    cls = StructureClass.parse(cls)
    key = str(star).strip().lower()
    if key in ("t", "transpose", "bilinear"):
        return cls.epsilon2 * complex(lam)
    return cls.epsilon2 * complex(np.conj(lam))


def _space_partner(lam, space: ScalarProductSpace, cls: StructureClass) -> complex:
    return StructureClass.parse(cls).epsilon2 * space.star_scalar(lam)


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
                         cls: StructureClass, gram=None) -> float:
    """Residual of the key symmetry ``W = e1 e2 W*`` for
    ``W = X_c* H X_c (Lambda_a - Lambda_c)``; the reassignment formulas are
    valid exactly when this holds.  gram may pass ``X_c* H X_c`` when the
    caller has it already."""
    cls = StructureClass.parse(cls)
    if gram is None:
        gram = space.star_mat(assembly.X_c) @ space.H @ assembly.X_c
    W = gram @ (assembly.Lambda_a - assembly.Lambda_c)
    s = space.epsilon1 * cls.epsilon2
    return float(np.linalg.norm(W - s * space.star_mat(W)))


# ---------------------------------------------------------------------------
# pairing closure
# ---------------------------------------------------------------------------

def _snap(lam: complex, band: float) -> complex:
    re, im = lam.real, lam.imag
    if abs(im) <= band:
        im = 0.0
    if abs(re) <= band:
        re = 0.0
    return complex(re, im)


def validate_pairing_closure(spec: ReassignmentSpec, space: ScalarProductSpace,
                             cls: StructureClass, snap_tol: float = SNAP_TOL) -> list:
    """Check that the requested replacement is closed under the pairing
    ``lambda <-> e2 lambda*``.

    Returns a list of violation strings (empty means closed): every
    non-self-paired current needs a partner group with the partner target
    and matching chain lengths, and self-paired currents must map to
    self-paired targets.
    """
    cls = StructureClass.parse(cls)
    band = snap_tol * spec.spectral_scale
    violations = []
    groups = list(spec.groups)
    for i, g in enumerate(groups):
        pc = _space_partner(g.current, space, cls)
        pt = _space_partner(g.target, space, cls)
        if abs(pc - g.current) <= band:
            # self-paired current: the target must be self-paired too
            if abs(pt - g.target) > band:
                violations.append(
                    f"current {g.current:.6g} is self-paired but target "
                    f"{g.target:.6g} is not (partner {pt:.6g})")
            continue
        partners = [h for h in groups if abs(h.current - pc) <= band]
        if not partners:
            violations.append(
                f"current {g.current:.6g} needs partner group at {pc:.6g}")
            continue
        h = partners[0]
        if abs(h.target - pt) > band:
            violations.append(
                f"partner of {g.current:.6g} must target {pt:.6g}, "
                f"got {h.target:.6g}")
        if sorted(h.chain_lengths) != sorted(g.chain_lengths):
            violations.append(
                f"partner groups {g.current:.6g} / {h.current:.6g} have "
                f"different chain lengths {g.chain_lengths} vs {h.chain_lengths}")
    return violations


# ---------------------------------------------------------------------------
# Jordan extraction (desk scale)
# ---------------------------------------------------------------------------

def _nullspace(M, threshold):
    """Orthonormal nullspace basis with an absolute singular-value cutoff."""
    u, s, vh = np.linalg.svd(M)
    r = int(np.count_nonzero(s > threshold))
    return vh[r:].conj().T


def extract_jordan_pairs(A, tol: ToleranceProfile | None = None,
                         cluster_tol: float = 1e-3,
                         max_dim: int = MAX_EXTRACT_DIM) -> list:
    """Compute all Jordan pairs of a desk-scale matrix.

    Eigenvalues come from the Schur form and are clustered at
    ``cluster_tol`` (relative); chains are then built from nullspace
    staircases of ``(A - lambda I)^l``.  A defective eigenvalue with a
    chain of length l scatters by roughly eps^(1/l) in floating point, so
    the default tolerance accommodates chains up to length four or five;
    distinct eigenvalues closer than the tolerance get merged, so keep
    instances well separated relative to it.
    """
    tol = tol or ToleranceProfile()
    A = as_matrix(A, "A")
    n = A.shape[0]
    if A.shape[1] != n:
        raise ArgumentError("A must be square")
    if n > max_dim:
        raise ArgumentError(
            f"Jordan extraction is desk-scale only (n <= {max_dim}), got {n}")
    T, _ = scipy.linalg.schur(A, output="complex")
    eigs = np.diag(T)
    scale = max(1.0, float(np.max(np.abs(eigs))))

    # cluster by connected components at cluster_tol * scale
    order = np.argsort(eigs.real + 1e-9 * eigs.imag, kind="stable")
    clusters = []
    for idx in order:
        placed = False
        for members in clusters:
            if any(abs(eigs[idx] - eigs[m]) <= cluster_tol * scale for m in members):
                members.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])

    centers = [np.mean(eigs[m]) for m in clusters]
    gaps = [abs(centers[i] - centers[j])
            for i in range(len(centers)) for j in range(i + 1, len(centers))]
    if gaps and min(gaps) < 10 * cluster_tol * scale:
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
            if s.size < need or s[need - 1] <= tol.rank_tol * max(1.0, s[0]):
                raise StructureError(
                    "jordan_staircase",
                    f"could not isolate {need} new chain(s) of height {level} "
                    f"for eigenvalue {lam:.6g}")
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
    G = space.star_mat(X) @ space.H @ X
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
            partner = _space_partner(pairs[j].value, space, cls)
            predicted[j, k] = abs(partner - pairs[k].value) > gap_tol * scale
            bj, bk = slices[j], slices[k]
            deviations[j, k] = float(np.linalg.norm(G[bj[0]:bj[1], bk[0]:bk[1]]))
    return GramBlocks(matrix=G, slices=tuple(slices),
                      predicted_zero=predicted, deviations=deviations)


# ---------------------------------------------------------------------------
# assemblies
# ---------------------------------------------------------------------------

def _validate_chains(A, value, chains, chain_tol, label):
    if A is None:
        return
    A = as_matrix(A, "A")
    for X in chains:
        J = jordan_block(value, X.shape[1])
        r = np.linalg.norm(A @ X - X @ J)
        scale = max(frob(A) * frob(X), 1e-300)
        if r / scale > chain_tol:
            raise StructureError(
                "chain_residual",
                f"chain for {label} {value:.6g} fails A X = X J(lambda) "
                f"(relative residual {r / scale:.3e})",
                residual=float(r / scale))


def _block_diag(mats):
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    return scipy.linalg.block_diag(*mats).astype(complex)


def _group_lambda(value, chains):
    return _block_diag([jordan_block(value, X.shape[1]) for X in chains])


def _sorted_chains(group):
    return tuple(sorted(group.chains, key=lambda X: -X.shape[1]))


def _conjugate_merge(rep_chains, conj_chains, match_tol, label):
    """Snap a conjugate partner's chains onto the representative's.

    Chains come sorted by length; each partner chain is scalar-aligned to
    the conjugate of the representative chain before averaging, so an
    eigensolver's arbitrary phase does not corrupt the merge.  A mismatch
    beyond match_tol after alignment means the inputs do not describe
    conjugate chains and is an error.
    """
    if len(rep_chains) != len(conj_chains):
        raise StructureError(
            "conjugate_chains",
            f"{label}: partner group has {len(conj_chains)} chains, "
            f"expected {len(rep_chains)}")
    merged = []
    for X, Y in zip(rep_chains, conj_chains):
        if X.shape != Y.shape:
            raise StructureError(
                "conjugate_chains",
                f"{label}: chain shapes differ ({X.shape} vs {Y.shape})")
        Yc = np.conj(Y)
        c = np.vdot(Yc, X) / max(np.vdot(Yc, Yc).real, 1e-300)
        mismatch = np.linalg.norm(c * Yc - X) / max(np.linalg.norm(X), 1e-300)
        if mismatch > match_tol:
            raise StructureError(
                "conjugate_chains",
                f"{label}: partner chain is not a conjugate of the "
                f"representative chain (relative mismatch {mismatch:.3e})",
                residual=float(mismatch))
        merged.append((X + c * Yc) / 2.0)
    return merged


def _find_group(groups, used, value, band):
    for i, g in enumerate(groups):
        if i in used:
            continue
        if abs(g.current - value) <= band:
            return i
    return None


def assemble_complex(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                     cls: StructureClass, snap_tol: float = SNAP_TOL,
                     chain_tol: float = CHAIN_TOL) -> ReassignmentAssembly:
    """Order the groups for a complex-field reassignment: non-self-paired
    couples first, each as (representative chains, partner chains), then the
    self-paired groups."""
    cls = StructureClass.parse(cls)
    violations = validate_pairing_closure(spec, space, cls, snap_tol)
    if violations:
        raise StructureError(
            "pairing_closure", "; ".join(violations))
    band = snap_tol * spec.spectral_scale
    groups = list(spec.groups)
    used = set()
    couples = []
    selfs = []
    for i, g in enumerate(groups):
        if i in used:
            continue
        pc = _space_partner(g.current, space, cls)
        if abs(pc - g.current) <= band:
            used.add(i)
            selfs.append(g)
            continue
        j = _find_group(groups, used | {i}, pc, band)
        if j is None:
            raise StructureError(
                "pairing_closure", f"missing partner group for {g.current:.6g}")
        used.update((i, j))
        couples.append((g, groups[j]))

    X_parts, Lc_parts, La_parts, blocks = [], [], [], []
    for g, h in couples:
        gc = _sorted_chains(g)
        hc = _sorted_chains(h)
        _validate_chains(A, g.current, gc, chain_tol, "eigenvalue")
        _validate_chains(A, h.current, hc, chain_tol, "partner eigenvalue")
        X_parts.extend(gc)
        X_parts.extend(hc)
        Lc_parts.append(_group_lambda(g.current, gc))
        Lc_parts.append(_group_lambda(h.current, hc))
        La_parts.append(_group_lambda(g.target, gc))
        La_parts.append(_group_lambda(h.target, hc))
        blocks.append(FamilyBlock("couple", g.current, g.target,
                                  g.multiplicity + h.multiplicity))
    for g in selfs:
        gc = _sorted_chains(g)
        _validate_chains(A, g.current, gc, chain_tol, "eigenvalue")
        X_parts.extend(gc)
        Lc_parts.append(_group_lambda(g.current, gc))
        La_parts.append(_group_lambda(g.target, gc))
        blocks.append(FamilyBlock("self", g.current, g.target, g.multiplicity))

    return ReassignmentAssembly(
        X_c=np.hstack(X_parts),
        Lambda_c=_block_diag(Lc_parts),
        Lambda_a=_block_diag(La_parts),
        arrangement="complex",
        blocks=tuple(blocks),
        real_output=False,
        conjugation=None,
    )


def _flip_blocks(sizes):
    """Permutation diag of [[0, I_s], [I_s, 0]] style blocks."""
    mats = []
    for s in sizes:
        F = np.zeros((2 * s, 2 * s))
        F[:s, s:] = np.eye(s)
        F[s:, :s] = np.eye(s)
        mats.append(F)
    return mats


def assemble_real_lie(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                      cls: StructureClass = StructureClass.LIE,
                      snap_tol: float = SNAP_TOL,
                      chain_tol: float = CHAIN_TOL,
                      match_tol: float = CHAIN_MATCH_TOL) -> ReassignmentAssembly:
    """Real Lie-algebra arrangement.

    Nonzero eigenvalues are grouped into quadruples
    ``{l, conj l, -l, -conj l}`` (generic), imaginary pairs ``{l, conj l}``
    and real pairs ``{l, -l}``; targets must fall in the same category and
    follow the family.  Partner chains are snapped to exact conjugates so
    the resulting perturbation is real.
    """
    cls = StructureClass.parse(cls)
    if cls is not StructureClass.LIE:
        raise ArgumentError("assemble_real_lie is for the Lie algebra")
    if space.field != "real":
        raise ArgumentError("assemble_real_lie needs a real-field space")
    band = snap_tol * spec.spectral_scale
    groups = list(spec.groups)
    used = set()
    generic, imag, real = [], [], []

    def classify(lam):
        s = _snap(lam, band)
        if s == 0:
            raise StructureError(
                "zero_eigenvalue",
                "zero eigenvalues cannot be reassigned in the real Lie case")
        if s.imag == 0.0:
            return "real", s
        if s.real == 0.0:
            return "imag", s
        return "generic", s

    for i, g in enumerate(groups):
        if i in used:
            continue
        used.add(i)
        kind, lam = classify(g.current)
        tkind, tgt = classify(g.target)
        if tkind != kind:
            raise StructureError(
                "pairing_closure",
                f"target {g.target:.6g} must stay in the same class "
                f"({kind}) as current {g.current:.6g}")
        if kind == "real":
            j = _find_group(groups, used, -lam, band)
            if j is None:
                raise StructureError(
                    "pairing_closure", f"missing group for {-lam:.6g}")
            used.add(j)
            h = groups[j]
            if abs(h.target + tgt) > band:
                raise StructureError(
                    "pairing_closure",
                    f"group at {-lam:.6g} must target {-tgt:.6g}, got {h.target:.6g}")
            real.append((lam.real, tgt.real, g, h))
        elif kind == "imag":
            j = _find_group(groups, used, np.conj(lam), band)
            if j is None:
                raise StructureError(
                    "pairing_closure", f"missing conjugate group for {lam:.6g}")
            used.add(j)
            h = groups[j]
            if abs(h.target - np.conj(tgt)) > band:
                raise StructureError(
                    "pairing_closure",
                    f"conjugate group must target {np.conj(tgt):.6g}, "
                    f"got {h.target:.6g}")
            imag.append((lam, tgt, g, h))
        else:
            jc = _find_group(groups, used, np.conj(lam), band)
            jm = _find_group(groups, used, -lam, band)
            jmc = _find_group(groups, used, -np.conj(lam), band)
            if jc is None or jm is None or jmc is None:
                raise StructureError(
                    "pairing_closure",
                    f"eigenvalue {lam:.6g} needs the full family "
                    f"{{l, conj l, -l, -conj l}}")
            used.update((jc, jm, jmc))
            hc, hm, hmc = groups[jc], groups[jm], groups[jmc]
            checks = [
                (hc.target, np.conj(tgt), "conjugate"),
                (hm.target, -tgt, "negated"),
                (hmc.target, -np.conj(tgt), "negated conjugate"),
            ]
            for got, want, name in checks:
                if abs(got - want) > band:
                    raise StructureError(
                        "pairing_closure",
                        f"{name} group of {lam:.6g} must target {want:.6g}, "
                        f"got {got:.6g}")
            generic.append((lam, tgt, g, hc, hm, hmc))

    X_parts, Lc_parts, La_parts, blocks, R_parts = [], [], [], [], []

    def emit(value, target, chains):
        X_parts.extend(chains)
        Lc_parts.append(_group_lambda(value, chains))
        La_parts.append(_group_lambda(target, chains))
        return sum(c.shape[1] for c in chains)

    for lam, tgt, g, hc, hm, hmc in generic:
        xr = _conjugate_merge(_sorted_chains(g), _sorted_chains(hc),
                              match_tol, f"quadruple {lam:.6g}")
        xm = _conjugate_merge(_sorted_chains(hm), _sorted_chains(hmc),
                              match_tol, f"quadruple {-lam:.6g}")
        _validate_chains(A, lam, xr, chain_tol, "eigenvalue")
        _validate_chains(A, -lam, xm, chain_tol, "eigenvalue")
        s = emit(lam, tgt, xr)
        emit(np.conj(lam), np.conj(tgt), [np.conj(X) for X in xr])
        emit(-lam, -tgt, xm)
        emit(-np.conj(lam), -np.conj(tgt), [np.conj(X) for X in xm])
        blocks.append(FamilyBlock("generic", lam, tgt, 4 * s))
        R_parts.extend(_flip_blocks([s, s]))
    for lam, tgt, g, h in imag:
        xr = _conjugate_merge(_sorted_chains(g), _sorted_chains(h),
                              match_tol, f"imaginary pair {lam:.6g}")
        _validate_chains(A, lam, xr, chain_tol, "eigenvalue")
        s = emit(lam, tgt, xr)
        emit(np.conj(lam), np.conj(tgt), [np.conj(X) for X in xr])
        blocks.append(FamilyBlock("imag", lam, tgt, 2 * s))
        R_parts.extend(_flip_blocks([s]))
    for lam, tgt, g, h in real:
        xp = [_realify_chain(X, match_tol, f"real eigenvalue {lam:.6g}")
              for X in _sorted_chains(g)]
        xm = [_realify_chain(X, match_tol, f"real eigenvalue {-lam:.6g}")
              for X in _sorted_chains(h)]
        _validate_chains(A, lam, xp, chain_tol, "eigenvalue")
        _validate_chains(A, -lam, xm, chain_tol, "eigenvalue")
        s = emit(lam, tgt, xp)
        s += emit(-lam, -tgt, xm)
        blocks.append(FamilyBlock("real", lam, tgt, s))
        R_parts.append(np.eye(s))

    return ReassignmentAssembly(
        X_c=np.hstack(X_parts),
        Lambda_c=_block_diag(Lc_parts),
        Lambda_a=_block_diag(La_parts),
        arrangement="real-lie",
        blocks=tuple(blocks),
        real_output=True,
        conjugation=_block_diag(R_parts).real,
    )


def _realify_chain(X, match_tol, label):
    """Cast a chain that must be real, erroring on large imaginary parts.

    A unimodular phase is divided out first: eigensolvers are free to
    return a real chain rotated by e^{i theta}.
    """
    flat = X.reshape(-1)
    lead = flat[np.argmax(np.abs(flat))]
    if abs(lead) > 0:
        X = X * (np.conj(lead) / abs(lead))
    imag = float(np.max(np.abs(X.imag)))
    scale = max(1.0, float(np.max(np.abs(X))))
    if imag > match_tol * scale:
        raise StructureError(
            "real_chain",
            f"{label}: chain must be real (max imaginary part {imag:.3e})",
            residual=imag)
    return X.real.astype(complex)


def assemble_real_jordan(A, spec: ReassignmentSpec, space: ScalarProductSpace,
                         cls: StructureClass = StructureClass.JORDAN,
                         snap_tol: float = SNAP_TOL,
                         chain_tol: float = CHAIN_TOL,
                         match_tol: float = CHAIN_MATCH_TOL) -> ReassignmentAssembly:
    """Real Jordan-algebra arrangement: conjugate couples first (chains and
    their exact conjugates), then real eigenvalues with real chains."""
    cls = StructureClass.parse(cls)
    if cls is not StructureClass.JORDAN:
        raise ArgumentError("assemble_real_jordan is for the Jordan algebra")
    if space.field != "real":
        raise ArgumentError("assemble_real_jordan needs a real-field space")
    band = snap_tol * spec.spectral_scale
    groups = list(spec.groups)
    used = set()
    couples, singles = [], []
    for i, g in enumerate(groups):
        if i in used:
            continue
        used.add(i)
        lam = _snap(g.current, band)
        tgt = _snap(g.target, band)
        if lam.imag == 0.0:
            if tgt.imag != 0.0:
                raise StructureError(
                    "pairing_closure",
                    f"real current {lam.real:.6g} must have a real target, "
                    f"got {g.target:.6g}")
            singles.append((lam.real, tgt.real, g))
            continue
        if tgt.imag == 0.0:
            raise StructureError(
                "pairing_closure",
                f"non-real current {lam:.6g} must have a non-real target")
        j = _find_group(groups, used, np.conj(lam), band)
        if j is None:
            raise StructureError(
                "pairing_closure", f"missing conjugate group for {lam:.6g}")
        used.add(j)
        h = groups[j]
        if abs(h.target - np.conj(tgt)) > band:
            raise StructureError(
                "pairing_closure",
                f"conjugate group must target {np.conj(tgt):.6g}, got {h.target:.6g}")
        couples.append((lam, tgt, g, h))

    X_parts, Lc_parts, La_parts, blocks, R_parts = [], [], [], [], []
    for lam, tgt, g, h in couples:
        xr = _conjugate_merge(_sorted_chains(g), _sorted_chains(h),
                              match_tol, f"conjugate couple {lam:.6g}")
        _validate_chains(A, lam, xr, chain_tol, "eigenvalue")
        X_parts.extend(xr)
        X_parts.extend(np.conj(X) for X in xr)
        s = sum(X.shape[1] for X in xr)
        Lc_parts.append(_group_lambda(lam, xr))
        Lc_parts.append(_group_lambda(np.conj(lam), xr))
        La_parts.append(_group_lambda(tgt, xr))
        La_parts.append(_group_lambda(np.conj(tgt), xr))
        blocks.append(FamilyBlock("couple", lam, tgt, 2 * s))
        R_parts.extend(_flip_blocks([s]))
    for lam, tgt, g in singles:
        xr = [_realify_chain(X, match_tol, f"real eigenvalue {lam:.6g}")
              for X in _sorted_chains(g)]
        _validate_chains(A, lam, xr, chain_tol, "eigenvalue")
        X_parts.extend(xr)
        s = sum(X.shape[1] for X in xr)
        Lc_parts.append(_group_lambda(lam, xr))
        La_parts.append(_group_lambda(tgt, xr))
        blocks.append(FamilyBlock("real", lam, tgt, s))
        R_parts.append(np.eye(s))

    return ReassignmentAssembly(
        X_c=np.hstack(X_parts),
        Lambda_c=_block_diag(Lc_parts),
        Lambda_a=_block_diag(La_parts),
        arrangement="real-jordan",
        blocks=tuple(blocks),
        real_output=True,
        conjugation=_block_diag(R_parts).real,
    )
