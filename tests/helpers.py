"""Shared construction helpers and independent oracles for the test suite.

The oracles here deliberately avoid the library's solution formulas:
structured members come from the defining symmetry of H*A, the minimum-norm
structured interpolant from a vectorized real-linear least-squares solve,
and spectra from numpy's dense eigensolver.
"""

import numpy as np

from specpreserve import (
    ScalarProductSpace,
    StructureClass,
    pairing_partner,
    sample_structured,
)
from specpreserve.spectral import _form_star

# consistent (field, star, eps1) triples; real spaces are transpose-only
FIELD_STAR_EPS1 = [
    ("complex", "CT", 1),
    ("complex", "CT", -1),
    ("complex", "T", 1),
    ("complex", "T", -1),
    ("real", "T", 1),
    ("real", "T", -1),
]

CLASSES = [StructureClass.JORDAN, StructureClass.LIE]


def random_unitary(n, rng, field="complex"):
    M = rng.standard_normal((n, n))
    if field == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(M)
    return Q


def flip_matrix(n):
    m = n // 2
    H = np.zeros((n, n))
    H[:m, m:] = np.eye(m)
    H[m:, :m] = np.eye(m)
    return H


def skewj_matrix(n):
    m = n // 2
    H = np.zeros((n, n))
    H[:m, m:] = np.eye(m)
    H[m:, :m] = -np.eye(m)
    return H


def random_structured_unitary(n, star, eps1, field, rng):
    """Random unitary H with H* = eps1 H under the given star flavor."""
    base = np.eye(n) if eps1 == 1 else skewj_matrix(n)
    V = random_unitary(n, rng, field)
    Vs = V.T if (star == "T" and field == "complex") else V.conj().T
    return Vs @ base @ V


def make_space(n, star, eps1, field, preset, rng, structure_tol=1e-8):
    """One scalar-product space; returns None for inconsistent requests."""
    if eps1 == 1:
        if preset == "identity":
            H = np.eye(n)
        elif preset == "flip":
            if n % 2:
                return None
            H = flip_matrix(n)
        elif preset == "signature":
            H = np.diag([(-1.0) ** k for k in range(n)])
        elif preset == "random":
            H = random_structured_unitary(n, star, eps1, field, rng)
        else:
            return None
    else:
        if preset == "skewj":
            if n % 2:
                return None
            H = skewj_matrix(n)
        elif preset == "random":
            if n % 2:
                return None
            H = random_structured_unitary(n, star, eps1, field, rng)
        else:
            return None
    return ScalarProductSpace(H, star=star, field=field, structure_tol=structure_tol)


def space_catalog(n, rng, presets=("identity", "flip", "skewj", "random"),
                  structure_tol=1e-8):
    """Every consistent (space, class) combination at dimension n."""
    out = []
    for field, star, eps1 in FIELD_STAR_EPS1:
        for preset in presets:
            space = make_space(n, star, eps1, field, preset, rng, structure_tol)
            if space is None:
                continue
            for cls in CLASSES:
                out.append((space, cls, f"{field}-{star}-e{eps1:+d}-{preset}-{cls.name}"))
    return out


def random_member(space, cls, seed, scale=1.0):
    """Random member of the algebra: H^-1 K with K carrying the defining
    symmetry of H*A."""
    K = sample_structured(space, cls, seed, scale=scale)
    A = np.linalg.solve(space.H, K)
    if space.field == "real":
        A = A.real.astype(complex)
    return A


def _star(space, M):
    return M.T if space.star == "T" and space.field == "complex" else M.conj().T


def compatible_restriction(X, space, cls, rng):
    """L with ``W = X* H X L`` satisfying ``W = e1 e2 W*``: L = G^-1 K with
    K carrying that symmetry exactly."""
    s = space.epsilon1 * cls.epsilon2
    G = _star(space, X) @ space.H @ X
    M = rng.standard_normal(G.shape)
    if np.iscomplexobj(X) or space.field == "complex":
        M = M + 1j * rng.standard_normal(G.shape)
    return np.linalg.solve(G, (M + s * _star(space, M)) / 2)


def closed_split(A, space, cls):
    """Eigenvectors of A split into a part closed under the pairing
    ``lambda -> e2 lambda*`` (repeated values included) and the rest."""
    w, V = np.linalg.eig(A)
    band = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    sel = {0}
    while True:
        orbit = [w[i] for i in sel] + [
            pairing_partner(w[i], cls, _form_star(space)) for i in sel]
        grown = {j for j in range(len(w))
                 if min(abs(w[j] - v) for v in orbit) <= band}
        if grown <= sel:
            break
        sel |= grown
    sel = sorted(sel)
    rest = [j for j in range(len(w)) if j not in sel]
    assert rest, "the pairing orbit took the whole spectrum"
    return V[:, sel], V[:, rest], np.diag(w[rest])


def random_full_rank(n, p, rng, field="complex"):
    X = rng.standard_normal((n, p))
    if field == "complex":
        X = X + 1j * rng.standard_normal((n, p))
    return X


# ---------------------------------------------------------------------------
# vectorized least-squares oracle for the structured interpolation problem
# ---------------------------------------------------------------------------

def _real_stack(M):
    return np.vstack([M.real, M.imag])


def _complex_mult_matrix(fn, n):
    """Real 2n^2 x 2n^2 matrix of the real-linear map vec(A) -> vec(fn(A))."""
    cols = []
    for j in range(n * n):
        for part in (1.0, 1j):
            E = np.zeros(n * n, dtype=complex)
            E[j] = part
            out = fn(E.reshape(n, n))
            cols.append(_real_stack(out.reshape(-1, 1)).reshape(-1))
    return np.array(cols).T


def structured_lstsq_oracle(X, B, space, cls):
    """Minimum-Frobenius-norm A with A X = B and A in the algebra, solved as
    a real-linear least-squares problem over vec(A)."""
    n = space.n
    X = np.asarray(X, dtype=complex)
    B = np.asarray(B, dtype=complex)
    cls = StructureClass.parse(cls)

    interp = _complex_mult_matrix(lambda A: A @ X, n)
    sym = _complex_mult_matrix(
        lambda A: np.linalg.solve(space.H, space.star_mat(A) @ space.H)
        - cls.epsilon2 * A, n)
    C = np.vstack([interp, sym])
    d = np.concatenate([
        _real_stack(B.reshape(-1, 1)).reshape(-1),
        np.zeros(sym.shape[0]),
    ])
    # min-norm solution of the (consistent) constraint system
    a, *_ = np.linalg.lstsq(C, d, rcond=1e-12)
    re, im = a[0::2], a[1::2]
    A = (re + 1j * im).reshape(n, n)
    # lstsq least-squares residual must vanish for feasible instances
    resid = np.linalg.norm(C @ a - d)
    return A, resid


def paired_split(w, space, cls, count, tol=1e-8):
    """Indices of `count` eigenvalues closed under the pairing
    ``lambda -> e2 lambda*`` (None when no such subset leads with the
    smallest families)."""
    cls = StructureClass.parse(cls)
    w = np.asarray(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    unused = list(range(len(w)))
    families = []
    while unused:
        i = unused.pop(0)
        fam = [i]
        partner = pairing_partner(w[i], cls, _form_star(space))
        if abs(partner - w[i]) > tol * scale:
            js = [j for j in unused if abs(w[j] - partner) <= tol * scale]
            if not js:
                return None
            j = js[0]
            unused.remove(j)
            fam.append(j)
        families.append(fam)
    chosen = []
    for fam in families:
        if len(chosen) + len(fam) <= count:
            chosen.extend(fam)
        if len(chosen) == count:
            return chosen
    return None


def paired_targets(w_sel, space, cls, rng, spread=0.5, tol=1e-8):
    """Targets for the selected eigenvalues, closed under the pairing.

    Self-paired values move along their own symmetry axis (real for the
    Jordan algebra under the sesquilinear form, imaginary for the Lie one),
    couples move together.
    """
    cls = StructureClass.parse(cls)
    w_sel = np.asarray(w_sel, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(w_sel))))
    targets = np.zeros_like(w_sel)
    done = np.zeros(len(w_sel), dtype=bool)
    for i in range(len(w_sel)):
        if done[i]:
            continue
        partner = pairing_partner(w_sel[i], cls, _form_star(space))
        if abs(partner - w_sel[i]) <= tol * scale:
            t = w_sel[i] + spread * rng.standard_normal()
            if abs(pairing_partner(t, cls, _form_star(space)) - t) > tol * scale:
                # move along the admissible axis instead
                if cls is StructureClass.JORDAN:
                    t = complex(w_sel[i].real + spread * rng.standard_normal(),
                                w_sel[i].imag)
                else:
                    t = complex(w_sel[i].real,
                                w_sel[i].imag + spread * rng.standard_normal())
            targets[i] = t
            done[i] = True
            continue
        js = [j for j in range(len(w_sel))
              if not done[j] and j != i and abs(w_sel[j] - partner) <= tol * scale]
        assert js, "selection is not closed under pairing"
        j = js[0]
        t = w_sel[i] + spread * (rng.standard_normal() + 1j * rng.standard_normal())
        targets[i] = t
        targets[j] = pairing_partner(t, cls, _form_star(space))
        done[i] = done[j] = True
    return targets


def gram_zero_blocks(pairs, space, cls, gap_tol=1e-6):
    """The blocks (j, k) of the chains' Gram matrix ``X* H X`` the pairing
    forces to vanish, as the partner of pair j is no eigenvalue of pair k
    (Mackey, Mackey & Tisseur 2006), and their largest Frobenius norm."""
    star = space.star if space.field == "complex" else "CT"
    scale = max(1.0, max(abs(p.value) for p in pairs))
    zeros, deviation = set(), 0.0
    for j, p in enumerate(pairs):
        partner = pairing_partner(p.value, cls, star)
        for k, q in enumerate(pairs):
            if abs(partner - q.value) > gap_tol * scale:
                zeros.add((j, k))
                block = space.star_mat(p.chain) @ space.H @ q.chain
                deviation = max(deviation, float(np.linalg.norm(block)))
    return zeros, deviation


def spectra_match(A, B, tol=1e-8):
    """Independent multiset eigenvalue comparison via sorted matching."""
    ea = np.sort_complex(np.linalg.eigvals(np.asarray(A, dtype=complex)))
    eb = np.sort_complex(np.linalg.eigvals(np.asarray(B, dtype=complex)))
    if ea.shape != eb.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(ea))) if ea.size else 1.0)
    # sorted complex comparison can mispair near-ties; fall back to greedy
    remaining = list(eb)
    for a in ea:
        dists = [abs(a - b) for b in remaining]
        k = int(np.argmin(dists))
        if dists[k] > tol * scale:
            return False
        remaining.pop(k)
    return True


def lapack_spy(monkeypatch, shapes=None):
    """Record (routine, dtype) of every dense eig/eigvals/eigvalsh/svd/
    solve/qr/inv call, and (routine, shape) into shapes when given."""
    seen = []
    for name in ("eig", "eigvals", "eigvalsh", "svd", "solve", "qr", "inv"):
        def spy(a, *args, _orig=getattr(np.linalg, name), _name=name, **kw):
            seen.append((_name, np.asarray(a).dtype))
            if shapes is not None:
                shapes.append((_name, np.shape(a)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
    return seen
