"""The factored structured-solve kernel against the dense formulas it
evaluates, the exact H^-1 of signed and phased permutations, the H^-1 of a
dense H formed once per space, and the size of every solve the
unparametrized updates run."""

import os

import numpy as np
import pytest
import scipy.linalg

import helpers
from specpreserve import (
    ReassignmentAssembly,
    ScalarProductSpace,
    StructureClass,
    adjoint,
    map_family,
    matio,
    reassign_family,
    sample_structured,
)
from specpreserve.subspaces import preserve_complementary, reproduce_invariant

N = 6
PRESETS = ("identity", "flip", "skewj", "signature", "random")


def _catalog():
    rng = np.random.default_rng(3031)
    out = []
    for field, star, eps1 in helpers.FIELD_STAR_EPS1:
        for preset in PRESETS:
            space = helpers.make_space(N, star, eps1, field, preset, rng)
            if space is None:
                continue
            for cls in helpers.CLASSES:
                # real spaces also act on complex (eigenvector) data
                for data in ("real", "complex") if field == "real" else (field,):
                    out.append(pytest.param(
                        space, cls, data == "complex",
                        id=f"{field}-{star}-e{eps1:+d}-{preset}-{cls.name}"
                           f"-{data}-data"))
    return out


CATALOG = _catalog()


# ---------------------------------------------------------------------------
# the dense formulas of the docstrings, with H^-1 as np.linalg.solve
# ---------------------------------------------------------------------------

def _st(space, M):
    if space.star == "T" and space.field == "complex":
        return M.T
    return M.conj().T


def _dense_z_term(X, Xd, Z, space):
    P = np.eye(space.n) - X @ Xd
    return np.linalg.solve(space.H, _st(space, P) @ Z @ P)


def _dense_family(X, B, space, cls, Z=None, Xd=None):
    """``B X^+ + e1 e2 H^-1 [(H B X^+)* - (X^+)* (X* H B)* X^+]
    + H^-1 P* Z P`` (mapping)."""
    H = space.H
    Xd = np.linalg.pinv(X) if Xd is None else Xd
    s = space.epsilon1 * cls.epsilon2
    inner = (_st(space, H @ B @ Xd)
             - _st(space, Xd) @ _st(space, _st(space, X) @ H @ B) @ Xd)
    A = B @ Xd + s * np.linalg.solve(H, inner)
    if Z is not None:
        A = A + _dense_z_term(X, Xd, Z, space)
    return A


def _dense_reassign(X, D, space, cls, Z=None):
    """``X D X^+ + e2 H^-1 (X^+)* D* X* H - H^-1 (X^+)* X* H X D X^+
    + H^-1 P* Z P`` (reassign)."""
    H = space.H
    Xd = np.linalg.pinv(X)
    st = lambda M: _st(space, M)  # noqa: E731
    delta = (X @ D @ Xd
             + cls.epsilon2 * np.linalg.solve(H, st(Xd) @ st(D) @ st(X) @ H)
             - np.linalg.solve(H, st(Xd) @ st(X) @ H @ X @ D @ Xd))
    if Z is not None:
        delta = delta + _dense_z_term(X, Xd, Z, space)
    return delta


# ---------------------------------------------------------------------------
# inputs that meet the solvability conditions up to rounding
# ---------------------------------------------------------------------------

def _data(shape, rng, complex_data):
    M = rng.standard_normal(shape)
    if complex_data:
        M = M + 1j * rng.standard_normal(shape)
    return M


def _compatible(X, space, cls, rng):
    """L with ``W = X* H X L`` satisfying ``W = e1 e2 W*``: L = G^-1 K with
    K carrying that symmetry exactly."""
    s = space.epsilon1 * cls.epsilon2
    G = _st(space, X) @ space.H @ X
    M = _data(G.shape, rng, np.iscomplexobj(X) or space.field == "complex")
    return np.linalg.solve(G, (M + s * _st(space, M)) / 2)


def _closed_split(A, space, cls):
    """Eigenvectors of A split into a part closed under the pairing
    ``lambda -> e2 lambda*`` (repeated values included) and the rest."""
    w, V = np.linalg.eig(A)
    band = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    sel = {0}
    while True:
        orbit = [w[i] for i in sel] + [
            cls.epsilon2 * space.star_scalar(w[i]) for i in sel]
        grown = {j for j in range(len(w))
                 if min(abs(w[j] - v) for v in orbit) <= band}
        if grown <= sel:
            break
        sel |= grown
    sel = sorted(sel)
    rest = [j for j in range(len(w)) if j not in sel]
    assert rest, "the pairing orbit took the whole spectrum"
    return V[:, sel], V[:, rest], np.diag(w[rest])


def _assert_close(got, ref):
    assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("space,cls,complex_data", CATALOG)
def test_kernel_matches_dense_formulas(space, cls, complex_data):
    rng = np.random.default_rng(91)
    p = 2
    S = helpers.random_member(space, cls, seed=5)
    Z = sample_structured(space, cls, seed=6)

    X = _data((N, p), rng, complex_data)
    B = S @ X
    fam = map_family(X, B, space, cls)
    _assert_close(fam.family_base, _dense_family(X, B, space, cls))
    _assert_close(fam.with_z(Z), _dense_family(X, B, space, cls, Z))
    np.testing.assert_allclose(fam.projector, np.eye(N) - X @ np.linalg.pinv(X),
                               atol=1e-12)

    D = _compatible(X, space, cls, rng)
    asm = ReassignmentAssembly(X_c=X.astype(complex),
                               Lambda_c=np.zeros((p, p), dtype=complex),
                               Lambda_a=D.astype(complex), arrangement="test",
                               blocks=())
    for z in (None, Z):
        got = reassign_family(S, asm, space, cls, Z=z, verify=False).delta
        _assert_close(got, _dense_reassign(X, D, space, cls, z))

    La = _compatible(X, space, cls, rng)
    _assert_close(reproduce_invariant(S, X, La, space, cls),
                  _dense_family(X, X @ La - S @ X, space, cls))

    X_c, X_f, L_f = _closed_split(S, space, cls)
    La = _compatible(X_c, space, cls, rng)
    Xs = np.hstack([X_c, X_f])
    B = np.hstack([X_c @ La - S @ X_c, np.zeros_like(X_f)])
    _assert_close(preserve_complementary(S, X_c, La, X_f, L_f, space, cls),
                  _dense_family(Xs, B, space, cls, Xd=np.linalg.inv(Xs)))


# ---------------------------------------------------------------------------
# H^-1: exact on signed and phased permutations, an inverse formed once
# per space otherwise
# ---------------------------------------------------------------------------

def _job_space(jobs_dir, name):
    if name == "printed-random":
        # a dense skew-Hermitian unitary H printed at 5 decimals
        H = helpers.random_structured_unitary(
            6, "CT", -1, "complex", np.random.default_rng(5))
        return ScalarProductSpace(np.round(H, 5), star="ct", structure_tol=1e-3)
    H = matio.load_matrix(os.path.join(jobs_dir, name, "H.json"))
    if name == "jordan5":
        return ScalarProductSpace(H, star="t", field="real", structure_tol=1e-3)
    return ScalarProductSpace(H, star="ct")


MONOMIAL = {
    "identity": lambda: ScalarProductSpace.identity(6),
    "flip-t": lambda: ScalarProductSpace.flip(6, star="t"),
    "skewj-real": lambda: ScalarProductSpace.skewj(6, field="real"),
    "signature": lambda: ScalarProductSpace.signature([1, -1, 1, 1, -1, -1]),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL) + ["lie4"])
def test_h_solve_is_exact_on_monomial_h(name, jobs_dir, rng):
    space = _job_space(jobs_dir, "lie4") if name == "lie4" else MONOMIAL[name]()
    B = rng.standard_normal((space.n, 3)) + 1j * rng.standard_normal((space.n, 3))
    np.testing.assert_array_equal(space.h_solve(B), space.H.conj().T @ B)
    np.testing.assert_array_equal(space.h_apply(B), space.H @ B)
    np.testing.assert_array_equal(space.h_solve(B[:, 0]),
                                  space.H.conj().T @ B[:, 0])


@pytest.mark.parametrize("name", ["jordan5", "lie4", "printed-random"])
def test_h_solve_agrees_with_dense_solve(name, jobs_dir, rng):
    space = _job_space(jobs_dir, name)
    for B in (rng.standard_normal((space.n, 3)),
              rng.standard_normal((space.n, 3))
              + 1j * rng.standard_normal((space.n, 3))):
        ref = np.linalg.solve(space.H.astype(complex), B)
        got = space.h_solve(B)
        # the field is kept: real in gives real out, complex in complex out
        assert got.dtype == (np.complex128 if np.iscomplexobj(B)
                             or np.iscomplexobj(space.H) else np.float64)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    if name != "lie4":
        # H is printed at 5 decimals: H^H is not its inverse at that scale
        assert np.linalg.norm(space.H.conj().T @ B - ref) > 1e-7 * np.linalg.norm(ref)


_U = np.finfo(float).eps / 2


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("field,star,eps1", [
    ("real", "T", 1), ("real", "T", -1), ("complex", "CT", 1),
    ("complex", "T", -1)])
def test_h_solve_on_random_dense_h_agrees_with_solve(field, star, eps1, n,
                                                     rng):
    # the product with the inverse is as accurate as the LU solve: kappa(H)
    # = 1, so three steps of refinement give a reference accurate to about
    # u.  On a skew H (eps1 = -1) pivoting leaves both about 1e-14 from it
    # at n = 256, so they agree to the forward-error scale 2 n u, not to u
    space = helpers.make_space(n, star, eps1, field, "random", rng)
    H = np.asarray(space.H)
    for B in (rng.standard_normal((n, 5)),
              rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5)),
              rng.standard_normal(n)):
        Hb = H.astype(complex) if np.iscomplexobj(B) else H
        ref = np.linalg.solve(Hb, B)
        x = ref
        for _ in range(3):
            x = x + np.linalg.solve(Hb, B - Hb @ x)
        got = space.h_solve(B)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        err = lambda y: np.linalg.norm(y - x) / np.linalg.norm(x)
        assert err(got) <= 2 * err(ref) + 4 * _U
        assert np.linalg.norm(got - ref) <= 2 * n * _U * np.linalg.norm(ref)


def test_dense_h_is_inverted_once_per_space(monkeypatch, rng):
    space = helpers.make_space(12, "CT", 1, "complex", "random", rng)
    other = helpers.make_space(12, "CT", 1, "complex", "random",
                              np.random.default_rng(0))
    calls = {"inv": [], "solve": []}
    for name in calls:
        def spy(a, *args, _orig=getattr(np.linalg, name), _name=name):
            calls[_name].append(np.shape(a))
            return _orig(a, *args)
        monkeypatch.setattr(np.linalg, name, spy)
    A = rng.standard_normal((12, 12))
    for _ in range(3):
        space.h_solve(rng.standard_normal((12, 2)))
        adjoint(A, space)
        space.h_apply(A)
    assert calls == {"inv": [(12, 12)], "solve": []}
    # another space inverts its own H, once
    adjoint(A, other)
    adjoint(A, other)
    assert calls == {"inv": [(12, 12)] * 2, "solve": []}


# ---------------------------------------------------------------------------
# solve sizes without a Z term
# ---------------------------------------------------------------------------

def _solve_spy(monkeypatch, space):
    seen = {"h_solve": [], "lu_solve": [], "lu_factor_h": 0, "inv_h": 0,
            "dense": []}
    orig_h_solve = ScalarProductSpace.h_solve

    def h_solve(self, B):
        seen["h_solve"].append(np.shape(B))
        return orig_h_solve(self, B)

    def lu_factor(a, *args, _orig=scipy.linalg.lu_factor, **kw):
        if np.shape(a) == space.H.shape and np.array_equal(a, space.H):
            seen["lu_factor_h"] += 1
        return _orig(a, *args, **kw)

    def lu_solve(lu, b, *args, _orig=scipy.linalg.lu_solve, **kw):
        seen["lu_solve"].append(np.shape(b))
        return _orig(lu, b, *args, **kw)

    for name in ("solve", "inv"):
        def dense(a, *args, _orig=getattr(np.linalg, name), _name=name, **kw):
            if _name == "inv" and np.array_equal(a, space.H):
                seen["inv_h"] += 1
            else:
                seen["dense"].append((_name, np.shape(a)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, dense)
    monkeypatch.setattr(ScalarProductSpace, "h_solve", h_solve)
    monkeypatch.setattr(scipy.linalg, "lu_factor", lu_factor)
    monkeypatch.setattr(scipy.linalg, "lu_solve", lu_solve)
    return seen


@pytest.mark.parametrize("field,star,eps1,preset", [
    ("complex", "CT", 1, "random"),
    ("real", "T", -1, "random"),
    ("complex", "T", 1, "flip"),
])
def test_unparametrized_updates_solve_at_most_2p_columns(monkeypatch, field,
                                                         star, eps1, preset):
    rng = np.random.default_rng(17)
    n = 8
    space = helpers.make_space(n, star, eps1, field, preset, rng)
    cls = StructureClass.JORDAN
    S = helpers.random_member(space, cls, seed=7)
    X = _data((n, 2), rng, field == "complex")
    D = _compatible(X, space, cls, rng)
    asm = ReassignmentAssembly(X_c=X.astype(complex),
                               Lambda_c=np.zeros((2, 2), dtype=complex),
                               Lambda_a=D.astype(complex), arrangement="test",
                               blocks=())
    X_c, X_f, L_f = _closed_split(S, space, cls)
    La = _compatible(X_c, space, cls, rng)

    seen = _solve_spy(monkeypatch, space)
    runs = [
        (2, lambda: map_family(X, S @ X, space, cls).family_base),
        (2, lambda: reassign_family(S, asm, space, cls, verify=False)),
        (2, lambda: reproduce_invariant(S, X, D, space, cls)),
        (X_c.shape[1],
         lambda: preserve_complementary(S, X_c, La, X_f, L_f, space, cls)),
    ]
    for p, run in runs * 2:
        for key in ("h_solve", "lu_solve", "dense"):
            seen[key].clear()
        run()
        assert seen["h_solve"], "the update never applied H^-1"
        assert all(shape[1] <= 2 * p for shape in seen["h_solve"])
        assert all(shape[1] <= 2 * p for shape in seen["lu_solve"])
        assert not [c for c in seen["dense"] if c[0] == "inv" or c[1] == (n, n)]
    # H is inverted once for the space, and not at all when it is monomial;
    # it is never LU-factored
    assert seen["inv_h"] == (0 if preset == "flip" else 1)
    assert seen["lu_factor_h"] == 0
