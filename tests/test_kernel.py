"""The factored structured-solve kernel against the dense formulas it
evaluates, the tiled Z symmetry residual, the exact H^-1 of signed and
phased permutations, the H^-1 of a dense H formed once per space, the size
of every solve the unparametrized updates run, the no-spillover updates and
the Z = 0 reassignment at p = 64 against their closed forms, the order of
the refusals of the complementary update and of a member with a Z, the
seeded probes that judge the fixed pair and the basis of the
complementary update, and the caller's thread that runs every call."""

import functools
import os
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

import helpers
from specpreserve import (
    ArgumentError,
    InstanceRecipe,
    PlanGroup,
    ReassignmentAssembly,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    adjoint,
    assemble,
    generate_instance,
    map_family,
    matio,
    reassign_family,
    reassign_no_spillover,
    sample_structured,
    solve_structured,
    z_symmetry_residual,
)
from specpreserve import core, subspaces
from specpreserve.core import as_matrix, frob
from specpreserve.subspaces import (
    preserve_complementary,
    preserve_invariant,
    reproduce_invariant,
)

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

    D = helpers.compatible_restriction(X, space, cls, rng)
    asm = ReassignmentAssembly(X_c=X.astype(complex),
                               Lambda_c=np.zeros((p, p), dtype=complex),
                               Lambda_a=D.astype(complex), blocks=())
    for z in (None, Z):
        got = reassign_family(S, asm, space, cls, Z=z, verify=False).delta
        _assert_close(got, _dense_reassign(X, D, space, cls, z))

    La = helpers.compatible_restriction(X, space, cls, rng)
    _assert_close(reproduce_invariant(S, X, La, space, cls),
                  _dense_family(X, X @ La - S @ X, space, cls))

    X_c, X_f, L_f = helpers.closed_split(S, space, cls)
    La = helpers.compatible_restriction(X_c, space, cls, rng)
    Xs = np.hstack([X_c, X_f])
    B = np.hstack([X_c @ La - S @ X_c, np.zeros_like(X_f)])
    _assert_close(preserve_complementary(S, X_c, La, X_f, L_f, space, cls),
                  _dense_family(Xs, B, space, cls, Xd=np.linalg.inv(Xs)))


# ---------------------------------------------------------------------------
# the member with a parameter Z, H^-1 Z + L R, against the dense
# ``H^-1 P* Z P`` added to the dense Z = 0 member; Z star-symmetry tested
# on a transposed view, to the bit of the starred difference
# ---------------------------------------------------------------------------

# (field, star, eps1, preset, n, p, complex basis)
Z_MEMBER_CASES = {
    "dense-complex-ct": ("complex", "CT", 1, "random", 24, 3, True),
    "dense-complex-t": ("complex", "T", -1, "random", 24, 3, True),
    "dense-real": ("real", "T", 1, "random", 24, 3, False),
    "identity-real": ("real", "T", 1, "identity", 24, 3, False),
    "identity-complex": ("complex", "CT", 1, "identity", 24, 3, True),
    "skewj-real": ("real", "T", -1, "skewj", 24, 3, False),
    "skewj-complex-t": ("complex", "T", -1, "skewj", 24, 3, True),
    "complex-basis-real-skewj": ("real", "T", -1, "skewj", 24, 3, True),
    "complex-basis-real-dense": ("real", "T", 1, "random", 24, 3, True),
    "complex-basis-real-skewj-wide": ("real", "T", -1, "skewj", 128, 64, True),
    "p0-real": ("real", "T", 1, "identity", 24, 0, False),
    "p0-dense-complex": ("complex", "CT", 1, "random", 24, 0, True),
    "p64-real-skewj": ("real", "T", -1, "skewj", 128, 64, False),
    "p64-dense-complex": ("complex", "CT", 1, "random", 128, 64, True),
}


@pytest.mark.parametrize("cls", helpers.CLASSES, ids=lambda c: c.name)
@pytest.mark.parametrize("case", sorted(Z_MEMBER_CASES))
def test_z_member_matches_the_dense_formula(case, cls):
    field, star, eps1, preset, n, p, complex_basis = Z_MEMBER_CASES[case]
    rng = np.random.default_rng(271)
    space = helpers.make_space(n, star, eps1, field, preset, rng)
    X = _data((n, p), rng, complex_basis)
    B = helpers.random_member(space, cls, seed=5) @ X
    Z = sample_structured(space, cls, seed=6)
    fam = map_family(X, B, space, cls)
    got = fam.with_z(Z)
    ref = _dense_family(X, B, space, cls, Z, Xd=fam.X_pinv)
    assert got.dtype == (np.float64 if field == "real" and not complex_basis
                         else np.complex128)
    # measured at most 0.34 n u |delta| over these cases
    assert np.linalg.norm(got - ref) <= 2 * n * _U * np.linalg.norm(ref)


def _old_z_symmetry_residual(Z, space, cls):
    """``|star(Z) - e1 e2 Z|_F`` from a starred copy, as it was formed."""
    return float(np.linalg.norm(
        space.star_mat(Z) - space.epsilon1 * cls.epsilon2 * Z))


@pytest.mark.parametrize("field,star,eps1", helpers.FIELD_STAR_EPS1)
@pytest.mark.parametrize("cls", helpers.CLASSES, ids=lambda c: c.name)
def test_z_symmetry_residual_is_the_starred_difference_to_the_bit(
        field, star, eps1, cls):
    rng = np.random.default_rng(272)
    space = helpers.make_space(40, star, eps1, field, "random", rng)
    s = space.epsilon1 * cls.epsilon2
    K = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    Zs = [sample_structured(space, cls, seed=8),
          rng.standard_normal((40, 40)), K,
          # a complex Z on a real space is starred with its conjugate
          1j * (K.real - s * K.real.T), np.asfortranarray(K)]
    for Z in Zs:
        Zm = as_matrix(Z, "Z", space)
        assert z_symmetry_residual(Z, space, cls) \
            == _old_z_symmetry_residual(Zm, space, cls)


# Z in every layout: C order, Fortran order and a strided view
Z_LAYOUTS = {
    "c": lambda K: K,
    "fortran": np.asfortranarray,
    "strided": lambda K: np.repeat(np.repeat(K, 2, 0), 3, 1)[::2, ::3],
}


@pytest.mark.parametrize("layout", sorted(Z_LAYOUTS))
@pytest.mark.parametrize("field,star,eps1", helpers.FIELD_STAR_EPS1)
@pytest.mark.parametrize("cls", helpers.CLASSES, ids=lambda c: c.name)
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 127, 128, 129, 300, 513])
def test_z_symmetry_residual_sums_tiles_to_the_starred_difference(
        n, cls, field, star, eps1, layout):
    rng = np.random.default_rng(n)
    space = helpers.make_space(2, star, eps1, field, "random", rng)
    K = rng.standard_normal((n, n))
    if field == "complex":
        K = K + 1j * rng.standard_normal((n, n))
    # a Z near the admissible class: the difference is small against Z
    Z = Z_LAYOUTS[layout](K + space.epsilon1 * cls.epsilon2 * _st(space, K)
                          + 1e-3 * K)
    Zm = as_matrix(Z, "Z", space)
    got = z_symmetry_residual(Z, space, cls)
    ref = _old_z_symmetry_residual(Zm, space, cls)
    if n <= (64 if np.iscomplexobj(Zm) else 128):  # one tile
        assert got == ref
    else:
        assert abs(got - ref) <= n * _U * ref
    for bad in (np.inf, np.nan) if n else ():
        Zb = np.array(Z)
        Zb[n // 2, n // 3] = bad
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(z_symmetry_residual(Zb, space, cls))


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
                seen["dense"].append((_name, np.shape(a))
                                     + tuple(np.shape(b) for b in args))
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
    D = helpers.compatible_restriction(X, space, cls, rng)
    asm = ReassignmentAssembly(X_c=X.astype(complex),
                               Lambda_c=np.zeros((2, 2), dtype=complex),
                               Lambda_a=D.astype(complex), blocks=())
    X_c, X_f, L_f = helpers.closed_split(S, space, cls)
    La = helpers.compatible_restriction(X_c, space, cls, rng)

    seen = _solve_spy(monkeypatch, space)
    # (columns p, whether the update applies H^-1): the family updates apply
    # it to at most 2p columns; the complementary update is the no-spillover
    # formula, which applies no H^-1, and solves with its basis only for the
    # eight probes of the nonsingularity estimate
    runs = [
        (2, True, lambda: map_family(X, S @ X, space, cls).family_base),
        (2, True, lambda: reassign_family(S, asm, space, cls, verify=False)),
        (2, True, lambda: reproduce_invariant(S, X, D, space, cls)),
        (X_c.shape[1], False,
         lambda: preserve_complementary(S, X_c, La, X_f, L_f, space, cls)),
    ]
    for p, family, run in runs * 2:
        for key in ("h_solve", "lu_solve", "dense"):
            seen[key].clear()
        run()
        if family:
            assert seen["h_solve"], "the update never applied H^-1"
            assert all(shape[1] <= 2 * p for shape in seen["h_solve"])
        else:
            assert not seen["h_solve"] and not seen["lu_solve"]
        assert all(shape[1] <= 2 * p for shape in seen["lu_solve"])
        assert [c for c in seen["dense"] if c[0] == "inv" or c[1] == (n, n)] \
            == ([] if family else [("solve", (n, n), (n, 8))])
    # H is inverted once for the space, and not at all when it is monomial;
    # it is never LU-factored
    assert seen["inv_h"] == (0 if preset == "flip" else 1)
    assert seen["lu_factor_h"] == 0


# ---------------------------------------------------------------------------
# the no-spillover updates and the Z = 0 reassignment at p = 64 against the
# closed forms of their docstrings, on the three arrangements of the
# library: real Jordan on H = I, real Lie on skewj and complex Lie on a
# dense H
# ---------------------------------------------------------------------------

# name -> (space kind, field, star, class, the orbit of a value v)
WIDE_ARRANGEMENTS = {
    "real-jordan": ("identity", "real", "T", StructureClass.JORDAN,
                    lambda v: [np.copysign(abs(v), v.real)]),
    "real-lie": ("skewj", "real", "T", StructureClass.LIE,
                 lambda v: [v, v.conjugate(), -v, -v.conjugate()]),
    "complex-lie": ("random", "complex", "CT", StructureClass.LIE,
                    lambda v: [v, -v.conjugate()]),
}


def _wide_case(name, n=128, p=64):
    """An instance of the arrangement with n simple eigenvalues, each orbit
    on its own modulus, and the assembly moving the first p of them by a
    quarter of their modulus; with the fixed pair of the other n - p."""
    kind, field, star, cls, orbit = WIDE_ARRANGEMENTS[name]
    k = len(orbit(1j))
    rng = np.random.default_rng(64)
    # orbit i on the modulus 1 + i / 8, at a seeded angle off both axes
    values = [(-1) ** i * (1 + i / 8) * np.exp(1j * rng.uniform(0.3, 1.2))
              for i in range(n // k)]
    inst = generate_instance(InstanceRecipe(
        kind, cls, field, star,
        tuple(PlanGroup(u, (1,)) for v in values for u in orbit(v)), seed=65))
    moved = [u for v in values[:p // k] for u in orbit(v)]
    near = lambda w: min(abs(w - u) for u in moved) < 1e-9  # noqa: E731
    groups = tuple(ReassignmentGroup(q.value, 1.25 * q.value, (q.chain,))
                   for q in inst.pairs if near(q.value))
    asm = assemble(inst.A, ReassignmentSpec(groups), inst.space, cls)
    rest = [q for q in inst.pairs if not near(q.value)]
    X_f = np.hstack([q.chain for q in rest])
    return inst, asm, X_f, np.diag([q.value for q in rest])


def _dense_no_spillover(X, B, space):
    """``B (X* H X)^-1 X* H`` (reassign, subspaces), with numpy's solve."""
    XsH = _st(space, X) @ space.H
    return B @ np.linalg.solve(XsH @ X, XsH)


@pytest.mark.parametrize("name", sorted(WIDE_ARRANGEMENTS))
def test_wide_updates_match_their_closed_forms(name):
    inst, asm, X_f, L_f = _wide_case(name)
    A, space, cls = inst.A, inst.space, inst.cls
    X, D = asm.X_c, asm.Lambda_a - asm.Lambda_c
    assert X.shape == (128, 64)
    La = np.diag(asm.target_values)
    runs = {
        "reassign_no_spillover": (
            reassign_no_spillover(A, asm, space, cls, verify=False).delta,
            _dense_no_spillover(X, X @ D, space)),
        "reassign_family": (
            reassign_family(A, asm, space, cls, verify=False).delta,
            _dense_reassign(X, D, space, cls)),
        "no_spillover": (
            subspaces.no_spillover(A, X, asm.Lambda_c, asm.Lambda_a, space,
                                   cls),
            _dense_no_spillover(X, X @ D, space)),
        "preserve_complementary": (
            preserve_complementary(A, X, La, X_f, L_f, space, cls),
            _dense_no_spillover(X, X @ La - A @ X, space)),
    }
    for entry, (got, ref) in runs.items():
        # a real arrangement gives a real update; its complex reference
        # carries an imaginary part of the size of the error
        assert got.dtype == (np.float64 if asm.real_output
                             and entry.startswith("reassign") else ref.dtype)
        # measured at most 0.71 n u |delta| for the family on complex Lie,
        # most of it the dense reference's own error, and 0.03 n u |delta|
        # for the no-spillover updates
        assert np.linalg.norm(got - ref) <= 2 * 128 * _U * np.linalg.norm(ref), \
            entry


@pytest.mark.parametrize("name", sorted(WIDE_ARRANGEMENTS))
def test_no_spillover_updates_solve_for_at_most_p_columns(monkeypatch, name):
    # G^-1 is solved for on p x p and then applied to the n columns of X* H
    inst, asm, X_f, L_f = _wide_case(name, n=32, p=8)
    A, space, cls, X = inst.A, inst.space, inst.cls, asm.X_c
    La = np.diag(asm.target_values)
    columns, solve = [], np.linalg.solve

    def spy(a, b):
        columns.append(np.shape(b)[1] if np.ndim(b) == 2 else 1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for run in (
            lambda: reassign_no_spillover(A, asm, space, cls, verify=False),
            lambda: subspaces.no_spillover(A, X, asm.Lambda_c, asm.Lambda_a,
                                           space, cls),
            lambda: preserve_complementary(A, X, La, X_f, L_f, space, cls)):
        columns.clear()
        run()
        assert columns and max(columns) <= 8, columns


# ---------------------------------------------------------------------------
# the refusals of preserve_complementary keep their order: the gap, the Gram
# test, the basis, then X_c* H X_f and the Gram matrix; a refused basis forms
# no update
# ---------------------------------------------------------------------------

def _refusal(call):
    """The condition call refuses with."""
    with pytest.raises(StructureError) as e:
        call()
    return e.value.condition


def test_refusals_keep_their_order():
    n = 128
    space = ScalarProductSpace.identity(n, star="t", field="real")
    A = helpers.random_member(space, "jordan", 25).real
    w, V = np.linalg.eigh(A)
    X_c, X_f, w_f = V[:, :2], V[:, 2:].copy(), w[2:].copy()
    La = np.diag(w[:2] + 1.0)
    # the gap is refused first, though the basis is singular too
    X_f[:, -1], w_f[-1] = X_c[:, 0], w[0]
    assert _refusal(lambda: preserve_complementary(
        A, X_c, La, X_f, np.diag(w_f), space, "jordan")) \
        == "spectral_disjointness"
    X_f, w_f = V[:, 2:].copy(), w[2:]
    X_f[:, -1] *= 1e-13
    assert _refusal(lambda: preserve_complementary(
        A, X_c, La, X_f, np.diag(w_f), space, "jordan")) \
        == "nonsingular_basis"
    dense = helpers.make_space(16, "CT", 1, "complex", "random",
                               np.random.default_rng(128))
    fam = map_family(np.eye(16, 2), np.zeros((16, 2)), dense, "lie")
    bad = np.random.default_rng(5).standard_normal((16, 16))
    assert _refusal(lambda: fam.with_z(bad)) == "z_symmetry"


def _failing_two_ways(case, n=16, repeat=True):
    """Arguments of ``preserve_complementary`` refused as
    ``nonsingular_basis`` that fail a later test as well: A = diag(d) on a
    real space, X_c built from the first columns of I, and X_f the columns
    of I whose values stay off the changed spectrum, with one repeated
    (repeat=False leaves it out, and the basis may be nonsingular)."""
    d = np.arange(1.0, n + 1)
    e = np.eye(n)
    space = ScalarProductSpace.identity(n, star="t", field="real")
    if case == "isotropic X_c":
        # H = flip, Jordan: A = diag(d, d); e_0 is isotropic, G = 0, and
        # its twin e_{n/2} (same value) is left out of the fixed block
        space = ScalarProductSpace.flip(n, star="t", field="real")
        d = np.tile(d[:n // 2], 2)
        X_c = e[:, :1]
    elif case == "ill-conditioned G":
        # G = X_c* X_c has 1-norm condition ~4e8 > COND_WARN, and passes
        # its singular-value bound
        X_c = np.stack([e[0], e[0] + 1e-4 * e[1]], axis=1)
    else:
        X_c = np.stack([e[0], 0 * e[0]], axis=1)
    p = X_c.shape[1]
    fixed = [j for j in range(1, n) if d[j] != d[0]][-(n - p - repeat):]
    fixed += fixed[:1] * repeat
    # a multiple of I_p: compatible with every G
    La = (n + 1.0) * np.eye(p)
    return (np.diag(d), X_c, La, e[:, fixed], np.diag(d[fixed]), space,
            "jordan")


@pytest.mark.parametrize("case", ["isotropic X_c", "ill-conditioned G",
                                  "zero column of X_c"])
def test_a_basis_failing_two_ways_is_refused_as_singular_without_warning(
        monkeypatch, case):
    # the basis is refused first, before the update is formed, and nothing
    # formed ahead of that warns
    formed, form = [], subspaces._no_spillover_update
    monkeypatch.setattr(subspaces, "_no_spillover_update",
                        lambda *a: formed.append(1) or form(*a))
    args = _failing_two_ways(case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _refusal(lambda: preserve_complementary(*args)) \
            == "nonsingular_basis"
    assert not caught, [str(w.message) for w in caught]
    assert formed == []


def test_an_ill_conditioned_gram_on_a_nonsingular_basis_still_warns():
    args = _failing_two_ways("ill-conditioned G", repeat=False)
    with pytest.warns(UserWarning, match="badly conditioned") as caught:
        preserve_complementary(*args)
    assert caught[0].filename == __file__


# ---------------------------------------------------------------------------
# the fixed pair of preserve_complementary judged through eight seeded
# probes: a column of X_f off by ten times eig_tol is refused and one off
# by a tenth passes, whichever the column; at most eight columns give the
# exact residual, and A meets no block of more than eight columns
# ---------------------------------------------------------------------------

# (field, star, eps1, preset, class): H = I, skewj and a dense complex H
PROBED = {
    "real-jordan-identity": ("real", "T", 1, "identity",
                             StructureClass.JORDAN),
    "real-lie-skewj": ("real", "T", -1, "skewj", StructureClass.LIE),
    "complex-lie-random": ("complex", "CT", 1, "random", StructureClass.LIE),
}


def _complementary_case(arrangement, n):
    """The arguments of preserve_complementary on a random member A: a
    closed X_c with a compatible target, and the rest of the eigenvectors
    as the fixed pair."""
    field, star, eps1, preset, cls = PROBED[arrangement]
    rng = np.random.default_rng(n)
    space = helpers.make_space(n, star, eps1, field, preset, rng)
    A = as_matrix(helpers.random_member(space, cls, seed=n), "A", space)
    X_c, X_f, L_f = helpers.closed_split(A, space, cls)
    La = helpers.compatible_restriction(X_c, space, cls, rng)
    return [A, X_c, La, X_f, L_f, space, cls]


def _exact_residual(A, X, L):
    return frob(A @ X - X @ L) / (frob(A) * frob(X))


def _off_by(A, X, L, j, ratio, rng):
    """X with column j moved along a random direction, so that the exact
    relative residual of (X, L) is ratio times the default eig_tol."""
    target = ratio * ToleranceProfile().eig_tol
    d = _data(len(X), rng, np.iscomplexobj(X))
    Y = X.copy()
    Y[:, j] += 1e-3 * d
    # the residual is linear in the step; |Y| barely moves with it
    Y[:, j] = X[:, j] + 1e-3 * target / _exact_residual(A, Y, L) * d
    assert abs(_exact_residual(A, Y, L) / target - 1) < 1e-3
    return Y


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("arrangement", PROBED)
def test_a_fixed_column_ten_times_off_is_refused_and_a_tenth_passes(
        arrangement, n):
    # the check the fixed pair takes, on every column at n = 128 and on 32
    # at n = 256; the call itself on three of them
    args = _complementary_case(arrangement, n)
    A, X_f, L_f = args[0], args[3], args[4]
    rng = np.random.default_rng(n + 1)
    m = X_f.shape[1]
    cols = range(m) if n == 128 else rng.choice(m, 32, replace=False)
    for j in cols:
        for ratio, passed in ((10.0, False), (0.1, True)):
            X = _off_by(A, X_f, L_f, j, ratio, rng)
            outcome = _pair_outcome(A, X, L_f)
            assert outcome == ("invariant_pair_residual", passed), (j, ratio)
            if j in cols[:3]:
                args[3] = X
                assert _complementary_outcome(args) == outcome


def _pair_outcome(A, X, L):
    """(condition, passed) of the fixed pair's check in
    preserve_complementary."""
    try:
        core._check_invariant_pair(A, X, L, ToleranceProfile().eig_tol,
                                   "A X_f = X_f Lambda_f")
    except StructureError as e:
        return e.condition, False
    return "invariant_pair_residual", True


def _complementary_outcome(args):
    try:
        preserve_complementary(*args)
    except StructureError as e:
        assert "A X_f = X_f Lambda_f" in str(e)
        return e.condition, False
    return "invariant_pair_residual", True


@pytest.mark.parametrize("where", ["X_f", "Lambda_f"])
@pytest.mark.parametrize("arrangement", PROBED)
def test_a_nan_in_the_fixed_pair_is_refused(arrangement, where):
    args = _complementary_case(arrangement, 64)
    k = 3 if where == "X_f" else 4
    args[k] = args[k].copy()
    args[k][5, 5] = np.nan
    with pytest.raises(StructureError, match="A X_f = X_f Lambda_f") as e:
        preserve_complementary(*args)
    assert e.value.condition == "invariant_pair_residual"


@pytest.mark.parametrize("arrangement", PROBED)
def test_at_most_eight_columns_give_the_exact_residual(monkeypatch,
                                                       arrangement):
    A, _, _, X_f, L_f, _, _ = _complementary_case(arrangement, 64)
    values, decide = [], core._decide
    monkeypatch.setattr(core, "_decide", lambda condition, value, *a, **k: (
        values.append(value), decide(condition, value, *a, **k))[1])
    for m in range(1, 9):
        X, L = X_f[:, :m], L_f[:m, :m]
        core._check_invariant_pair(A, X, L, 1e-6, "A X = X L")
        exact = frob(core._real_apply(A, X) - X @ L) / (frob(A) * frob(X))
        assert values.pop() == exact, m


@pytest.mark.parametrize("arrangement", PROBED)
def test_a_meets_no_block_of_more_than_eight_columns(monkeypatch,
                                                     arrangement):
    args = _complementary_case(arrangement, 64)
    A, X_c, X_f = args[0], args[1], args[3]
    assert X_c.shape[1] <= 8 < X_f.shape[1]
    widths, apply = [], core._real_apply

    def spy(M, B):
        if np.shares_memory(M, A):
            widths.append(np.shape(B)[1])
        return apply(M, B)

    monkeypatch.setattr(core, "_real_apply", spy)
    monkeypatch.setattr(subspaces, "_real_apply", spy)
    core._check_invariant_pair(A, X_f, args[4], 1e-6, "A X = X L")
    assert widths == [8]
    widths.clear()
    preserve_complementary(*args)
    assert widths and max(widths) <= 8, widths


# ---------------------------------------------------------------------------
# the nonsingularity of [X_c X_f], decided by 1 / (|X|_F |X^-T Omega|_F) on
# the eight seeded probes: a column scaled to ten times past the threshold
# is refused and one ten times inside it passes, whichever the column; an
# exactly singular basis reads 0, a non-finite one is refused, the
# estimate never warns and two calls read the same bits
# ---------------------------------------------------------------------------

@functools.cache
def _basis_case(arrangement, n):
    """``_complementary_case``, built once; copy an array to change it."""
    return tuple(_complementary_case(arrangement, n))


@pytest.fixture
def basis_reads(monkeypatch):
    """Runs preserve_complementary on its arguments: the value its
    nonsingular_basis decision read (None when it refused before) and the
    condition it refused with (None when it passed); the call warns
    nothing."""
    values, decide = [], subspaces._decide

    def spy(condition, value, *args, **kwargs):
        if condition == "nonsingular_basis":
            values.append(value)
        return decide(condition, value, *args, **kwargs)

    monkeypatch.setattr(subspaces, "_decide", spy)

    def read(args):
        values.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                preserve_complementary(*args)
                refused = None
            except StructureError as e:
                refused = e.condition
        assert not caught, [str(w.message) for w in caught]
        return (values.pop() if values else None), refused

    return read


def _estimate(X_c, X_f):
    """The estimate the call takes; it records no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = core._rcond_estimate(np.hstack([X_c, X_f]),
                                     core._probes(len(X_c)))
    assert not caught, [str(w.message) for w in caught]
    return value


def _scaled_column(X_c, X_f, X_inv, j, kappa):
    """X_f with column j scaled so that ``kappa_F([X_c X_f]) = kappa``:
    scaling column k of the basis by s scales row k of its inverse X_inv
    by 1 / s."""
    k = X_c.shape[1] + j
    b, d = frob(X_f[:, j]) ** 2, frob(X_inv[k]) ** 2
    a = frob(X_c) ** 2 + frob(X_f) ** 2 - b
    c = frob(X_inv) ** 2 - d
    # (a + b t)(c + d / t) = kappa^2 for t = s^2: the smaller root
    e = kappa ** 2 - a * c - b * d
    Y = X_f.copy()
    Y[:, j] *= np.sqrt(2 * a * d / (e + np.sqrt(e * e - 4 * a * b * c * d)))
    return Y


RANK_TOL = ToleranceProfile().rank_tol


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("arrangement", PROBED)
def test_a_basis_ten_times_past_the_threshold_is_refused_and_inside_passes(
        basis_reads, arrangement, n):
    # the estimate on every column at n = 128 and on 16 at n = 512; the call
    # itself on three of them
    args = list(_basis_case(arrangement, n))
    X_c, X_f = args[1], args[3]
    X_inv = np.linalg.inv(np.hstack([X_c, X_f]))
    m = X_f.shape[1]
    rng = np.random.default_rng(n + 2)
    cols = range(m) if n == 128 else rng.choice(m, 16, replace=False)
    for i, j in enumerate(cols):
        for ratio, passed in ((0.1, False), (10.0, True)):
            Y = _scaled_column(X_c, X_f, X_inv, j, 1 / (ratio * RANK_TOL))
            value = _estimate(X_c, Y)
            assert (value > RANK_TOL) == passed, (j, ratio, value)
            if i < 3:
                args[3] = Y
                assert basis_reads(args) == (
                    value, None if passed else "nonsingular_basis")
    # the scaling gives the condition number it aims at
    assert np.linalg.cond(np.hstack([X_c, Y]), "fro") == pytest.approx(
        0.1 / RANK_TOL, rel=1e-6)


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("arrangement", PROBED)
def test_a_zero_column_reads_zero_and_a_repeated_one_reads_below_u(
        basis_reads, arrangement, n):
    args = list(_basis_case(arrangement, n))
    X_f, L_f = args[3].copy(), args[4].copy()
    X_f[:, 1], L_f[1, 1] = X_f[:, 0], L_f[0, 0]
    args[3], args[4] = X_f, L_f
    # the LU meets a pivot of the order of rounding, and no exact zero
    value, refused = basis_reads(args)
    assert value <= _U and refused == "nonsingular_basis"
    X_f = X_f.copy()
    X_f[:, 1] = 0
    args[3] = X_f
    assert basis_reads(args) == (0.0, "nonsingular_basis")


@pytest.mark.parametrize("bad", ["nan", "inf", "tiny column", "huge column"])
@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("arrangement", PROBED)
def test_a_non_finite_or_overflowing_basis_is_refused(arrangement, n, bad):
    # NaN in X_f is refused first as a residual (see above), and the
    # estimate refuses it too; the checks ahead of it may warn on such
    # data, the estimate does not
    args = list(_basis_case(arrangement, n))
    X_f = args[3].copy()
    if bad in ("nan", "inf"):
        X_f[5, 5] = float(bad)
    else:
        X_f[:, 1] *= 1e-300 if bad == "tiny column" else 1e300
    args[3] = X_f
    value = _estimate(args[1], X_f)
    assert not value > RANK_TOL
    assert value == 0 or np.isnan(value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(StructureError):
            preserve_complementary(*args)


@pytest.mark.parametrize("n", [128, 512])
@pytest.mark.parametrize("arrangement", PROBED)
def test_two_calls_read_the_same_bits(basis_reads, arrangement, n):
    args = list(_basis_case(arrangement, n))
    X_c, X_f = args[1], args[3]
    X_inv = np.linalg.inv(np.hstack([X_c, X_f]))
    args[3] = _scaled_column(X_c, X_f, X_inv, 3, 1 / RANK_TOL)
    first, second = basis_reads(args), basis_reads(args)
    assert first == second
    assert first[0] == _estimate(X_c, args[3])


# ---------------------------------------------------------------------------
# the calls with a parameter Z refuse the data before Z
# ---------------------------------------------------------------------------

def test_refusals_keep_their_order_beside_h_solve_z():
    n, cls = 16, StructureClass.LIE
    space = helpers.make_space(n, "CT", 1, "complex", "random",
                               np.random.default_rng(3))
    rng = np.random.default_rng(4)
    S = helpers.random_member(space, cls, seed=9)
    X = _data((n, 2), rng, True)
    D = helpers.compatible_restriction(X, space, cls, rng)
    bad_z = _data((n, n), rng, True)
    # infeasible data is refused before the inadmissible Z
    assert _refusal(lambda: solve_structured(
        X, _data((n, 2), rng, True), space, cls, Z=bad_z)) == "feasibility"
    assert _refusal(lambda: reproduce_invariant(
        S, X, D + 1e-3, space, cls, Z=bad_z)) == "lambda_compatibility"
    assert _refusal(lambda: reproduce_invariant(
        S, X, D, space, cls, Z=bad_z)) == "z_symmetry"
    # a wrong-shape Z is refused where the member reads it: after the data
    wrong = np.zeros((n, n - 1))
    assert _refusal(lambda: reproduce_invariant(
        S, X, D + 1e-3, space, cls, Z=wrong)) == "lambda_compatibility"
    for call in (lambda: reproduce_invariant(S, X, D, space, cls, Z=wrong),
                 lambda: solve_structured(X, S @ X, space, cls, Z=wrong)):
        with pytest.raises(ArgumentError, match=f"Z must be {n} x {n}, got "
                           f"{n} x {n - 1}"):
            call()


# ---------------------------------------------------------------------------
# every call runs on its caller's thread: it starts no thread, a call from a
# thread of the caller's gives the bits of one from the main thread, and a
# member with a Z solves H X = Z once
# ---------------------------------------------------------------------------

# (field, star, eps1, preset, class): H = I, skewj and a dense real and
# complex H
ARRANGED = {
    "real-jordan-identity": ("real", "T", 1, "identity",
                             StructureClass.JORDAN),
    "real-lie-skewj": ("real", "T", -1, "skewj", StructureClass.LIE),
    "real-jordan-random": ("real", "T", 1, "random", StructureClass.JORDAN),
    "complex-lie-random": ("complex", "CT", 1, "random", StructureClass.LIE),
}


def _calls(arrangement, n=128):
    """The parameter Z and the calls with an O(n^3) step of their own, on a
    random member S: the complementary update of a closed invariant pair
    with a full-rank basis, and the calls that take Z (a reassignment,
    reproducing range(X) for a basis X, preserving an invariant subspace of
    S, ``A X = S X`` and ``with_z``)."""
    field, star, eps1, preset, cls = ARRANGED[arrangement]
    rng = np.random.default_rng(n)
    space = helpers.make_space(n, star, eps1, field, preset, rng)
    S = helpers.random_member(space, cls, seed=9)
    X = _data((n, 4), rng, field == "complex")
    D = helpers.compatible_restriction(X, space, cls, rng)
    asm = ReassignmentAssembly(X_c=X.astype(complex),
                               Lambda_c=np.zeros((4, 4), dtype=complex),
                               Lambda_a=D.astype(complex), blocks=())
    X_c, X_f, L_f = helpers.closed_split(S, space, cls)
    L_c = np.linalg.pinv(X_c) @ S @ X_c
    La = helpers.compatible_restriction(X_c, space, cls, rng)
    Z = sample_structured(space, cls, seed=6)
    fam = map_family(X, S @ X, space, cls)
    return Z, {
        "preserve_complementary": lambda: preserve_complementary(
            S, X_c, La, X_f, L_f, space, cls),
        "reassign_family": lambda: reassign_family(
            S, asm, space, cls, Z=Z, verify=False).delta,
        "reproduce_invariant": lambda: reproduce_invariant(
            S, X, D, space, cls, Z=Z),
        "preserve_invariant": lambda: preserve_invariant(
            S, X_c, L_c, np.eye(len(L_c)), La, space, cls, Z=Z),
        "solve_structured": lambda: solve_structured(X, S @ X, space, cls,
                                                     Z=Z),
        "with_z": lambda: fam.with_z(Z),
    }


@pytest.mark.parametrize("arrangement", sorted(ARRANGED))
def test_every_call_runs_on_its_callers_thread(monkeypatch, arrangement):
    _, calls = _calls(arrangement)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (
        started.append(self), start(self)))
    here = {name: call() for name, call in calls.items()}
    assert started == []
    there = {}
    caller = threading.Thread(target=lambda: there.update(
        (name, call()) for name, call in calls.items()))
    caller.start()
    caller.join(timeout=300)
    assert started == [caller] and not caller.is_alive()
    assert there.keys() == here.keys()
    for name, got in there.items():
        assert got.dtype == here[name].dtype, name
        assert got.tobytes() == here[name].tobytes(), name


@pytest.mark.parametrize("entry", ["reassign_family", "reproduce_invariant",
                                   "preserve_invariant", "solve_structured",
                                   "with_z"])
def test_a_member_with_z_solves_h_once_for_z(monkeypatch, entry):
    # on a dense H each solve is a product with the n x n inverse
    Z, calls = _calls("complex-lie-random")
    solved, solve = [], core.ScalarProductSpace.h_solve
    monkeypatch.setattr(core.ScalarProductSpace, "h_solve", lambda self, B: (
        solved.append(np.asarray(B).copy()), solve(self, B))[1])
    calls[entry]()
    assert sum(B.shape == Z.shape and B.tobytes() == Z.tobytes()
               for B in solved) == 1
