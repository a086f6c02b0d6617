"""Real data stays real: ``as_matrix`` decides every field, membership on
real spaces requires realness, real instances, samples and assemblies are
float64 (the generator builds real recipes in float64 throughout), the
kernels never hold an n x n complex array on a real arrangement, and the
realness guards of the real-basis reassignment still fire on broken
conjugate chains and on an assembly without its conjugation map, or with
one that is not a symmetric 0/1 permutation."""

import dataclasses
import itertools

import numpy as np
import pytest

import helpers
from specpreserve import (
    ArgumentError,
    InfeasiblePlanError,
    InstanceRecipe,
    JordanPair,
    PlanGroup,
    RealnessError,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureError,
    assemble,
    generate_instance,
    is_member,
    map_family,
    reassign_family,
    reassign_no_spillover,
    sample_structured,
    z_symmetry_residual,
)
from specpreserve import (classical, cli, core, diagnostics, mapping,
                          reassign, spectral, subspaces)
from specpreserve.subspaces import preserve_complementary, reproduce_invariant

N = 6


def _real_space(preset, star):
    rng = np.random.default_rng(11)
    if preset == "signature":
        return ScalarProductSpace.signature([1, -1, 1, 1, -1, 1], star=star,
                                            field="real")
    if preset.startswith("random"):
        eps1 = -1 if preset.endswith("-") else 1
        return helpers.make_space(N, star, eps1, "real", "random", rng)
    return getattr(ScalarProductSpace, preset)(N, star=star, field="real")


def test_as_matrix_decides_the_field():
    real, cplx = np.eye(2), np.eye(2) * (1 + 0j)
    for A in (real, cplx, [[1, 0], [0, 1]]):
        assert core.as_matrix(A).dtype == np.float64
        assert core.as_matrix(A, space=ScalarProductSpace.identity(2,
                              field="real")).dtype == np.float64
        assert core.as_matrix(A, space=ScalarProductSpace.identity(
            2)).dtype == np.complex128
    recipe = InstanceRecipe("identity", "jordan", "complex")
    assert core.as_matrix(real, space=recipe).dtype == np.complex128
    assert core.as_matrix(1j * real).dtype == np.complex128
    assert core.as_matrix(1j * real, space=ScalarProductSpace.identity(
        2, field="real")).dtype == np.complex128


def test_no_space_helpers_keep_exactly_real_data_real():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    w, V = np.linalg.eigh(A + A.T)
    x = V[:, 0] * (1 + 0j)
    assert JordanPair(w[0], x).chain.dtype == np.float64
    assert classical.brauer_update(A + A.T, x, w[0], x).dtype == np.float64
    assert classical.brauer_shift(A + A.T, w[0], x, x, 2.0).dtype == np.float64
    assert classical.reproduce_invariant(
        A, V[:, :2], np.eye(2)).dtype == np.float64


@pytest.mark.parametrize("cls", helpers.CLASSES, ids=lambda c: c.name)
@pytest.mark.parametrize("star", ["t", "ct"])
@pytest.mark.parametrize("preset", ["identity", "flip", "signature", "skewj",
                                    "random+", "random-"])
def test_real_space_membership_requires_realness(preset, star, cls):
    space = _real_space(preset, star)
    rng = np.random.default_rng(41)
    X = rng.standard_normal((N, 1))
    B = helpers.random_member(space, cls, seed=3) @ X
    fam = map_family(X, B, space, cls)
    # Z = i S with S* = -e1 e2 S is admissible for the complexified form,
    # never for the real algebra
    s = space.epsilon1 * cls.epsilon2
    K = rng.standard_normal((N, N))
    Z = 1j * (K - s * K.T)
    assert z_symmetry_residual(Z, space, cls) <= 1e-12 * np.linalg.norm(Z)
    with pytest.raises(StructureError):
        fam.with_z(Z)
    P = fam.projector
    delta = fam.family_base + space.h_solve(P.conj().T @ Z @ P)
    assert np.max(np.abs(delta.imag)) > 0.1
    assert not is_member(delta, space, cls)
    assert is_member(fam.family_base, space, cls)


# ---------------------------------------------------------------------------
# instances, samples and assemblies keep the field
# ---------------------------------------------------------------------------

def _real_jordan_instance():
    plan = tuple(PlanGroup(v, (1,)) for v in
                 (1.0, -2.0, 3.0, 4.5, -5.0, 6.0, 7.5, -8.0, 9.0, 10.5))
    return generate_instance(InstanceRecipe("identity", "jordan", "real", "T",
                                            plan, seed=61))


def _real_lie_instance():
    plan = tuple(PlanGroup(v, (1,)) for v in
                 (1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j, 1.5, -1.5, 0.7j, -0.7j,
                  3.0, -3.0))
    return generate_instance(InstanceRecipe("skewj", "lie", "real", "T",
                                            plan, seed=62))


def _assembly(inst, values, shift):
    groups = []
    for p in inst.pairs:
        hit = [v for v in values if abs(p.value - v) < 1e-9]
        if hit:
            v = hit[0]
            groups.append(ReassignmentGroup(v, v * shift, (p.chain,)))
    return assemble(inst.A, ReassignmentSpec(tuple(groups)), inst.space,
                    inst.cls)


JORDAN_MOVED = (1.0, -2.0, 3.0, 4.5)
LIE_MOVED = (1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j, 1.5, -1.5)


def test_real_instances_samples_and_assemblies_are_float64():
    for space, cls in ((ScalarProductSpace.identity(N, field="real"), "jordan"),
                       (ScalarProductSpace.skewj(N, field="real"), "lie")):
        assert sample_structured(space, cls, seed=1).dtype == np.float64
    assert sample_structured(ScalarProductSpace.identity(N), "jordan",
                             seed=1).dtype == np.complex128
    inst = _real_jordan_instance()
    assert inst.A.dtype == np.float64
    assert _real_lie_instance().A.dtype == np.float64
    asm = _assembly(inst, JORDAN_MOVED, 1.25)
    for M in (asm.X_c, asm.Lambda_c, asm.Lambda_a):
        assert M.dtype == np.float64


# every real row of the pairing table, on every preset and both stars
REAL_ORBITS = {"jordan": ([0.0], [1.5], [1 + 2j, 1 - 2j]),
               "lie": ([0.0], [0.8, -0.8], [1.5j, -1.5j],
                       [1 + 2j, 1 - 2j, -1 - 2j, -1 + 2j])}
PRESETS = [("identity", 0), ("flip", 0), ("signature", 0), ("skewj", 0),
           ("random", 1), ("random", -1)]
# H1 is the space the constructors build, checked as inst.space.H
BUILT = {"A0", "H0", "U", "G", "A"}


def test_real_recipes_are_built_in_float64(monkeypatch):
    seen = {}

    def spy(A, name="matrix", space=None):
        out = core.as_matrix(A, name, space)
        seen[name] = out.dtype
        return out

    monkeypatch.setattr(diagnostics, "as_matrix", spy)
    built = 0
    for cls, orbits in REAL_ORBITS.items():
        for values in orbits:
            for (preset, eps1), star in itertools.product(PRESETS, ("T", "CT")):
                plan = tuple(PlanGroup(v, (1, 1)) for v in values)
                seen.clear()
                try:
                    inst = generate_instance(InstanceRecipe(
                        preset, cls, "real", star, plan, seed=17, eps1=eps1))
                except InfeasiblePlanError:
                    continue
                built += 1
                assert {seen[k] for k in BUILT} == {np.dtype(np.float64)}
                assert inst.A.dtype == np.float64
                assert inst.space.H.dtype == np.float64
    assert built == 62


# ---------------------------------------------------------------------------
# no n x n complex array in the kernels of a real arrangement
# ---------------------------------------------------------------------------

# spied helper -> the module that defines it
SPIED = {"_map_factors": mapping, "_z_member": mapping,
         "_no_spillover_update": subspaces, "_star_h": core}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)
    elif isinstance(obj, dict):
        for o in obj.values():
            yield from _arrays(o)


def _dtype_spy(monkeypatch, n, spied=SPIED):
    """Wrap the spied helpers; record every complex array of at least n^2
    entries they receive or return, and which helpers ran."""
    big, called = [], set()

    def wrap(name, fn):
        def spy(*args, **kwargs):
            called.add(name)
            out = fn(*args, **kwargs)
            big.extend((name, a.shape) for a in _arrays((args, kwargs, out))
                       if np.iscomplexobj(a) and a.size >= n * n)
            return out
        return spy

    for name, home in spied.items():
        wrapped = wrap(name, getattr(home, name))
        for mod in (cli, core, diagnostics, mapping, reassign, spectral,
                    subspaces):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    for name in ("h_apply", "h_solve"):
        monkeypatch.setattr(ScalarProductSpace, name,
                            wrap(name, getattr(ScalarProductSpace, name)))
    return big, called


@pytest.mark.parametrize("arrangement", ["real-jordan", "real-lie"])
def test_real_kernels_hold_no_square_complex_array(monkeypatch, arrangement):
    if arrangement == "real-jordan":
        inst, moved = _real_jordan_instance(), JORDAN_MOVED
    else:
        inst, moved = _real_lie_instance(), LIE_MOVED
    asm = _assembly(inst, moved, 1.25)
    A, space, cls = inst.A, inst.space, inst.cls
    Z = sample_structured(space, cls, seed=7)
    ops = [
        lambda: reassign_family(A, asm, space, cls, verify=False),
        lambda: reassign_family(A, asm, space, cls, Z=Z, verify=False),
        lambda: reassign_no_spillover(A, asm, space, cls, verify=False),
    ]
    if arrangement == "real-jordan":
        # every real-Jordan op; real-Lie subspaces carry complex chains
        rest = [p for p in inst.pairs
                if min(abs(p.value - v) for v in moved) > 1e-9]
        X_f = np.hstack([p.chain for p in rest])
        L_f = np.diag([p.value for p in rest])
        ops += [
            lambda: reproduce_invariant(A, asm.X_c, asm.Lambda_a, space, cls),
            lambda: preserve_complementary(A, asm.X_c, asm.Lambda_a, X_f, L_f,
                                           space, cls),
        ]
    big, called = _dtype_spy(monkeypatch, inst.space.n)
    for op in ops:
        op()
    assert not big, f"complex n x n arrays in the kernel: {big}"
    assert called >= set(SPIED) | {"h_apply", "h_solve"}


# ---------------------------------------------------------------------------
# no n x n complex array in the verification of a real arrangement
# ---------------------------------------------------------------------------

VERIFY_SPIED = {"_real_apply": core, "_spillover_residual": diagnostics,
                "_rcond_estimate": core, "numerical_rank": core,
                "gram_matrix": core}


class _MixedProductSpy(np.ndarray):
    """An array that records every ufunc call (``@`` included) where a
    complex operand meets a real one of at least ``n^2`` entries: numpy
    would cast the real one to an n x n complex copy."""

    n = 0
    mixed = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        arrays = [np.asarray(a) for a in inputs]
        if any(np.iscomplexobj(a) for a in arrays):
            _MixedProductSpy.mixed.extend(
                (ufunc.__name__, a.shape) for a in arrays
                if not np.iscomplexobj(a) and a.size >= self.n * self.n)
        return getattr(ufunc, method)(*arrays, **kwargs)


@pytest.mark.parametrize("arrangement", ["real-jordan", "real-lie"])
def test_real_verification_holds_no_square_complex_array(monkeypatch,
                                                         arrangement):
    if arrangement == "real-jordan":
        inst, moved = _real_jordan_instance(), JORDAN_MOVED
    else:
        inst, moved = _real_lie_instance(), LIE_MOVED
    asm = _assembly(inst, moved, 1.25)
    A, space, cls, n = inst.A, inst.space, inst.cls, inst.space.n
    delta = reassign_no_spillover(A, asm, space, cls, verify=False).delta
    rest = [p for p in inst.pairs if min(abs(p.value - v) for v in moved) > 1e-9]
    fixed = (np.hstack([p.chain for p in rest]),
             np.diag([p.value for p in rest]))
    # the chains reach the oracle's products unconverted: the spy sees them
    _MixedProductSpy.n, _MixedProductSpy.mixed = n, []
    spy_asm = dataclasses.replace(asm, X_c=asm.X_c.view(_MixedProductSpy))
    monkeypatch.setenv("SPECPRESERVE_ORACLE_NMAX", str(n))
    big, called = _dtype_spy(monkeypatch, n, VERIFY_SPIED)
    rep = diagnostics.verify_reassignment(A, delta, spy_asm, space, cls)
    assert rep.spectrum_verdict.matched and rep.delta.dtype == np.float64
    # the command line's fixed-pair residual, a product with real A + delta
    cli._fixed_residual(A + delta, *fixed)
    assert not big, f"complex n x n arrays in the verification: {big}"
    assert not _MixedProductSpy.mixed, (
        f"real n x n operands cast to complex: {_MixedProductSpy.mixed}")
    assert called >= set(VERIFY_SPIED)


# ---------------------------------------------------------------------------
# the realness guard of the real-basis reassignment
# ---------------------------------------------------------------------------

def test_broken_conjugate_chain_raises_realness_error():
    inst = _real_lie_instance()
    asm = _assembly(inst, LIE_MOVED, 1.25)
    space, X = inst.space, asm.X_c
    # move one column of a conjugate pair by 1e-6 along a direction that is
    # H-orthogonal to every chain, so the Gram certificate still holds
    k = next(j for j in range(X.shape[1]) if asm.conjugation[j, j] == 0)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
    G = X.conj().T @ space.H @ X
    v = w - X @ np.linalg.solve(G, X.conj().T @ (space.H @ w))
    X = X.copy()
    X[:, k] += 1e-6 * np.linalg.norm(X[:, k]) / np.linalg.norm(v) * v
    broken = dataclasses.replace(asm, X_c=X)
    for run in (reassign_family, reassign_no_spillover):
        with pytest.raises(RealnessError) as e:
            run(inst.A, broken, space, inst.cls, verify=False)
        # each conjugate is read at its partner column: the residual of the
        # product conj(X) - X R, to the bit
        assert e.value.imag_magnitude == np.linalg.norm(
            np.conj(X) - X @ asm.conjugation)


@pytest.mark.parametrize("bad", ["near", "mixed", "nan", "cycle", "zero"])
def test_conjugation_map_must_be_a_symmetric_permutation(bad):
    # a map within IMAG_CAST_TOL of one ("near") was taken as its argmax,
    # others gave a realness error that blamed the chains
    inst = _real_lie_instance()
    asm = _assembly(inst, LIE_MOVED, 1.25)
    R, I = asm.conjugation, np.eye(len(asm.conjugation))
    nan = R.copy()
    nan[0, 0] = np.nan
    R = {"near": R * (1 + 1e-12), "mixed": (R + I) / 2, "nan": nan,
         "cycle": np.roll(I, 1, axis=0), "zero": 0 * R}[bad]
    for run in (reassign_family, reassign_no_spillover):
        with pytest.raises(ArgumentError, match="conjugation"):
            run(inst.A, dataclasses.replace(asm, conjugation=R), inst.space,
                inst.cls, verify=False)


def test_real_arrangement_without_conjugation_map_raises():
    inst = _real_lie_instance()
    asm = dataclasses.replace(_assembly(inst, LIE_MOVED, 1.25),
                              conjugation=None)
    for run in (reassign_family, reassign_no_spillover):
        with pytest.raises(ArgumentError, match="conjugation map"):
            run(inst.A, asm, inst.space, inst.cls, verify=False)


def test_nearly_real_z_is_taken_as_its_real_part():
    """An imaginary part of Z within the structure tolerance is dropped by
    the admissibility check, so the update is float64 by construction."""
    inst = _real_jordan_instance()
    asm = _assembly(inst, JORDAN_MOVED, 1.25)
    space, cls = inst.space, inst.cls
    Z = sample_structured(space, cls, seed=7)
    K = np.random.default_rng(8).standard_normal(Z.shape)
    noisy = Z + 1e-9 * np.linalg.norm(Z) * 1j * (K + K.T) / np.linalg.norm(K)
    delta = reassign_family(inst.A, asm, space, cls, Z=noisy, verify=False).delta
    assert delta.dtype == np.float64
    assert np.array_equal(
        delta, reassign_family(inst.A, asm, space, cls, Z=Z, verify=False).delta)
