"""Real data stays real: membership on real spaces requires realness, real
instances, samples and assemblies are float64, the kernels never hold an
n x n complex array on a real arrangement, and the realness guard of the
real-basis reassignment still fires on broken conjugate chains."""

import dataclasses

import numpy as np
import pytest

import helpers
from specpreserve import (
    InstanceRecipe,
    PlanGroup,
    RealnessError,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureError,
    assemble_real_jordan,
    assemble_real_lie,
    generate_instance,
    is_member,
    map_family,
    reassign_family,
    reassign_no_spillover,
    sample_structured,
    z_symmetry_residual,
)
from specpreserve import core, mapping, reassign, spectral, subspaces
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
    spec = ReassignmentSpec(tuple(groups))
    assemble = (assemble_real_lie if inst.cls.name == "LIE"
                else assemble_real_jordan)
    return assemble(inst.A, spec, inst.space, inst.cls)


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


# ---------------------------------------------------------------------------
# no n x n complex array in the kernels of a real arrangement
# ---------------------------------------------------------------------------

# spied helper -> the module that defines it
SPIED = {"_map_factors": mapping, "_z_term": mapping,
         "_no_spillover_update": subspaces, "gram_matrix": core}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)
    elif isinstance(obj, dict):
        for o in obj.values():
            yield from _arrays(o)


def _dtype_spy(monkeypatch, n):
    """Wrap the kernel helpers; record every complex array of at least n^2
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

    for name, home in SPIED.items():
        wrapped = wrap(name, getattr(home, name))
        for mod in (core, mapping, reassign, spectral, subspaces):
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
        with pytest.raises(RealnessError):
            run(inst.A, broken, space, inst.cls, verify=False)
