"""The pairing-orbit table: orbit members, the generator catalogue over
presets x star x field x class x orbit kind (and the verification bundle on
it), the unsupported rows, and the module-level names the benchmark tracer
rebinds."""

import inspect
import itertools

import numpy as np
import pytest
import scipy.linalg

import specpreserve.core as core
import specpreserve.diagnostics as diagnostics
import specpreserve.spectral as spectral
import specpreserve.subspaces as subspaces
from specpreserve import (
    ArgumentError,
    InfeasiblePlanError,
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    assemble_complex,
    assemble_real_jordan,
    assemble_real_lie,
    certificate_residual,
    generate_instance,
    pairing_partner,
    reassign_no_spillover,
    spectrum_multiset_compare,
    validate_pairing_closure,
)
from specpreserve.core import numerical_rank, structure_residual
from specpreserve.diagnostics import _compare_spectra, _rank_and_structure
from specpreserve.spectral import _ORBITS, _pairing_orbit

TOL = 1e-8

# one orbit per (field, star, class, kind): its members, representative first
ORBITS = {
    ("complex", "CT", "jordan", "self"): [1.5],
    ("complex", "CT", "jordan", "couple"): [1 + 2j, 1 - 2j],
    ("complex", "T", "jordan", "self"): [1 + 2j],
    ("complex", "CT", "lie", "self"): [1.5j],
    ("complex", "CT", "lie", "couple"): [2 + 1j, -2 + 1j],
    ("complex", "T", "lie", "self"): [0.0],
    ("complex", "T", "lie", "couple"): [1 + 2j, -1 - 2j],
    ("real", "T", "jordan", "zero"): [0.0],
    ("real", "T", "jordan", "real"): [1.5],
    ("real", "T", "jordan", "couple"): [1 + 2j, 1 - 2j],
    ("real", "T", "lie", "zero"): [0.0],
    ("real", "T", "lie", "real"): [0.8, -0.8],
    ("real", "T", "lie", "imag"): [1.5j, -1.5j],
    ("real", "T", "lie", "generic"): [1 + 2j, 1 - 2j, -1 - 2j, -1 + 2j],
}
PRESETS = [("identity", 0), ("flip", 0), ("signature", 0), ("skewj", 0),
           ("random", 1), ("random", -1)]
CATALOGUE = [
    pytest.param(field, star, cls, kind, preset, eps1,
                 id=f"{field}-{star}-{cls}-{kind}-{preset}{eps1 or ''}")
    for (field, orbit_star, cls, kind) in ORBITS
    for star in (["T", "CT"] if field == "real" else [orbit_star])
    for preset, eps1 in PRESETS
]


def _row_reason(row, eps1):
    """Why the generator cannot build this row, or None."""
    if row.reason:
        return row.reason
    build = row.units[eps1 == -1]
    return build if isinstance(build, str) else None


def _assemble(inst, spec):
    if inst.space.field == "complex":
        return assemble_complex(inst.A, spec, inst.space, inst.cls)
    if inst.cls is StructureClass.LIE:
        return assemble_real_lie(inst.A, spec, inst.space, inst.cls)
    return assemble_real_jordan(inst.A, spec, inst.space, inst.cls)


# instances built per (preset, field, star) over ORBITS x chain lengths
# (1,), (1, 1), (2,), (3,): every combination is reached
PRESET_BUILDS = {
    ("identity", "complex", "CT"): 4, ("identity", "complex", "T"): 8,
    ("identity", "real", "CT"): 6, ("identity", "real", "T"): 6,
    ("flip", "complex", "CT"): 12, ("flip", "complex", "T"): 6,
    ("flip", "real", "CT"): 18, ("flip", "real", "T"): 18,
    ("signature", "complex", "CT"): 16, ("signature", "complex", "T"): 8,
    ("signature", "real", "CT"): 24, ("signature", "real", "T"): 24,
    ("skewj", "complex", "CT"): 12, ("skewj", "complex", "T"): 5,
    ("skewj", "real", "CT"): 14, ("skewj", "real", "T"): 14,
}


def test_generated_space_is_the_preset(monkeypatch):
    # every preset instance of the catalogue carries exactly the space its
    # ScalarProductSpace constructor builds; a signature space takes the
    # inertia of the stacked canonical form H0 (half positive, rounded up,
    # for the complex bilinear form, which has no inertia)
    seen = {}

    def spy(A, name="matrix", space=None):
        seen[name] = out = core.as_matrix(A, name, space)
        return out

    monkeypatch.setattr(diagnostics, "as_matrix", spy)
    built = {}
    for field, orbit_star, cls, kind in ORBITS:
        values = ORBITS[field, orbit_star, cls, kind]
        for star in (["T", "CT"] if field == "real" else [orbit_star]):
            for preset, chains in itertools.product(
                    ("identity", "flip", "signature", "skewj"),
                    ((1,), (1, 1), (2,), (3,))):
                plan = tuple(PlanGroup(v, chains) for v in values)
                try:
                    inst = generate_instance(InstanceRecipe(
                        preset, cls, field, star, plan, seed=17))
                except InfeasiblePlanError:
                    continue
                n = inst.A.shape[0]
                if preset != "signature":
                    expected = getattr(ScalarProductSpace, preset)(
                        n, star=star, field=field)
                else:
                    p = ((n + 1) // 2 if (field, star) == ("complex", "T") else
                         int(np.sum(np.linalg.eigvalsh(seen["H0"]) > 0)))
                    expected = ScalarProductSpace.signature(
                        [1] * p + [-1] * (n - p), star=star, field=field)
                assert inst.space == expected
                key = (preset, field, star)
                built[key] = built.get(key, 0) + 1
    assert built == PRESET_BUILDS


def test_real_skewj_lie_orbit_holds_both_partner_formulas():
    space = ScalarProductSpace.skewj(4, star="t", field="real")
    orbit = _pairing_orbit(1 + 2j, "lie", space.star, space.field)
    assert orbit.row.kind == "generic"
    assert list(orbit.values) == [1 + 2j, 1 - 2j, -1 - 2j, -1 + 2j]
    # the bilinear partner and the partner of the sesquilinear
    # complexification are both members
    assert pairing_partner(1 + 2j, "lie", "t") in orbit.values
    assert pairing_partner(1 + 2j, "lie", "ct") in orbit.values


@pytest.mark.parametrize("field,star", [("complex", "T"), ("complex", "CT"),
                                        ("real", "T")])
def test_non_finite_value_is_rejected(field, star):
    spec = ReassignmentSpec((ReassignmentGroup(complex("nan"), 1.0,
                                               (np.ones((2, 1)),)),))
    space = ScalarProductSpace(np.eye(2), star=star, field=field)
    with pytest.raises(ArgumentError, match="not finite"):
        validate_pairing_closure(spec, space, "jordan")


@pytest.mark.parametrize("field,star,cls,kind,preset,eps1", CATALOGUE)
def test_generator_catalogue(field, star, cls, kind, preset, eps1):
    values = ORBITS[field, "T" if field == "real" else star, cls, kind]
    plan = tuple(PlanGroup(v, (1, 1)) for v in values)
    recipe = InstanceRecipe(preset, cls, field, star, plan, seed=17, eps1=eps1)
    row = _pairing_orbit(values[0], cls, star, field, TOL).row
    assert row.kind == ("real" if (field, cls, kind) == ("real", "jordan", "zero")
                        else kind)
    e1 = eps1 or (-1 if preset == "skewj" else 1)
    reason = _row_reason(row, e1)
    # a definite form (identity, sesquilinear or real) hosts only values
    # that are their own partner under the form
    definite = preset == "identity" and (field == "real" or star == "CT")
    form_star = "CT" if field == "real" else star
    isotropic = any(abs(pairing_partner(v, cls, form_star) - v) > TOL
                    for v in values)
    if reason is not None or (definite and isotropic):
        with pytest.raises(InfeasiblePlanError) as exc:
            generate_instance(recipe)
        assert (reason or "inertia") in str(exc.value)
        return
    inst = generate_instance(recipe)

    # the spectrum is closed under the orbit table
    found = np.array([p.value for p in inst.pairs])
    for lam in found:
        for member in _pairing_orbit(lam, cls, star, field, TOL).values:
            assert np.min(np.abs(found - member)) <= 1e-10

    # the assembly of the ground-truth pairs is an invariant pair of A
    # carrying the certificate
    chains = {}
    for p in inst.pairs:
        chains.setdefault(complex(np.round(p.value, 10)), []).append(p.chain)
    spec = ReassignmentSpec(tuple(
        ReassignmentGroup(v, 1.25 * v, tuple(c)) for v, c in chains.items()))
    asm = _assemble(inst, spec)
    scale = max(1.0, np.linalg.norm(inst.A)) * np.linalg.norm(asm.X_c)
    assert np.linalg.norm(inst.A @ asm.X_c - asm.X_c @ asm.Lambda_c) <= 1e-9 * scale
    G = asm.X_c.conj().T @ inst.space.H @ asm.X_c
    assert certificate_residual(asm, inst.space, inst.cls) <= 1e-9 * max(
        1.0, np.linalg.norm(G) * np.linalg.norm(asm.Lambda_a - asm.Lambda_c))

    if field == "real":
        # a real orbit keeps a real representative, as its blocks report
        assert all(isinstance(b.current, float) and isinstance(b.target, float)
                   for b in asm.blocks if b.kind == "real")
        parts = []
        for b in asm.blocks:
            conj = _pairing_orbit(b.current, cls, star, field, TOL).row.conj
            width = b.size // len(conj)
            parts.append(np.kron(np.eye(len(conj))[list(conj)], np.eye(width)))
        R = scipy.linalg.block_diag(*parts)
        np.testing.assert_array_equal(asm.conjugation, R)
        np.testing.assert_allclose(np.conj(asm.X_c), asm.X_c @ R, atol=1e-10)


@pytest.mark.parametrize("field,star,cls,kind,preset,eps1", CATALOGUE)
def test_sketched_bundle_agrees_with_the_full_factorizations(
        field, star, cls, kind, preset, eps1):
    values = ORBITS[field, "T" if field == "real" else star, cls, kind]
    plan = tuple(PlanGroup(v, (1, 1)) for v in values)
    try:
        inst = generate_instance(InstanceRecipe(preset, cls, field, star, plan,
                                                seed=17, eps1=eps1))
    except InfeasiblePlanError:
        return    # test_generator_catalogue checks why
    A, space, n = inst.A, inst.space, inst.A.shape[0]
    chains = {}
    for p in inst.pairs:
        chains.setdefault(complex(np.round(p.value, 10)), []).append(p.chain)

    def no_spillover(chosen):
        spec = ReassignmentSpec(tuple(ReassignmentGroup(v, 1.25 * v, tuple(c))
                                      for v, c in chosen.items()))
        asm = _assemble(inst, spec)
        return asm.X_c.shape[1], reassign_no_spillover(
            A, asm, space, inst.cls, verify=False).delta

    try:
        # one chain of each value: an update of rank at most n / 2
        p, delta = no_spillover({v: c[:1] for v, c in chains.items()})
    except StructureError:
        # the first chains are isotropic: move them all (full rank), which
        # the sketch must reject
        p, delta = no_spillover(chains)
    # a sketch of up to twice the rank bound, short of n: it answers exactly
    # when delta has less rank than columns, and is refused for a full-rank
    # delta Omega otherwise
    k, notes = min(2 * p, n - 1), []
    rank, struct = _rank_and_structure(delta, space, inst.cls, k, 1e-10, notes)
    assert rank == numerical_rank(delta, 1e-10)
    assert abs(struct - structure_residual(delta, space, inst.cls)) <= (
        1e-12 * max(1.0, np.linalg.norm(delta)))
    assert len(notes) == 1
    assert ("sketch of delta (sketch_residual" in notes[0]) == (rank < k)
    assert ("(sketch_full_rank" in notes[0]) == (rank >= k)

    # the Hermitian tier (where it applies) and eigvals agree on matched
    for M, N in ((A, A), (A + delta, A), (A + delta, A + delta)):
        tiered = spectrum_multiset_compare(M, N, tol=1e-6)
        general = _compare_spectra(np.linalg.eigvals(M), np.linalg.eigvals(N),
                                   1e-6)
        assert tiered.matched == general.matched


@pytest.mark.parametrize("recipe,reason", [
    pytest.param(InstanceRecipe("flip", "lie", "real", "T",
                                (PlanGroup(0.0, (1,)), PlanGroup(0.0, (1,)))),
                 spectral._REAL_LIE_ZERO, id="real-lie-zero"),
    pytest.param(InstanceRecipe("flip", "lie", "complex", "T",
                                (PlanGroup(0.0, (1, 1)),)),
                 spectral._BILINEAR_LIE_SELF, id="bilinear-lie-self"),
    pytest.param(InstanceRecipe("skewj", "jordan", "real", "T",
                                (PlanGroup(1 + 2j, (1,)), PlanGroup(1 - 2j, (1,)))),
                 spectral._REAL_SKEW_COUPLE, id="real-skew-couple"),
    pytest.param(InstanceRecipe("skewj", "jordan", "complex", "T",
                                (PlanGroup(2.0, (2, 1, 1)),)),
                 spectral._ODD_TWINS, id="odd-twins"),
])
def test_unsupported_row_is_infeasible_with_its_reason(recipe, reason):
    with pytest.raises(InfeasiblePlanError, match=reason):
        generate_instance(recipe)


def test_real_lie_zero_is_rejected_by_the_assembly_with_its_reason():
    space = ScalarProductSpace(np.eye(2), star="t", field="real")
    spec = ReassignmentSpec((ReassignmentGroup(0.0, 1.0, (np.ones((2, 1)),)),))
    row = _ORBITS["real", "T", StructureClass.LIE, "zero"]
    with pytest.raises(StructureError, match=row.reason):
        assemble_real_lie(None, spec, space)


TRACED = [(spectral, "assemble_complex"), (spectral, "assemble_real_lie"),
          (spectral, "assemble_real_jordan"),
          (spectral, "validate_pairing_closure"),
          (spectral, "certificate_residual"), (subspaces, "no_spillover"),
          (subspaces, "gram_inverse_apply")]


@pytest.mark.parametrize("module,name", TRACED)
def test_traced_entry_point_is_its_own_function(module, name):
    # the benchmark tracer finds each of these by name and rebinds every
    # reference to that very object; an alias would be traced twice and a
    # removal would break traced runs
    fn = getattr(module, name)
    assert inspect.isfunction(fn)
    assert fn.__name__ == name and fn.__module__ == module.__name__
    assert all(fn is not getattr(m, n) for m, n in TRACED if n != name)


def test_closure_checks_each_member_target_and_chain_lengths():
    space = ScalarProductSpace.skewj(4, star="t", field="real")
    quad = ORBITS["real", "T", "lie", "generic"]
    targets = [2 + 1j, 2 - 1j, -2 - 1j, -2 + 1j]
    x = np.ones((4, 1))

    def violations(targets, chains):
        spec = ReassignmentSpec(tuple(
            ReassignmentGroup(v, t, c) for v, t, c in zip(quad, targets, chains)))
        return validate_pairing_closure(spec, space, "lie")

    assert violations(targets, [(x,)] * 4) == []
    moved = violations(targets[:2] + [-2 - 1.5j] + targets[3:], [(x,)] * 4)
    assert len(moved) == 1 and "must target" in moved[0]
    longer = violations(targets, [(x,)] * 3 + [(np.ones((4, 2)),)])
    assert len(longer) == 1 and "chain lengths" in longer[0]
    with pytest.raises(InfeasiblePlanError, match="chain lengths"):
        generate_instance(InstanceRecipe(
            "skewj", "lie", "real", "T",
            tuple(PlanGroup(v, (2,) if v == quad[-1] else (1, 1)) for v in quad)))


def test_generator_emits_long_chains_first_only_in_multi_member_orbits():
    inst = generate_instance(InstanceRecipe(
        "signature", "jordan", "complex", "CT",
        (PlanGroup(1 + 2j, (1, 2)), PlanGroup(1 - 2j, (1, 2)),
         PlanGroup(3.0, (1, 2))), seed=3))
    assert [p.length for p in inst.pairs] == [2, 2, 1, 1, 1, 2]
