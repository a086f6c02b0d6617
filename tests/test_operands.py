"""One operand rule: ``core.as_matrix`` checks the shape the role of each
operand requires, where it decides its field, so every public entry refuses
a wrong-shaped operand with an ArgumentError that names it; the SVD users
share one guard against non-finite input; and the reassignments and the
no-spillover update apply H once per call."""

import dataclasses

import numpy as np
import pytest

from specpreserve import (
    ArgumentError,
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    ScalarProductSpace,
    StructureClass,
    adjoint,
    assemble,
    extract_jordan_pairs,
    feasibility_check,
    generate_instance,
    map_family,
    numerical_rank,
    reassign_family,
    reassign_no_spillover,
    reassign_simple,
    solve_structured,
    spectrum_multiset_compare,
    verify_reassignment,
    z_symmetry_residual,
)
from specpreserve import classical, core, subspaces

JORDAN = StructureClass.JORDAN
PLAN = (PlanGroup(1.0, (1,)), PlanGroup(-2.0, (1,)), PlanGroup(0.5, (1,)),
        PlanGroup(3.0, (1,)))


def _instance(field):
    """A 4 x 4 Jordan member with its four simple eigenpairs: complex on
    the flip space (sesquilinear), real on the identity space."""
    preset, star = ("flip", "ct") if field == "complex" else ("identity", "t")
    return generate_instance(InstanceRecipe(preset, "jordan", field, star,
                                            PLAN, seed=3))


def _assembly(inst):
    """The first eigenvalue moved by 0.5, in the arrangement of the space."""
    p = inst.pairs[0]
    spec = ReassignmentSpec((ReassignmentGroup(p.value, p.value + 0.5,
                                               (p.chain,)),))
    return assemble(inst.A, spec, inst.space, JORDAN)


def _operands(inst):
    """Well-shaped operands on the 4-dimensional space: A, a 2-column
    invariant basis X with its restriction L, the complementary pair
    (X_f, L_f), a target restriction and R."""
    X = np.hstack([p.chain for p in inst.pairs[:2]])
    X_f = np.hstack([p.chain for p in inst.pairs[2:]])
    L = np.diag([p.value for p in inst.pairs[:2]])
    L_f = np.diag([p.value for p in inst.pairs[2:]])
    return inst.A, X, L, X_f, L_f, L + 0.5 * np.eye(2), np.eye(2)


def _cases():
    """(entry, call, operand) for one wrong-shaped operand per call."""
    inst = _instance("real")
    space, A0 = inst.space, inst.A
    A, X, L, X_f, L_f, La, R = _operands(inst)
    asm = _assembly(inst)
    x, lam = inst.pairs[0].chain, inst.pairs[0].value
    # an 8-dimensional space for a 7 x 7 A
    space8, A7, X8 = (ScalarProductSpace.identity(8, star="t", field="real"),
                      np.eye(7), np.eye(8)[:, :2])
    chain3 = ReassignmentSpec((ReassignmentGroup(lam, lam + 0.5, (x[:3],)),))
    return [
        # core
        ("adjoint", lambda: adjoint(A0[:3, :3], space), "A"),
        ("z_symmetry_residual",
         lambda: z_symmetry_residual(np.ones((2, 3)), space, JORDAN), "Z"),
        ("ScalarProductSpace", lambda: ScalarProductSpace(np.eye(4)[:3]), "H"),
        # mapping
        ("feasibility_check",
         lambda: feasibility_check(X, np.hstack([A @ X, X[:, :1]]), space,
                                   JORDAN), "B"),
        ("map_family", lambda: map_family(X[:3], (A @ X)[:3], space, JORDAN),
         "X"),
        ("solve_structured",
         lambda: solve_structured(X, A @ X, space, JORDAN,
                                  Z=np.zeros((3, 4))), "Z"),
        # subspaces
        ("lambda_compatibility",
         lambda: subspaces.lambda_compatibility(X, np.eye(3), space, JORDAN),
         "Lambda_a"),
        ("reproduce_invariant",
         lambda: subspaces.reproduce_invariant(A7, X8, La, space8, JORDAN),
         "A"),
        ("preserve_invariant",
         lambda: subspaces.preserve_invariant(A7, X8, L, R, La, space8,
                                              JORDAN), "A"),
        ("preserve_invariant",
         lambda: subspaces.preserve_invariant(A, X, L, np.eye(3), La, space,
                                              JORDAN), "R"),
        ("preserve_complementary",
         lambda: subspaces.preserve_complementary(A, X, np.eye(3), X_f, L_f,
                                                  space, JORDAN), "Lambda_a"),
        ("preserve_complementary",
         lambda: subspaces.preserve_complementary(A, X, np.eye(1), X_f, L_f,
                                                  space, JORDAN), "Lambda_a"),
        ("preserve_complementary",
         lambda: subspaces.preserve_complementary(A, X, La, X_f[:, :1], L_f,
                                                  space, JORDAN), "X_f"),
        ("no_spillover",
         lambda: subspaces.no_spillover(A, X[:3], L, La, space, JORDAN),
         "X_c"),
        # reassign
        ("reassign_family",
         lambda: reassign_family(A0[:3, :3], asm, space, JORDAN), "A"),
        ("reassign_no_spillover",
         lambda: reassign_no_spillover(
             A0, dataclasses.replace(asm, X_c=asm.X_c[:3]), space, JORDAN),
         "X_c"),
        ("reassign_no_spillover",
         lambda: reassign_no_spillover(
             A0, dataclasses.replace(asm, conjugation=np.eye(3)), space,
             JORDAN), "conjugation"),
        ("reassign_simple",
         lambda: reassign_simple(A0, [(lam, x[:3])], [lam + 0.5], space,
                                 JORDAN), "chain"),
        # spectral
        ("extract_jordan_pairs", lambda: extract_jordan_pairs(A0[:3]), "A"),
        ("assemble", lambda: assemble(A0, chain3, space, JORDAN), "chain"),
        # diagnostics
        ("verify_reassignment",
         lambda: verify_reassignment(A0, np.zeros((3, 3)), asm, space,
                                     JORDAN), "delta"),
        ("spectrum_multiset_compare",
         lambda: spectrum_multiset_compare(A0, A0[:3, :3]), "B"),
        # classical
        ("brauer_update",
         lambda: classical.brauer_update(A0, x, lam, np.ones(3)), "q"),
        ("brauer_shift",
         lambda: classical.brauer_shift(A0, lam, x[:3], x, 2.0), "v"),
        ("rado_update",
         lambda: classical.rado_update(A, X, L, np.ones((2, 5))), "C"),
        ("reproduce_invariant[classical]",
         lambda: classical.reproduce_invariant(A, X, np.eye(3)), "Lambda_a"),
        ("preserve_invariant[classical]",
         lambda: classical.preserve_invariant(A, X[:3], L, R, La), "X_c"),
        ("preserve_complementary[classical]",
         lambda: classical.preserve_complementary(A, X, X_f, La, L_f[:1]),
         "Lambda_f_hat"),
    ]


CASES = _cases()


@pytest.mark.parametrize("entry,call,operand", CASES,
                         ids=[f"{e}-{o}" for e, _, o in CASES])
def test_wrong_shape_names_the_operand(entry, call, operand):
    with pytest.raises(ArgumentError, match=rf"^{operand}\b.* must be "
                       rf"[\dp]+ x [\dp]+, got \d+ x \d+$"):
        call()


def test_shape_rule_message():
    with pytest.raises(ArgumentError, match="^A must be 8 x 8, got 7 x 7$"):
        core.as_matrix(np.zeros((7, 7)), "A", shape=(8, 8))
    # an unconstrained extent prints as p and matches any
    with pytest.raises(ArgumentError, match="^X must be 8 x p, got 7 x 2$"):
        core.as_matrix(np.zeros((7, 2)), "X", shape=(8, None))
    assert core.as_matrix(np.zeros(8), "x", shape=(8, None)).shape == (8, 1)
    assert core.as_matrix(np.zeros((2, 5)), "M", shape=(None, None)).shape \
        == (2, 5)
    # a bound range(k + 1) prints as p and matches 0 to k
    with pytest.raises(ArgumentError,
                       match="^X must be 4 x p with p <= 4, got 4 x 5$"):
        core.as_matrix(np.zeros((4, 5)), "X", shape=(4, range(5)))
    for p in (0, 4):
        assert core.as_matrix(np.zeros((4, p)), "X",
                              shape=(4, range(5))).shape == (4, p)
    assert "as_matrix" not in core.__all__


# [X_c X_f] is square, so the changed basis has at most n columns; a wider
# one was refused for X_f, with the extent n - p = -1
def test_complementary_update_refuses_a_basis_wider_than_the_space():
    inst = _instance("real")
    A, _, _, X_f, L_f, La, _ = _operands(inst)
    with pytest.raises(ArgumentError,
                       match="^X_c must be 4 x p with p <= 4, got 4 x 5$"):
        subspaces.preserve_complementary(A, np.eye(4, 5), La, X_f, L_f,
                                         inst.space, JORDAN)


def test_classical_complementary_update_refuses_a_basis_wider_than_the_space():
    A, _, _, X_f, L_f, La, _ = _operands(_instance("real"))
    with pytest.raises(ArgumentError,
                       match="^X_a must be 4 x p with p <= 4, got 4 x 5$"):
        classical.preserve_complementary(A, np.eye(4, 5), X_f, La, L_f)


def test_numerical_rank_refuses_non_finite_input():
    with pytest.raises(ArgumentError, match="^X has a NaN or infinite entry"):
        numerical_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))
    # the other users of the guard keep their NaN results
    assert np.isnan(core.pseudoinverse(np.array([[np.inf, 0.0]]))).all()


def _real_lie_case():
    """A real Lie member on skewj with a conjugate quadruple moved, so the
    real basis holds real and imaginary parts."""
    quad = (1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j)
    inst = generate_instance(InstanceRecipe(
        "skewj", "lie", "real", "t",
        tuple(PlanGroup(v, (1,)) for v in quad + (3.0, -3.0)), seed=62))
    groups = tuple(ReassignmentGroup(p.value, 1.25 * p.value, (p.chain,))
                   for p in inst.pairs if abs(p.value.real) < 2)
    return inst, assemble(inst.A, ReassignmentSpec(groups), inst.space,
                          inst.cls)


@pytest.mark.parametrize("case", ["complex", "real", "real-conjugate"])
def test_reassignments_apply_h_once(monkeypatch, case):
    # the certificate forms H X_c once: the no-spillover update takes X_c* H
    # and G from it, the Z = 0 member H B and W, and a real arrangement the
    # real basis of those columns
    if case == "real-conjugate":
        inst, asm = _real_lie_case()
        assert not np.array_equal(asm.conjugation, np.eye(4))
    else:
        inst = _instance(case)
        asm = _assembly(inst)
    calls = []
    h_apply = ScalarProductSpace.h_apply

    def spy(self, B):
        calls.append(np.shape(B))
        return h_apply(self, B)

    monkeypatch.setattr(ScalarProductSpace, "h_apply", spy)
    for run in (reassign_no_spillover, reassign_family):
        calls.clear()
        run(inst.A, asm, inst.space, inst.cls, verify=False)
        assert len(calls) == 1, run.__name__
    calls.clear()
    subspaces.no_spillover(inst.A, asm.X_c, asm.Lambda_c, asm.Lambda_a,
                           inst.space, inst.cls)
    assert len(calls) == 1
