"""One structure tolerance: the space that validated H decides every
structural test (Gram compatibility, the reassignment certificate, an
admissible parameter Z, membership), and a ToleranceProfile carries only
rank_tol and residual_tol.

Over the catalogue (presets x star x field x class) on spaces built at
each tolerance t, every test refuses an input 10 t off its structure,
relative to its threshold's scale, and accepts one t / 10 off."""

import dataclasses
import inspect

import numpy as np
import pytest

import helpers
from specpreserve import (
    ArgumentError,
    ReassignmentAssembly,
    ScalarProductSpace,
    StructureClass,
    StructureError,
    ToleranceProfile,
    is_member,
    map_family,
    reassign_no_spillover,
    sample_structured,
)
from specpreserve import subspaces
from specpreserve.mapping import StructuredMapSolution

N, P = 6, 2
TOLS = (1e-8, 1e-3)
# an input `ratio` thresholds off its structure: refused at 10, accepted at 0.1
OFF = {10.0: False, 0.1: True}
PRESETS = ("identity", "flip", "signature", "skewj", "random")


def _catalogue():
    rng = np.random.default_rng(2020)
    return [(t, space, cls, f"{label}-t{t:g}") for t in TOLS
            for space, cls, label in helpers.space_catalog(
                N, rng, PRESETS, structure_tol=t)]


CATALOGUE = _catalogue()
IDS = [label for *_, label in CATALOGUE]


def _refusal(call):
    """The condition a call is refused for, or None when it passes."""
    try:
        call()
    except StructureError as e:
        return e.condition
    return None


def _other(cls):
    return StructureClass(-cls.value)


def _split(space, cls, M):
    """The parts of M with ``W* = s W`` and ``K* = -s K``, s = e1 e2."""
    s = space.epsilon1 * cls.epsilon2
    Ms = space.star_mat(M)
    return (M + s * Ms) / 2, (M - s * Ms) / 2


def _random(shape, space, rng):
    M = rng.standard_normal(shape)
    return M + 1j * rng.standard_normal(shape) if space.field == "complex" else M


def _gram_target(space, cls, ratio, seed):
    """A basis X and a target L whose certificate ``W = G L`` is ratio
    thresholds off ``W* = e1 e2 W``: ``|W* - e1 e2 W| = 2 eps |K|`` against
    ``t max(1, |G| |L|)``."""
    rng = np.random.default_rng(seed)
    X = _random((N, P), space, rng)
    G = space.star_mat(X) @ space.H @ X
    W0, _ = _split(space, cls, _random((P, P), space, rng))
    _, K = _split(space, cls, _random((P, P), space, rng))
    L0 = np.linalg.solve(G, W0)
    thr = space.structure_tol * max(1.0, np.linalg.norm(G) * np.linalg.norm(L0))
    eps = ratio * thr / (2 * np.linalg.norm(K))
    return X, np.linalg.solve(G, W0 + eps * K)


@pytest.mark.parametrize("t,space,cls,label", CATALOGUE, ids=IDS)
@pytest.mark.parametrize("ratio", OFF)
def test_lambda_compatibility_follows_the_space(t, space, cls, label, ratio):
    X, L = _gram_target(space, cls, ratio, seed=1)
    rep = subspaces.lambda_compatibility(X, L, space, cls)
    assert rep.compatible is OFF[ratio], (label, rep.condition_residual)


@pytest.mark.parametrize("t,space,cls,label", CATALOGUE, ids=IDS)
@pytest.mark.parametrize("ratio", OFF)
def test_symmetry_certificate_follows_the_space(t, space, cls, label, ratio):
    X, L = _gram_target(space, cls, ratio, seed=2)
    asm = ReassignmentAssembly(X, np.zeros((P, P)), L, ())
    assert _refusal(lambda: reassign_no_spillover(
        np.zeros((N, N)), asm, space, cls, verify=False)) == (
        None if OFF[ratio] else "symmetry_certificate"), label


@pytest.mark.parametrize("t,space,cls,label", CATALOGUE, ids=IDS)
@pytest.mark.parametrize("ratio", OFF)
def test_z_symmetry_follows_the_space(t, space, cls, label, ratio):
    rng = np.random.default_rng(3)
    X = _random((N, P), space, rng)
    fam = map_family(X, helpers.random_member(space, cls, seed=4) @ X,
                     space, cls)
    Z0 = sample_structured(space, cls, seed=5)
    K = sample_structured(space, _other(cls), seed=6)
    # |Z* - e1 e2 Z| = 2 eps |K| against t max(1, |Z|)
    eps = ratio * t * max(1.0, np.linalg.norm(Z0)) / (2 * np.linalg.norm(K))
    assert _refusal(lambda: fam.with_z(Z0 + eps * K)) == (
        None if OFF[ratio] else "z_symmetry"), label


@pytest.mark.parametrize("t,space,cls,label", CATALOGUE, ids=IDS)
@pytest.mark.parametrize("ratio", OFF)
def test_membership_follows_the_space(t, space, cls, label, ratio):
    A = helpers.random_member(space, cls, seed=7)
    A = 3 * A / np.linalg.norm(A)
    E = helpers.random_member(space, _other(cls), seed=8)
    # |adj(A + eps E) - e2 (A + eps E)| = 2 eps |E| against t max(1, |A|)
    eps = ratio * t * np.linalg.norm(A) / (2 * np.linalg.norm(E))
    assert is_member(A + eps * E, space, cls) is OFF[ratio], label


@pytest.mark.parametrize("t", [0, 1, 5, -1, 1.0, float("nan")])
def test_space_refuses_a_tolerance_outside_the_unit_interval(t):
    with pytest.raises(ArgumentError,
                       match="^structure_tol must lie strictly between 0 and 1"):
        ScalarProductSpace(np.eye(2), structure_tol=t)


def test_profile_holds_only_rank_and_residual_by_keyword():
    assert [f.name for f in dataclasses.fields(ToleranceProfile)] == [
        "rank_tol", "residual_tol"]
    # a positional tolerance would silently have become rank_tol
    with pytest.raises(TypeError):
        ToleranceProfile(1e-3)
    with pytest.raises(TypeError):
        ToleranceProfile(structure_tol=1e-3)
    for name in ("rank_tol", "residual_tol"):
        with pytest.raises(ArgumentError, match=f"^{name} must lie strictly"):
            ToleranceProfile(**{name: 0.0})


def test_with_z_takes_only_the_parameter():
    assert list(inspect.signature(StructuredMapSolution.with_z).parameters) \
        == ["self", "Z"]
