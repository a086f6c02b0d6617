"""Seeded structured instances and reassignment families for the library
workloads.

Every family gets its own eigenvalue modulus, drawn from a jittered grid, so
eigenvalues of different families are well separated; a target takes the
modulus half a grid step further out, which keeps it away from every other
eigenvalue.  The library only ever sees the generated matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specpreserve import (
    InstanceRecipe,
    PlanGroup,
    ReassignmentGroup,
    ReassignmentSpec,
    assemble_complex,
    assemble_real_jordan,
    assemble_real_lie,
    generate_instance,
    sample_structured,
)
from workloads import jordan_form

# name -> (space kind, field, star, class); the three arrangements of the
# library: real Jordan, real Lie and complex (sesquilinear) Lie
ARRANGEMENTS = {
    "real-jordan": ("identity", "real", "t", "jordan"),
    "real-lie": ("skewj", "real", "t", "lie"),
    "complex-lie": ("random", "complex", "ct", "lie"),
}

NARROW = "narrow"  # closed family of simple eigenvalues, p <= 4
CHAIN = "chain"    # family with a length-2 Jordan chain (double value on H = I)
WIDE = "wide"      # closed family of simple eigenvalues, p = 64


@dataclass(frozen=True)
class Family:
    """A closed pairing family: currents, targets and their chains."""

    currents: tuple
    targets: tuple
    chains: tuple       # one n x k chain matrix per entry of currents

    @property
    def width(self) -> int:
        return sum(c.shape[1] for c in self.chains)

    def eigpairs(self):
        return [(lam, X[:, 0]) for lam, X in zip(self.currents, self.chains)]

    def spec(self) -> ReassignmentSpec:
        groups = {}
        for lam, tgt, X in zip(self.currents, self.targets, self.chains):
            groups.setdefault(lam, (tgt, []))[1].append(X)
        return ReassignmentSpec(groups=tuple(
            ReassignmentGroup(current=lam, target=tgt, chains=tuple(chs))
            for lam, (tgt, chs) in groups.items()))


@dataclass(frozen=True)
class Arranged:
    """A generated instance plus the families the workloads act on."""

    name: str
    A: np.ndarray
    space: object
    cls: object
    families: dict      # NARROW / CHAIN / WIDE -> Family
    rest: tuple         # (value, chain) of every eigenvalue outside NARROW
    fixed: tuple        # chains of simple eigenvalues in no family
    Z: np.ndarray       # seeded admissible family parameter


def _members(kind, lam):
    """The orbit of lam under the pairing of the arrangement's family kind."""
    if kind == "real":            # real Jordan: self-paired real value
        return [lam]
    if kind == "double":          # real Jordan: double real value
        return [lam, lam]
    if kind == "pm":              # real Lie: real pair {v, -v}
        return [lam, -lam]
    if kind == "imag":            # real Lie: imaginary pair {ib, -ib}
        return [lam, np.conj(lam)]
    if kind == "quad":            # real Lie: {l, conj l, -l, -conj l}
        return [lam, np.conj(lam), -lam, -np.conj(lam)]
    if kind == "couple":          # complex Lie: {l, -conj l}
        return [lam, -np.conj(lam)]
    raise ValueError(kind)


_ANGLE = {"real": 0.0, "double": 0.0, "pm": 0.0, "imag": np.pi / 2}


def _layout(name, n, wide):
    """(role, kind, chain length) per family; roles NARROW/CHAIN/WIDE/None."""
    if name == "real-jordan":
        head = [(NARROW, "real", 1)] * 4 + [(CHAIN, "double", 1)]
        wide_fams = [(WIDE, "real", 1)] * 64
        filler = [(None, "real", 1)]
    elif name == "real-lie":
        head = [(NARROW, "quad", 1), (CHAIN, "pm", 2)]
        wide_fams = [(WIDE, "quad", 1)] * 16
        filler = [(None, "pm", 1), (None, "imag", 1)]
    else:
        head = [(NARROW, "couple", 1), (NARROW, "couple", 1), (CHAIN, "couple", 2)]
        wide_fams = [(WIDE, "couple", 1)] * 32
        filler = [(None, "couple", 1)]
    fams = head + (wide_fams if wide else [])

    def size(f):
        return len(_members(f[1], 1.0 + 1.0j)) * f[2]

    used = sum(size(f) for f in fams)
    i = 0
    while used < n:
        f = filler[i % len(filler)]
        if used + size(f) > n:
            f = filler[0]
        fams.append(f)
        used += size(f)
        i += 1
    if used != n:
        raise ValueError(f"layout for {name} does not fill n = {n}")
    return fams


def build(name, n, seed, wide=False) -> Arranged:
    """Generate the instance of one arrangement and cut out its families."""
    space_kind, field, star, cls = ARRANGEMENTS[name]
    rng = np.random.default_rng([seed, n, list(ARRANGEMENTS).index(name)])
    fams = _layout(name, n, wide)
    order = rng.permutation(len(fams))
    step = 9.5 / len(fams)
    plan, placed = [], []
    for slot, f in zip(order, fams):
        role, kind, k = f
        r = 0.5 + step * (slot + 0.5 + rng.uniform(-0.2, 0.2))
        if kind in _ANGLE:
            theta = _ANGLE[kind]
        else:
            theta = rng.uniform(0.25, 1.3)
        sign = -1.0 if (kind == "real" and rng.random() < 0.5) else 1.0
        lam = sign * r * np.exp(1j * theta)
        tgt = sign * (r + 0.5 * step) * np.exp(1j * theta)
        cur, new = _members(kind, lam), _members(kind, tgt)
        if kind == "double":
            plan.append(PlanGroup(cur[0], (k, k)))
        else:
            plan.extend(PlanGroup(v, (k,)) for v in cur)
        placed.append((role, cur, new))

    recipe = InstanceRecipe(space_kind=space_kind, cls=cls, field=field,
                            star=star, plan=tuple(plan),
                            seed=int(rng.integers(2**31)))
    inst = generate_instance(recipe)
    by_value = {}
    for p in inst.pairs:
        by_value.setdefault(complex(p.value), []).append(p.chain)

    def chains_of(v):
        band = 1e-9 * max(1.0, abs(v))
        for key, chs in by_value.items():
            if abs(key - v) <= band:
                return chs
        raise ValueError(f"generated instance lost the value {v}")

    families = {}
    rest, fixed = [], []
    for role, cur, new in placed:
        # a double value lists its eigenvalue twice but owns two chains
        for v, t in dict(zip(cur, new)).items():
            for X in chains_of(v):
                if role != NARROW:
                    rest.append((complex(v), X))
                if role is None:
                    fixed.append(X)
                else:
                    fam = families.setdefault(role, ([], [], []))
                    fam[0].append(complex(v))
                    fam[1].append(complex(t))
                    fam[2].append(X)
    fam_objs = {role: Family(tuple(c), tuple(t), tuple(x))
                for role, (c, t, x) in families.items()}
    Z = sample_structured(inst.space, inst.cls, int(rng.integers(2**31)))
    return Arranged(name=name, A=inst.A, space=inst.space, cls=inst.cls,
                    families=fam_objs, rest=tuple(rest), fixed=tuple(fixed),
                    Z=Z)


def assemble(arr: Arranged, family: Family):
    """The arrangement's own assembly of a family (spectral layer)."""
    spec = family.spec()
    if arr.name == "real-jordan":
        return assemble_real_jordan(arr.A, spec, arr.space, arr.cls)
    if arr.name == "real-lie":
        return assemble_real_lie(arr.A, spec, arr.space, arr.cls)
    return assemble_complex(arr.A, spec, arr.space, arr.cls)


def fixed_pair(arr: Arranged):
    """(X_f, Lambda_f) for every eigenvalue outside the narrow family."""
    values, chains = zip(*arr.rest)
    return np.hstack(chains), jordan_form(values, chains)
