"""Structure-preserving eigenvalue reassignment for matrices in the Jordan
or Lie algebra of an orthosymmetric scalar product.

The package solves two families of problems for a structured matrix A:
replace selected eigenvalues by targets while keeping their Jordan chains
and every other (possibly unknown) Jordan pair untouched, and reproduce or
preserve invariant subspaces, all with perturbations that stay inside the
structure.  A diagnostics layer verifies each result against an
independent dense eigensolver.
"""

from .core import (
    ScalarProductSpace,
    StructureClass,
    ToleranceProfile,
    adjoint,
    is_member,
    numerical_rank,
    pseudoinverse,
    sample_structured,
    structure_residual,
    z_symmetry_residual,
)
from .diagnostics import (
    GeneratedInstance,
    InstanceRecipe,
    PerturbationReport,
    PlanGroup,
    SpectrumVerdict,
    generate_instance,
    spectrum_multiset_compare,
    verify_reassignment,
)
from .errors import (
    ArgumentError,
    FormatError,
    InfeasiblePlanError,
    RealnessError,
    SpecPreserveError,
    StructureError,
)
from .mapping import (
    FeasibilityReport,
    StructuredMapSolution,
    feasibility_check,
    map_family,
    minimal_structured,
    solve_structured,
)
from .reassign import (
    ReassignmentResult,
    reassign_family,
    reassign_no_spillover,
    reassign_simple,
)
from .spectral import (
    JordanPair,
    ReassignmentAssembly,
    ReassignmentGroup,
    ReassignmentSpec,
    assemble,
    certificate_residual,
    extract_jordan_pairs,
    jordan_block,
    pairing_partner,
    validate_pairing_closure,
)
from . import spectral
from .subspaces import (
    CompatibilityReport,
    lambda_compatibility,
    no_spillover,
)

__version__ = "0.1.0"

# The three per-arrangement entries of earlier versions, for the benchmark
# harness, which imports them from the package and traces them in spectral;
# each is ``assemble``, which takes the arrangement from its space.
assemble_complex = assemble_real_lie = assemble_real_jordan = \
    spectral.assemble_complex = spectral.assemble_real_lie = \
    spectral.assemble_real_jordan = assemble

__all__ = [
    "ScalarProductSpace", "StructureClass", "ToleranceProfile",
    "adjoint", "structure_residual", "is_member", "pseudoinverse",
    "numerical_rank", "sample_structured", "z_symmetry_residual",
    "FeasibilityReport", "StructuredMapSolution", "feasibility_check",
    "map_family", "solve_structured", "minimal_structured",
    "CompatibilityReport", "lambda_compatibility", "no_spillover",
    "JordanPair", "ReassignmentGroup", "ReassignmentSpec",
    "ReassignmentAssembly", "jordan_block", "pairing_partner",
    "validate_pairing_closure", "extract_jordan_pairs",
    "assemble", "certificate_residual",
    "ReassignmentResult", "reassign_family", "reassign_no_spillover",
    "reassign_simple",
    "SpectrumVerdict", "PerturbationReport", "PlanGroup", "InstanceRecipe",
    "GeneratedInstance", "spectrum_multiset_compare", "verify_reassignment",
    "generate_instance",
    "SpecPreserveError", "ArgumentError", "StructureError", "RealnessError",
    "InfeasiblePlanError", "FormatError",
]
