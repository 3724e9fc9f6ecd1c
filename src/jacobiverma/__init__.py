"""Exact lowest-weight Verma modules and singular vectors over the Jacobi algebra."""

from .algebra import Generator, JacobiAlgebra, Weight, mirror
from .pbw import PbwMonomial, UElement, monomial_weight, multiply, normal_order
from .ring import PolyQ, RatFuncQ, poly_gcd, rational_roots, squarefree_part
from .singular import (
    AnsatzSystem,
    BranchBudgetExceededError,
    KernelDimensionError,
    SolutionBranch,
    WeightReport,
    assemble_system,
    enumerate_ansatz,
    find_singular_vectors,
    solve_parametric,
)
from .verma import (
    ConstraintSet,
    InconsistentConstraintsError,
    InhomogeneousVectorError,
    SingularityReport,
    VermaVector,
    act,
    act_of_bracket,
    apply_word_to_v0,
    is_singular,
    vector_weight,
)

__all__ = [
    "AnsatzSystem",
    "BranchBudgetExceededError",
    "ConstraintSet",
    "Generator",
    "InconsistentConstraintsError",
    "InhomogeneousVectorError",
    "JacobiAlgebra",
    "KernelDimensionError",
    "PbwMonomial",
    "PolyQ",
    "RatFuncQ",
    "SingularityReport",
    "SolutionBranch",
    "UElement",
    "VermaVector",
    "Weight",
    "WeightReport",
    "act",
    "act_of_bracket",
    "apply_word_to_v0",
    "assemble_system",
    "enumerate_ansatz",
    "find_singular_vectors",
    "is_singular",
    "mirror",
    "monomial_weight",
    "multiply",
    "normal_order",
    "poly_gcd",
    "rational_roots",
    "solve_parametric",
    "squarefree_part",
    "vector_weight",
]

__version__ = "0.1.0"
