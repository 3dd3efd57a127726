"""Waring decompositions of homogeneous forms that avoid a forbidden closed
set of linear forms, with exact rational certification wherever possible."""

from .apolarity import (CatMatrix, ProjPoint, apolar_component, base_points,
                        catalecticant, essential_split, essential_variables,
                        power_witness)
from .bounds import BoundTable, bbs_bound, improved_bound, recursion_bound
from .decompose import (absorb_coefficients, conic_intersection, decompose,
                        decompose_binary, decompose_inductive,
                        decompose_quadratic, decompose_ternary_cubic,
                        fit_coefficients)
from .errors import (CommonComponentError, ConsistencyError,
                     DegenerateSystemError, InvalidInputError, NoFitError,
                     NonHomogeneousError, NonTransversalError,
                     OpenWaringError, OutOfDomainError, ParseError,
                     RetryBudgetError)
from .numerics import (AppComplex, Rational, UniPoly, is_squarefree,
                       squarefree_part, univariate_roots)
from .poly import (DualOp, Form, LinearForm, change_coordinates, contract,
                   evaluate, evaluate_dual, linear_power, parse_form,
                   render_form)
from .verify import (Decomposition, ForbiddenSet, VerifyReport,
                     catalecticant_lower_bound, check_decomposition,
                     is_forbidden)

__version__ = "0.1.0"

__all__ = [
    "AppComplex", "BoundTable", "CatMatrix", "CommonComponentError",
    "ConsistencyError", "Decomposition", "DegenerateSystemError", "DualOp",
    "ForbiddenSet", "Form", "InvalidInputError", "LinearForm", "NoFitError",
    "NonHomogeneousError", "NonTransversalError", "OpenWaringError",
    "OutOfDomainError", "ParseError", "ProjPoint", "Rational",
    "RetryBudgetError", "UniPoly", "VerifyReport", "absorb_coefficients",
    "apolar_component", "base_points", "bbs_bound", "catalecticant",
    "catalecticant_lower_bound", "change_coordinates", "check_decomposition",
    "conic_intersection", "contract", "decompose", "decompose_binary",
    "decompose_inductive", "decompose_quadratic", "decompose_ternary_cubic",
    "essential_split", "essential_variables", "evaluate", "evaluate_dual",
    "fit_coefficients", "improved_bound", "is_forbidden", "is_squarefree",
    "linear_power", "parse_form", "power_witness", "recursion_bound",
    "render_form", "squarefree_part", "univariate_roots",
]
