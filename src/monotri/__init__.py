"""Exact signed enumeration of monotone triangles and their generalizations.

The counting polynomial for monotone triangles with a strictly increasing
bottom row extends to arbitrary integer rows, where it equals a signed
enumeration of generalized monotone triangles.  This package evaluates the
polynomial by several independent exact methods, enumerates the triangle
classes, implements the decorated-triangle extension with its sign-reversing
involution, and verifies related identities and conjectures about
alternating sign matrix counts.
"""

from .decorated import (
    InternalConsistencyError,
    enumerate_tn,
    involution_step,
    signed_tn_count,
    tn_totals,
    verify_reduction,
)
from .evaluate import (
    METHODS,
    EvalCache,
    alpha,
    applicable_methods,
    extended_sum,
    operator_apply,
    operator_apply_alt,
)
from .identities import (
    CONJECTURES,
    ConjectureSpec,
    asm_number,
    check_cyclic,
    check_method_agreement,
    check_neighbor_split,
    check_shift_antisymmetry,
    check_two_step_split,
    emit_ratio_sequence,
    refined_asm,
    row_sum_identity,
    run_conjecture_suite,
    run_identity_grid,
    vsasm_number,
    w_refinement,
)
from .report import VerificationReport, render_table
from .rows import (
    BudgetExceededError,
    EnumerationLimits,
    count_triangles,
    dmt_admissible_rows,
    enumerate_dmt,
    enumerate_gmt,
    enumerate_mt,
    gmt_admissible_rows,
    mt_admissible_rows,
    row_sign_changes,
    signed_gmt_count,
    triangle_totals,
)
from .triangles import (
    SignStatistics,
    TnObject,
    Triangle,
    ValidationReport,
    inferred_special_positions,
    sc_statistic,
    tn_from_json,
    tn_to_json,
    triangle_from_json,
    triangle_to_json,
    validate_dmt,
    validate_gmt,
    validate_monotone_triangle,
    validate_tn,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CONJECTURES",
    "ConjectureSpec",
    "EnumerationLimits",
    "EvalCache",
    "InternalConsistencyError",
    "METHODS",
    "SignStatistics",
    "TnObject",
    "Triangle",
    "ValidationReport",
    "VerificationReport",
    "alpha",
    "applicable_methods",
    "asm_number",
    "check_cyclic",
    "check_method_agreement",
    "check_neighbor_split",
    "check_shift_antisymmetry",
    "check_two_step_split",
    "count_triangles",
    "dmt_admissible_rows",
    "emit_ratio_sequence",
    "enumerate_dmt",
    "enumerate_gmt",
    "enumerate_mt",
    "enumerate_tn",
    "extended_sum",
    "gmt_admissible_rows",
    "inferred_special_positions",
    "involution_step",
    "mt_admissible_rows",
    "operator_apply",
    "operator_apply_alt",
    "refined_asm",
    "render_table",
    "row_sign_changes",
    "row_sum_identity",
    "run_conjecture_suite",
    "run_identity_grid",
    "sc_statistic",
    "signed_gmt_count",
    "signed_tn_count",
    "tn_totals",
    "tn_from_json",
    "tn_to_json",
    "triangle_from_json",
    "triangle_to_json",
    "triangle_totals",
    "validate_dmt",
    "validate_gmt",
    "validate_monotone_triangle",
    "validate_tn",
    "verify_reduction",
    "vsasm_number",
    "w_refinement",
]
