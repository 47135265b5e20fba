"""Exact character values for symmetric groups and p-vanishing classification.

Everything is integer arithmetic on partitions: no floats, no numerics.
The modules layer cleanly: partitions (combinatorics), padic (base-p
structure and singularity), characters (recursive evaluation), vanishing
(classification, audits, the per-n report and the sweep over n), verify
(batch sweeps), cli (command line).
"""

from .characters import (
    CharacterTable,
    centralizer_order,
    character_table,
    character_value,
    degree,
    merged_cycle_type,
    multi_character_value,
)
from .padic import (
    PAdicContext,
    SINGULARITY_METHODS,
    degree_valuation,
    is_p_adic_type,
    is_p_singular,
    p_adic_context,
    p_adic_type_witness,
    p_power_partition,
    valuation,
    weight_digit,
)
from .partitions import (
    Partition,
    RDecomposition,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    from_core_and_quotient,
    hook_lengths,
    parse_partition,
    r_decompose,
    r_weight,
)
from .vanishing import (
    audit_vanishing_structure,
    base_vanishing_table,
    clear_caches,
    is_p_vanishing_structural,
    list_p_vanishing,
    structural_split,
    suffix_reduction_check,
    sweep,
    vanishing_classes,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "PAdicContext",
    "Partition",
    "RDecomposition",
    "SINGULARITY_METHODS",
    "as_partition",
    "audit_vanishing_structure",
    "base_vanishing_table",
    "centralizer_order",
    "character_table",
    "character_value",
    "clear_caches",
    "conjugate",
    "degree",
    "degree_valuation",
    "enumerate_partitions",
    "format_partition",
    "from_core_and_quotient",
    "hook_lengths",
    "is_p_adic_type",
    "is_p_singular",
    "is_p_vanishing_structural",
    "list_p_vanishing",
    "merged_cycle_type",
    "multi_character_value",
    "p_adic_context",
    "p_adic_type_witness",
    "p_power_partition",
    "parse_partition",
    "r_decompose",
    "r_weight",
    "structural_split",
    "suffix_reduction_check",
    "sweep",
    "valuation",
    "vanishing_classes",
    "weight_digit",
]
