"""Exact min-plus matrix products for bounded-difference matrices.

The package exports the public surface below; internals (candidate sets,
sampling, segments, slot allocation, the packed products and the
polynomial kernel) stay importable from their modules.
"""

from .basic import AlgoParams, Counters, InvariantError, LevelState, basic_minplus, dense_minplus
from .matrix import (
    INF,
    MAX_ENTRY,
    MAX_OPERAND,
    BDMatrix,
    FormatError,
    Matrix,
    generate_bd,
    read_matrix,
    validate_bd,
    write_matrix,
)
from .oracle import minplus_naive, minplus_small_entries
from .recursive import collision_audit, recursive_minplus

__version__ = "0.1.0"

__all__ = [
    "AlgoParams",
    "BDMatrix",
    "Counters",
    "FormatError",
    "INF",
    "InvariantError",
    "LevelState",
    "MAX_ENTRY",
    "MAX_OPERAND",
    "Matrix",
    "basic_minplus",
    "collision_audit",
    "dense_minplus",
    "generate_bd",
    "minplus_naive",
    "minplus_small_entries",
    "read_matrix",
    "recursive_minplus",
    "validate_bd",
    "write_matrix",
]
