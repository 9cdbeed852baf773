"""The package's public surface and its module boundaries."""

import ast
import pathlib

import minplus as mp
from minplus import basic, recursive

PUBLIC = [
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

# slot and collision code the collision audit runs: recursive owns it, the
# product module binds none of it
SLOT_AND_COLLISION = [
    "b_partners",
    "colocated_pairs",
    "cross_check_count",
]

# the paper's packed products and the flat slot allocation only they and the
# tests run: a test-side reference, in no library module
PACKED_REFERENCE = [
    "AllocationMap",
    "_POLY_BYTES_LIMIT",
    "_build_allocation",
    "baseline_offset",
    "collision_block_counts",
    "collisions_exhaustive",
    "find_collisions",
    "process_large_segments",
    "process_small_segments",
    "subtract_collisions",
]

SRC = pathlib.Path(mp.__file__).parent


def test_public_names():
    assert sorted(mp.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(mp, name) is not None


def test_no_private_imports_across_modules():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                bad += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert bad == []


def test_slot_and_collision_code_lives_in_recursive():
    assert [name for name in SLOT_AND_COLLISION if hasattr(basic, name)] == []
    assert all(hasattr(recursive, name) for name in SLOT_AND_COLLISION)


def test_packed_reference_lives_in_tests():
    import packed_reference

    assert all(hasattr(packed_reference, name) for name in PACKED_REFERENCE)
    assert [name for name in PACKED_REFERENCE if hasattr(basic, name) or hasattr(recursive, name)] == []
    imports = [
        node.module
        for node in ast.walk(ast.parse((SRC / "recursive.py").read_text()))
        if isinstance(node, ast.ImportFrom)
    ]
    assert "oracle" not in imports
