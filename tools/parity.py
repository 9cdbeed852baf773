"""Fixed-seed parity grid: what both engines produce on 132 cases, as JSON.

A refactor that must not change results runs this before and after and
compares the two files byte for byte:

    python tools/parity.py --out before.json   # on the old tree
    python tools/parity.py --out after.json    # on the new tree
    cmp before.json after.json

The grid is random walks (``generate_bd``) at n in {32, 64, 128}, delta in
{1, 2, 5}, three seeds each, and valley pairs (``tests/conftest.valley_bd``)
at n in {64, 128, 256}, delta in {2, 5}; every pair runs at alpha 0.9 and
0.6, with the recursion down to single entries (``l_min=1``) and the
paper's small-candidate threshold (``beta=0.6``, so that the sampled stage
runs), through both engines with engine seed 7. Each case records the sha1 of
the product, each level's active, pending and assigned pair arrays (shape
and sha1), and all six counters, with the collision audit run for n <= 256
(every case). The script imports ``minplus`` from the ``src`` next to it,
so each checkout measures its own code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import minplus as mp  # noqa: E402
from conftest import valley_bd  # noqa: E402

ENGINE_SEED = 7
AUDIT_MAX_N = 256


def pairs():
    """(name, n, delta, a, b) for every input pair of the grid."""
    for n in (32, 64, 128):
        for delta in (1, 2, 5):
            for seed in range(3):
                a, b = mp.generate_bd(n, delta, 2 * seed), mp.generate_bd(n, delta, 2 * seed + 1)
                yield f"walk-{n}-d{delta}-s{seed}", n, delta, a, b
    for n in (64, 128, 256):
        for delta in (2, 5):
            a, b = valley_bd(n, delta, n + delta)
            yield f"valley-{n}-d{delta}", n, delta, a, b


def digest(arr: np.ndarray) -> list:
    """Shape and sha1 of an int64 array."""
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    return [list(arr.shape), hashlib.sha1(arr.tobytes()).hexdigest()]


def run_case(engine: str, a, b, params: mp.AlgoParams, audit: bool) -> dict:
    counters, trace = mp.Counters(), []
    if engine == "basic":
        c = mp.basic_minplus(a, b, params, counters, trace)
    else:
        c = mp.recursive_minplus(a, b, params, counters=counters, level_trace=trace)
    if audit:
        mp.collision_audit(a, b, params, trace, counters)
    levels = [
        {
            "block_len": st.block_len,
            "active": digest(st.active),
            "pending": digest(st.pending),
            "assigned": {str(col): digest(st.assigned[col]) for col in sorted(st.assigned)},
        }
        for st in trace
    ]
    return {
        "product": digest(c.data),
        "levels": levels,
        "counters": dataclasses.asdict(counters),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    cases = {}
    for name, n, delta, a, b in pairs():
        for alpha in (0.9, 0.6):
            params = mp.AlgoParams(delta=delta, alpha=alpha, beta=0.6, seed=ENGINE_SEED, l_min=1)
            for engine in ("basic", "recursive"):
                cases[f"{name}-a{alpha}-{engine}"] = run_case(engine, a, b, params, n <= AUDIT_MAX_N)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(cases)} cases -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
