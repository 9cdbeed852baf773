"""Benchmark of the minplus engines.

Run from the repository root:

    python3 perfbench/run.py --workload walk-128 --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. A readable report comes first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every product was
correct, 1 when one failed, and 2 on a usage error or when the library's
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_library():
    """Import ``minplus`` from the source tree next to the benchmark, never
    from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "minplus", "__init__.py")):
        raise ImportError(f"no minplus source tree at {SRC}")
    sys.path.insert(0, SRC)
    import minplus

    if os.path.dirname(os.path.dirname(os.path.abspath(minplus.__file__))) != SRC:
        raise ImportError(f"minplus was imported from {minplus.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    try:
        _import_library()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import harness
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = harness.measure(w, args.seed, max(0.0, args.seconds), bool(args.trace), os.path.join(HERE, "out"))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
