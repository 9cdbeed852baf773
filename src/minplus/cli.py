"""Command-line driver: matrix generation, algorithm runs with optional
verification, work-counter instrumentation, and CSV benchmark emission.

Exit codes: 0 success, 2 usage error (bad arguments or parameters, an
unreadable input or an unwritable output), 3 verification failure, 4
strict counter-bound violation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .basic import AlgoParams, Counters, basic_minplus, dense_minplus
from .matrix import BDMatrix, FormatError, Matrix, generate_bd, read_matrix, write_matrix
from .oracle import minplus_naive, minplus_small_entries
from .recursive import collision_audit, recursive_minplus

CSV_HEADER = (
    "algo,n,delta,alpha,beta,gamma,c0,seed,wall_ms,"
    "block_products,collision_checks,collisions_found,fallback_pairs,verified"
)

ALGOS = ("naive", "dense", "smallentry", "basic", "recursive")

# run takes its parameter defaults from the library, so both agree
_DEFAULTS = {f.name: f.default for f in fields(AlgoParams)}

EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_STRICT = 4


class UsageError(Exception):
    pass


@dataclass
class RunRecord:
    """One benchmark row; verified is None unless verification was requested."""

    algo: str
    n: int
    delta: int
    seed: int
    alpha: float
    beta: float
    gamma: float
    c0: int
    wall_ms: float
    counters: dict[str, int] = field(default_factory=dict)
    verified: bool | None = None

    def to_csv_row(self) -> str:
        ver = "" if self.verified is None else ("true" if self.verified else "false")
        cs = self.counters
        return ",".join(
            [
                self.algo,
                str(self.n),
                str(self.delta),
                str(self.alpha),
                str(self.beta),
                str(self.gamma),
                str(self.c0),
                str(self.seed),
                str(self.wall_ms),
                str(cs.get("block_products", 0)),
                str(cs.get("collision_checks", 0)),
                str(cs.get("collisions_found", 0)),
                str(cs.get("fallback_pairs", 0)),
                ver,
            ]
        )


def parse_records(text: str) -> list[RunRecord]:
    """Inverse of the CSV emission (header line required)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    out = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 14:
            raise ValueError(f"expected 14 fields, got {len(f)}")
        out.append(
            RunRecord(
                algo=f[0],
                n=int(f[1]),
                delta=int(f[2]),
                alpha=float(f[3]),
                beta=float(f[4]),
                gamma=float(f[5]),
                c0=int(f[6]),
                seed=int(f[7]),
                wall_ms=float(f[8]),
                counters={
                    "block_products": int(f[9]),
                    "collision_checks": int(f[10]),
                    "collisions_found": int(f[11]),
                    "fallback_pairs": int(f[12]),
                },
                verified=None if f[13] == "" else f[13] == "true",
            )
        )
    return out


def strict_violations(rec: RunRecord, params: AlgoParams) -> list[str]:
    """Counter-bound checks for --strict runs.

    block_products is bounded by the small-candidate budget plus the
    fallback budget; the number of private large-segment slots per reduced
    column is bounded by the block count over the segment-size threshold.
    """
    out = []
    n = rec.n
    l = params.block_len(n)
    nb = n // l
    t_beta = params.t_beta(n)
    bound_bp = nb * nb * t_beta + rec.counters.get("fallback_pairs", 0) * t_beta
    if rec.counters.get("block_products", 0) > bound_bp:
        out.append(f"block_products {rec.counters['block_products']} > {bound_bp}")
    max_ls = rec.counters.get("max_large_slots", 0)
    bound_ls = nb * nb / params.t_gamma(n)
    if max_ls > bound_ls:
        out.append(f"max_large_slots {max_ls} > {bound_ls:.1f}")
    if rec.counters.get("collisions_found", 0) > rec.counters.get("collision_checks", 0):
        out.append("collisions_found exceeds collision_checks")
    return out


def _require_bd(m, path: str) -> BDMatrix:
    if not isinstance(m, BDMatrix):
        raise UsageError(f"{path}: DELTA header required for this algorithm")
    return m


def _base(m) -> Matrix:
    return m.base if isinstance(m, BDMatrix) else m


def _execute(
    algo: str, a, b, params: AlgoParams, m_bound: int | None, counters: Counters, level_trace: list
) -> Matrix:
    if algo == "naive":
        return minplus_naive(_base(a), _base(b))
    if algo == "dense":
        return dense_minplus(_base(a), _base(b))
    if algo == "smallentry":
        if m_bound is None:
            raise UsageError("--m-bound is required for the smallentry algorithm")
        return minplus_small_entries(_base(a), _base(b), m_bound, counters)
    if algo == "basic":
        return basic_minplus(a, b, params, counters, level_trace)
    if algo == "recursive":
        return recursive_minplus(a, b, params, counters=counters, level_trace=level_trace)
    raise UsageError(f"unknown algorithm {algo!r}")


def _run_once(
    algo: str,
    a,
    b,
    params: AlgoParams,
    m_bound: int | None = None,
    verify: bool = False,
) -> tuple[Matrix, RunRecord]:
    counters = Counters()
    level_trace: list = []
    t0 = time.perf_counter()
    result = _execute(algo, a, b, params, m_bound, counters, level_trace)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    # collision counters come from the audit, outside the timed product (the
    # oracles leave the trace empty, and the audit then does nothing)
    collision_audit(a, b, params, level_trace, counters)
    verified = None
    if verify:
        verified = result == minplus_naive(_base(a), _base(b))
    rec = RunRecord(
        algo=algo,
        n=_base(a).n_rows,
        delta=params.delta,
        seed=params.seed,
        alpha=params.alpha,
        beta=params.beta,
        gamma=params.gamma,
        c0=params.c0,
        wall_ms=round(wall_ms, 3),
        counters=counters.as_dict(),
        verified=verified,
    )
    return result, rec


def cmd_gen(args) -> int:
    try:
        write_matrix(generate_bd(args.n, args.delta, args.seed), args.out)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return 0


def cmd_run(args) -> int:
    if args.algo not in ALGOS:
        print(f"error: unknown algorithm {args.algo!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        a = read_matrix(args.a)
        b = read_matrix(args.b)
    except (FormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.algo in ("basic", "recursive"):
            a = _require_bd(a, args.a)
            b = _require_bd(b, args.b)
            if a.delta != b.delta:
                raise UsageError(f"delta mismatch: {a.delta} vs {b.delta}")
            delta = a.delta
        else:
            delta = a.delta if isinstance(a, BDMatrix) else 1
        params = AlgoParams(
            delta=delta,
            alpha=args.alpha,
            beta=args.beta,
            gamma=args.gamma,
            c0=args.c0,
            seed=args.seed,
            l_min=args.l_min,
        )
        result, rec = _run_once(args.algo, a, b, params, m_bound=args.m_bound, verify=args.verify)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        write_matrix(result, args.out)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(CSV_HEADER)
    print(rec.to_csv_row())
    if args.verify and rec.verified is not True:
        print("error: verification against the naive product failed", file=sys.stderr)
        return EXIT_VERIFY
    if args.strict:
        bad = strict_violations(rec, params)
        if bad:
            for msg in bad:
                print(f"strict: {msg}", file=sys.stderr)
            return EXIT_STRICT
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        algos = [s.strip() for s in args.algos.split(",") if s.strip()]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.reps < 1:
        print(f"error: --reps must be at least 1, got {args.reps}", file=sys.stderr)
        return EXIT_USAGE
    for n in sizes:
        if n < 1 or n & (n - 1):
            print(f"error: size {n} is not a power of two", file=sys.stderr)
            return EXIT_USAGE
    for algo in algos:
        if algo not in ALGOS:
            print(f"error: unknown algorithm {algo!r}", file=sys.stderr)
            return EXIT_USAGE
    delta = 2  # benchmark instances are generated at a fixed delta
    rows = []
    status = 0
    for algo in algos:
        for n in sizes:
            for rep in range(args.reps):
                seed = args.seed if args.seed is not None else rep
                a = generate_bd(n, delta, 2 * seed)
                b = generate_bd(n, delta, 2 * seed + 1)
                params = AlgoParams(delta=delta, seed=seed)
                m_bound = None
                if algo == "smallentry":
                    m_bound = int(
                        max(
                            np.abs(a.base.data).max(initial=0),
                            np.abs(b.base.data).max(initial=0),
                        )
                    )
                _, rec = _run_once(algo, a, b, params, m_bound=m_bound, verify=True)
                rows.append(rec)
                if rec.verified is not True:
                    status = EXIT_VERIFY
                bad = strict_violations(rec, params)
                if bad:
                    for msg in bad:
                        print(f"strict: {algo} n={n} rep={rep}: {msg}", file=sys.stderr)
                    status = EXIT_STRICT
    text = CSV_HEADER + "\n" + "\n".join(r.to_csv_row() for r in rows) + "\n"
    try:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(text, end="")
    return status


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="minplus", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a bounded-difference matrix file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--delta", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="run one algorithm on two matrix files")
    r.add_argument("--algo", required=True)
    r.add_argument("--a", required=True)
    r.add_argument("--b", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    r.add_argument("--beta", type=float, default=_DEFAULTS["beta"])
    r.add_argument("--gamma", type=float, default=_DEFAULTS["gamma"])
    r.add_argument("--c0", type=int, default=_DEFAULTS["c0"])
    r.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    r.add_argument("--l-min", type=int, default=_DEFAULTS["l_min"])
    r.add_argument("--m-bound", type=int, default=None)
    r.add_argument("--verify", action="store_true")
    r.add_argument("--strict", action="store_true")
    r.set_defaults(func=cmd_run)

    bm = sub.add_parser("bench", help="benchmark a size/algorithm grid to CSV")
    bm.add_argument("--sizes", default="32,64,128")
    bm.add_argument("--algos", default="naive,basic,recursive")
    bm.add_argument("--reps", type=int, default=1)
    bm.add_argument("--csv", required=True)
    bm.add_argument("--seed", type=int, default=None)
    bm.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
