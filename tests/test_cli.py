import functools

import numpy as np
import pytest

import minplus as mp
from minplus import cli
from minplus.cli import (
    CSV_HEADER,
    EXIT_STRICT,
    EXIT_USAGE,
    RunRecord,
    main,
    parse_records,
    strict_violations,
)


def run_cli(*argv):
    return main(list(argv))


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "a.mpm"
    assert run_cli("gen", "--n", "64", "--delta", "2", "--seed", "1", "--out", str(out)) == 0
    m = mp.read_matrix(out)
    assert isinstance(m, mp.BDMatrix)
    assert mp.validate_bd(m.base, 2)


def test_gen_rejects_bad_n(tmp_path, capsys):
    rc = run_cli("gen", "--n", "3", "--out", str(tmp_path / "x.mpm"))
    assert rc == EXIT_USAGE


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.mpm", tmp_path / "b.mpm"
    run_cli("gen", "--n", "32", "--delta", "2", "--seed", "9", "--out", str(p1))
    run_cli("gen", "--n", "32", "--delta", "2", "--seed", "9", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _gen_pair(tmp_path, n=32, delta=2, seed=4):
    pa, pb = tmp_path / "a.mpm", tmp_path / "b.mpm"
    run_cli("gen", "--n", str(n), "--delta", str(delta), "--seed", str(2 * seed), "--out", str(pa))
    run_cli("gen", "--n", str(n), "--delta", str(delta), "--seed", str(2 * seed + 1), "--out", str(pb))
    return pa, pb


def test_run_naive_verified(tmp_path, capsys):
    pa, pb = _gen_pair(tmp_path)
    out = tmp_path / "c.mpm"
    rc = run_cli("run", "--algo", "naive", "--a", str(pa), "--b", str(pb), "--out", str(out), "--verify")
    assert rc == 0
    text = capsys.readouterr().out
    recs = parse_records("\n".join(text.splitlines()[-2:]))
    assert recs[0].verified is True
    assert recs[0].algo == "naive"


@pytest.mark.parametrize("algo", ["basic", "recursive", "dense"])
def test_run_engines_verified(tmp_path, capsys, algo):
    pa, pb = _gen_pair(tmp_path)
    out = tmp_path / "c.mpm"
    rc = run_cli(
        "run", "--algo", algo, "--a", str(pa), "--b", str(pb), "--out", str(out),
        "--verify", "--strict", "--seed", "3",
    )
    assert rc == 0
    product = mp.read_matrix(out)
    a = mp.read_matrix(pa)
    b = mp.read_matrix(pb)
    assert product == mp.minplus_naive(a.base, b.base)


def test_run_takes_library_defaults(tmp_path, capsys):
    # run without schedule flags records the library's defaults, alpha 0.7
    pa, pb = _gen_pair(tmp_path)
    rc = run_cli("run", "--algo", "basic", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "c.mpm"))
    assert rc == 0
    rec = parse_records("\n".join(capsys.readouterr().out.splitlines()[-2:]))[0]
    assert rec.alpha == 0.7
    d = mp.AlgoParams(delta=2)
    assert (rec.alpha, rec.beta, rec.gamma, rec.c0, rec.seed) == (d.alpha, d.beta, d.gamma, d.c0, d.seed)


def test_run_l_min(tmp_path, capsys, monkeypatch):
    # --l-min reaches AlgoParams (default from the library); the CSV does
    # not record it
    seen = []
    real = cli.recursive_minplus

    def recording(a, b, params, **kw):
        seen.append(params.l_min)
        return real(a, b, params, **kw)

    monkeypatch.setattr(cli, "recursive_minplus", recording)
    pa, pb = _gen_pair(tmp_path)
    base = ("run", "--algo", "recursive", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "c.mpm"))
    assert run_cli(*base, "--verify") == 0
    assert run_cli(*base, "--alpha", "0.9", "--l-min", "1", "--verify", "--strict") == 0
    assert seen == [mp.AlgoParams(delta=2).l_min, 1]
    assert run_cli(*base, "--l-min", "3") == EXIT_USAGE


def test_run_smallentry_range_error(tmp_path, capsys):
    pa, pb = _gen_pair(tmp_path)
    rc = run_cli(
        "run", "--algo", "smallentry", "--a", str(pa), "--b", str(pb),
        "--out", str(tmp_path / "c.mpm"), "--m-bound", "1",
    )
    assert rc == EXIT_USAGE


def test_run_smallentry_ok(tmp_path, capsys):
    pa, pb = _gen_pair(tmp_path, n=16)
    a = mp.read_matrix(pa)
    b = mp.read_matrix(pb)
    bound = int(max(np.abs(a.base.data).max(), np.abs(b.base.data).max()))
    out = tmp_path / "c.mpm"
    rc = run_cli(
        "run", "--algo", "smallentry", "--a", str(pa), "--b", str(pb),
        "--out", str(out), "--m-bound", str(bound), "--verify",
    )
    assert rc == 0
    assert mp.read_matrix(out) == mp.minplus_naive(a.base, b.base)


def test_run_unknown_algo(tmp_path):
    pa, pb = _gen_pair(tmp_path)
    rc = run_cli("run", "--algo", "magic", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "c"))
    assert rc == EXIT_USAGE


def test_run_delta_mismatch(tmp_path):
    pa = tmp_path / "a2.mpm"
    pb = tmp_path / "b5.mpm"
    run_cli("gen", "--n", "32", "--delta", "2", "--seed", "1", "--out", str(pa))
    run_cli("gen", "--n", "32", "--delta", "5", "--seed", "2", "--out", str(pb))
    rc = run_cli("run", "--algo", "basic", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "c"))
    assert rc == EXIT_USAGE


def test_run_requires_delta_header(tmp_path):
    plain = tmp_path / "p.mpm"
    mp.write_matrix(mp.Matrix(np.zeros((4, 4), dtype=np.int64)), plain)
    rc = run_cli("run", "--algo", "basic", "--a", str(plain), "--b", str(plain), "--out", str(tmp_path / "c"))
    assert rc == EXIT_USAGE


def _paper_beta(monkeypatch):
    """Make ``bench``, which has no --beta, run at the paper's beta = 0.6,
    so that its products sample and its audits count collisions."""
    monkeypatch.setattr(cli, "AlgoParams", functools.partial(mp.AlgoParams, beta=0.6))


def test_bench_grid(tmp_path, capsys, monkeypatch):
    _paper_beta(monkeypatch)
    csv = tmp_path / "bench.csv"
    rc = run_cli(
        "bench", "--sizes", "32,64,128", "--algos", "naive,basic", "--reps", "3", "--csv", str(csv)
    )
    assert rc == 0
    recs = parse_records(csv.read_text())
    assert len(recs) == 18
    assert all(r.verified is True for r in recs)
    assert all(
        r.counters["collisions_found"] <= r.counters["collision_checks"] for r in recs
    )


def test_bench_fixed_seed_counters_identical(tmp_path, monkeypatch):
    _paper_beta(monkeypatch)
    csv = tmp_path / "bench.csv"
    rc = run_cli(
        "bench", "--sizes", "64", "--algos", "basic", "--reps", "3", "--csv", str(csv), "--seed", "5"
    )
    assert rc == 0
    recs = parse_records(csv.read_text())
    assert len(recs) == 3
    assert len({r.counters["block_products"] for r in recs}) == 1
    assert len({r.counters["collision_checks"] for r in recs}) == 1


def test_bench_rejects_bad_size(tmp_path):
    # a size that is not a power of two, or no repetition, is a usage
    # error, and no CSV is written
    for bad in (("--sizes", "33"), ("--reps", "0")):
        rc = run_cli("bench", *bad, "--csv", str(tmp_path / "x.csv"))
        assert rc == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()


def test_csv_roundtrip():
    rec = RunRecord(
        algo="basic", n=64, delta=2, seed=3, alpha=0.9, beta=0.6, gamma=0.6, c0=3,
        wall_ms=12.5,
        counters={"block_products": 10, "collision_checks": 5, "collisions_found": 2, "fallback_pairs": 0},
        verified=True,
    )
    text = CSV_HEADER + "\n" + rec.to_csv_row()
    back = parse_records(text)[0]
    assert back == rec


def test_run_exit_verify_failure(tmp_path, monkeypatch):
    # fault injection: make the reference product disagree
    import minplus.cli as cli

    pa, pb = _gen_pair(tmp_path, n=16)
    wrong = mp.Matrix(np.ones((16, 16), dtype=np.int64))
    monkeypatch.setattr(cli, "minplus_naive", lambda a, b: wrong)
    rc = run_cli("run", "--algo", "basic", "--a", str(pa), "--b", str(pb),
                 "--out", str(tmp_path / "c.mpm"), "--verify")
    assert rc == 3


def test_run_exit_strict_violation(tmp_path, monkeypatch):
    import minplus.cli as cli

    pa, pb = _gen_pair(tmp_path, n=16)
    monkeypatch.setattr(cli, "strict_violations", lambda rec, params: ["fabricated"])
    rc = run_cli("run", "--algo", "basic", "--a", str(pa), "--b", str(pb),
                 "--out", str(tmp_path / "c.mpm"), "--strict")
    assert rc == EXIT_STRICT


def test_strict_violation_detection():
    params = mp.AlgoParams(delta=2)
    rec = RunRecord(
        algo="basic", n=64, delta=2, seed=0, alpha=0.9, beta=0.6, gamma=0.6, c0=3,
        wall_ms=1.0,
        counters={
            "block_products": 10**9,
            "collision_checks": 0,
            "collisions_found": 1,
            "fallback_pairs": 0,
            "max_large_slots": 10**6,
        },
    )
    msgs = strict_violations(rec, params)
    assert len(msgs) == 3


@pytest.mark.parametrize("algo", ["naive", "basic", "recursive"])
def test_run_product_beyond_operand_range_roundtrips(tmp_path, capsys, algo):
    # operands at the 2**60 cap give products near 2**61, which the output
    # file holds and reads back exactly; the paper's beta also sends the
    # engines' pairs through the sampled stage's bucket sums
    pa, pb, out = tmp_path / "a.mpm", tmp_path / "b.mpm", tmp_path / "c.mpm"
    for path, seed in ((pa, 1), (pb, 2)):
        x = mp.generate_bd(16, 2, seed).base.data
        mp.write_matrix(mp.BDMatrix(mp.Matrix(mp.MAX_OPERAND - (x - x.min())), 2), path)
    rc = run_cli(
        "run", "--algo", algo, "--a", str(pa), "--b", str(pb), "--out", str(out),
        "--verify", "--strict", "--beta", "0.6",
    )
    assert rc == 0
    a, b, c = mp.read_matrix(pa), mp.read_matrix(pb), mp.read_matrix(out)
    assert c == mp.minplus_naive(a.base, b.base)
    assert np.abs(c.data).max() > mp.MAX_OPERAND
