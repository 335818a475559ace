import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction

import dataclasses

import pytest

import odolab
from odolab import gallery, space
from odolab.cli import main, verify_gallery
from odolab.gallery import GALLERY, get_spec, list_gallery
from odolab.space import solve_geometric_ratio


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def test_geometric_ratio_binary_closed_form():
    for i in (1, 2, 7, 40):
        assert abs(solve_geometric_ratio(i, 2) - 1.0 / i) < 1e-12


def test_geometric_ratio_brackets():
    for i in (2, 3, 10):
        for m in (3, 5, 9):
            c = solve_geometric_ratio(i, m)
            assert 1.0 / (i + 1) < c <= 1.0 / i + 1e-12
            # it really solves the equation
            assert abs(math.fsum(c ** j for j in range(m)) - (i + 1) / i) < 1e-9


def _bisect_200_steps(i, m):
    """The bisection without its stall exit: it runs all 200 steps."""
    target = (i + 1) / i

    def f(c):
        return math.fsum(c ** j for j in range(m)) - target

    lo, hi = 1.0 / (i + 1), 1.0 / i
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi <= lo or hi - lo <= 1e-16 * hi:
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_geometric_ratio_stall_exit_matches_the_200_step_bisection():
    for i in (1, 2, 3, 7, 40, 999, 10 ** 4, 10 ** 11):
        for m in (2, 3, 4, 9, 39):
            assert (solve_geometric_ratio(i, m).hex()
                    == _bisect_200_steps(i, m).hex()), (i, m)


def test_geometric_ratio_stops_when_the_bracket_stalls(monkeypatch):
    calls = []

    def fsum(terms):
        calls.append(1)
        return math.fsum(terms)

    monkeypatch.setattr(space, "math", types.SimpleNamespace(fsum=fsum))
    solve_geometric_ratio(1000, 3)
    assert len(calls) < 80       # one per bisection step; 200 without the exit


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def test_gallery_listing_covers_known_ids():
    ids = {gid for gid, _ in list_gallery()}
    assert {"ornstein", "binary-alpha", "same-measure", "hc-not-mixing",
            "geometric-mixing", "fhc-binary", "fhc-not-mixing", "trans-hc",
            "trans-mixing", "trans-fhc", "trans-rigid", "trans-hufhc",
            "hoeffbis-blocks", "shift-z", "shift-zplus"} <= ids


def test_get_spec_with_parameters():
    spec = get_spec("binary-alpha(2)")
    assert spec.mu(3) == (Fraction(1, 2) + Fraction(1, 9),
                          Fraction(1, 2) - Fraction(1, 9))
    same = get_spec("same-measure(1/2,1/4,1/4)")
    assert same.m(1) == 3
    with pytest.raises(KeyError):
        get_spec("no-such-system")


def test_open_question_entries_have_no_expectations():
    assert GALLERY["binary-three-quarters"].expectations == {}
    assert GALLERY["growing-alphabets"].expectations == {}


def test_verify_gallery_deterministic():
    a = verify_gallery()
    b = verify_gallery()
    assert a == b
    assert a["ok"]
    assert "seed" not in a


def test_verify_gallery_records_invalid_coordinates(monkeypatch, tmp_path,
                                                    capsys):
    entry = GALLERY["binary-alpha"]
    spec = get_spec("same-measure(1/2,1/3)")    # weights sum to 5/6
    bad = dataclasses.replace(entry, build=lambda: spec, expectations={})
    monkeypatch.setattr(gallery, "GALLERY",
                        {"binary-alpha": entry, "bad-weights": bad})
    doc = verify_gallery()
    assert not doc["ok"]
    checks = dict(c[:2] for c in doc["entries"]["bad-weights"]["checks"])
    assert checks["coordinates-valid"] == "mu_1 sums to 5/6 != 1"
    good = dict(c[:2] for c in doc["entries"]["binary-alpha"]["checks"])
    assert good["coordinates-valid"] is True
    assert main(["verify-gallery", "--out", str(tmp_path)]) == 1
    status = dict(line.split() for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("report:"))
    assert status == {"binary-alpha": "ok", "bad-weights": "FAIL"}


def test_expectations_never_contradicted():
    doc = verify_gallery()
    for gid, item in doc["entries"].items():
        for row in item["checks"]:
            if isinstance(row[-1], bool):
                assert row[-1], (gid, row)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_classify_ok(tmp_path):
    code = main(["classify", "ornstein", "--out", str(tmp_path),
                 "--horizon", "40"])
    assert code == 0
    doc = json.loads((tmp_path / "classify-ornstein.json").read_text())
    statuses = {v["criterion"]: v["status"] for v in doc["verdicts"]}
    assert statuses["hc-limsup-drop"].startswith("satisfied")
    # the transitivity search budget trips from horizon 64 on; below it the
    # search runs to its own conclusion
    drop = {v["criterion"]: v for v in doc["verdicts"]}["hc-drop-hoeffding"]
    assert drop["status"] == "inconclusive"
    assert drop["evidence"]["reason"] == (
        "no (offset, length) met both smallness conditions below eps=0.1")


def test_cli_classify_translation_gamma_ids(tmp_path):
    # both gamma_n criteria share one rule; each verdict carries its own id
    code = main(["classify", "trans-hc", "--out", str(tmp_path),
                 "--horizon", "12"])
    assert code == 0
    doc = json.loads((tmp_path / "classify-trans-hc.json").read_text())
    ids = [v["criterion"] for v in doc["verdicts"]]
    assert ids.count("hc-translation-gamma") == 1
    assert ids.count("mixing-translation-gamma") == 1


def test_cli_classify_unbounded_exits_one(tmp_path):
    code = main(["classify", "same-measure(1/6,1/3,1/2)",
                 "--out", str(tmp_path)])
    assert code == 1


def test_cli_bad_spec_exits_two(tmp_path):
    assert main(["classify", "not-a-system", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("gid,reason", [
    ("same-measure(1/2,1/3)", "mu_1 sums to 5/6 != 1"),
    ("same-measure(1/2,-1/2,1)", "mu_1 has a nonpositive weight"),
    ("same-measure(1)", "alphabet rule produced m_1=1 < 2"),
    ("binary-alpha(-1)", "alpha must be positive, not -1"),
    ("same-measure(1/2,0.5)",
     "same-measure weights mix p/q and decimal entries"),
], ids=["weights-sum", "negative-weight", "one-symbol", "negative-alpha",
        "mixed-row"])
def test_cli_bad_gallery_parameters_exit_two(tmp_path, capsys, gid, reason):
    assert main(["classify", gid, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"bad spec: {reason}\n"
    assert not list(tmp_path.iterdir())


def _product_config(kind, m, weights):
    return {"kind": kind,
            "alphabet": {"family": "constant", "params": {"m": m}},
            "measure": {"family": "same", "params": {"weights": weights}}}


@pytest.mark.parametrize("cfg,reason", [
    (_product_config("nope", 2, ["1/2", "1/2"]), "unknown kind 'nope'"),
    (_product_config("odometer", 2, ["1/2", "1/3"]), "mu_1 sums to 5/6 != 1"),
    (_product_config("odometer", 3, ["1/2", "1/2"]),
     "alphabet size does not match the fixed vector"),
    (_product_config("odometer", 2, ["0.5", "1/2"]),
     "same-measure weights mix p/q and decimal entries"),
], ids=["unknown-kind", "weights-sum", "short-vector", "mixed-row"])
def test_cli_malformed_config_exits_two(tmp_path, capsys, cfg, reason):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(cfg))
    assert main(["sequences", f"@{path}", "--horizon", "3",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"bad spec: {reason}\n"
    assert not list(tmp_path.glob("sequences-*"))


@pytest.mark.parametrize("cfg,reason", [
    ({"kind": "odometer",
      "alphabet": {"family": "affine", "params": {"a": -1, "b": 5}},
      "measure": {"family": "uniform", "params": {}}},
     "alphabet rule produced m_4=1 < 2"),
    ({"kind": "odometer",
      "alphabet": {"family": "cycle-range", "params": {"lo": 2, "hi": 3}},
      "measure": {"family": "same", "params": {"weights": ["1/2", "1/2"]}}},
     "alphabet size does not match the fixed vector"),
], ids=["affine-m4-is-1", "same-vector-on-m2-3"])
@pytest.mark.parametrize("command", [
    "sequences", "classify", "norms", "orbit", "witness --name fhc",
    "witness --name src"])
def test_cli_spec_error_past_the_first_coordinate_exits_two(
        tmp_path, capsys, cfg, reason, command):
    # coordinate 1 is valid, so the spec loads and the command breaks on a
    # later coordinate; a sequences table cut short leaves no TSV
    path = tmp_path / "system.json"
    path.write_text(json.dumps(cfg))
    name, *flags = command.split()
    out = tmp_path / "out"
    assert main([name, f"@{path}", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad spec: {reason}\n"
    assert not list(out.rglob("*.*"))


@pytest.mark.parametrize("argv", [
    "sequences trans-hc --horizon 3 --index-horizon 0",
    "sequences binary-alpha(2) --horizon 0",
    "sequences binary-alpha(2) --horizon -3",
    "classify trans-hc --horizon 0",
    "orbit fhc-binary --horizon 0",
    "norms fhc-binary --horizon 0",
    "sequences fhc-binary --horizon 3 --kappa 2",
    "sequences fhc-binary --horizon 3 --kappa 0.5x",
    "witness fhc-binary --name fhc --kappa 3",
    "witness binary-alpha(1/4) --name transitivity --trials 0",
    "witness binary-alpha(1/4) --name transitivity --trials -5",
    "witness fhc-binary --name src --trials 0",
    "witness fhc-binary --name src --trials -5",
    "witness binary-alpha(1/4) --name transitivity --seed -1",
    "witness fhc-binary --name src --seed -1",
    "witness fhc-binary --name fhc --seed -1",
    "witness fhc-binary --name fhc --epsilon abc",
    "witness fhc-binary --name fhc --epsilon 0",
    "witness fhc-binary --name fhc --epsilon -1",
    "witness fhc-binary --name mixing --iterate -1",
    "witness fhc-binary --name mixing --iterate 0",
    "witness fhc-binary --name src --cap 0",
    "orbit fhc-binary --epsilon abc",
    "orbit fhc-binary --p abc",
    "orbit fhc-binary --p 0.5",
    "orbit fhc-binary --f 0,x",
    "orbit fhc-binary --g -1",
    "orbit fhc-binary --depth 0",
    "orbit fhc-binary --depth -3",
])
def test_cli_bad_flag_values_exit_two(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ": error: argument --" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", ["orbit fhc-binary --f 5",
                                  "orbit fhc-binary --g 0,3"])
def test_cli_orbit_symbol_outside_alphabet_exits_two(argv, tmp_path, capsys):
    # parsed, but past the binary alphabet: one usage line, no report
    assert main(argv.split() + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and ": error: argument --" in err
    assert "outside the alphabet" in err
    assert not list(tmp_path.iterdir())


def test_cli_all_decimal_weight_row_runs(tmp_path):
    # a row is all p/q (test_cli_orbit) or all decimal; only a mix exits 2
    assert main(["orbit", "same-measure(0.5,0.5)", "--depth", "1",
                 "--horizon", "4", "--out", str(tmp_path)]) == 0


def test_cli_backend_mismatch_exits_two(tmp_path):
    assert main(["classify", "geometric-mixing", "--backend", "rational",
                 "--out", str(tmp_path)]) == 2


def test_cli_decimal_same_measure_runs_on_the_float_backend(tmp_path, capsys):
    # decimal weights are floats, so the spec's backend says float
    argv = ["classify", "same-measure(0.5,0.5)", "--out", str(tmp_path)]
    assert main(argv + ["--backend", "rational"]) == 2
    assert capsys.readouterr().err == (
        "spec runs on the float backend, not rational\n")
    assert not list(tmp_path.iterdir())
    assert main(argv + ["--backend", "float"]) == 0


def test_cli_sequences_tsv(tmp_path):
    code = main(["sequences", "fhc-not-mixing", "--horizon", "14",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "sequences-fhc-not-mixing.tsv").read_text().splitlines()
    header = rows[0].split("\t")
    assert header[0] == "index"
    assert {"eta", "delta", "gamma", "kappa", "omega", "theta"} <= set(header)
    # the split level on block coordinate 8 is 2/3, serialized as p/q
    row8 = dict(zip(header, rows[8].split("\t")))
    assert row8["gamma"] == "2/3"
    assert "path-dp" in row8["optimizers"]


def test_cli_sequences_translation(tmp_path, capsys):
    code = main(["sequences", "trans-hc", "--horizon", "6",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sequences-trans-hc-shifts.tsv").exists()
    # no budget trips, so no table says where it stopped
    assert capsys.readouterr().out.startswith("reports: ")


def _column(path, name):
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    col = rows[0].index(name)
    return {int(r[0]): r[col] for r in rows[1:]}


# sha256 of both reports of `sequences trans-hc` at the default horizon, as
# written when beta_sup still solved every residue
SEQUENCES_TRANS_HC = {
    "sequences-trans-hc.tsv":
        "b3e44c78fa1c542a54d2a13586b6631c808bf2107b43a075dc6a01b220b3e989",
    "sequences-trans-hc-shifts.tsv":
        "b29c8b8f4eaeab7df354d2a67b2690c7f2d9735424a7143a56e1aaa382a90357",
}


def test_cli_sequences_stops_at_the_beta_budget(tmp_path, capsys):
    # m_i = 2^i; beta at i = 11 would need 2048 * 2047 steps on float weights
    start = time.perf_counter()
    code = main(["sequences", "trans-hc", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("beta table stopped at i = 11: beta_sup needs 4192256 "
                      "DP steps, past the work budget of 1048576")
    assert len(out) == 2 and out[1].startswith("reports: ")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == SEQUENCES_TRANS_HC
    beta = _column(tmp_path / "sequences-trans-hc.tsv", "beta")
    assert [i for i, v in beta.items() if v] == list(range(1, 11))
    shifts = _column(tmp_path / "sequences-trans-hc-shifts.tsv", "gamma_n")
    assert sorted(shifts) == list(range(1, 51))


def test_cli_sequences_odometer_stops_at_the_kappa_budget(tmp_path, capsys):
    cfg = tmp_path / "uniform.json"
    cfg.write_text(json.dumps(_product_config("odometer", 2048,
                                              ["1/2048"] * 2048)))
    code = main(["sequences", f"@{cfg}", "--horizon", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("odometer table stopped at i = 1: kappa needs ")
    [report] = (tmp_path / "out").glob("sequences-*.tsv")
    header = report.read_text().splitlines()[0].split("\t")
    assert header == ["index", "delta", "eta", "theta", "optimizers"]


# sha256 of two odometer tables as written when every index solved its own
# row with the per-index theta, kappa, gamma_witness and omega calls
SEQUENCES_ODOMETER = {
    ("fhc-not-mixing", "--kappa", "1/5"):
        "58b5e8218e383b8a69fda6a1f1f958428edaffb97735f51094f21e2e2c4c0bd6",
    ("hc-not-mixing",):
        "7775ec51f485091742dd3a0b1676d4916d30fe43539f360373196faf4967c446",
}


@pytest.mark.parametrize("args", list(SEQUENCES_ODOMETER))
def test_cli_sequences_odometer_bytes(tmp_path, args):
    code = main(["sequences", args[0], "--horizon", "300", *args[1:],
                 "--out", str(tmp_path)])
    assert code == 0
    [report] = tmp_path.iterdir()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        SEQUENCES_ODOMETER[args]


# sha256 of the weighted-shift Salas tables at --horizon 20, as written
# before the criteria tables became plain rows
SEQUENCES_SHIFT = {
    "shift-z":
        "85df52d21caf6726ce48d87d1eb0753db0d445cfd1bb83deef7f52640668fa8e",
    "shift-zplus":
        "af5929c9841f687c957ebdb8c488a34f0fb4a75de143ac442e4d9000b623ee9c",
}


@pytest.mark.parametrize("gid", list(SEQUENCES_SHIFT))
def test_cli_sequences_shift_bytes(tmp_path, capsys, gid):
    code = main(["sequences", gid, "--horizon", "20", "--out", str(tmp_path)])
    assert code == 0
    [report] = tmp_path.iterdir()
    assert capsys.readouterr().out == f"report: {report}\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        SEQUENCES_SHIFT[gid]


def test_cli_sequences_translation_stops_both_tables(tmp_path, capsys):
    # m_i = 4^i: beta stops on its budget at i = 6, and gamma_n at n = 1
    # reads every index up to 12, where m_9 is past the materialization cap
    code = main(["sequences", "trans-mixing", "--horizon", "12",
                 "--index-horizon", "12", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert out[0].startswith("beta table stopped at i = 6: ")
    assert out[1].startswith("gamma table stopped at n = 1: alphabet of size "
                             "262144 ")
    assert out[2].startswith("reports: ")
    beta = _column(tmp_path / "sequences-trans-mixing.tsv", "beta")
    # the stopped row keeps eta and delta
    assert sorted(beta) == list(range(1, 7))
    assert [i for i, v in beta.items() if v] == list(range(1, 6))
    shifts = tmp_path / "sequences-trans-mixing-shifts.tsv"
    assert shifts.read_text() == "index\toptimizers\n"


def test_cli_sequences_solves_each_distinct_row_once(tmp_path, monkeypatch):
    from odolab import criteria
    spec = get_spec("hc-not-mixing")
    rows = {criteria._weights(spec, i) for i in range(1, 2001)}
    assert len(rows) == 7                 # alphabets 2..8 on a cycle
    solved = {"_kappa_value": [], "_gamma_exhaustive": []}
    for name, calls in solved.items():
        def counted(w, *rest, _kernel=getattr(criteria, name), _calls=calls):
            _calls.append(tuple(w))
            return _kernel(w, *rest)
        monkeypatch.setattr(criteria, name, counted)
    assert main(["sequences", "hc-not-mixing", "--horizon", "2000",
                 "--out", str(tmp_path)]) == 0
    assert sorted(solved["_kappa_value"]) == sorted(w for w, _ in rows)
    # the binary row's gamma is the closed form max(mu(0), mu(1))
    assert sorted(solved["_gamma_exhaustive"]) == sorted(
        w for w, _ in rows if len(w) > 2)


def test_cli_sequences_trans_mixing_ends(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["sequences", "trans-mixing", "--horizon", "8",
                 "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert capsys.readouterr().out.startswith("beta table stopped at i = ")


def test_cli_sequences_keeps_no_table(tmp_path, capsys):
    # each row goes out as it is filled and at most SOLVED_ROWS solved rows
    # are kept, so the traced peak of an 8,000-row table stays small: a
    # table held until it is written takes over 8 MiB here
    import odolab.criteria  # noqa: F401  (not part of the command's peak)
    tracemalloc.start()
    try:
        assert main(["sequences", "binary-alpha(1/4)", "--horizon", "8000",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_cli_ufhc_count_stops_at_the_sweep_budget(tmp_path, capsys):
    # the tilt stays 1 at every depth, so only the budget ends the scan
    start = time.perf_counter()
    code = main(["witness", "trans-hufhc", "--name", "ufhc-count",
                 "--epsilon", "0.5", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("witness inconclusive: gamma sweep needs ")


def test_cli_ufhc_count_counts_per_carry_block(tmp_path, capsys):
    # depth 20 and n = 2^19: 629,146 iterates, counted per carry block
    start = time.perf_counter()
    code = main(["witness", "fhc-binary", "--name", "ufhc-count",
                 "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert "witness ufhc-count: pass" in capsys.readouterr().out.splitlines()


def test_cli_transitivity_raised_cap_counts_on_the_chain(tmp_path, capsys):
    # the plan reaches depth 64: 2^64 cells, far too many to mark one by one
    start = time.perf_counter()
    code = main(["witness", "fhc-binary", "--name", "transitivity",
                 "--cap", str(10 ** 21), "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert "  [ok] disjoint (exact)" in capsys.readouterr().out.splitlines()
    doc = json.loads(
        (tmp_path / "witness-transitivity-fhc-binary.json").read_text())
    disjoint = next(c for c in doc["checks"] if c["name"] == "disjoint")
    assert (disjoint["computed"], disjoint["cells"]) == (0, 2 ** 64)


@pytest.mark.parametrize("gid", ["fhc-binary", "geometric-mixing"])
def test_cli_mixing_runs_at_its_burn_in(gid, tmp_path, capsys):
    # both entries register mixing; their burn-in k_0 is past 10^8
    code = main(["witness", gid, "--name", "mixing", "--out", str(tmp_path)])
    assert code == 0
    assert "witness mixing: pass" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("gid", ["trans-rigid", "trans-mixing"])
def test_cli_src_stops_at_the_scan_budget(gid, tmp_path, capsys):
    # m_3 = 4096 on trans-rigid: every candidate spans 4,164 cylinder symbols
    start = time.perf_counter()
    code = main(["witness", gid, "--name", "src", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 1
    assert capsys.readouterr().out.startswith("witness inconclusive: ")


# A regression would build a set over a whole alphabet (m_i up to 2^30 on
# trans-rigid): under this address-space limit it is a MemoryError in the
# child, not a killed test process.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from odolab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,stream,line", [
    (["orbit", "trans-rigid", "--depth", "5"], "stderr",
     "error: truncation at depth 5 passes the cap 16777216 at coordinate 4: "
     "coordinates 1..4 have 1099511627776 cells"),
    (["orbit", "trans-mixing", "--depth", "13"], "stderr",
     "error: truncation at depth 13 passes the cap 16777216 at coordinate 5: "
     "coordinates 1..5 have 1073741824 cells"),
    (["witness", "trans-rigid", "--name", "translation-fhcsum"], "stdout",
     "witness inconclusive: fhcsum shifts at site 5 needs 357913942 interval "
     "sums, past the work budget of 1048576"),
    (["witness", "trans-rigid", "--name", "translation-ufhcsum"], "stdout",
     "witness inconclusive: ufhcsum shifts at site 8 needs "
     "3148244321913096809130 interval sums, past the work budget of 1048576"),
], ids=["orbit-trans-rigid", "orbit-trans-mixing", "fhcsum", "ufhcsum"])
def test_cli_whole_alphabets_are_never_built(argv, stream, line, tmp_path):
    src = os.path.dirname(os.path.dirname(odolab.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LIMITED_CLI, *argv,
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    other = "stdout" if stream == "stderr" else "stderr"
    assert getattr(proc, stream) == line + "\n"
    assert getattr(proc, other) == ""


STARTUP_PROBE = """
import json, sys
from odolab.cli import load_spec, main
from odolab.gallery import list_gallery

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

for gid, _ in list_gallery():
    load_spec(gid)
specs_built = loaded("odolab")
out = sys.argv[1]
assert main(["classify", "trans-hc", "--out", out]) == 0
assert main(["sequences", "binary-alpha(2)", "--horizon", "50",
             "--out", out]) == 0
commands_run = loaded("odolab")
assert main(["orbit", "trans-hc", "--out", out]) == 0
assert main(["orbit", "hc-not-mixing", "--depth", "8", "--horizon", "64",
             "--out", out]) == 0
print(json.dumps({"specs_built": specs_built, "commands_run": commands_run,
                  "numpy": loaded("numpy")[:3]}))
"""


def test_cli_exact_commands_do_not_import_numpy(tmp_path):
    # the test process has NumPy loaded already, so a fresh interpreter runs
    src = os.path.dirname(os.path.dirname(odolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    # building specs loads only the layers beneath the gallery
    assert doc["specs_built"] == ["odolab", "odolab.cli", "odolab.errors",
                                  "odolab.gallery", "odolab.scalars",
                                  "odolab.space"]
    assert not {"odolab.functions", "odolab.witness"} & set(doc["commands_run"])
    assert doc["numpy"] == []


def test_cli_witness_fhc(tmp_path):
    code = main(["witness", "fhc-binary", "--name", "fhc",
                 "--epsilon", "0.1", "--kappa", "1/8", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "witness-fhc-fhc-binary.json").read_text())
    assert doc["passed"] is True
    methods = {c["name"]: c["method"] for c in doc["checks"]}
    assert methods["pullback-small-all-k"] == "proof-bound"


def test_cli_witness_fhc_spot_sample_past_int64(tmp_path):
    # N = 122 on fhc-not-mixing, so kappa d has 124 bits: the spots are
    # Python ints from the seed, not NumPy's int64 draw
    code = main(["witness", "fhc-not-mixing", "--name", "fhc", "--epsilon",
                 "0.05", "--kappa", "1/8", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(
        (tmp_path / "witness-fhc-fhc-not-mixing.json").read_text())
    assert doc["passed"] is True
    assert doc["params"]["d"].bit_length() > 63
    coverage = {c["name"]: c.get("coverage") for c in doc["checks"]}
    assert coverage["pullback-small-transport"] == "seeded-spot(1003)"


def test_cli_witness_fhc_past_the_depth_of_f(tmp_path):
    # the first depth meeting the hypothesis lies within f = [0, 0, 0]
    cfg = tmp_path / "heavy-zero.json"
    cfg.write_text(json.dumps({
        "kind": "odometer",
        "alphabet": {"family": "constant", "params": {"m": 2}},
        "measure": {"family": "same",
                    "params": {"weights": ["99/100", "1/100"]}}}))
    assert main(["witness", f"@{cfg}", "--name", "fhc",
                 "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("gid,name", [
    ("trans-hc", "fhc"),
    ("trans-hc", "mixing"),
    ("trans-hc", "shift-fhc"),
    ("fhc-binary", "rigidity"),
    ("fhc-binary", "translation-hoeffding"),
    ("shift-z", "transitivity"),
    ("shift-z", "src"),
    ("shift-z", "translation-shift-fhc"),      # not a witness name
])
def test_cli_witness_on_a_wrong_kind_exits_two(gid, name, tmp_path, capsys):
    try:
        code = main(["witness", gid, "--name", name, "--out", str(tmp_path)])
    except SystemExit as exc:      # argparse rejects a name it does not list
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.strip()
    assert not list(tmp_path.iterdir())


def test_cli_witness_unavailable_exits_one(tmp_path):
    code = main(["witness", "same-measure(1/2,1/2)", "--name", "fhc",
                 "--epsilon", "0.05", "--out", str(tmp_path)])
    assert code == 1


def test_cli_witness_over_budget_is_inconclusive(tmp_path, capsys):
    # the drops of Ornstein's candidate indices (m_i = i + 1) cost more than
    # the cell cap; the search stops before computing any of them
    start = time.perf_counter()
    code = main(["witness", "ornstein", "--name", "transitivity",
                 "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 1
    assert capsys.readouterr().out.startswith("witness inconclusive: ")
    assert not list(tmp_path.iterdir())


def test_cli_witness_cap_does_not_lift_the_search_budget(tmp_path, capsys):
    # --cap chooses the disjointness rung; the plan search stops at its own
    # budget before computing any drop
    start = time.perf_counter()
    code = main(["witness", "ornstein", "--name", "transitivity",
                 "--cap", str(10 ** 21), "--out", str(tmp_path)])
    assert time.perf_counter() - start < 10
    assert code == 1
    assert capsys.readouterr().out.startswith("witness inconclusive: ")


def test_cli_orbit(tmp_path):
    code = main(["orbit", "same-measure(1/2,1/2)", "--f", "0", "--g", "1",
                 "--epsilon", "0.1", "--p", "1", "--horizon", "10",
                 "--depth", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "orbit-same-measure_1_2_1_2_.tsv").read_text().splitlines()
    visited = [r.split("\t")[2] for r in rows[1:]]
    assert visited == ["1", "0"] * 5


TRANS_RIGID_ORBIT = b"""n\tdistance\tvisited\trunning_density
1\t0.499999999999997\t0\t0
2\t0.499999999999997\t0\t0
3\t0\t1\t1/3
4\t0.499999999999997\t0\t1/4
5\t0.499999999999997\t0\t1/5
6\t0.499999999999997\t0\t1/6
7\t0\t1\t2/7
8\t0.499999999999997\t0\t1/4
"""


def test_cli_orbit_trans_rigid_ends(tmp_path):
    # 4 x 64 x 4096 = 2^20 cells with a float coordinate at i = 3; the bytes
    # are the output of the per-cell Fraction definition of each distance
    src = os.path.dirname(os.path.dirname(odolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "odolab.cli", "orbit",
                           "trans-rigid", "--depth", "3", "--horizon", "8",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "visits: 2 / 8; period of f: 4"
    assert (tmp_path / "orbit-trans-rigid.tsv").read_bytes() == TRANS_RIGID_ORBIT


# orbit_trace over the 2^20 cells of depth 4 wrote these bytes in about 10 s
TRANS_MIXING_ORBIT = b"""n\tdistance\tvisited\trunning_density
1\t0.5\t0\t0
2\t0.5\t0\t0
3\t0\t1\t1/3
4\t0.5\t0\t1/4
5\t0.5\t0\t1/5
6\t0.5\t0\t1/6
7\t0\t1\t2/7
8\t0.5\t0\t1/4
9\t0.5\t0\t2/9
10\t0.5\t0\t1/5
11\t0\t1\t3/11
12\t0.5\t0\t1/4
13\t0.5\t0\t3/13
14\t0.5\t0\t3/14
15\t0\t1\t4/15
16\t0.5\t0\t1/4
17\t0.5\t0\t4/17
18\t0.5\t0\t2/9
19\t0\t1\t5/19
20\t0.5\t0\t1/4
21\t0.5\t0\t5/21
22\t0.5\t0\t5/22
23\t0\t1\t6/23
24\t0.5\t0\t1/4
25\t0.5\t0\t6/25
26\t0.5\t0\t3/13
27\t0\t1\t7/27
28\t0.5\t0\t1/4
29\t0.5\t0\t7/29
30\t0.5\t0\t7/30
31\t0\t1\t8/31
32\t0.5\t0\t1/4
33\t0.5\t0\t8/33
34\t0.5\t0\t4/17
35\t0\t1\t9/35
36\t0.5\t0\t1/4
37\t0.5\t0\t9/37
38\t0.5\t0\t9/38
39\t0\t1\t10/39
40\t0.5\t0\t1/4
41\t0.5\t0\t10/41
42\t0.5\t0\t5/21
43\t0\t1\t11/43
44\t0.5\t0\t1/4
45\t0.5\t0\t11/45
46\t0.5\t0\t11/46
47\t0\t1\t12/47
48\t0.5\t0\t1/4
49\t0.5\t0\t12/49
50\t0.5\t0\t6/25
"""


def test_cli_orbit_trans_mixing_default(tmp_path):
    src = os.path.dirname(os.path.dirname(odolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "odolab.cli", "orbit",
                           "trans-mixing", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "visits: 12 / 50; period of f: 4"
    assert (tmp_path / "orbit-trans-mixing.tsv").read_bytes() == TRANS_MIXING_ORBIT


@pytest.mark.parametrize("gid", ["shift-z", "shift-zplus"])
def test_cli_orbit_on_a_weighted_shift_exits_two(gid, tmp_path, capsys):
    assert main(["orbit", gid, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "orbit drives odometer or diagonal-translation specs, "
        "not weighted-shift\n")
    assert not list(tmp_path.iterdir())


def test_cli_norms(tmp_path):
    code = main(["norms", "fhc-binary", "--horizon", "12",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "norms-fhc-binary.tsv").read_text().splitlines()
    assert rows[0].split("\t") == ["l", "value", "running_sup"]
    assert rows[2].split("\t")[1] == "2"      # level-2 value is exactly 2


def test_cli_gallery_list(capsys):
    assert main(["gallery-list"]) == 0
    out = capsys.readouterr().out
    assert "fhc-binary" in out


def test_cli_verify_gallery(tmp_path):
    assert main(["verify-gallery", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify-gallery.json").read_text())
    assert doc["ok"] is True


def test_cli_config_file_round_trip(tmp_path):
    spec = get_spec("hc-not-mixing")
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(spec.to_config()))
    code = main(["sequences", f"@{cfg}", "--horizon", "6",
                 "--out", str(tmp_path)])
    assert code == 0
