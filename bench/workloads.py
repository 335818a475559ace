"""The workloads: seeded inputs, the CLI operations, and their checks.

A workload is a fixed list of `odolab` command lines, made of two groups.  The seed only changes
inputs (witness seeds, orbit cylinder symbols, generated config files), never
which operations run, so every run attempts the same operations.  Each
operation has a check that recomputes its outputs through `oracle` and raises
`CheckFailed` on a wrong value.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable

import oracle

FLOAT_TOL = 1e-12
ISOLATED_BUDGET_S = 2.0   # child-process operations are killed after this long


class CheckFailed(Exception):
    pass


@dataclass
class Result:
    rc: int
    stdout: str
    out: Path          # the operation's --out directory


@dataclass
class Op:
    argv: list
    check: Callable[[Result], None]
    isolated: bool = False    # run in a child process killed at ISOLATED_BUDGET_S

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# reading reports and comparing values
# ---------------------------------------------------------------------------

def parse_value(text: str):
    """"p/q" and integers are exact; anything else is a float."""
    if "/" in text or text.lstrip("-").isdigit():
        return Fraction(text)
    return float(text)


def expect(got, want, where: str):
    """Exact equality when `want` is exact, else agreement within 1e-12."""
    if isinstance(want, Fraction):
        if not isinstance(got, Fraction) or got != want:
            raise CheckFailed(f"{where}: got {got}, expected exactly {want}")
    elif abs(float(got) - want) > FLOAT_TOL * max(1.0, abs(want)):
        raise CheckFailed(f"{where}: got {got!r}, expected {want!r}")


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def one_file(res: Result, pattern: str) -> Path:
    found = sorted(res.out.glob(pattern))
    require(len(found) == 1, f"expected one report {pattern} in {res.out}, "
                             f"found {[p.name for p in found]}")
    return found[0]


def read_tsv(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    head = rows[0]
    return [dict(zip(head, r)) for r in rows[1:]]


def read_json(res: Result, pattern: str) -> dict:
    return json.loads(one_file(res, pattern).read_text())


def require_rc(res: Result):
    require(res.rc == 0, f"exit code {res.rc}, expected 0")


# ---------------------------------------------------------------------------
# check builders
# ---------------------------------------------------------------------------

def odometer_table_check(weights: Callable, horizon: int, kappa=Fraction(1, 5),
                         extra: Callable = None):
    """`sequences` on an odometer: every column against closed forms.

    eta/delta are the extreme weights, theta the best positive-part drop,
    omega the top-interval mass; kappa and gamma are the binary closed form
    max(w) or, up to m = 16, a subset enumeration.
    """
    @cache
    def optima(w):
        if len(w) == 2:
            return max(w), max(w)
        if len(w) <= 16 and all(isinstance(x, Fraction) for x in w):
            k, g, _ = oracle.brute_force_optima(w)
            return k, g
        return None, None

    @cache
    def expected():
        out = {}
        for i in range(1, horizon + 1):
            w = weights(i)
            k, g = optima(w)
            out[i] = {"eta": max(w), "delta": min(w),
                      "theta": oracle.theta_max(w), "kappa": k, "gamma": g,
                      "omega": oracle.top_interval(w, kappa, len(weights(i + 1)))}
        return out

    def check(res: Result):
        require_rc(res)
        rows = read_tsv(one_file(res, "sequences-*.tsv"))
        require(len(rows) == horizon, f"{len(rows)} rows, expected {horizon}")
        exp = expected()
        for row in rows:
            i = int(row["index"])
            for col, want in exp[i].items():
                if want is not None:
                    expect(parse_value(row[col]), want, f"{col}[{i}]")
            if extra:
                extra(i, {c: parse_value(row[c]) for c in exp[i]})
    return check


def ramp_coordinates(coordinate: Callable):
    """(weights, extremes, size) of a ramp family given (m, ramp, delta)."""
    return (lambda i: oracle.ramp_weights(*coordinate(i)),
            lambda i: oracle.ramp_eta_delta(*coordinate(i)),
            lambda i: coordinate(i)[0])


def fixed_coordinates(w: tuple):
    return (lambda i: w), (lambda i: (max(w), min(w))), (lambda i: len(w))


def translation_table_check(coordinates: tuple, horizon: int,
                            index_horizon: int = 8, beta_closed: dict = None):
    """`sequences` on a diagonal translation: both reports.

    eta/delta come from the weight closed form (floats past the exact ramp
    cap); beta from `beta_closed` or, up to m = 16, by subset enumeration;
    gamma_n and gamma~ from alpha and theta recomputed over i <= the index
    horizon.
    """
    weights, extremes, size = (cache(f) for f in coordinates)
    beta_closed = beta_closed or {}

    @cache
    def row_expected(i):
        top, flat = extremes(i)
        out = {"eta": top, "delta": flat}
        if i in beta_closed:
            out["beta"] = beta_closed[i]
        elif size(i) <= 16:
            out["beta"] = oracle.brute_force_optima(weights(i))[2]
        return out

    @cache
    def shift_expected(n, idx_h):
        ws = [weights(i) for i in range(1, idx_h + 1)]
        return {"gamma_n": max(oracle.alpha_shift(w, n) for w in ws),
                "gamma_tilde": oracle.gamma_tilde(
                    [oracle.theta_shift(w, n) for w in ws])}

    def check(res: Result):
        require_rc(res)
        shifts_path = one_file(res, "sequences-*-shifts.tsv")
        main = [p for p in res.out.glob("sequences-*.tsv") if p != shifts_path]
        require(len(main) == 1, f"index reports {main}")
        rows = read_tsv(main[0])
        shifts = read_tsv(shifts_path)
        require(1 <= len(rows) <= horizon, f"{len(rows)} index rows")
        require(len(shifts) == horizon, f"{len(shifts)} shift rows")
        for row in rows:
            i = int(row["index"])
            for col, want in row_expected(i).items():
                expect(parse_value(row[col]), want, f"{col}[{i}]")
        idx_h = min(horizon, index_horizon)
        for row in shifts:
            n = int(row["index"])
            for col, want in shift_expected(n, idx_h).items():
                expect(parse_value(row[col]), want, f"{col}[{n}]")
    return check


def classify_check():
    """Exit code 0, a bounded verdict, no contradiction of an expectation."""
    def check(res: Result):
        require_rc(res)
        doc = read_json(res, "classify-*.json")
        require("contradiction" not in doc, f"contradiction {doc.get('contradiction')}")
        require(not doc["boundedness"]["verdict"].startswith("unbounded"),
                "unbounded verdict")
        statuses = {"satisfied-closed-form", "satisfied-up-to-horizon",
                    "violated", "inconclusive"}
        for v in doc["verdicts"]:
            require(v["status"] in statuses, f"unknown status {v['status']}")
    return check


def witness_check(extra: Callable = None):
    """Exit code 0 and every recorded check passed."""
    def check(res: Result):
        require_rc(res)
        doc = read_json(res, "witness-*.json")
        require(doc["passed"], "witness did not pass")
        for c in doc["checks"]:
            require(c["ok"], f"check {c['name']} failed")
        if extra:
            extra(doc, {c["name"]: c for c in doc["checks"]})
    return check


def sampled_disjointness(trials: int, seed: int):
    """The sampled rung saw 0 violations in exactly the requested trials."""
    def extra(doc, checks):
        d = checks["disjoint"]
        require(d["method"] == "sampled", f"disjointness via {d['method']}")
        require(int(d["trials"]) == trials and int(d["seed"]) == seed,
                "trial count or seed differs from the request")
        require(int(d["computed"]) == 0, f"{d['computed']} violations")
    return extra


def fhc_witness_extra(gid: str, p1: Callable, N: int, seed: int):
    """Parameters from the closed form; a seeded handful of transports redone.

    B is the depth-N cylinder {x_N = 1}, n = 2^(N-1) and d = 2^N.  For
    k <= d/8, mu(o^-k B) is at most the certified bound p1(N) + p1(N-1) and
    mu(o^-(n+k) B) at least 1 - p1(N) - p1(N-1).  The library's carry chain
    must give the same masses exactly.
    """
    d, n = 2 ** N, 2 ** (N - 1)
    small_bound = p1(N) + p1(N - 1)
    large_bound = 1 - small_bound
    rng = random.Random(seed)
    ks = [0, d // 8] + [rng.randrange(d // 8 + 1) for _ in range(4)]
    top = frozenset({1})
    expected = [(k, oracle.binary_pullback(p1, N, top, k),
                 oracle.binary_pullback(p1, N, top, n + k)) for k in ks]
    for k, small, large in expected:
        require(small <= small_bound and large >= large_bound,
                f"closed-form transport at k={k} breaks its certified bound")

    def extra(doc, checks):
        from odolab import gallery, maps, space
        params = doc["params"]
        require((int(params["N"]), int(params["j"]), int(params["n"]),
                 int(params["d"])) == (N, 1, n, d), f"params {params}")
        expect(parse_value(checks["pullback-small-all-k"]["computed"]),
               small_bound, "certified small bound")
        expect(parse_value(checks["pullback-large-all-k"]["computed"]),
               large_bound, "certified large bound")
        require(parse_value(checks["pullback-small-transport"]["computed"])
                <= small_bound, "worst small transport above its bound")
        require(parse_value(checks["pullback-large-transport"]["computed"])
                >= large_bound, "worst large transport below its bound")
        spec = gallery.get_spec(gid)
        B = space.DepthSet.product_form(
            spec, [frozenset({0, 1})] * (N - 1) + [top])
        for k, small, large in expected:
            expect(maps.odometer_pullback_measure(spec, B, k), small,
                   f"mu(o^-{k} B)")
            expect(maps.odometer_pullback_measure(spec, B, n + k), large,
                   f"mu(o^-(n+{k}) B)")
    return extra


def orbit_check(weights: list, f_sym, g_sym, horizon: int, epsilon: str):
    """Distances of 1_[f] against 1_[g] along the odometer, from cylinder masses."""
    dists, M = oracle.cylinder_orbit_distances(weights, f_sym, g_sym, horizon)
    eps = Fraction(float(epsilon))

    def check(res: Result):
        require_rc(res)
        rows = read_tsv(one_file(res, "orbit-*.tsv"))
        require(len(rows) == horizon, f"{len(rows)} orbit rows")
        visits = 0
        for n, (row, want) in enumerate(zip(rows, dists), start=1):
            expect(parse_value(row["distance"]), float(want), f"distance[{n}]")
            inside = want < eps
            visits += inside
            require(row["visited"] == ("1" if inside else "0"), f"visited[{n}]")
            expect(parse_value(row["running_density"]), Fraction(visits, n),
                   f"density[{n}]")
        require(f"visits: {visits} / {horizon}; period of f: {M}" in res.stdout,
                "visit count or period of f in the summary line")
    return check


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def odometer_exact(rng: random.Random, inputs: Path) -> list:
    """Rational binary odometers; most time in carry-chain transports."""
    ops = []
    # N is the first depth where the top-interval mass mu_{N-1}(1) and the
    # split defect 1 - mu_N(0) both fall below eps/2: max(1/N, 1/(N+1)) < 0.05
    # on fhc-binary, and 1/(k+1) < 0.15 at N = 3k+2 on fhc-not-mixing.  Both
    # keep d/8 > 4096, so the witness spot-checks seeded iterates.
    for gid, eps, N, p1 in (("fhc-binary", "0.1", 21,
                             lambda i: oracle.fhc_binary_weights(i)[1]),
                            ("fhc-not-mixing", "0.3", 20,
                             lambda i: oracle.fhc_not_mixing_weights(i)[1])):
        seed = rng.randrange(1 << 31)
        extra = fhc_witness_extra(gid, p1, N, seed)
        ops.append(Op(["witness", gid, "--name", "fhc", "--epsilon", eps,
                       "--kappa", "1/8", "--seed", str(seed)],
                      witness_check(extra)))

    def src_extra(doc, checks):
        require(doc["params"].get("route") == "transitivity", "src route")
        require(int(checks["disjoint"]["computed"]) == 0, "src violations")

    ops.append(Op(["witness", "fhc-binary", "--name", "src"],
                  witness_check(src_extra)))
    ops.append(Op(["classify", "fhc-binary", "--horizon", "40"],
                  classify_check()))
    ops.append(Op(["sequences", "fhc-not-mixing", "--horizon", "100",
                   "--kappa", "1/5"],
                  odometer_table_check(oracle.fhc_not_mixing_weights, 100,
                                       extra=_fhc_not_mixing_blocks)))
    ops.append(Op(["norms", "fhc-binary", "--horizon", "24"],
                  norms_check(lambda l: Fraction(l, math.factorial(l - 1)), 24)))
    return ops


def _fhc_not_mixing_blocks(i: int, row: dict):
    k, r = divmod(i, 3)
    if r == 2 and k >= 1:
        require(row["gamma"] == 1 - Fraction(1, k + 1), f"gamma[{i}]")
    if r == 1 and k >= 1:
        require(row["omega"] == Fraction(1, k + 1), f"omega[{i}]")
    if r == 0:
        require(row["eta"] == Fraction(1, 2), f"eta[{i}]")


def norms_check(level_value: Callable, horizon: int):
    """Boundedness levels against a closed form; running sup is the prefix max."""
    def check(res: Result):
        require_rc(res)
        rows = read_tsv(one_file(res, "norms-*.tsv"))
        require(len(rows) == horizon, f"{len(rows)} levels")
        sup = None
        for row in rows:
            l = int(row["l"])
            want = level_value(l)
            sup = want if sup is None else max(sup, want)
            expect(parse_value(row["value"]), want, f"value[{l}]")
            expect(parse_value(row["running_sup"]), sup, f"running_sup[{l}]")
    return check


def _trans_rigid_level(l: int):
    """prod_{2 <= i <= l} (1 + 1/(2^i m_{i-1})): the sup shift ratio is rho_i."""
    prod = Fraction(1)
    for i in range(2, l + 1):
        prod *= 1 + Fraction(1, 2 ** i * oracle.trans_rigid_m(i - 1))
    exact = all(oracle.trans_rigid_m(i) // 5 <= oracle.EXACT_RAMP_CAP
                for i in range(1, l + 1))
    return prod if exact else float(prod)


def single_site_extra(coordinate: Callable):
    """The site mass is alpha_{i,n} recomputed on the closed-form weights."""
    def extra(doc, checks):
        i, n = int(doc["params"]["site"]), int(doc["params"]["n"])
        mass = parse_value(checks["site-mass"]["computed"])
        expect(mass, oracle.alpha_shift(oracle.ramp_weights(*coordinate(i)), n),
               f"alpha[{i},{n}]")
        expect(parse_value(checks["pullback-large"]["computed"]), mass,
               "pullback mass")
        require(parse_value(checks["set-small"]["computed"]) <= 1 - mass,
                "B overlaps its pullback")
    return extra


def random_weights(rng: random.Random, m: int) -> list:
    nums = [rng.randint(1, 60) for _ in range(m)]
    total = sum(nums)
    return [Fraction(x, total) for x in nums]


def write_config(path: Path, kind: str, weights: list) -> str:
    path.write_text(json.dumps({
        "kind": kind,
        "alphabet": {"family": "constant", "params": {"m": len(weights)}},
        "measure": {"family": "same",
                    "params": {"weights": [f"{w.numerator}/{w.denominator}"
                                           for w in weights]}}}))
    return "@" + path.as_posix()


def optimizer_dp(rng: random.Random, inputs: Path) -> list:
    """Exact ramps on large alphabets; path/cycle DPs and drop scans."""
    odo_w = tuple(random_weights(rng, rng.randint(12, 16)))
    trans_w = tuple(random_weights(rng, rng.randint(12, 16)))
    odo = write_config(inputs / "odometer.json", "odometer", odo_w)
    trans = write_config(inputs / "translation.json", "diagonal-translation",
                         trans_w)
    hoeff_beta = {l * l: 1 - (1 + Fraction(1, 2 ** l)) ** -(2 ** l)
                  for l in range(1, 6)}
    return [
        Op(["classify", "trans-hc", "--horizon", "24"], classify_check()),
        Op(["classify", "trans-fhc", "--horizon", "12"], classify_check()),
        Op(["classify", "trans-mixing", "--horizon", "12"], classify_check()),
        Op(["sequences", "trans-hc", "--horizon", "7"],
           translation_table_check(ramp_coordinates(oracle.trans_hc_coordinate), 7)),
        Op(["sequences", "hoeffbis-blocks", "--horizon", "25"],
           translation_table_check(ramp_coordinates(oracle.hoeffbis_coordinate), 25,
                                   beta_closed=hoeff_beta)),
        Op(["sequences", "ornstein", "--horizon", "40"],
           odometer_table_check(oracle.ornstein_weights, 40)),
        Op(["sequences", odo, "--horizon", "6"],
           odometer_table_check(lambda i: odo_w, 6)),
        Op(["sequences", trans, "--horizon", "6"],
           translation_table_check(fixed_coordinates(trans_w), 6)),
        Op(["witness", "trans-hc", "--name", "translation-single-site",
            "--epsilon", "0.2"],
           witness_check(single_site_extra(oracle.trans_hc_coordinate))),
        Op(["witness", "trans-hufhc", "--name", "translation-single-site",
            "--epsilon", "0.2"],
           witness_check(single_site_extra(oracle.trans_hufhc_coordinate))),
        Op(["witness", "trans-rigid", "--name", "rigidity"], witness_check()),
        Op(["norms", "trans-rigid", "--horizon", "8"],
           norms_check(_trans_rigid_level, 8)),
        # beta_sup runs an O(m^2) path DP per residue on m = 2^i; it does
        # not finish at the default horizon of 50.
        Op(["sequences", "trans-hc"],
           translation_table_check(ramp_coordinates(oracle.trans_hc_coordinate), 50),
           isolated=True),
    ]


def enumeration_sampling(rng: random.Random, inputs: Path) -> list:
    """Per-cell truncation measures, orbit traces and the NumPy sampled rung."""
    s1, s2 = rng.randrange(1 << 31), rng.randrange(1 << 31)
    hc_w = [oracle.tent_weights(2), oracle.tent_weights(3)]
    fhc_w = [oracle.fhc_binary_weights(1), oracle.fhc_binary_weights(2)]

    def symbols(weights):
        cells = [(a, b) for b in range(len(weights[1]))
                 for a in range(len(weights[0]))]
        f, g = rng.sample(cells, 2)
        return f, g

    def orbit(gid, weights, depth, horizon, isolated=False):
        f, g = symbols(weights)
        return Op(["orbit", gid, "--depth", str(depth), "--horizon",
                   str(horizon), "--f", "%d,%d" % f, "--g", "%d,%d" % g],
                  orbit_check(weights, f, g, horizon, "0.1"),
                  isolated=isolated)

    return [
        Op(["witness", "binary-alpha(1/4)", "--name", "transitivity",
            "--epsilon", "0.1", "--trials", "50000", "--seed", str(s1)],
           witness_check(sampled_disjointness(50000, s1))),
        Op(["witness", "binary-alpha(1/3)", "--name", "transitivity",
            "--trials", "20000", "--seed", str(s2)],
           witness_check(sampled_disjointness(20000, s2))),
        orbit("hc-not-mixing", hc_w, 5, 32),
        orbit("fhc-binary", fhc_w, 11, 16),
        Op(["orbit", "same-measure(1/2,1/2)", "--f", "0", "--g", "1",
            "--epsilon", "0.1", "--horizon", "32"],
           orbit_check([(Fraction(1, 2), Fraction(1, 2))], (0,), (1,), 32,
                       "0.1")),
        # orbit_trace recomputes every cell measure per iterate: 80,640
        # cells times 64 iterates does not finish.
        orbit("hc-not-mixing", hc_w, 8, 64, isolated=True),
    ]


def wide_horizon(rng: random.Random, inputs: Path) -> list:
    """Deep index ranges touched once each, and long TSV reports."""
    def hc_not_mixing(i):
        return oracle.tent_weights(2 + (i - 1) % 7)

    def hc_props(i, row):
        require(row["eta"] - row["delta"] >= Fraction(1, 8), f"drop[{i}]")
        require(row["kappa"] <= Fraction(7, 8), f"kappa[{i}]")

    def geometric(res: Result):
        require_rc(res)
        rows = read_tsv(one_file(res, "sequences-*.tsv"))
        require(len(rows) == 1000, f"{len(rows)} rows")
        for row in rows:
            i = int(row["index"])
            eta = parse_value(row["eta"])
            expect(eta, Fraction(i, i + 1), f"eta[{i}]")
            require(float(parse_value(row["kappa"])) >= float(eta) - FLOAT_TOL,
                    f"kappa[{i}] below eta")

    def gallery_ok(res: Result):
        require_rc(res)
        doc = read_json(res, "verify-gallery.json")
        require(doc["ok"], "verify-gallery reports a failure")
        for gid, item in doc["entries"].items():
            require(item["round_trip"], f"{gid} config round trip")
            for c in item["checks"]:
                require(c[-1] is True or isinstance(c[-1], str),
                        f"{gid}: {c}")

    return [
        Op(["sequences", "binary-alpha(2)", "--horizon", "8000"],
           odometer_table_check(lambda i: oracle.binary_alpha_weights(i, "2"),
                                8000)),
        Op(["sequences", "binary-alpha(1/4)", "--horizon", "8000"],
           odometer_table_check(lambda i: oracle.binary_alpha_weights(i, "1/4"),
                                8000)),
        Op(["sequences", "fhc-not-mixing", "--horizon", "8000", "--kappa", "1/5"],
           odometer_table_check(oracle.fhc_not_mixing_weights, 8000,
                                extra=_fhc_not_mixing_blocks)),
        Op(["sequences", "hc-not-mixing", "--horizon", "2000"],
           odometer_table_check(hc_not_mixing, 2000, extra=hc_props)),
        Op(["sequences", "geometric-mixing", "--horizon", "1000"], geometric),
        Op(["classify", "binary-alpha(1/4)", "--horizon", "4000"],
           classify_check()),
        Op(["classify", "fhc-not-mixing", "--horizon", "4000"],
           classify_check()),
        Op(["verify-gallery"], gallery_ok),
    ]


# Each workload runs two groups of operations back to back.  The host this
# was tuned on changes speed by up to 25% over tens of seconds, so a run
# must average over about a minute; four workloads of that length would not
# fit the time all benchmark runs are given.  The groups are paired so that
# every mechanism is used on one workload and bypassed on the other: carry
# transports, heavy coordinate reuse, orbit traces and the sampler on the
# first; criteria DPs, single-touch deep horizons and long reports on the
# second.
WORKLOADS = {
    "odometer-sampling": (odometer_exact, enumeration_sampling),
    "optimizer-wide": (optimizer_dp, wide_horizon),
}


def build(workload: str, seed: int, inputs: Path) -> list:
    """The workload's operations for one seed; writes generated configs."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    return [op for group in WORKLOADS[workload] for op in group(rng, inputs)]


def spec_ids(ops: list) -> list:
    """Every spec argument the operations use, in first-use order."""
    out = []
    for op in ops:
        if op.argv[0] != "verify-gallery" and op.argv[1] not in out:
            out.append(op.argv[1])
    return out
