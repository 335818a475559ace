"""Benchmark odolab end to end (wall time, set-up, peak memory) or per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For one workload this builds the seeded inputs, times set-up in fresh
interpreters (untraced runs only), runs rounds of the workload's operations in
one fresh worker process until S seconds are used, checks every output of
every round against independent computations, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, setup_s and peak_rss_mb; with
--trace 1 they are the per-layer metrics of bench/README.md.  Outputs go to
.bench_out/ in the checkout.  `--workload all` runs every workload in turn
and prints one such line per workload, tagged with its name.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4          # measured probes before and again after the workload
RUN_LIMIT_S = 170         # the worker is killed past this, and the run fails
# One thread per process: the workload process and its isolated children run
# one at a time, so the benchmark never uses more than one CPU.  A fixed hash
# seed makes every run iterate its sets of strings in the same order.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


class BenchError(Exception):
    pass


def setup_times(specs: list, warm: bool) -> list:
    """Times to import odolab and build every spec, each in a fresh process.

    With `warm`, one unmeasured probe first fills the byte-code cache.
    """
    times = []
    for n in range(SETUP_PROBES + warm):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                               *specs], capture_output=True, text=True,
                              cwd=ROOT, env=ENV, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if n or not warm:
            times.append(float(proc.stdout.split()[-1]))
    return times


def run_worker(req: dict, work: Path, limit: float) -> dict:
    path = work / "request.json"
    path.write_text(json.dumps(req))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               str(path)], capture_output=True, text=True,
                              cwd=ROOT, env=ENV, timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process still running after {limit:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_op_wall(rounds: list, ops: list, budget: float) -> float:
    """Sum over operations of the median time across rounds.

    An operation that failed is charged its full budget.
    """
    total = 0.0
    for k, op in enumerate(ops):
        secs = [budget if r["rcs"][k] is None and op.isolated else r["times"][k]
                for r in rounds]
        total += statistics.median(secs)
    return total


def output_digest(res: workloads.Result) -> str:
    """Exit code, stdout and report bytes, with the round's --out path masked."""
    h = hashlib.sha256(f"{res.rc}\0{res.stdout.replace(str(res.out), '')}".encode())
    for p in sorted(res.out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_rounds(ops: list, rounds: list, work: Path) -> tuple:
    """(failed count, list of check failures) over every round's outputs.

    An output byte-identical to one that already passed its check in this
    run passes without re-parsing.
    """
    failed, problems, passed = 0, [], set()
    for r, rnd in enumerate(rounds):
        for k, op in enumerate(ops):
            if rnd["rcs"][k] is None:
                failed += 1
                continue
            out = work / "out" / str(r) / str(k)
            res = workloads.Result(rc=rnd["rcs"][k], out=out,
                                   stdout=(out.parent / f"{k}.stdout").read_text())
            digest = (k, output_digest(res))
            if digest in passed:
                continue
            try:
                op.check(res)
                passed.add(digest)
            except Exception as exc:      # malformed output fails the check too
                problems.append(f"round {r}: {op.label}: "
                                f"{type(exc).__name__}: {exc}")
    return failed, problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = time.perf_counter()
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.build(name, seed, work / "inputs")
    metrics, specs = {}, workloads.spec_ids(ops)
    # Host speed drifts over tens of seconds, so set-up is probed on both
    # sides of the workload process; the second half needs as long as the
    # first, which the deadline leaves room for.
    setup = [] if trace else setup_times(specs, warm=True)
    elapsed = time.perf_counter() - t0
    req = {"src": str(SRC), "out": str(work / "out"), "trace": trace,
           "budget": workloads.ISOLATED_BUDGET_S,
           "deadline": max(seconds - 2 * elapsed, 1.0),
           "ops": [{"argv": op.argv, "isolated": op.isolated} for op in ops]}
    doc = run_worker(req, work, RUN_LIMIT_S - elapsed)
    (work / "rounds.json").write_text(json.dumps(doc))
    if not trace:
        setup += setup_times(specs, warm=False)
        metrics["setup_s"] = (statistics.median(setup), "s")
    rounds = doc["rounds"]
    sys.path.insert(0, str(SRC))          # some checks call the library
    failed, problems = check_rounds(ops, rounds, work)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    budget = workloads.ISOLATED_BUDGET_S
    wall = per_op_wall(plain, ops, budget)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        layers["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["trace.overhead_s"] = per_op_wall(traced, ops, budget) - wall
        metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    else:
        metrics["wall_s"] = (wall, "s")
        metrics["peak_rss_mb"] = (doc["peak_rss_mb"], "MB")
    print(f"{name}: seed {seed}, {time.perf_counter() - t0:.1f} s, round "
          "times " + " ".join(f"{sum(r['times']):.3f}{'T' if r['traced'] else ''}"
                              for r in rounds), file=sys.stderr)
    return {"correct": not problems, "attempted": len(ops) * len(rounds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in sorted(metrics.items())}}


def unit_of(metric: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_us", "us"),
                         ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "odolab" / "cli.py").is_file():
        print(f"no odolab source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
