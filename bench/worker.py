"""One workload process: runs rounds of odolab CLI operations until a deadline.

Usage: python3 worker.py REQUEST.json

The request names the source tree, the operations (argv lists, each with an
`isolated` flag), an output directory, a deadline in seconds and whether to
trace.  Every round runs every operation once, in order, each with its own
--out directory (ROUND/OPINDEX) so the outputs can be checked afterwards by
the parent.  In-process operations go through `odolab.cli.main`; isolated
ones run in a child interpreter that is killed at their budget.

With tracing on, rounds alternate untraced and traced, so the tracing
overhead is measured inside one process.  The last stdout line is a JSON
document with per-round operation times and, for traced rounds, the
per-layer metrics.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from odolab.cli import main; sys.exit(main(sys.argv[2:]))")


def run_isolated(src: str, argv: list, budget: float):
    """(rc or None when killed at the budget, stdout, seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv],
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return None, "", budget
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def run_in_process(main, argv: list):
    """(rc or None when it raised, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except (Exception, SystemExit):
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, buf.getvalue(), time.perf_counter() - t0


def report_stats(out: Path) -> tuple:
    """(bytes of report files, trials drawn by sampled witness checks)."""
    size, trials = 0, 0
    for p in out.iterdir():
        size += p.stat().st_size
        if p.name.startswith("witness-") and p.suffix == ".json":
            for c in json.loads(p.read_text())["checks"]:
                if c.get("method") == "sampled" and "trials" in c:
                    trials += int(c["trials"])
    return size, trials


def run_round(req: dict, main, index: int, tracer) -> dict:
    times, rcs, cpu, report_bytes, trials, sample_s = [], [], 0.0, 0, 0, 0.0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for k, op in enumerate(req["ops"]):
            out = Path(req["out"]) / str(index) / str(k)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = op["argv"] + ["--out", str(out)]
            c0 = time.process_time()
            if tracer is not None:
                tracer.next_op()
            built0 = tracer.group("construct")[1] if tracer else 0.0
            if op["isolated"]:
                rc, stdout, secs = run_isolated(req["src"], argv, req["budget"])
            elif tracer is not None:
                with tracer.span("op", " ".join(op["argv"])):
                    rc, stdout, secs = run_in_process(main, argv)
            else:
                rc, stdout, secs = run_in_process(main, argv)
            cpu += time.process_time() - c0
            built = (tracer.group("construct")[1] if tracer else 0.0) - built0
            (out.parent / f"{k}.stdout").write_text(stdout)
            size, drawn = report_stats(out)
            report_bytes += size
            if drawn:
                trials += drawn
                sample_s += built
            times.append(secs)
            rcs.append(rc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    doc = {"traced": tracer is not None, "times": times, "rcs": rcs,
           "cpu_s": cpu}
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        doc["layers"]["cli.report_bytes"] = report_bytes
        doc["layers"]["witness.samples_per_s"] = trials / sample_s if sample_s else 0.0
    return doc


def main_worker(path: str) -> int:
    req = json.loads(Path(path).read_text())
    sys.path.insert(0, req["src"])
    from odolab.cli import main
    tracer = None
    if req["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
    rounds, last = [], {}
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        r0 = time.perf_counter()
        rounds.append(run_round(req, main, len(rounds), tracer if traced else None))
        last[traced] = time.perf_counter() - r0
        min_rounds = 2 if tracer is not None else 1
        next_cost = max(last.values())
        if (len(rounds) >= min_rounds and
                time.perf_counter() - START + next_cost > req["deadline"]):
            break
    if tracer is not None:
        spans = Path(req["out"]) / "spans.json"
        spans.write_text(json.dumps(
            [dict(zip(("id", "parent", "kind", "name", "start", "end"), s))
             for s in tracer.spans]))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"rounds": rounds, "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main_worker(sys.argv[1]))
