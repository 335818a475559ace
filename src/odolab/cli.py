"""Command-line entry point and report emission.

Commands: classify, sequences, witness, orbit, norms, gallery-list,
verify-gallery.  Reports are flat files: TSV for sequences and traces
(plot-ready; rationals as "p/q", floats to 15 significant digits) and JSON
documents for verdicts and witness reports.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage or spec error.

Each command imports the layers it runs in its own body, so parsing the
command line and building specs compile only errors, scalars, space and
gallery.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import gallery
from .errors import (CapExceeded, HypothesisUnavailable,
                     NotFoundWithinHorizon, OdolabError, StrategyInfeasible)
from .scalars import parse_scalar
from .space import (ODOMETER, SHIFT, TRANSLATION, DepthSet, SystemSpec,
                    atomless_monitor)

ODOMETER_CRITERIA = ["hc-limsup-drop", "hc-limsup-eta", "hc-drop-hoeffding",
                     "mixing-eta", "mixing-kappa", "fhc-odometer",
                     "fhc-bounded-tail", "fhc-from-eta-limit",
                     "fhc-from-mixing", "ufhc-zero-heavy", "power-bounded"]
TRANSLATION_CRITERIA = ["hc-translation-gamma", "mixing-translation-gamma",
                        "hc-translation-hoeffding", "hc-translation-coprime"]
SHIFT_CRITERIA = ["shift-salas"]


def load_spec(identifier: str) -> SystemSpec:
    """Gallery id ("fhc-binary", "binary-alpha(2)") or @path to a config file.

    A product spec must have a valid first coordinate; a malformed config or
    gallery id raises ValueError.
    """
    if identifier.startswith("@"):
        spec = SystemSpec.from_config(
            json.loads(Path(identifier[1:]).read_text()))
    else:
        spec = gallery.get_spec(identifier)
    if spec.kind != SHIFT:
        spec.validate_coordinate(1)
    return spec


def write_tsv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for row in rows:
            fh.write("\t".join(str(c) for c in row) + "\n")


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")


def _slug(identifier: str) -> str:
    return "".join(c if c.isalnum() or c in "-." else "_" for c in identifier)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args, spec: SystemSpec) -> int:
    from . import criteria, maps
    entry = gallery.entry_for(spec)
    closed = entry.bound_verdict(spec) if entry and entry.bound_verdict else None
    bound = maps.boundedness(spec, min(args.horizon, 24), closed_form=closed)
    doc = {"spec": spec.to_config(), "boundedness": {
        "verdict": bound.verdict, "supremum": str(bound.supremum)}}
    failed = bound.verdict.startswith("unbounded")
    verdicts = []
    if not failed:
        names = {ODOMETER: ODOMETER_CRITERIA, TRANSLATION: TRANSLATION_CRITERIA,
                 SHIFT: SHIFT_CRITERIA}[spec.kind]
        params = {"kappa": args.kappa} if args.kappa else {}
        for name in names:
            v = criteria.evaluate(spec, name, horizon=args.horizon,
                                  params=params)
            verdicts.append(v)
            expected = (entry.expectations.get(name) if entry else None)
            if expected and criteria.contradicts(expected, v.status):
                doc["contradiction"] = {"criterion": name,
                                        "expected": expected,
                                        "verdict": v.status}
                failed = True
        doc["verdicts"] = [v.to_document() for v in verdicts]
    out = Path(args.out) / f"classify-{_slug(args.spec)}.json"
    write_json(out, doc)
    for v in verdicts:
        print(f"{v.criterion:32s} {v.status} [{v.mode}]")
    print(f"boundedness: {bound.verdict}")
    print(f"report: {out}")
    return 1 if failed else 0


def cmd_sequences(args, spec: SystemSpec) -> int:
    from . import criteria
    # (name, index letter, report suffix, fill) per table
    if spec.kind == ODOMETER:
        tables = [("odometer", "i", "", criteria.odometer_filler(
            spec, args.kappa or Fraction(1, 5)))]
    elif spec.kind == TRANSLATION:
        by_index, by_shift = criteria.translation_fillers(
            spec, min(args.horizon, args.index_horizon))
        tables = [("beta", "i", "", by_index),
                  ("gamma", "n", "-shifts", by_shift)]
    else:
        tables = []
    paths = []
    for name, letter, suffix, fill in tables:
        rows, stop = criteria.table_rows(fill, range(1, args.horizon + 1))
        if stop is not None:
            print(f"{name} table stopped at {letter} = {stop[0]}: {stop[1]}")
        path = Path(args.out) / f"sequences-{_slug(args.spec)}{suffix}.tsv"
        write_tsv(path, criteria.tsv_rows(rows))
        paths.append(path)
    if paths:
        label = "report" if len(paths) == 1 else "reports"
        print(f"{label}: " + " ".join(str(path) for path in paths))
        return 0
    rows = [("n",) + tuple(f"prod({i},{i})" for i in range(-2, 3))]
    for n in range(1, args.horizon + 1):
        row = [str(n)]
        for i in range(-2, 3):
            if spec.index_set == "Z+" and i < 0:
                row.append("")
                continue
            row.append(str(float(criteria.salas_products(spec, i, i, n)[-1])))
        rows.append(tuple(row))
    path = Path(args.out) / f"sequences-{_slug(args.spec)}.tsv"
    write_tsv(path, rows)
    print(f"report: {path}")
    return 0


# witness name -> (spec kinds it drives, its construction on
# (witness module, spec, args))
WITNESSES = {
    "transitivity": ((ODOMETER,), lambda w, spec, a: w.transitivity_witness(
        spec, a.eps, **a.sampling)),
    "mixing": ((ODOMETER,), lambda w, spec, a: w.mixing_witness(
        spec, a.eps, k=a.iterate)),
    "fhc": ((ODOMETER,), lambda w, spec, a: w.fhc_witness(
        spec, a.eps, a.kappa_param, f_symbols=(0, 0, 0), seed=a.seed)),
    "ufhc-count": ((ODOMETER, TRANSLATION), lambda w, spec, a: w.ufhc_count(
        spec, a.eps, a.kappa_param)),
    "src": ((ODOMETER, TRANSLATION), lambda w, spec, a: w.src_search(
        spec, a.eps, **a.sampling)),
    "rigidity": ((TRANSLATION,), lambda w, spec, a: w.rigidity_probe(spec)),
    "translation-single-site": ((TRANSLATION,), lambda w, spec, a:
        w.single_site_witness(spec, a.eps)),
    "translation-hoeffding": ((TRANSLATION,), lambda w, spec, a:
        w.translation_hoeffding_witness(
            spec, [i for i in range(1, 13) if spec.m(i) <= (1 << 12)],
            a.iterate or spec.m(1) // 2 or 1, a.eps)),
    "translation-fhcsum": ((TRANSLATION,), lambda w, spec, a:
        w.fhcsum_witness(spec, a.eps)),
    "translation-ufhcsum": ((TRANSLATION,), lambda w, spec, a:
        w.ufhcsum_witness(spec, a.iterate or 8, a.eps)),
    "shift-fhc": ((SHIFT,), lambda w, spec, a: w.shift_fhc_witness(
        spec, kappa_param=0.15)),
}


def cmd_witness(args, spec: SystemSpec) -> int:
    kinds, build = WITNESSES[args.name]
    if spec.kind not in kinds:
        print(f"witness {args.name} drives {' or '.join(kinds)} specs, "
              f"not {spec.kind}", file=sys.stderr)
        return 2
    from . import witness
    if args.seed is None:
        args.seed = witness.DEFAULT_SEED
    if args.cap is None:
        args.cap = witness.EXHAUSTIVE_CELL_CAP
    # without --trials each sampling witness keeps its own default
    sampling = {"seed": args.seed, "cell_cap": args.cap}
    if args.trials is not None:
        sampling["trials"] = args.trials
    run = argparse.Namespace(
        **vars(args), eps=args.epsilon, sampling=sampling,
        kappa_param=args.kappa or Fraction(1, 5))
    try:
        rep = build(witness, spec, run)
    except (HypothesisUnavailable, StrategyInfeasible,
            NotFoundWithinHorizon) as exc:
        print(f"witness unavailable: {exc}")
        return 1
    except CapExceeded as exc:
        print(f"witness inconclusive: {exc}")
        return 1
    out = Path(args.out) / f"witness-{args.name}-{_slug(args.spec)}.json"
    write_json(out, rep.to_document())
    for c in rep.checks:
        print(f"  [{'ok' if c.ok else 'FAIL'}] {c.name} ({c.method})")
    print(f"witness {args.name}: {'pass' if rep.passed else 'FAIL'}")
    print(f"report: {out}")
    return 0 if rep.passed else 1


def cmd_orbit(args, spec: SystemSpec) -> int:
    if spec.kind == SHIFT:
        print(f"orbit drives {ODOMETER} or {TRANSLATION} specs, "
              f"not {spec.kind}", file=sys.stderr)
        return 2
    from .functions import cylinder_orbit
    depth = max(args.depth, len(args.f), len(args.g))
    sets = []
    for flag, symbols in (("--f", args.f), ("--g", args.g)):
        fixed = {i: {s} for i, s in enumerate(symbols, start=1)}
        try:
            sets.append(DepthSet.cylinder(spec, depth, fixed))
        except ValueError as exc:
            print(f"odolab orbit: error: argument {flag}: {exc}",
                  file=sys.stderr)
            return 2
    trace = cylinder_orbit(spec, *sets, epsilon=args.epsilon, p=args.p,
                           horizon=args.horizon)
    out = Path(args.out) / f"orbit-{_slug(args.spec)}.tsv"
    write_tsv(out, trace.to_tsv_rows())
    print(f"visits: {len(trace.visit_set)} / {args.horizon}; "
          f"period of f: {trace.period}")
    print(f"report: {out}")
    return 0


def cmd_norms(args, spec: SystemSpec) -> int:
    from . import maps
    entry = gallery.entry_for(spec)
    closed = entry.bound_verdict(spec) if entry and entry.bound_verdict else None
    bound = maps.boundedness(spec, args.horizon, closed_form=closed)
    out = Path(args.out) / f"norms-{_slug(args.spec)}.tsv"
    write_tsv(out, bound.to_tsv_rows())
    print(f"boundedness: {bound.verdict}; supremum "
          f"{float(bound.supremum):.6g}")
    if spec.kind == TRANSLATION:
        kak = maps.kakutani_check(spec, min(args.horizon, 12))
        print(f"measure-equivalence check: {kak['verdict']}")
    print(f"report: {out}")
    return 0 if not bound.verdict.startswith("unbounded") else 1


def cmd_gallery_list(args) -> int:
    for gid, title in gallery.list_gallery():
        print(f"{gid:24s} {title}")
    return 0


def verify_gallery() -> dict:
    """Run the registered expectation suite over every gallery entry."""
    from . import criteria
    results = {}
    ok = True
    for gid, entry in gallery.GALLERY.items():
        spec = entry.build()     # pinned defaults
        item = {"round_trip": False, "checks": []}
        clone = SystemSpec.from_config(spec.to_config())
        item["round_trip"] = clone.to_config() == spec.to_config()
        ok &= item["round_trip"]
        if spec.kind != SHIFT:
            monitor = atomless_monitor(spec, entry.atomless_depth)
            nonatomic = float(monitor[-1]) < 0.01
            item["checks"].append(("atomless-monitor", nonatomic))
            ok &= nonatomic
            try:
                for i in (1, 2, 3):
                    spec.validate_coordinate(i)
                valid = True
            except ValueError as exc:
                valid = str(exc)
            item["checks"].append(("coordinates-valid", valid))
            ok &= valid is True
        for criterion, expected in entry.expectations.items():
            v = criteria.evaluate(spec, criterion, horizon=24)
            agrees = not criteria.contradicts(expected, v.status)
            item["checks"].append((criterion, v.status, expected, agrees))
            ok &= agrees
        results[gid] = item
    return {"ok": ok, "entries": results}


def cmd_verify_gallery(args) -> int:
    doc = verify_gallery()
    out = Path(args.out) / "verify-gallery.json"
    write_json(out, doc)
    for gid, item in doc["entries"].items():
        status = "ok" if item["round_trip"] and all(
            c[-1] is True for c in item["checks"]) else "FAIL"
        print(f"{gid:24s} {status}")
    print(f"report: {out}")
    return 0 if doc["ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def checked(parse, ok, what: str):
    """An argparse type: parse(text), a usage error unless ok(value)."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


positive_int = checked(int, lambda v: v >= 1, "an integer >= 1")
symbol_list = checked(lambda t: [int(x) for x in t.split(",")],
                      lambda v: min(v) >= 0, "comma-separated integers >= 0")


SHARED_FLAGS = {
    "horizon": {"type": positive_int, "default": 50},
    "epsilon": {"type": checked(float, lambda v: 0 < v < 1,
                                "a decimal in (0, 1)"), "default": "0.1"},
    "kappa": {"type": checked(parse_scalar, lambda v: 0 < v < 1,
                              "p/q or a decimal in (0, 1)"), "default": None},
}


class Parser(argparse.ArgumentParser):
    """A usage error exits 2 with one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = Parser(
        prog="odolab",
        description="exact experiments with composition-operator dynamics "
                    "on product probability spaces")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *flags, spec=True):
        """A subcommand taking --out and exactly the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        if spec:
            p.add_argument("spec", help="gallery id or @config.json")
            p.add_argument("--backend", choices=["rational", "float"],
                           default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.add_argument("--out", default="reports")
        p.set_defaults(fn=fn)
        return p

    command("classify", cmd_classify,
            "boundedness plus every applicable verdict", "horizon", "kappa")
    p = command("sequences", cmd_sequences, "criterion tables as TSV",
                "horizon", "kappa")
    p.add_argument("--index-horizon", type=positive_int, default=8)
    p = command("witness", cmd_witness, "run a named witness construction",
                "epsilon", "kappa")
    p.add_argument("--name", required=True, choices=list(WITNESSES),
                   metavar="NAME")
    p.add_argument("--seed", type=checked(int, lambda v: v >= 0,
                                          "an integer >= 0"), default=None)
    p.add_argument("--trials", type=positive_int, default=None)
    p.add_argument("--cap", type=positive_int, default=None)
    p.add_argument("--iterate", type=positive_int, default=None)
    p = command("orbit", cmd_orbit, "orbit trace of a cylinder indicator",
                "epsilon", "horizon")
    p.add_argument("--depth", type=positive_int, default=4)
    p.add_argument("--f", type=symbol_list, default="0")
    p.add_argument("--g", type=symbol_list, default="1")
    p.add_argument("--p", default="1", type=checked(
        parse_scalar, lambda v: 1 <= v < float("inf"), "p/q or a decimal >= 1"))
    command("norms", cmd_norms, "boundedness / equivalence diagnostics",
            "horizon")
    p = sub.add_parser("gallery-list", help="list built-in systems")
    p.set_defaults(fn=cmd_gallery_list)
    command("verify-gallery", cmd_verify_gallery,
            "registered expectation suite", spec=False)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = None
    if getattr(args, "spec", None) is not None:
        try:
            spec = load_spec(args.spec)
        except (KeyError, ValueError, FileNotFoundError) as exc:
            print(f"bad spec: {exc}", file=sys.stderr)
            return 2
        if args.backend and args.backend != spec.backend:
            print(f"spec runs on the {spec.backend} backend, not "
                  f"{args.backend}", file=sys.stderr)
            return 2
    try:
        return args.fn(args) if spec is None else args.fn(args, spec)
    except OdolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
