"""Built-in gallery of systems and their closed-form verdicts.

Every entry fixes concrete defaults for the choices its construction leaves
free (index subsequences, growth rates of the ramp parameters, and so on);
the chosen rule is recorded in the entry notes together with the constraint
it satisfies, so runs are reproducible.

Closed-form verdicts are registered here per entry: they are the only path
through which a limit statement earns a bare "satisfied"/"violated" status.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .scalars import format_scalar, parse_scalar
from .space import (AlphabetRule, BinaryHalfPlusMeasure, BinaryRatioMeasure,
                    BlocksOfThreeMeasure, GeometricSolvedMeasure,
                    OrnsteinMeasure, RampMeasure, SameMeasure, ShiftWeights,
                    SplitGeometricMeasure, SystemSpec, UniformMeasure)


# the two statuses that only a registered closed form earns
SATISFIED_CF = "satisfied-closed-form"
VIOLATED = "violated"


# ---------------------------------------------------------------------------
# gallery entries
# ---------------------------------------------------------------------------

@dataclass
class GalleryEntry:
    id: str
    title: str
    build: Callable[..., SystemSpec]
    expectations: dict = field(default_factory=dict)   # criterion -> status
    closed_forms: dict = field(default_factory=dict)   # criterion -> fn(spec, params) -> (status, evidence)
    bound_verdict: Optional[Callable[[SystemSpec], str]] = None
    atomless_depth: int = 16
    notes: str = ""


def _spec(kind, alphabet, measure, gallery_id) -> SystemSpec:
    return SystemSpec(kind=kind, alphabet=alphabet, measure=measure,
                      gallery_id=gallery_id)


def _build_ornstein() -> SystemSpec:
    return _spec("odometer", AlphabetRule("affine", {"a": 1, "b": 1}),
                 OrnsteinMeasure({}), "ornstein")


def _build_binary_alpha(alpha="1/4") -> SystemSpec:
    return _spec("odometer", AlphabetRule("constant", {"m": 2}),
                 BinaryHalfPlusMeasure({"alpha": str(alpha)}),
                 f"binary-alpha({alpha})")


def _build_same_measure(*weights) -> SystemSpec:
    ws = [str(w) for w in (weights or ("1/2", "1/3", "1/6"))]
    return _spec("odometer", AlphabetRule("constant", {"m": len(ws)}),
                 SameMeasure({"weights": ws}),
                 f"same-measure({','.join(ws)})")


def _build_hc_not_mixing() -> SystemSpec:
    return _spec("odometer", AlphabetRule("cycle-range", {"lo": 2, "hi": 8}),
                 SplitGeometricMeasure({}), "hc-not-mixing")


def _build_geometric_mixing() -> SystemSpec:
    return _spec("odometer", AlphabetRule("cycle-range", {"lo": 2, "hi": 4}),
                 GeometricSolvedMeasure({}), "geometric-mixing")


def _build_fhc_binary() -> SystemSpec:
    return _spec("odometer", AlphabetRule("constant", {"m": 2}),
                 BinaryRatioMeasure({}), "fhc-binary")


def _build_fhc_not_mixing() -> SystemSpec:
    return _spec("odometer", AlphabetRule("constant", {"m": 2}),
                 BlocksOfThreeMeasure({}), "fhc-not-mixing")


def _build_trans_hc() -> SystemSpec:
    return _spec("diagonal-translation", AlphabetRule("power", {"base": 2}),
                 RampMeasure({"layout": "tail", "n": "half",
                              "delta": "inv-square"}), "trans-hc")


def _build_trans_mixing() -> SystemSpec:
    return _spec("diagonal-translation", AlphabetRule("power", {"base": 4}),
                 RampMeasure({"layout": "tail", "n": "eighth",
                              "delta": "inv-square"}), "trans-mixing")


def _build_trans_fhc() -> SystemSpec:
    return _spec("diagonal-translation", AlphabetRule("power", {"base": 2}),
                 RampMeasure({"layout": "mid", "n": "fifth",
                              "delta": "quad-over-pow"}), "trans-fhc")


def _build_trans_rigid() -> SystemSpec:
    return _spec("diagonal-translation", AlphabetRule("superexp", {"base": 4}),
                 RampMeasure({"layout": "mid", "n": "fifth",
                              "delta": "dyadic-over-prev-m"}), "trans-rigid")


def _build_trans_hufhc() -> SystemSpec:
    return _spec("diagonal-translation",
                 AlphabetRule("scaled-power", {"scale": 3, "base": 2}),
                 RampMeasure({"layout": "tail", "n": "third",
                              "delta": "inv-square"}), "trans-hufhc")


def _build_hoeffbis_blocks() -> SystemSpec:
    return _spec("diagonal-translation", AlphabetRule("pow-blocks", {}),
                 RampMeasure({"layout": "tail", "n": "half",
                              "delta": "inv-ramp"}), "hoeffbis-blocks")


def _build_shift_z() -> SystemSpec:
    return SystemSpec(kind="weighted-shift", index_set="Z",
                      shift_weights=ShiftWeights("geometric-abs",
                                                 {"ratio": "1/2"}),
                      gallery_id="shift-z")


def _build_shift_zplus() -> SystemSpec:
    return SystemSpec(kind="weighted-shift", index_set="Z+",
                      shift_weights=ShiftWeights("geometric-abs",
                                                 {"ratio": "1/2"}),
                      gallery_id="shift-zplus")


def _build_binary_three_quarters() -> SystemSpec:
    return _spec("odometer", AlphabetRule("constant", {"m": 2}),
                 SameMeasure({"weights": ["3/4", "1/4"]}),
                 "binary-three-quarters")


def _build_growing_alphabets() -> SystemSpec:
    return _spec("odometer", AlphabetRule("affine", {"a": 1, "b": 1}),
                 UniformMeasure({}), "growing-alphabets")


# -- closed forms -----------------------------------------------------------

def _cf_const(status, **evidence):
    def fn(spec, params):
        return status, dict(evidence)
    return fn


def _cf_same_measure_drop(spec, params):
    nu = [parse_scalar(w) for w in spec.measure.params["weights"]]
    drop = max(nu) - min(nu)
    if drop > 0:
        return SATISFIED_CF, {"constant_drop": format_scalar(drop)}
    return VIOLATED, {"constant_drop": "0", "isometry": True,
                      "why": "uniform weights make the map measure-preserving"}


def _cf_same_measure_power(spec, params):
    nu = [parse_scalar(w) for w in spec.measure.params["weights"]]
    if max(nu) == min(nu):
        return SATISFIED_CF, {"ratio": "1"}
    return VIOLATED, {"why": "constant ratio > 1 diverges"}


def _cf_binary_alpha_power(spec, params):
    alpha = parse_scalar(spec.measure.params["alpha"])
    if float(alpha) > 1:
        return SATISFIED_CF, {"why": "factor ratios are 1 + O(i^-alpha), "
                                     "summable for alpha > 1"}
    return VIOLATED, {"why": "factor excesses 4 i^-alpha are not summable"}


def _cf_binary_alpha_hoeffding(spec, params):
    alpha = parse_scalar(spec.measure.params["alpha"])
    if float(alpha) < 0.5:
        return SATISFIED_CF, {"why": "drops 2 i^-alpha give a divergent "
                                     "normalized square sum"}
    return None


_GALLERY_DATA = [
    GalleryEntry(
        id="ornstein", title="half-and-spread odometer (growing alphabets)",
        build=_build_ornstein, atomless_depth=7,
        expectations={"hc-limsup-drop": "satisfied"},
        closed_forms={"hc-limsup-drop": _cf_const(
            SATISFIED_CF, limit="1/2", why="drop is 1/2 - 1/(2i)")},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="weights: 1/2 at symbol 0, the rest split evenly"),
    GalleryEntry(
        id="binary-alpha", title="binary weights 1/2 + i^-alpha",
        build=_build_binary_alpha,
        atomless_depth=120,
        expectations={},
        closed_forms={"power-bounded": _cf_binary_alpha_power,
                      "hc-drop-hoeffding": _cf_binary_alpha_hoeffding},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="perturbation halves until the weight vector is valid"),
    GalleryEntry(
        id="same-measure", title="one weight vector on every coordinate",
        build=_build_same_measure,
        atomless_depth=8,
        expectations={},
        closed_forms={"hc-limsup-drop": _cf_same_measure_drop,
                      "power-bounded": _cf_same_measure_power},
        bound_verdict=lambda spec: (
            "bounded-closed-form"
            if parse_scalar(spec.measure.params["weights"][0])
            >= parse_scalar(spec.measure.params["weights"][-1])
            else "unbounded-witness(closed-form)"),
        notes="bounded exactly when the first weight dominates the last"),
    GalleryEntry(
        id="hc-not-mixing", title="dyadic tent weights, alphabets 2..8",
        build=_build_hc_not_mixing, atomless_depth=12,
        expectations={"hc-limsup-drop": "satisfied",
                      "mixing-kappa": "violated"},
        closed_forms={
            "hc-limsup-drop": _cf_const(SATISFIED_CF, floor="1/8"),
            "mixing-kappa": _cf_const(
                VIOLATED, ceiling="7/8",
                why="two symbols of weight >= 1/8 sit at a fixed distance"),
        },
        bound_verdict=lambda spec: "bounded-closed-form"),
    GalleryEntry(
        id="geometric-mixing", title="solved geometric weights, eta -> 1",
        build=_build_geometric_mixing, atomless_depth=100,
        expectations={"mixing-eta": "satisfied", "mixing-kappa": "satisfied",
                      "ufhc-zero-heavy": "satisfied"},
        closed_forms={
            "mixing-eta": _cf_const(SATISFIED_CF, why="eta_i = i/(i+1)"),
            "hc-limsup-eta": _cf_const(SATISFIED_CF, why="eta_i = i/(i+1)"),
            "ufhc-zero-heavy": _cf_const(SATISFIED_CF,
                                         why="weight of symbol 0 tends to 1"),
            "fhc-from-eta-limit": _cf_const(
                SATISFIED_CF, why="alphabets stay in 2..4 and eta -> 1"),
        },
        bound_verdict=lambda spec: "bounded-closed-form"),
    GalleryEntry(
        id="fhc-binary", title="binary weights i/(i+1)",
        build=_build_fhc_binary, atomless_depth=100,
        expectations={"mixing-eta": "satisfied", "fhc-odometer": "satisfied",
                      "fhc-bounded-tail": "satisfied"},
        closed_forms={
            "mixing-eta": _cf_const(SATISFIED_CF, why="eta_i = i/(i+1) -> 1"),
            "fhc-odometer": _cf_const(
                SATISFIED_CF, why="split level i/(i+1) -> 1 and the top "
                                  "weight 1/(i+1) -> 0"),
            "fhc-bounded-tail": _cf_const(SATISFIED_CF,
                                          why="binary with eta -> 1"),
            "fhc-from-eta-limit": _cf_const(SATISFIED_CF,
                                            why="binary with eta -> 1"),
        },
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="level-l boundedness value is l/(l-1)! exactly"),
    GalleryEntry(
        id="fhc-not-mixing", title="binary blocks of three",
        build=_build_fhc_not_mixing, atomless_depth=24,
        expectations={"fhc-odometer": "satisfied", "mixing-eta": "violated"},
        closed_forms={
            "fhc-odometer": _cf_const(
                SATISFIED_CF, why="on block k: split level 1 - 1/(k+1) and "
                                  "top-interval mass 1/(k+1)"),
            "mixing-eta": _cf_const(
                VIOLATED, why="every third coordinate stays uniform"),
            "mixing-kappa": _cf_const(
                VIOLATED, why="every third coordinate has kappa = 1/2"),
        },
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="first block uniform: the k = 0 formulas would need weight 0"),
    GalleryEntry(
        id="trans-hc", title="doubling alphabets with tail ramps",
        build=_build_trans_hc, atomless_depth=8,
        expectations={"hc-translation-gamma": "satisfied"},
        closed_forms={"hc-translation-gamma": _cf_const(
            SATISFIED_CF, why="the ramp half carries mass -> 1 and shifts "
                              "off itself")},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="delta_i = i^-2: summable, with delta_i m_i -> infinity"),
    GalleryEntry(
        id="trans-mixing", title="quadrupling alphabets, eighth-size ramps",
        build=_build_trans_mixing, atomless_depth=8,
        expectations={"mixing-translation-gamma": "satisfied"},
        closed_forms={"mixing-translation-gamma": _cf_const(
            SATISFIED_CF, why="ramp windows [n_i, m_i - n_i - 1] tile the "
                              "whole tail of the integers")},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="kappa = 1/8 satisfies kappa m_{i+1} + 1 <= (1-kappa) m_i"),
    GalleryEntry(
        id="trans-fhc", title="doubling alphabets, middle ramps",
        build=_build_trans_fhc, atomless_depth=10,
        expectations={},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="delta_i = i^2 2^-i: summable, delta_i m_i = i^2 -> infinity"),
    GalleryEntry(
        id="trans-rigid", title="nested blocks with vanishing shift ratios",
        build=_build_trans_rigid, atomless_depth=3,
        expectations={"mixing-translation-gamma": "violated"},
        closed_forms={"mixing-translation-gamma": _cf_const(
            VIOLATED, why="power bounds along the alphabet subsequence force "
                          "returns (rigidity)")},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="delta_j m_{j-1} = 2^-j, so log K <= 1 along the subsequence"),
    GalleryEntry(
        id="trans-hufhc", title="alphabets 3 * 2^i, top-third ramps",
        build=_build_trans_hufhc, atomless_depth=10,
        expectations={},
        bound_verdict=lambda spec: "bounded-closed-form",
        notes="counting runs along dyadic blocks of iterates"),
    GalleryEntry(
        id="hoeffbis-blocks", title="power-of-two alphabets in square blocks",
        build=_build_hoeffbis_blocks, atomless_depth=6,
        expectations={"hc-translation-hoeffding": "satisfied",
                      "hc-translation-gamma": "violated"},
        closed_forms={
            "hc-translation-gamma": _cf_const(
                VIOLATED, ceiling="(e-1)/e",
                why="half the circle is the largest shift-disjoint set and "
                    "its mass stays below (e-1)/e"),
            "hc-translation-hoeffding": _cf_const(
                SATISFIED_CF, why="2l+1 coordinates per block keep a drop "
                                  "bounded below, so the normalized square "
                                  "sums diverge"),
        },
        bound_verdict=lambda spec: "bounded-closed-form"),
    GalleryEntry(
        id="shift-z", title="two-sided weighted shift, weights 2^-|i|",
        build=_build_shift_z,
        expectations={"shift-salas": "satisfied"},
        closed_forms={"shift-salas": _cf_const(
            SATISFIED_CF, why="products collapse to 4^-n")},
        notes="finite total weight; the shift has no periodic point"),
    GalleryEntry(
        id="shift-zplus", title="one-sided weighted shift, weights 2^-i",
        build=_build_shift_zplus,
        expectations={"shift-salas": "satisfied"},
        closed_forms={"shift-salas": _cf_const(
            SATISFIED_CF, why="backward preimages die, so products vanish")},
        notes=""),
    GalleryEntry(
        id="binary-three-quarters", title="binary weights (3/4, 1/4)",
        build=_build_binary_three_quarters, atomless_depth=17,
        expectations={},   # open territory: criterion values only
        notes="no registered expectation; the suite only reports values"),
    GalleryEntry(
        id="growing-alphabets", title="uniform weights on alphabets i+1",
        build=_build_growing_alphabets, atomless_depth=5,
        expectations={},   # open territory: criterion values only
        notes="no registered expectation; the suite only reports values"),
]

GALLERY = {e.id: e for e in _GALLERY_DATA}

_ID_RE = re.compile(r"^([a-z0-9-]+)(?:\((.*)\))?$")


def list_gallery() -> list:
    return [(e.id, e.title) for e in _GALLERY_DATA]


def get_spec(identifier: str) -> SystemSpec:
    """Build a gallery spec from an id like "binary-alpha(2)"."""
    m = _ID_RE.match(identifier.strip())
    if not m or m.group(1) not in GALLERY:
        raise KeyError(f"unknown gallery id {identifier!r}")
    entry = GALLERY[m.group(1)]
    args = [a.strip() for a in m.group(2).split(",")] if m.group(2) else []
    return entry.build(*args)


def entry_for(spec: SystemSpec) -> Optional[GalleryEntry]:
    if not spec.gallery_id:
        return None
    m = _ID_RE.match(spec.gallery_id)
    return GALLERY.get(m.group(1)) if m else None


def closed_form_verdict(spec: SystemSpec, criterion: str, params: dict):
    """Registered true (status, evidence) for (gallery spec, criterion), if any."""
    entry = entry_for(spec)
    if entry is None or criterion not in entry.closed_forms:
        return None
    return entry.closed_forms[criterion](spec, params)
