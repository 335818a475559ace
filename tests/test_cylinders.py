"""Differential tests: the shared cylinder builder, cell mask and overlap count.

The witness constructions and the orbit command used to pad their cylinders
by hand, and the mixing and runaway-product witnesses counted self-overlaps
on Python sets of cell indices.  Those forms stay here as oracles;
`DepthSet.cylinder`, `DepthSet.mask` and `maps.image_overlap` must agree
with them.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odolab import gallery
from odolab.cli import build_parser, main
from odolab.criteria import evaluate
from odolab.errors import HypothesisUnavailable
from odolab.functions import period_of
from odolab.maps import (InducedBijection, image_overlap,
                         odometer_pullback_measure)
from odolab.space import (AlphabetRule, DepthSet, SimpleFunction, SystemSpec,
                          build_truncation)
from odolab.witness import fhc_witness, single_site_witness, src_search

from conftest import listed_spec, member_cells


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def padded_symbols(spec, symbols, depth):
    """The orbit command's cylinder: fixed symbols, then whole alphabets."""
    factors = [frozenset({s}) for s in symbols]
    factors += [frozenset(range(spec.m(i)))
                for i in range(len(symbols) + 1, depth + 1)]
    return DepthSet.product_form(spec, factors)


def padded_top(spec, depth, top):
    """The witnesses' cylinder: whole alphabets below one set at the top."""
    full = [frozenset(range(spec.m(r))) for r in range(1, depth)]
    return DepthSet.product_form(spec, full + [top])


def cells_by_digits(spec, S):
    tr = build_truncation(spec, S.depth)
    return frozenset(c for c in range(tr.cell_count)
                     if all(f is None or d in f
                            for d, f in zip(tr.digits(c), S.factors)))


def set_overlap(cell_count, b_cells, k):
    """Cells of B whose k-th image is in B, on Python sets."""
    return len({(c + k) % cell_count for c in b_cells} & b_cells)


@st.composite
def odometers(draw, max_depth=4, max_m=5):
    sizes = draw(st.lists(st.integers(2, max_m), min_size=1,
                          max_size=max_depth))
    return listed_spec("odometer", [[Fraction(1, m)] * m for m in sizes])


@st.composite
def product_sets(draw):
    spec = draw(odometers())
    depth = draw(st.integers(1, 4))
    factors = [draw(st.none() | st.frozensets(st.integers(0, spec.m(i) - 1)))
               for i in range(1, depth + 1)]
    return spec, DepthSet.product_form(spec, factors)


# ---------------------------------------------------------------------------
# the cylinder builder
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cylinder_matches_hand_padded_lists(data):
    spec = data.draw(odometers())
    depth = data.draw(st.integers(1, 5))
    symbols = [data.draw(st.integers(0, spec.m(i) - 1))
               for i in range(1, data.draw(st.integers(0, depth)) + 1)]
    fixed = {i: {s} for i, s in enumerate(symbols, start=1)}
    S = DepthSet.cylinder(spec, depth, fixed)
    assert S.factors[len(symbols):] == (None,) * (depth - len(symbols))
    assert member_cells(S) == member_cells(padded_symbols(spec, symbols, depth))
    top = data.draw(st.frozensets(st.integers(0, spec.m(depth) - 1)))
    S = DepthSet.cylinder(spec, depth, {depth: top})
    assert S.factors == (None,) * (depth - 1) + (top,)
    assert member_cells(S) == member_cells(padded_top(spec, depth, top))


def test_cylinder_rejects_coordinates_outside_its_depth(binary_uniform):
    for i in (0, 3):
        with pytest.raises(ValueError):
            DepthSet.cylinder(binary_uniform, 2, {i: {0}})
    with pytest.raises(ValueError):
        DepthSet.cylinder(binary_uniform, 2, {2: {2}})


# ---------------------------------------------------------------------------
# cell masks and self-overlaps
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(product_sets())
def test_mask_matches_per_cell_membership(case):
    spec, S = case
    cells = cells_by_digits(spec, S)
    mask = S.mask()
    assert mask.dtype == bool and len(mask) == spec.cell_count(S.depth)
    assert frozenset(mask.nonzero()[0].tolist()) == cells


@settings(max_examples=120, deadline=None)
@given(product_sets(), st.data())
def test_self_overlap_matches_set_overlap(case, data):
    spec, S = case
    M = spec.cell_count(S.depth)
    k = data.draw(st.one_of(st.integers(0, 3 * M),
                            st.integers(0, 40).map(lambda t: t * M),
                            st.integers(2 ** 63, 2 ** 80)))
    assert image_overlap(spec, S, k) == set_overlap(M, member_cells(S), k)


def test_self_overlap_large_iterates():
    spec = gallery.get_spec("fhc-binary")
    S = DepthSet.cylinder(spec, 3, {3: {1}})
    cells = member_cells(S)
    for k in (8, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 4, 10 ** 30 + 3):
        assert image_overlap(spec, S, k) == set_overlap(8, cells, k)


# ---------------------------------------------------------------------------
# periods of basic cylinders
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_basic_cylinder_period_is_the_cell_count(data):
    spec = data.draw(st.one_of(
        odometers(max_depth=3),
        st.sampled_from(["fhc-binary", "hc-not-mixing", "ornstein"]).map(
            gallery.get_spec)))
    L = data.draw(st.integers(1, 3))
    symbols = [data.draw(st.integers(0, spec.m(i) - 1)) for i in range(1, L + 1)]
    f = SimpleFunction.indicator(DepthSet.basic_cylinder(spec, symbols))
    assert period_of(spec, f) == spec.cell_count(L)


# ---------------------------------------------------------------------------
# the fhc function-level sets
# ---------------------------------------------------------------------------

HEAVY_ZERO = {"kind": "odometer",
              "alphabet": {"family": "constant", "params": {"m": 2}},
              "measure": {"family": "same",
                          "params": {"weights": ["99/100", "1/100"]}}}


def brute_pullback(spec, cells, depth, k):
    tr = build_truncation(spec, depth)
    bij = InducedBijection(spec, depth)
    return sum((tr.cell_measure(c) for c in range(tr.cell_count)
                if bij.forward(c, k) in cells), Fraction(0))


def test_fhc_function_sets_when_the_depth_is_within_f():
    # depth 2 already meets the hypothesis, but it lies within F = [0, 0, 0];
    # the scan goes past F, so n is a multiple of F's period and o^-n fixes F
    spec = SystemSpec.from_config(HEAVY_ZERO)
    rep = fhc_witness(spec, 0.1, Fraction(1, 5), f_symbols=(0, 0, 0))
    assert rep.params["N"] > 3
    assert rep.passed


def test_fhc_function_values_match_enumeration():
    # N > len(f_symbols): g = 1_B f sits on the depth-N cylinder of F with
    # x_N in D + j; brute-force both function-level sups over the k checked
    spec = gallery.get_spec("fhc-binary")
    rep = fhc_witness(spec, 0.35, Fraction(1, 8), f_symbols=(0, 0))
    N, D, shifted = rep.params["N"], rep.objects["D"], rep.objects["shifted"]
    assert N > 2
    F = member_cells(padded_symbols(spec, (0, 0), N))

    def on_top(top):
        return F & member_cells(padded_top(spec, N, top))

    g_cells, bprime_f = on_top(shifted), on_top(D)
    ks = rep.objects["ks"]
    small = max(brute_pullback(spec, g_cells, N, k) for k in ks)
    close = max(brute_pullback(spec, F, N, k)
                - brute_pullback(spec, bprime_f, N, k) for k in ks)
    assert Fraction(rep.check("function-small").computed) == small
    assert Fraction(rep.check("function-close").computed) == close
    B = rep.objects["B"]
    assert odometer_pullback_measure(spec, B, 3) == brute_pullback(
        spec, member_cells(B), N, 3)


# ---------------------------------------------------------------------------
# seeds and trials of the runaway-product search
# ---------------------------------------------------------------------------

def test_src_search_records_its_seed_and_trials():
    spec = gallery.get_spec("fhc-binary")
    seen = []
    for seed in (5, 6):
        rep = src_search(spec, 0.1, seed=seed, trials=2000)
        d = rep.check("disjoint")
        assert rep.params["route"] == "transitivity"
        assert d.method == "sampled"
        assert (d.extras["seed"], d.extras["trials"]) == (seed, 2000)
        assert d.extras["violating_points"] == []
        seen.append(d.extras["seed"])
    assert seen == [5, 6]


def test_cli_src_honours_seed_and_trials(tmp_path):
    code = main(["witness", "fhc-binary", "--name", "src", "--seed", "5",
                 "--trials", "777", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "witness-src-fhc-binary.json").read_text())
    d = {c["name"]: c for c in doc["checks"]}["disjoint"]
    assert (d["seed"], d["trials"]) == (5, 777)


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------

COMMAND_FLAGS = {
    "classify": {"--backend", "--horizon", "--kappa", "--out"},
    "sequences": {"--backend", "--horizon", "--kappa", "--index-horizon",
                  "--out"},
    "witness": {"--backend", "--epsilon", "--kappa", "--seed", "--trials",
                "--cap", "--name", "--iterate", "--out"},
    "orbit": {"--backend", "--depth", "--epsilon", "--horizon", "--f", "--g",
              "--p", "--out"},
    "norms": {"--backend", "--horizon", "--out"},
    "gallery-list": set(),
    "verify-gallery": {"--out"},
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if a.dest == "command")
    flags = {name: {o for a in p._actions for o in a.option_strings
                    if o not in ("-h", "--help")}
             for name, p in sub.choices.items()}
    assert flags == COMMAND_FLAGS
    assert sum(map(len, flags.values())) == 30


@pytest.mark.parametrize("argv", [
    ["verify-gallery", "--seed", "1"],
    ["orbit", "fhc-binary", "--trials", "10"],
    ["norms", "fhc-binary", "--cap", "10"],
    ["classify", "fhc-binary", "--epsilon", "0.2"],
])
def test_cli_unread_flag_is_a_usage_error(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# one bounded-alphabet decision
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,params,lcm", [
    ("constant", {"m": 6}, 6),
    ("list", {"list": [4, 6]}, 12),
    ("list", {"list": [4, 8], "repeat": "last"}, 8),
    ("cycle-range", {"lo": 2, "hi": 4}, 12),
    ("affine", {"a": 1, "b": 1}, None),
    ("power", {"base": 2}, None),
])
def test_bounded_lcm(family, params, lcm):
    assert AlphabetRule(family, params).bounded_lcm() == lcm


def test_repeat_last_list_is_bounded_for_witnesses_and_criteria():
    cfg = {"kind": "diagonal-translation",
           "alphabet": {"family": "list",
                        "params": {"list": [4, 8], "repeat": "last"}},
           "measure": {"family": "uniform", "params": {}}}
    spec = SystemSpec.from_config(cfg)
    with pytest.raises(HypothesisUnavailable, match="finite order 8"):
        single_site_witness(spec, 0.2)
    odometer = SystemSpec.from_config(dict(cfg, kind="odometer"))
    for name in ("fhc-from-eta-limit", "fhc-from-mixing"):
        v = evaluate(odometer, name, horizon=12)
        assert v.criterion == name
        assert v.evidence.get("reason") != "alphabet rule is not bounded"
