import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odolab import criteria, gallery
from odolab.criteria import evaluate
from odolab.errors import (CapExceeded, HypothesisUnavailable,
                           NotFoundWithinHorizon, StrategyInfeasible,
                           WindowTooSmall)
from odolab.maps import (InducedBijection, chain_measure,
                         odometer_pullback_measure, rounded, set_measure)
from odolab.scalars import format_scalar
from odolab.space import DepthSet, SystemSpec, build_truncation
import odolab.witness as witness_module
from odolab.witness import (_band_mass, _concentration_mass, fhc_witness,
                            fhcsum_witness, find_transitivity_params,
                            mixing_witness, rigidity_probe, shift_fhc_witness,
                            single_site_witness, src_evaluate, src_search,
                            transitivity_witness, translation_hoeffding_witness,
                            ufhc_count, ufhcsum_witness)

from conftest import listed_spec, member_cells, random_listed_vectors


# ---------------------------------------------------------------------------
# transitivity (concentration) witness
# ---------------------------------------------------------------------------

def test_transitivity_exhaustive_branch():
    # heavy drop, tiny top weight: the plan stays shallow enough to enumerate
    spec = gallery.get_spec("same-measure(11/12,1/12)")
    rep = transitivity_witness(spec, 0.45, beta=1.4)
    assert rep.passed
    d = rep.check("disjoint")
    assert d.method == "exact"
    assert d.computed == 0
    mass = rep.objects["mu_b"]
    assert float(mass) > 1 - 3 * 0.45
    # spot re-derivation: the band factor matches measure-core products
    plan = rep.objects["plan"]
    a, b = plan.indices[0], plan.indices[1]
    prod = Fraction(1)
    for r in range(a + 1, b):
        prod *= spec.mu_weight(r, spec.m(r) - 1)
    assert prod == Fraction(1, 12) ** (b - a - 1)


def test_transitivity_sampled_branch_small_trials():
    spec = gallery.get_spec("binary-alpha(1/4)")
    rep = transitivity_witness(spec, 0.12, trials=20_000, seed=7)
    assert rep.passed
    assert rep.check("disjoint").method == "sampled"
    assert rep.check("disjoint").extras["trials"] == 20_000


def test_transitivity_uniform_infeasible(binary_uniform):
    with pytest.raises(StrategyInfeasible):
        find_transitivity_params(binary_uniform, 0.1)


def test_transitivity_hc_not_mixing_plan(hc_not_mixing):
    plan = find_transitivity_params(hc_not_mixing, 0.2)
    assert all(d >= Fraction(1, 8) for d in plan.drops)
    assert float(plan.gap_sum) < 0.2
    assert plan.hoeffding_bound < 0.2


def test_transitivity_search_budget_trips_up_front(ornstein):
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        find_transitivity_params(ornstein, 0.1)
    assert time.perf_counter() - start < 5
    v = evaluate(ornstein, "hc-drop-hoeffding", horizon=64, mode="numeric")
    assert v.status == "inconclusive" and "cost" in v.evidence["reason"]
    # the search keeps its own budget: a raised cell cap picks the rung only
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        transitivity_witness(ornstein, 0.1, cell_cap=10 ** 21)
    assert time.perf_counter() - start < 5


def test_transitivity_plan_carries_its_band_masses():
    spec = gallery.get_spec("binary-alpha(1/4)")
    plan = find_transitivity_params(spec, 0.1)
    assert plan.band_masses == tuple(
        _band_mass(spec, a, b) for a, b in zip(plan.indices, plan.indices[1:]))
    assert plan.gap_sum == sum(plan.band_masses, Fraction(0))
    rep = transitivity_witness(spec, 0.1, trials=1000)
    assert rep.check("mass").extras["band_measures"] == [
        format_scalar(x) for x in plan.band_masses]


def test_transitivity_smallness_conditions_recorded():
    spec = gallery.get_spec("same-measure(11/12,1/12)")
    rep = transitivity_witness(spec, 0.45, beta=1.4)
    assert rep.check("smallness-gaps").ok
    assert rep.check("smallness-concentration").ok


def _pair_sum_distribution(pairs):
    """Joint law of (sum X_s, sum Y_s) for independent {0,1}^2 pairs.

    Each entry of `pairs` is (p11, p10, p01, p00).  Dict keyed by (u, v).
    """
    zero_like = pairs[0][0] * 0
    dist = {(0, 0): zero_like + 1}
    for p11, p10, p01, p00 in pairs:
        nxt: dict = {}
        for (u, v), w in dist.items():
            if p11:
                nxt[(u + 1, v + 1)] = nxt.get((u + 1, v + 1), zero_like) + w * p11
            if p10:
                nxt[(u + 1, v)] = nxt.get((u + 1, v), zero_like) + w * p10
            if p01:
                nxt[(u, v + 1)] = nxt.get((u, v + 1), zero_like) + w * p01
            if p00:
                nxt[(u, v)] = nxt.get((u, v), zero_like) + w * p00
        dist = nxt
    return dist


def uncapped_mass(pairs, ux_min, uy_max):
    """The whole joint law's corner: the oracle for the capped mass DP."""
    return sum((w for (u, v), w in _pair_sum_distribution(pairs).items()
                if u >= ux_min and v <= uy_max), pairs[0][0] * 0)


@st.composite
def pair_laws(draw):
    """Up to 30 pair laws with zero entries; some or all of them floats.

    Float laws stop at 20 pairs: the oracle on their binary values, with
    denominators near 2^53 each, takes 0.4 s at 30.
    """
    floats = draw(st.sampled_from(["none", "some", "all"]))
    pairs = []
    for _ in range(draw(st.integers(1, 30 if floats == "none" else 20))):
        nums = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4)
                    .filter(any))
        law = tuple(Fraction(x, sum(nums)) for x in nums)
        if floats == "all" or floats == "some" and draw(st.booleans()):
            law = tuple(float(p) for p in law)
        pairs.append(law)
    return pairs


@settings(max_examples=60, deadline=None)
@given(pair_laws(), st.data())
def test_concentration_mass_matches_the_uncapped_law(pairs, data):
    ux_min = data.draw(st.integers(-2, len(pairs) + 1))
    uy_max = data.draw(st.integers(-2, len(pairs) + 1))
    got = _concentration_mass(pairs, ux_min, uy_max)
    if all(type(p) is Fraction for pair in pairs for p in pair):
        assert type(got) is Fraction
        assert got == uncapped_mass(pairs, ux_min, uy_max)
    else:
        # one rounding of the exact mass over the floats' binary values
        binary = [tuple(map(Fraction, pair)) for pair in pairs]
        assert type(got) is float
        assert got == float(uncapped_mass(binary, ux_min, uy_max))
        assert got == pytest.approx(uncapped_mass(pairs, ux_min, uy_max),
                                    abs=1e-12)


# ---------------------------------------------------------------------------
# mixing witness
# ---------------------------------------------------------------------------

def test_mixing_witness_exhaustive():
    spec = gallery.get_spec("geometric-mixing")
    probe = mixing_witness(spec, 0.3, k=10 ** 9)
    k0 = probe.params["k0"]
    rep = mixing_witness(spec, 0.3, k=k0 + 7)
    assert rep.passed
    assert rep.check("disjoint").method == "exact"
    assert float(rep.check("mass").computed) >= 0.7
    # re-derive the recorded mass from measure-core primitives
    assert float(set_measure(spec, rep.objects["B"])) == pytest.approx(
        float(rep.check("mass").computed))


@pytest.mark.parametrize("gid", ["fhc-binary", "geometric-mixing"])
def test_mixing_witness_runs_at_its_burn_in(gid):
    rep = mixing_witness(gallery.get_spec(gid), 0.1)
    assert rep.params["k"] == rep.params["k0"]
    assert rep.passed


def test_mixing_witness_below_burn_in():
    spec = gallery.get_spec("geometric-mixing")
    with pytest.raises(HypothesisUnavailable):
        mixing_witness(spec, 0.3, k=10)


def test_mixing_witness_blocked_by_kappa_ceiling(hc_not_mixing):
    # the shift-disjoint optimum never exceeds 7/8, so eps < 3/8 cannot work
    with pytest.raises(HypothesisUnavailable):
        mixing_witness(hc_not_mixing, 0.3, k=100)


# ---------------------------------------------------------------------------
# fhc witness
# ---------------------------------------------------------------------------

def test_fhc_witness_blocks_of_three():
    spec = gallery.get_spec("fhc-not-mixing")
    rep = fhc_witness(spec, 0.1, Fraction(1, 5), spot_checks=40)
    assert rep.passed
    N = rep.params["N"]
    assert N % 3 == 2            # the witness depth sits on a 3k+2 coordinate
    k = (N - 2) // 3
    assert rep.params["j"] == 1
    # omega at the previous coordinate is exactly 1/(k+1)
    from odolab.criteria import omega
    assert omega(spec, N - 1, Fraction(1, 5)) == Fraction(1, k + 1)


def test_fhc_witness_uniform_unavailable(binary_uniform):
    with pytest.raises(HypothesisUnavailable):
        fhc_witness(binary_uniform, 0.05, Fraction(1, 8), horizon=60)


def test_fhc_period_adjustment():
    spec = gallery.get_spec("fhc-binary")
    # a depth-2 cylinder has period 4, which divides n = j M_N for N > 2
    rep = fhc_witness(spec, 0.2, Fraction(1, 8), f_symbols=(0, 0),
                      spot_checks=10)
    assert rep.params["f_period"] == 4
    assert rep.params["n"] % rep.params["f_period"] == 0
    assert rep.passed


def test_fhc_fixed_by_d_counts_moved_cells(monkeypatch):
    # fixed-by-d compares two cell counts of the chain kernel: o^d moves no
    # cell of B, and a count that finds one moved fails the check
    spec = gallery.get_spec("fhc-binary")
    rep = fhc_witness(spec, 0.2, Fraction(1, 8), spot_checks=10)
    assert rep.check("fixed-by-d").ok and rep.check("fixed-by-d").computed == 0
    real = witness_module.image_overlap
    monkeypatch.setattr(witness_module, "image_overlap",
                        lambda spec, S, n: real(spec, S, n) - (n != 0))
    rep = fhc_witness(spec, 0.2, Fraction(1, 8), spot_checks=10)
    assert rep.check("fixed-by-d").computed == 1
    assert not rep.check("fixed-by-d").ok and not rep.passed


@pytest.mark.parametrize("gid,eps,kappa,coverage", [
    ("fhc-binary", 0.2, Fraction(1, 8), "all-k"),
    ("fhc-binary", 0.1, Fraction(1, 5), "seeded-spot"),
    ("fhc-not-mixing", 0.6, Fraction(1, 8), "all-k"),
    ("fhc-not-mixing", 0.1, Fraction(1, 5), "seeded-spot"),
])
@pytest.mark.parametrize("f_symbols", [None, (0, 0, 0)])
def test_fhc_transports_match_direct_pullbacks(gid, eps, kappa, coverage,
                                               f_symbols):
    # the shared prefix passes against one whole transport per set and k
    spec = gallery.get_spec(gid)
    rep = fhc_witness(spec, eps, kappa, f_symbols=f_symbols, spot_checks=24)
    N, n, ks = rep.params["N"], rep.params["n"], rep.objects["ks"]
    B = rep.objects["B"]
    assert rep.check("pullback-small-transport").extras["coverage"].startswith(
        coverage)

    def pull(S, k):
        return odometer_pullback_measure(spec, S, k)

    def computed(name):
        return rep.check(name).computed

    assert computed("pullback-small-transport") == format_scalar(
        max(pull(B, k) for k in ks))
    assert computed("pullback-large-transport") == format_scalar(
        min(pull(B, n + k) for k in ks))
    if f_symbols is None:
        assert "function-small" not in [c.name for c in rep.checks]
        return
    fixed = dict(enumerate(({s} for s in f_symbols), start=1))
    F = DepthSet.cylinder(spec, N, fixed)
    BF = DepthSet.cylinder(spec, N, {**fixed, N: rep.objects["shifted"]})
    BpF = DepthSet.cylinder(spec, N, {**fixed, N: rep.objects["D"]})
    assert computed("function-small") == format_scalar(max(pull(BF, k) for k in ks))
    assert computed("function-close") == format_scalar(
        max(pull(F, k) - pull(BpF, k) for k in ks))


def test_fhc_transport_matches_enumeration():
    spec = gallery.get_spec("fhc-not-mixing")
    rep = fhc_witness(spec, 0.35, Fraction(1, 5), spot_checks=16)
    B = rep.objects["B"]
    # brute-force the pullback measure on the full truncation for small k
    tr = build_truncation(spec, B.depth)
    bij = InducedBijection(spec, B.depth)
    cells = member_cells(B)
    for k in (0, 1, 5):
        brute = sum(tr.cell_measure(c) for c in range(tr.cell_count)
                    if bij.forward(c, k) in cells)
        assert odometer_pullback_measure(spec, B, k) == brute


# ---------------------------------------------------------------------------
# counting witness
# ---------------------------------------------------------------------------

def test_ufhc_count_blocks():
    spec = gallery.get_spec("fhc-not-mixing")
    rep = ufhc_count(spec, epsilon=0.52, kappa_param=Fraction(1, 5), horizon=40)
    assert rep.passed
    assert rep.objects["achieved"] <= 1
    assert rep.objects["achieved"] >= rep.objects["predicted"] - Fraction(2, rep.objects["window"])
    # recount by explicit truncation enumeration
    B = rep.objects["B"]
    tr = build_truncation(spec, B.depth)
    bij = InducedBijection(spec, B.depth)
    cells = member_cells(B)
    recount = 0
    for k in range(1, rep.objects["window"] + 1):
        mass = sum(tr.cell_measure(c) for c in range(tr.cell_count)
                   if bij.forward(c, k) in cells)
        if float(1 - mass) <= 0.52 + 1e-15:
            recount += 1
    assert recount == rep.objects["count"]


def test_ufhc_count_reads_the_rows_once(monkeypatch):
    # every iterate's transport runs on one read of B's weight rows
    spec = gallery.get_spec("fhc-not-mixing")
    B = DepthSet.cylinder(spec, 5, {5: {0}})
    reads = []
    real = SystemSpec.weight_rows

    def counted(self, depth):
        reads.append(depth)
        return real(self, depth)

    monkeypatch.setattr(SystemSpec, "weight_rows", counted)
    rep = ufhc_count(spec, epsilon=0.5, B=B, n_iter=4, count_window=16)
    assert reads == [5]
    assert rep.objects["count"] == sum(
        float(1 - odometer_pullback_measure(spec, B, k)) <= 0.5 + 1e-15
        for k in range(1, 17))


def per_k_count(spec, B, epsilon, window) -> int:
    """The count one transport per iterate: the oracle for the block count."""
    rows, exact = spec.weight_rows(B.depth)
    return sum(
        float(1 - rounded(chain_measure(spec, None, B.factors, k, rows),
                          exact)) <= epsilon + 1e-15
        for k in range(1, window + 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_ufhc_count_blocks_match_the_per_k_count(data):
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    depth = data.draw(st.integers(1, 4))
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=1))
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    spec = listed_spec(kind, random_listed_vectors(rng, depth, float_coords))
    m = spec.m(depth)
    S = data.draw(st.sets(st.integers(0, m - 1)))
    B = DepthSet.cylinder(spec, depth, {depth: S})
    epsilon = data.draw(st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.65, 0.8,
                                         0.95]))
    # windows around block (M_i) and period (M_i m_i) edges
    M = spec.radix_weights(depth)[depth - 1] if kind == "odometer" else 1
    edge = data.draw(st.sampled_from([M, M * m, 2 * M * m, 3 * M * m + M]))
    window = max(1, edge + data.draw(st.integers(-2, 2)))
    rep = ufhc_count(spec, epsilon, B=B, n_iter=1, count_window=window)
    assert rep.objects["count"] == per_k_count(spec, B, epsilon, window)
    if depth > 1:
        fixed = data.draw(st.integers(1, depth - 1))
        early = DepthSet.cylinder(spec, depth, {fixed: {0}, depth: S})
        with pytest.raises(ValueError):
            ufhc_count(spec, epsilon, B=early, n_iter=1, count_window=window)


def test_ufhc_count_budget_trips_before_any_transport(monkeypatch):
    # fhc-binary's count makes at most (2 + 2)(2 + 20) calls at depth 20
    calls = []
    real = witness_module.chain_measure

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(witness_module, "chain_measure", counted)
    spec = gallery.get_spec("fhc-binary")
    B = DepthSet.cylinder(spec, 20, {20: {0}})
    monkeypatch.setattr(criteria, "WORK_BUDGET", 4 * 22 * 20 - 1)
    with pytest.raises(CapExceeded, match="^ufhc count needs 1760 "):
        ufhc_count(spec, 0.1, B=B, n_iter=1 << 19)
    assert calls == []
    monkeypatch.setattr(criteria, "WORK_BUDGET", 4 * 22 * 20)
    ufhc_count(spec, 0.1, B=B, n_iter=1 << 19)
    assert 0 < len(calls) <= 4 * 22


def test_set_small_measures_b_once(monkeypatch):
    calls = []
    real = witness_module.set_measure

    def counted(spec, S):
        calls.append(S)
        return real(spec, S)

    monkeypatch.setattr(witness_module, "set_measure", counted)
    assert ufhc_count(gallery.get_spec("fhc-binary"), 0.1).passed
    assert single_site_witness(gallery.get_spec("trans-hc"), 0.1, 14).passed
    assert len(calls) == 2


def test_ufhc_count_empty_set():
    spec = gallery.get_spec("fhc-not-mixing")
    empty = DepthSet.product_form(spec, [frozenset()])
    rep = ufhc_count(spec, epsilon=0.5, B=empty, n_iter=4, count_window=16)
    assert rep.objects["achieved"] == 0
    assert not rep.check("count").ok


def test_ufhc_count_hereditary_translation():
    spec = gallery.get_spec("trans-hufhc")
    rep = ufhcsum_witness(spec, block=9, epsilon=0.2)
    assert rep.passed
    window = rep.objects["window"]
    assert Fraction(len(rep.objects["hits"]), window) >= Fraction(1, 4)


# ---------------------------------------------------------------------------
# runaway products
# ---------------------------------------------------------------------------

def test_src_full_space_product_one(binary_uniform):
    B = DepthSet.product_form(binary_uniform, [{0, 1}, {0, 1}])
    for n in (0, 1, 3):
        assert src_evaluate(binary_uniform, B, n)["product"] == 1


def test_src_search_finds_cylinder_route():
    spec = gallery.get_spec("binary-alpha(1/4)")
    rep = src_search(spec, 0.3)
    assert rep.passed
    assert float(rep.check("runaway-product").computed) < 0.3


def test_src_search_concentration_route():
    # below every single-site weight within the depth horizon, so the
    # concentration construction is the only viable candidate
    spec = gallery.get_spec("binary-alpha(1/4)")
    rep = src_search(spec, 0.05, depth_horizon=4)
    assert rep.passed
    assert rep.params.get("route") == "transitivity"


def test_src_search_uniform_not_found(binary_uniform):
    with pytest.raises(NotFoundWithinHorizon):
        src_search(binary_uniform, 0.2, depth_horizon=5, iterate_horizon=16)


def test_src_both_forms_hold_together():
    spec = gallery.get_spec("fhc-binary")
    rep = src_search(spec, 0.2)
    comp = rep.check("complement-small")
    prod = rep.check("runaway-product")
    assert comp.ok and prod.ok and rep.check("disjoint").ok


# ---------------------------------------------------------------------------
# translation constructions
# ---------------------------------------------------------------------------

def test_single_site_witness():
    spec = gallery.get_spec("trans-hc")
    rep = single_site_witness(spec, epsilon=0.1, horizon=14)
    assert rep.passed
    i, n = rep.objects["site"], rep.objects["n"]
    D = rep.objects["D"]
    m = spec.m(i)
    assert not D & {(x + n) % m for x in D}
    assert float(spec.subset_measure(i, D)) >= 0.9


def test_degenerate_translation_flagged():
    base = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    spec = SystemSpec(kind="diagonal-translation",
                      alphabet=base.alphabet, measure=base.measure)
    with pytest.raises(HypothesisUnavailable, match="degenerate"):
        single_site_witness(spec)


@pytest.mark.parametrize("build", [
    single_site_witness,
    lambda spec: translation_hoeffding_witness(spec, [1, 2], n=1),
    fhcsum_witness,
    lambda spec: ufhcsum_witness(spec, block=3),
], ids=["single-site", "hoeffding", "fhcsum", "ufhcsum"])
def test_translation_constructions_need_infinite_order(build):
    base = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    spec = SystemSpec(kind="diagonal-translation",
                      alphabet=base.alphabet, measure=base.measure)
    with pytest.raises(HypothesisUnavailable,
                       match="degenerate: the translation has finite order 3"):
        build(spec)
    with pytest.raises(ValueError, match="non-translation spec"):
        build(base)


def test_hoeffding_translation_witness():
    spec = gallery.get_spec("hoeffbis-blocks")
    sites = list(range(25, 49))     # blocks 5 and 6
    rep = translation_hoeffding_witness(spec, sites, n=32, epsilon=0.35)
    assert rep.passed
    assert rep.check("separation").ok
    mu_b = rep.objects["mu_b"]
    assert float(mu_b) >= rep.objects["floor"] - 1e-12


def test_fhcsum_witness():
    spec = gallery.get_spec("trans-fhc")
    rep = fhcsum_witness(spec, epsilon=0.2, horizon=13)
    assert rep.passed
    assert rep.check("pullback-large").ok
    assert rep.check("pushed-small").ok


# ---------------------------------------------------------------------------
# shift window construction
# ---------------------------------------------------------------------------

def test_shift_fhc_witness_window():
    spec = gallery.get_spec("shift-z")
    rep = shift_fhc_witness(spec, kappa_param=0.15, d=200)
    assert rep.passed
    assert rep.check("miss").ok and rep.check("cover").ok


def test_shift_fhc_window_too_small():
    spec = gallery.get_spec("shift-z")
    with pytest.raises(WindowTooSmall):
        shift_fhc_witness(spec, kappa_param=0.15, d=2000, window=500)


def test_shift_fhc_kappa_range():
    spec = gallery.get_spec("shift-z")
    with pytest.raises(ValueError):
        shift_fhc_witness(spec, kappa_param=0.3, d=100)


# ---------------------------------------------------------------------------
# rigidity probe
# ---------------------------------------------------------------------------

def test_rigidity_trans_rigid():
    spec = gallery.get_spec("trans-rigid")
    rep = rigidity_probe(spec, max_i=8, cylinder_depth=6, registered_log_k=1.0)
    assert rep.passed
    assert all(c.ok for c in rep.checks if c.name.startswith("power-bound"))


def test_rigidity_uniform_constant_one():
    # alphabets 4, 8, 16 with uniform weights: every sup ratio is exactly 1
    spec = listed_spec("diagonal-translation",
                       [[Fraction(1, 4)] * 4, [Fraction(1, 8)] * 8,
                        [Fraction(1, 16)] * 16])
    rep = rigidity_probe(spec, max_i=3, cylinder_depth=3, registered_log_k=0.0)
    assert rep.passed
    for c in rep.checks:
        if c.name.startswith("power-bound"):
            assert float(c.computed) == 1.0
