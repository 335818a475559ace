import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from odolab import criteria, gallery, space
from odolab.cli import ODOMETER_CRITERIA
from odolab.errors import CapExceeded
from odolab.scalars import integer_view, is_exact, scalar_sum
from odolab.maps import set_measure
from odolab.space import (AlphabetRule, DepthSet, RampMeasure, SimpleFunction,
                          SystemSpec, atomless_monitor, build_truncation)

from conftest import (listed_spec, member_cells, random_listed_vectors,
                      uniform_binary)


def test_uniform_binary_truncation_cells():
    spec = uniform_binary()
    tr = build_truncation(spec, 3)
    assert tr.cell_count == 8
    assert all(tr.cell_measure(c) == Fraction(1, 8) for c in range(8))


def test_ornstein_depth2_cell(ornstein):
    tr = build_truncation(ornstein, 2)
    # weights: coordinate 1 is (1/2, 1/2), coordinate 2 is (1/2, 1/4, 1/4)
    assert tr.cell_measure(tr.index((0, 0))) == Fraction(1, 4)
    assert tr.cell_count == 6


def test_depth1_cells_are_the_alphabet(ornstein):
    tr = build_truncation(ornstein, 1)
    assert tr.cell_count == 2
    assert [tr.cell_measure(c) for c in range(2)] == list(ornstein.mu(1))


def test_mixed_radix_little_endian(ornstein):
    tr = build_truncation(ornstein, 3)
    # coordinate 1 varies fastest
    assert tr.digits(0) == (0, 0, 0)
    assert tr.digits(1) == (1, 0, 0)
    assert tr.digits(2) == (0, 1, 0)
    assert tr.index(tr.digits(17)) == 17


def test_truncation_cap():
    spec = uniform_binary()
    with pytest.raises(CapExceeded):
        build_truncation(spec, 30, cap=1 << 20)


def test_cell_measures_sum_to_one_exactly():
    for gid in ("ornstein", "hc-not-mixing", "fhc-binary", "fhc-not-mixing"):
        spec = gallery.get_spec(gid)
        tr = build_truncation(spec, 5)
        assert sum(tr.all_measures()) == 1


def test_cell_measures_sum_float_backend():
    spec = gallery.get_spec("geometric-mixing")
    tr = build_truncation(spec, 5)
    assert abs(math.fsum(float(x) for x in tr.all_measures()) - 1.0) < 1e-12


def test_cached_accessors_match_the_measure_family():
    for gid in ("ornstein", "hc-not-mixing", "fhc-binary", "geometric-mixing",
                "binary-alpha(1/4)", "trans-hc", "hoeffbis-blocks"):
        spec = gallery.get_spec(gid)
        for i in (1, 2, 3, 4):
            m = spec.alphabet.m(i)
            for _ in range(2):      # the second round reads the memo
                assert spec.m(i) == m
                assert spec.mu(i) == spec.measure.weights(i, m)
                for j in (0, 1, m - 1, m + 1, -1):
                    got, want = spec.mu_weight(i, j), spec.measure.weight(i, m, j)
                    assert type(got) is type(want) and got == want, (gid, i, j)
                ints = spec.integer_weights(i)
                w = spec.measure.weights(i, m)
                if all(isinstance(x, Fraction) for x in w):
                    nums, den = ints
                    assert [Fraction(n, den) for n in nums] == list(w)
                    assert den == math.lcm(*(x.denominator for x in w))
                else:
                    assert ints is None
        assert spec == gallery.get_spec(gid)
        assert "_coords" not in repr(spec) and "_held" not in repr(spec)


@pytest.mark.parametrize("gid", ["ornstein", "hc-not-mixing", "fhc-binary",
                                 "fhc-not-mixing", "geometric-mixing",
                                 "binary-alpha(1/4)", "same-measure(1/3,2/3)",
                                 "trans-hc", "hoeffbis-blocks"])
def test_scalar_accessors_match_the_measure_family(gid):
    spec = gallery.get_spec(gid)
    fam = spec.measure
    for i in (1, 2, 3, 4, 5, 7):
        m = spec.m(i)
        pairs = [(spec.eta(i), fam.eta(i, m)), (spec.delta(i), fam.delta(i, m))]
        for lo, hi in ((0, m - 1), (1, m // 2), (m - 1, m - 1), (2, 1),
                       (-3, m + 4)):
            pairs.append((spec.interval_measure(i, lo, hi),
                          fam.interval_measure(i, m, lo, hi)))
        for subset in ((), (0,), range(0, m, 2), (m - 1, m, 2 * m + 1)):
            pairs.append((spec.subset_measure(i, subset),
                          scalar_sum(fam.weight(i, m, j) for j in subset)))
        for got, want in pairs:
            assert type(got) is type(want) and got == want, (gid, i)


def count_weight_builds(monkeypatch, spec) -> list:
    calls = []
    weights = type(spec.measure).weights

    def counted(self, i, m):
        calls.append(i)
        return weights(self, i, m)

    monkeypatch.setattr(type(spec.measure), "weights", counted)
    return calls


def test_scalar_accessors_read_the_memoised_vector(monkeypatch):
    spec = gallery.get_spec("fhc-not-mixing")
    calls = count_weight_builds(monkeypatch, spec)
    for _ in range(3):
        for i in range(1, 10):
            spec.eta(i), spec.delta(i), spec.interval_measure(i, 0, 0)
            spec.subset_measure(i, {1})
    assert sorted(calls) == list(range(1, 10))


def held_entries(spec) -> int:
    """What the memo should be charged: 1 per coordinate plus m_i for each
    stored vector."""
    total = 0
    for c in spec._coords.values():
        views = [c.weights, c.ints]
        total += 1 + c.m * sum(v not in (None, space._UNSET) for v in views)
    return total


def test_coordinate_memo_is_bounded(monkeypatch):
    # each binary coordinate holds 1 + 2 (vector) + 2 (integer view) entries
    monkeypatch.setattr(space, "VECTOR_CAP", 64)
    spec = gallery.get_spec("fhc-not-mixing")
    sizes = []
    for i in range(1, 60):
        assert spec.mu(i) == spec.measure.weights(i, 2)
        assert spec.mu_weight(i, 1) == spec.measure.weights(i, 2)[1]
        assert spec.integer_weights(i) == integer_view(spec.mu(i))
        assert spec._held == held_entries(spec) <= 64
        sizes.append(len(spec._coords))
    # 12 coordinates fill 60 of the 64 entries; the 13th's integer view
    # starts the memo over unstored, and the check's mu(13) refills it
    assert sizes[:14] == list(range(1, 13)) + [1, 2] and max(sizes) == 13


def test_memo_keeps_its_coordinates_past_a_vector_that_cannot_fit(
        monkeypatch):
    # 1 + 4 entries never fit a memo of 4, so mu(1) stores nothing and
    # clears nothing
    monkeypatch.setattr(space, "VECTOR_CAP", 4)
    spec = gallery.get_spec("same-measure(1/4,1/4,1/4,1/4)")
    spec.m(2)
    for _ in range(2):
        assert spec.mu(1) == (Fraction(1, 4),) * 4
        assert sorted(spec._coords) == [1, 2] and spec._held == 2


def test_ramp_memoises_pieces_vector_and_integer_view(monkeypatch):
    spec = gallery.get_spec("trans-hc")
    m = spec.m(9)
    assert spec.measure.pieces(9, m) is spec.measure.pieces(9, m)
    assert spec.measure.pieces(9, m) == spec.measure._build_pieces(9, m)
    calls = count_weight_builds(monkeypatch, spec)
    for _ in range(3):
        assert spec.mu(9) is spec._coords[9].weights
        assert spec.integer_weights(9) is spec._coords[9].ints is not None
        assert spec.mu_weight(9, 3) == spec.measure.weight(9, m, 3)
        spec.sup_shift_ratio(9, 5)
    assert calls == [9]
    assert spec._held == held_entries(spec) == 1 + 2 * m


def test_mu_weight_past_the_vector_cap_reads_the_family():
    spec = gallery.get_spec("trans-rigid")
    m = spec.m(4)
    assert m == 2 ** 20 > space.VECTOR_CAP
    for j in (0, 1, m // 5, m // 2, m - 1, m + 3, -1):
        got, want = spec.mu_weight(4, j), spec.measure.weight(4, m, j)
        assert type(got) is type(want) and got == want, j
    assert spec._coords[4].weights is space._UNSET
    assert spec._held == held_entries(spec) == 1


EXACT_RAMPS = ["trans-hc", "trans-fhc", "trans-hufhc", "trans-mixing",
               "hoeffbis-blocks"]


@settings(max_examples=80, deadline=None)
@given(gid=st.sampled_from(EXACT_RAMPS), i=st.integers(1, 9), data=st.data())
def test_ramp_subset_measure_matches_per_symbol_fractions(gid, i, data):
    spec = gallery.get_spec(gid)
    fam, m = spec.measure, spec.m(i)
    # trans-mixing's ramp runs in floats from i = 7
    assume(all(is_exact(first) for _, _, first, _ in fam.pieces(i, m)))
    subset = data.draw(st.sets(st.integers(-m, 2 * m), max_size=12)
                       | st.just(range(m)))
    got = spec.subset_measure(i, subset)
    want = sum((fam.weight(i, m, j) for j in subset), Fraction(0))
    assert type(got) is Fraction and got == want


def test_ramp_pieces_build_only_three_kinds_of_ratio():
    # _geom_at, _geom_interval_sum and RampMeasure.eta handle only these:
    # an exact ratio <= 1, a flat float 1.0, and a float decay by its log.
    # The extra spec ramps 533 > GEOM_EXACT_CAP symbols on the squares only.
    float_ramp = SystemSpec(
        kind="diagonal-translation",
        alphabet=AlphabetRule("constant", {"m": 1600}),
        measure=RampMeasure({"layout": "mid", "n": "third",
                             "delta": "inv-square", "select": "squares"}))
    specs = [gallery.get_spec(gid) for gid in EXACT_RAMPS + ["trans-rigid"]]
    seen = set()
    for spec in specs + [float_ramp]:
        for i in range(1, 17):
            m = spec.m(i)
            try:
                pieces = spec.measure.pieces(i, m)
            except CapExceeded:
                continue
            for _, _, first, ratio in pieces:
                if isinstance(ratio, space._GeomRatio):
                    assert ratio.log_value < 0 and type(first) is float
                    seen.add("log")
                elif type(ratio) is float:
                    assert ratio == 1.0 and type(first) is float
                    seen.add("flat")
                else:
                    assert type(ratio) is Fraction and ratio <= 1
                    assert type(first) is Fraction
                    seen.add("exact")
    assert seen == {"log", "flat", "exact"}


def test_translation_memo_keeps_superexponential_alphabets():
    spec = gallery.get_spec("trans-rigid")
    ms = [spec.m(i) for i in range(1, 9)]
    assert ms[-1] == 4 ** 36
    for i in range(1, 9):
        spec.mu_weight(i, 0), spec.eta(i), spec.delta(i)
    assert sorted(spec._coords) == list(range(1, 9))
    assert spec._held == held_entries(spec) < space.VECTOR_CAP
    assert [spec.m(i) for i in range(1, 9)] == ms


def test_odometer_criteria_build_each_coordinate_once(monkeypatch):
    spec = gallery.get_spec("fhc-not-mixing")
    calls = count_weight_builds(monkeypatch, spec)
    for name in ODOMETER_CRITERIA:
        criteria.evaluate(spec, name, horizon=300, mode="numeric")
    assert len(calls) == len(set(calls)) and max(calls) >= 300


def outcome(fn):
    try:
        return fn()
    except CapExceeded:
        return CapExceeded


def assert_same(got, want, what):
    if isinstance(want, tuple):
        assert len(got) == len(want), what
        for g, w in zip(got, want):
            assert_same(g, w, what)
    else:
        assert type(got) is type(want) and got == want, (what, got, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memoised_accessors_match_the_family_across_restarts(data):
    import numpy as np
    cap = data.draw(st.sampled_from([8, 24, 64]), label="cap")
    choice = data.draw(st.sampled_from(["listed", "float-ramp", "exact-ramp",
                                        "fhc"]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "VECTOR_CAP", cap)
        if choice == "listed":
            rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
            floats = data.draw(st.sets(st.integers(1, 5), max_size=3))
            spec = listed_spec("odometer",
                               random_listed_vectors(rng, 5, floats))
        elif choice == "float-ramp":
            # ramps past the exact cap run in floats, where weight(j) and
            # weights() differ in the last bits: in 3 of 10 symbols here
            mp.setattr(space, "GEOM_EXACT_CAP", 1)
            spec = SystemSpec(
                kind="odometer", alphabet=AlphabetRule("constant", {"m": 10}),
                measure=RampMeasure({"layout": "tail", "n": "half",
                                     "delta": "inv-ramp"}))
        elif choice == "exact-ramp":
            spec = gallery.get_spec("trans-hc")
        else:
            spec = gallery.get_spec("fhc-not-mixing")
        fam = spec.measure
        top = 5
        names = ["m", "mu", "mu_weight", "integer_weights", "eta", "delta",
                 "interval_measure", "subset_measure", "sup_shift_ratio"]
        ops = st.tuples(st.sampled_from(names), st.integers(1, top),
                        st.integers(-3, 40), st.integers(-3, 40))
        # the drawn accesses leave the memo in some state; a sweep over every
        # accessor and coordinate then reads it
        sweep = [(name, i, 1, 2) for i in range(1, top + 1) for name in names]
        for name, i, a, b in data.draw(st.lists(ops, max_size=40)) + sweep:
            m = spec.alphabet.m(i)
            got, want = {
                "m": (lambda: spec.m(i), lambda: m),
                "mu": (lambda: spec.mu(i), lambda: fam.weights(i, m)),
                "mu_weight": (
                    lambda: tuple(spec.mu_weight(i, j) for j in range(-1, m)),
                    lambda: tuple(fam.weights(i, m)[j % m] if m <= cap
                                  else fam.weight(i, m, j)
                                  for j in range(-1, m))),
                "integer_weights": (
                    lambda: spec.integer_weights(i),
                    lambda: integer_view(fam.weights(i, m))),
                "eta": (lambda: spec.eta(i), lambda: fam.eta(i, m)),
                "delta": (lambda: spec.delta(i), lambda: fam.delta(i, m)),
                "interval_measure": (
                    lambda: spec.interval_measure(i, a, b),
                    lambda: fam.interval_measure(i, m, a, b)),
                "subset_measure": (
                    lambda: spec.subset_measure(i, (a, b)),
                    lambda: scalar_sum(fam.weights(i, m)[j % m]
                                       for j in (a, b))),
                "sup_shift_ratio": (
                    lambda: spec.sup_shift_ratio(i, a),
                    lambda: fam.sup_shift_ratio(i, m, a)),
            }[name]
            # a vector past the (patched) cap raises on both sides
            assert_same(outcome(got), outcome(want), (choice, name, i, a, b))
            assert spec._held == held_entries(spec) <= cap


def cell_product(spec, tr, cell):
    """Measure of one cell as the left-to-right product of its weights."""
    prod = None
    for i, d in enumerate(tr.digits(cell), start=1):
        w = spec.measure.weight(i, tr.ms[i - 1], d)
        prod = w if prod is None else prod * w
    return prod


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_measure_vector_matches_cell_products(data):
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    depth = data.draw(st.integers(1, 4))
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=2))
    # q = 2^40 - 87 pushes depth >= 2 products of denominators past int64
    q = data.draw(st.sampled_from([360, (1 << 40) - 87]))
    spec = listed_spec("odometer",
                       random_listed_vectors(rng, depth, float_coords, q=q))
    tr = build_truncation(spec, depth)
    oracle = [cell_product(spec, tr, c) for c in range(tr.cell_count)]
    values, den = tr.measure_vector()
    assert (den is None) == bool(float_coords)
    if den is not None:
        assert values.dtype == (np.int64 if den < 1 << 63 else object)
    got = [tr.cell_measure(c) for c in range(tr.cell_count)]
    assert [type(x) for x in got] == [type(x) for x in oracle]
    assert got == oracle == tr.all_measures()


@pytest.mark.parametrize("q", [(1 << 30) - 35, (1 << 40) - 87],
                         ids=["int64-past-2^53", "python-ints"])
def test_float_row_after_a_wide_exact_prefix(q):
    # the prefix denominator q^2 is past 2**53, where a float64 division of
    # the numerators would round twice; each cell must still be rounded once
    import numpy as np
    rng = np.random.default_rng(0)
    spec = listed_spec("odometer", random_listed_vectors(rng, 3, {3}, q=q))
    tr = build_truncation(spec, 3)
    assert tr.all_measures() == [cell_product(spec, tr, c)
                                 for c in range(tr.cell_count)]


def enumerated_measure(spec, S):
    """The measure of S summed over its member cells."""
    measures = build_truncation(spec, S.depth).all_measures()
    return sum((measures[c] for c in member_cells(S)), Fraction(0))


def test_set_measure_examples():
    spec = uniform_binary()
    assert set_measure(spec, DepthSet.product_form(spec, [{0, 1}, {0}])) == Fraction(1, 2)
    assert set_measure(spec, DepthSet.product_form(spec, [{0, 1}])) == 1
    orn = gallery.get_spec("ornstein")
    s = DepthSet.product_form(orn, [{1}, {2}])
    assert set_measure(orn, s) == Fraction(1, 8)
    assert enumerated_measure(orn, s) == Fraction(1, 8)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_form_matches_expanded_cells(data):
    depth = data.draw(st.integers(2, 5))
    vectors = []
    factors = []
    for i in range(depth):
        m = data.draw(st.integers(2, 4))
        raw = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
        total = sum(raw)
        vectors.append([Fraction(x, total) for x in raw])
        subset = data.draw(st.none() | st.sets(st.integers(0, m - 1),
                                                min_size=0, max_size=m))
        factors.append(subset)
    spec = listed_spec("odometer", vectors)
    S = DepthSet.product_form(spec, factors)
    assert set_measure(spec, S) == enumerated_measure(spec, S)


def test_atomless_monitor_uniform_binary():
    spec = uniform_binary()
    seq = atomless_monitor(spec, 10)
    assert seq[-1] == Fraction(1, 2 ** 10)


def test_atomless_monitor_binary_alpha_one():
    # eta values under the halving convention: 3/4, 3/4, 5/6 (recomputed
    # directly from the perturbation rule, independent of the monitor)
    spec = gallery.get_spec("binary-alpha(1)")
    etas = []
    for i in (1, 2, 3):
        p = Fraction(1, i)
        while p >= Fraction(1, 2):
            p /= 2
        etas.append(Fraction(1, 2) + p)
    assert etas == [Fraction(3, 4), Fraction(3, 4), Fraction(5, 6)]
    seq = atomless_monitor(spec, 3)
    assert seq[-1] == etas[0] * etas[1] * etas[2] == Fraction(15, 32)


def test_monitor_positive_nonincreasing():
    for gid in ("ornstein", "fhc-binary", "hc-not-mixing", "trans-hc"):
        spec = gallery.get_spec(gid)
        seq = atomless_monitor(spec, 8)
        assert all(x > 0 for x in seq)
        assert all(float(a) >= float(b) for a, b in zip(seq, seq[1:]))


def test_gallery_monitors_fall_below_threshold():
    for gid, entry in gallery.GALLERY.items():
        spec = entry.build()
        if spec.kind == "weighted-shift":
            continue
        seq = atomless_monitor(spec, entry.atomless_depth)
        assert float(seq[-1]) < 0.01, gid


def test_degenerate_full_atom_rejected():
    spec = listed_spec("odometer", [[Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError):
        spec.validate_coordinate(1)


def test_coordinate_validation_passes_on_gallery():
    for gid in ("ornstein", "hc-not-mixing", "geometric-mixing", "trans-hc",
                "trans-rigid", "hoeffbis-blocks"):
        spec = gallery.get_spec(gid)
        for i in (1, 2, 3):
            spec.validate_coordinate(i)


def test_config_round_trip_all_entries():
    for gid, entry in gallery.GALLERY.items():
        spec = entry.build()
        clone = SystemSpec.from_config(spec.to_config())
        assert clone.to_config() == spec.to_config(), gid


def test_rationals_serialize_as_strings():
    spec = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    cfg = spec.to_config()
    assert cfg["measure"]["params"]["weights"] == ["1/2", "1/3", "1/6"]


def test_simple_function_algebra():
    spec = uniform_binary()
    f = SimpleFunction.indicator(DepthSet.basic_cylinder(spec, (0, 0)))
    g = SimpleFunction.constant(spec, 2, Fraction(1, 3))
    h = f + g
    assert h.values[0] == Fraction(4, 3)
    assert (f - f).values == (Fraction(0),) * 4


def test_interval_measure_matches_subset_sum():
    spec = gallery.get_spec("hoeffbis-blocks")
    for i in (1, 4, 9):
        m = spec.m(i)
        w = spec.mu(i)
        assert spec.interval_measure(i, 2, m - 2) == sum(w[2:m - 1])
        assert spec.interval_measure(i, 0, m - 1) == 1
        assert spec.interval_measure(i, m + 3, m + 9) == 0


def test_sup_shift_ratio_piecewise_matches_direct():
    spec = gallery.get_spec("hoeffbis-blocks")
    for i in (1, 4, 9):
        m = spec.m(i)
        w = spec.mu(i)
        for s in (1, 2, m // 2, m - 1):
            direct = max(w[(j - s) % m] / w[j] for j in range(m))
            assert spec.sup_shift_ratio(i, s) == direct
