import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odolab import gallery
from odolab.functions import (_scaled_values, apply_composition,
                              cylinder_orbit, exp_minus_one_gauge, lp_distance,
                              lp_norm, lp_norm_pow, orbit_trace,
                              orlicz_indicator_norm, period_of, power_gauge)
from odolab.maps import InducedBijection, boundedness, preimage_cylinder
from odolab.scalars import integer_view
from odolab.space import DepthSet, SimpleFunction

from conftest import listed_spec, random_listed_vectors


def indicator(spec, symbols):
    return SimpleFunction.indicator(DepthSet.basic_cylinder(spec, symbols))


def test_apply_zero_is_identity(binary_uniform):
    f = indicator(binary_uniform, (0,))
    assert apply_composition(binary_uniform, f, 0) is f


def test_apply_one_step_matches_preimage(binary_uniform):
    f = indicator(binary_uniform, (0,))
    g = apply_composition(binary_uniform, f, 1)
    # C f = indicator of the preimage cylinder of [0]
    pre = preimage_cylinder(binary_uniform, (0,))
    assert g.values == indicator(binary_uniform, pre).values


def test_apply_order_returns_f(ornstein):
    f = indicator(ornstein, (1, 2))
    order = InducedBijection(ornstein, 2).order()
    assert apply_composition(ornstein, f, order).values == f.values


def test_lp_norm_examples(binary_uniform):
    c = SimpleFunction.constant(binary_uniform, 2, Fraction(-3, 2))
    assert lp_norm(binary_uniform, c, 1) == 1.5
    b = indicator(binary_uniform, (0, 1))
    assert lp_norm_pow(binary_uniform, b, 1) == Fraction(1, 4)
    assert lp_norm(binary_uniform, b, 2) == pytest.approx(0.5)
    f = indicator(binary_uniform, (0, 0)) - indicator(binary_uniform, (1, 1))
    assert lp_norm_pow(binary_uniform, f, 2) == Fraction(1, 2)
    assert lp_norm(binary_uniform, f, 2) == pytest.approx(1 / math.sqrt(2))


def test_lp_distance(binary_uniform):
    f = indicator(binary_uniform, (0, 0))
    g = indicator(binary_uniform, (1, 1))
    assert lp_distance(binary_uniform, f, g, 1) == pytest.approx(0.5)


def test_period_examples(binary_uniform, ornstein):
    const = SimpleFunction.constant(binary_uniform, 1, Fraction(2))
    assert period_of(binary_uniform, const) == 1
    f = indicator(binary_uniform, (0,))
    assert period_of(binary_uniform, f) == 2
    g = indicator(ornstein, (0, 0))
    d = period_of(ornstein, g)
    assert 6 % d == 0
    # oracle: iterate one step at a time until the function returns
    h = g
    for steps in range(1, 7):
        h = apply_composition(ornstein, h, 1)
        if h.values == g.values:
            break
    assert steps == d == 6


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_period_divides_block_order(data):
    gid = data.draw(st.sampled_from(["ornstein", "hc-not-mixing", "fhc-binary"]))
    spec = gallery.get_spec(gid)
    depth = data.draw(st.integers(1, 3))
    symbols = tuple(data.draw(st.integers(0, spec.m(i) - 1))
                    for i in range(1, depth + 1))
    f = indicator(spec, symbols)
    order = spec.cell_count(depth)
    assert order % period_of(spec, f) == 0


def test_translation_period_divides_lcm():
    vec = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    spec = listed_spec("diagonal-translation", [vec, vec[:2] + [vec[2]], vec])
    f = indicator(spec, (0, 1))
    assert math.lcm(3, 3) % period_of(spec, f) == 0


def test_orbit_trace_period_two(binary_uniform):
    f = indicator(binary_uniform, (0,))
    g = indicator(binary_uniform, (1,))
    trace = orbit_trace(binary_uniform, f, g, epsilon=0.1, p=1, horizon=12)
    assert trace.visit_set == [1, 3, 5, 7, 9, 11]
    assert trace.period == 2
    assert trace.running_density[-1] == Fraction(1, 2)


def test_orbit_trace_self_visits_on_period(binary_uniform):
    f = indicator(binary_uniform, (0, 1))
    trace = orbit_trace(binary_uniform, f, f, epsilon=0.05, p=1, horizon=16)
    per = trace.period
    assert set(range(per, 17, per)) <= set(trace.visit_set)


def test_orbit_trace_constant_misses_shift(binary_uniform):
    eps = 0.1
    f = SimpleFunction.constant(binary_uniform, 1, Fraction(1, 2))
    g = SimpleFunction.constant(binary_uniform, 1,
                                Fraction(1, 2) + Fraction(1, 5))
    trace = orbit_trace(binary_uniform, f, g, epsilon=eps, p=1, horizon=10)
    assert trace.visit_set == []


def test_orbit_visit_set_periodic(ornstein):
    f = indicator(ornstein, (1,))
    g = indicator(ornstein, (0,))
    bij_order = InducedBijection(ornstein, 1).order()
    trace = orbit_trace(ornstein, f, g, epsilon=0.2, p=1,
                        horizon=3 * bij_order)
    visits = set(trace.visit_set)
    for n in range(1, bij_order + 1):
        assert (n in visits) == ((n + bij_order) in visits)


def test_orbit_tsv_shape(binary_uniform):
    f = indicator(binary_uniform, (0,))
    trace = orbit_trace(binary_uniform, f, f, epsilon=0.5, p=1, horizon=5)
    rows = trace.to_tsv_rows()
    assert rows[0] == ("n", "distance", "visited", "running_density")
    assert len(rows) == 6


def test_orbit_trace_takes_the_radius_power_once(binary_uniform, monkeypatch):
    # the exact ball's radius eps^p is a loop invariant of the trace
    powers = []
    real = Fraction.__pow__

    def counted(self, other, *rest):
        if self == Fraction(0.3):
            powers.append(other)
        return real(self, other, *rest)

    monkeypatch.setattr(Fraction, "__pow__", counted)
    F = DepthSet.basic_cylinder(binary_uniform, (0, 1))
    G = DepthSet.basic_cylinder(binary_uniform, (1, 0))
    f, g = SimpleFunction.indicator(F), SimpleFunction.indicator(G)
    for trace in (orbit_trace(binary_uniform, f, g, 0.3, p=3, horizon=8),
                  cylinder_orbit(binary_uniform, F, G, 0.3, p=3, horizon=8)):
        assert trace.visit_set == [1, 5]
    assert powers == [3, 3]


def test_isometry_on_uniform(binary_uniform):
    f = indicator(binary_uniform, (0, 1)) - indicator(binary_uniform, (1, 0)).scale(3)
    base = lp_norm_pow(binary_uniform, f, 2)
    for n in range(1, 5):
        g = apply_composition(binary_uniform, f, n)
        assert lp_norm_pow(binary_uniform, g, 2) == base


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_contraction_bound(data):
    spec = gallery.get_spec("hc-not-mixing")
    sup = boundedness(spec, 8).supremum
    depth = 2
    count = spec.cell_count(depth)
    values = tuple(Fraction(data.draw(st.integers(-4, 4)), 3)
                   for _ in range(count))
    f = SimpleFunction(spec=spec, depth=depth, values=values)
    g = apply_composition(spec, f, 1)
    assert lp_norm_pow(spec, g, 1) <= sup * lp_norm_pow(spec, f, 1)
    assert lp_norm_pow(spec, g, 2) <= sup * lp_norm_pow(spec, f, 2)


def per_cell_measure(spec, depth, cell):
    prod = Fraction(1)
    for i in range(1, depth + 1):
        cell, d = divmod(cell, spec.m(i))
        prod = prod * spec.measure.weight(i, spec.m(i), d)
    return prod


def per_cell_lp_pow(spec, depth, values, p):
    terms = [abs(v) ** p * per_cell_measure(spec, depth, c)
             for c, v in enumerate(values) if v != 0]
    if any(isinstance(t, float) for t in terms):
        return math.fsum(terms)
    return sum(terms, Fraction(0))


def random_values(data, count, big):
    """Exact values; `big` denominators push |v|^p * den past int64."""
    den = 3 ** 45 if big else 6
    return tuple(Fraction(data.draw(st.integers(-den, den)), den)
                 for _ in range(count))


def assert_same_scalar(got, want):
    """Same type and value; floats bit for bit (0.0 == Fraction(0) is not)."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex(), (got, want)
    else:
        assert got == want


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_norms_and_orbits_match_per_cell_definition(data):
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    depth = data.draw(st.integers(1, 3))
    # two float rows can put a float coordinate before an exact one
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=2))
    spec = listed_spec(kind, random_listed_vectors(rng, depth, float_coords))
    count = spec.cell_count(depth)
    big = data.draw(st.booleans())
    f = SimpleFunction(spec, depth, random_values(data, count, big))
    # g = f gives iterates with an empty support
    g = (f if data.draw(st.booleans())
         else SimpleFunction(spec, depth, random_values(data, count, False)))
    p = data.draw(st.sampled_from([1, 2, 3, Fraction(3, 2)]))
    bij = InducedBijection(spec, depth)
    horizon = 6
    trace = orbit_trace(spec, f, g, epsilon=0.4, p=p, horizon=horizon)
    # the period on the scaled array is the least d pulling f's tuple to f
    assert trace.period == period_of(spec, f) == next(
        d for d in range(1, bij.order() + 1)
        if tuple(f.values[bij.forward(c, d)] for c in range(count)) == f.values)
    for n in range(1, horizon + 1):
        pulled = tuple(f.values[bij.forward(c, n)] for c in range(count))
        assert apply_composition(spec, f, n).values == pulled
        diff = SimpleFunction(spec, depth,
                              tuple(a - b for a, b in zip(pulled, g.values)))
        if p == int(p):
            dpow = per_cell_lp_pow(spec, depth, diff.values, int(p))
            assert_same_scalar(lp_norm_pow(spec, diff, int(p)), dpow)
            dist = float(dpow) ** (1.0 / float(p))
            inside = (dist < 0.4 if float_coords
                      else dpow < Fraction(0.4) ** int(p))
        else:
            dist = math.fsum(abs(float(v)) ** 1.5
                             * float(per_cell_measure(spec, depth, c))
                             for c, v in enumerate(diff.values)
                             if v != 0) ** (1 / 1.5)
            inside = dist < 0.4
        assert_same_scalar(trace.distances[n - 1], dist)
        assert_same_scalar(lp_norm(spec, diff, p), dist)
        assert_same_scalar(
            lp_distance(spec, SimpleFunction(spec, depth, pulled), g, p), dist)
        assert (n in trace.visit_set) == inside


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cylinder_orbit_matches_orbit_trace(data):
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    depth = data.draw(st.integers(1, 4))
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=2))
    vectors = random_listed_vectors(rng, depth, float_coords)
    spec = listed_spec(kind, vectors)

    def cylinder():
        return DepthSet.product_form(spec, [
            None if data.draw(st.booleans()) else
            rng.choice(len(v), size=int(rng.integers(1, len(v) + 1)),
                       replace=False).tolist()
            for v in vectors])

    F, G = cylinder(), cylinder()
    p = data.draw(st.sampled_from([1, 2, Fraction(3, 2)]))
    # thresholds no distance over the denominators 360^depth lands on
    eps = data.draw(st.sampled_from([0.2345678, 0.5432109, 0.8765432]))
    want = orbit_trace(spec, SimpleFunction.indicator(F),
                       SimpleFunction.indicator(G), eps, p, horizon=8)
    got = cylinder_orbit(spec, F, G, eps, p, horizon=8)
    assert got.period == want.period
    if not float_coords and p == int(p):
        assert got.to_tsv_rows() == want.to_tsv_rows()
        return
    assert got.visit_set == want.visit_set
    assert got.running_density == want.running_density
    for a, b in zip(got.distances, want.distances):
        assert math.isclose(a, b, rel_tol=1e-15, abs_tol=0)


def test_cylinder_orbit_needs_one_depth(binary_uniform):
    F = DepthSet.basic_cylinder(binary_uniform, (0,))
    G = DepthSet.basic_cylinder(binary_uniform, (0, 1))
    with pytest.raises(ValueError):
        cylinder_orbit(binary_uniform, F, G, 0.1)


def test_orlicz_indicator_norms():
    gauge = power_gauge(2.0)
    assert orlicz_indicator_norm(gauge, 0.25) == pytest.approx(0.5)
    one = power_gauge(1.0)
    assert orlicz_indicator_norm(one, 1.0) == pytest.approx(1.0)
    exp_gauge = exp_minus_one_gauge()
    mu_e = 1 / (math.e - 1)
    assert orlicz_indicator_norm(exp_gauge, mu_e) == pytest.approx(
        1.0 / math.log(1.0 / mu_e + 1.0))
    with pytest.raises(ValueError):
        orlicz_indicator_norm(gauge, 0.0)


def scaled_values_per_entry(values):
    """_scaled_values as it read before it converted each object once."""
    import numpy as np
    view = integer_view(values)
    if view is None:
        return np.array([float(v) for v in values]), None
    nums, den = view
    small = max(map(abs, nums)) < 1 << 62
    return np.array(nums, dtype=np.int64 if small else object), den


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-9, 9),
                          st.sampled_from([1, 6, 3 ** 45])),
                min_size=1, max_size=40),
       st.booleans())
def test_scaled_values_match_the_per_entry_conversion(draws, with_float):
    # shared objects (pool index > 0) and fresh equal Fractions side by side
    pool = [None, Fraction(1, 3), Fraction(-2, 7), Fraction(5)]
    values = [pool[k] if k else Fraction(n, den) for k, n, den in draws]
    if with_float:
        values[len(values) // 2] = 0.25
    nums, scale = _scaled_values(tuple(values))
    want, want_scale = scaled_values_per_entry(values)
    assert scale == want_scale
    assert nums.dtype == want.dtype
    assert nums.tolist() == want.tolist()

