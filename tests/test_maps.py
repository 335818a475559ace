import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odolab import gallery, space
from odolab.errors import CarryOverflow, UnresolvedTail
from odolab.functions import cylinder_orbit
from odolab.maps import (InducedBijection, boundedness, chain_measure,
                         chain_pass, forward_image_measure, image_overlap,
                         kakutani_check, norm_probe, odometer_add,
                         odometer_step, preimage_cylinder, preimage_measure,
                         rn_derivative, rounded, set_measure)
from odolab.scalars import is_exact
from odolab.space import (AlphabetRule, DepthSet, RampMeasure, SystemSpec,
                          build_truncation)

from conftest import listed_spec, member_cells, random_listed_vectors


# ---------------------------------------------------------------------------
# odometer arithmetic
# ---------------------------------------------------------------------------

def test_binary_carry_chain(binary_uniform):
    assert odometer_add(binary_uniform, (1, 1, 0), 1).digits == (0, 0, 1)


def test_add_matches_iterated_single_step(ornstein):
    # m = (2, 3, ...): adding 5 equals five single steps
    res = odometer_add(ornstein, (0, 0), 5)
    assert res.digits == (1, 2)
    x = (0, 0)
    for _ in range(5):
        x = odometer_step(ornstein, x).digits
    assert x == res.digits


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 200), start=st.integers(0, 23))
def test_add_is_mixed_radix_increment(k, start):
    spec = gallery.get_spec("ornstein")
    tr = build_truncation(spec, 3)
    digits = tr.digits(start)
    res = odometer_add(spec, digits, k)
    assert res.digits == tr.digits((start + k) % tr.cell_count)
    assert res.carry_out == (start + k >= tr.cell_count)


def test_top_prefix_carries_out(binary_uniform):
    res = odometer_add(binary_uniform, (1, 1, 1), 1)
    assert res.digits == (0, 0, 0)
    assert res.carry_out
    with pytest.raises(CarryOverflow):
        odometer_add(binary_uniform, (1, 1, 1), 1, strict=True)


def test_preimage_cylinder_examples(binary_uniform):
    assert preimage_cylinder(binary_uniform, (0, 0)) == (1, 1)
    assert preimage_cylinder(binary_uniform, (1, 0)) == (0, 0)
    assert preimage_cylinder(binary_uniform, (0, 1)) == (1, 0)


@settings(max_examples=30, deadline=None)
@given(cell=st.integers(0, 23))
def test_preimage_cylinder_against_forward_step(cell):
    spec = gallery.get_spec("ornstein")
    tr = build_truncation(spec, 3)
    symbols = tr.digits(cell)
    pre = preimage_cylinder(spec, symbols)
    # applying the map to the preimage lands back on the original symbols
    assert odometer_step(spec, pre).digits == symbols


# ---------------------------------------------------------------------------
# the density of the image measure
# ---------------------------------------------------------------------------

def test_rn_uniform_is_one(binary_uniform):
    assert rn_derivative(binary_uniform, (1, 0)) == 1
    assert rn_derivative(binary_uniform, (0, 1)) == 1


def test_rn_binary_two_thirds():
    spec = gallery.get_spec("same-measure(2/3,1/3)")
    assert rn_derivative(spec, (1,)) == 2
    assert rn_derivative(spec, (0, 1)) == 1
    # oracle: ratio of the preimage cylinder's measure to the cell's
    pre = preimage_cylinder(spec, (1,))
    ratio = (set_measure(spec, DepthSet.basic_cylinder(spec, pre))
             / set_measure(spec, DepthSet.basic_cylinder(spec, (1,))))
    assert ratio == 2


def test_rn_unresolved_tail(binary_uniform):
    with pytest.raises(UnresolvedTail):
        rn_derivative(binary_uniform, (0, 0, 0))


def test_rn_identity_on_resolved_cells():
    # mu(o^-1(cell)) = h(cell) mu(cell) for every resolved cell, depth <= 6
    for gid in ("ornstein", "hc-not-mixing", "fhc-binary", "fhc-not-mixing",
                "binary-alpha(2)"):
        spec = gallery.get_spec(gid)
        depth = 6 if spec.m(1) == 2 else 4
        tr = build_truncation(spec, depth)
        for cell in range(1, tr.cell_count):    # cell 0 is unresolved
            symbols = tr.digits(cell)
            h = rn_derivative(spec, symbols)
            pre = preimage_cylinder(spec, symbols)
            lhs = set_measure(spec, DepthSet.basic_cylinder(spec, pre))
            assert lhs == h * tr.cell_measure(cell)


# ---------------------------------------------------------------------------
# induced bijections
# ---------------------------------------------------------------------------

def test_bijection_inverse_and_order(ornstein):
    bij = InducedBijection(ornstein, 3)
    cells = range(bij.cell_count)
    assert sorted(bij.as_permutation()) == list(cells)
    assert all(bij.inverse(bij.forward(c)) == c for c in cells)
    assert bij.order() == 24
    assert all(bij.forward(c, bij.order()) == c for c in cells)


def test_translation_order_divides_lcm():
    spec = gallery.get_spec("same-measure(1/2,1/4,1/4)")
    tspec = listed_spec("diagonal-translation",
                        [list(spec.mu(1))] * 4)
    bij = InducedBijection(tspec, 4)
    assert bij.order() == 3
    assert all(bij.forward(c, 3) == c for c in range(bij.cell_count))


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def test_preimage_measure_examples(binary_uniform):
    S = DepthSet.product_form(binary_uniform, [{0}])
    assert preimage_measure(binary_uniform, S, 0) == Fraction(1, 2)
    # one step back: the preimage of [0] is [1]
    assert preimage_measure(binary_uniform, S, 1) == Fraction(1, 2)
    spec3 = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    t3 = listed_spec("diagonal-translation", [list(spec3.mu(1))])
    S2 = DepthSet.product_form(t3, [{0, 1}])
    assert preimage_measure(t3, S2, 1) == Fraction(1, 6) + Fraction(1, 2)


def carry_chain_oracle(spec, factors, k, subtract=False):
    """The per-Fraction carry chain: one product per symbol and chain, each
    weight w as Fraction(w), so a float weight enters at its binary value;
    with a float coordinate the exact result is rounded once."""
    depth = len(factors)
    digits = spec.digits_of(k, depth)
    exact = all(is_exact(spec.mu_weight(i, x)) for i in range(1, depth + 1)
                for x in range(spec.m(i)))
    f0, f1 = Fraction(1), Fraction(0)
    for i in range(1, depth + 1):
        m = spec.m(i)
        want = factors[i - 1]
        d = digits[i - 1]
        g0 = g1 = None
        for c, fin in ((0, f0), (1, f1)):
            if fin == 0:
                continue
            for x in range(m):
                t = x - d - c if subtract else x + d + c
                nxt = (t < 0) if subtract else (t >= m)
                if want is not None and t % m not in want:
                    continue
                w = fin * Fraction(spec.mu_weight(i, x))
                if nxt:
                    g1 = w if g1 is None else g1 + w
                else:
                    g0 = w if g0 is None else g0 + w
        f0 = g0 if g0 is not None else Fraction(0)
        f1 = g1 if g1 is not None else Fraction(0)
    return f0 + f1 if exact else float(f0 + f1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_carry_chain_matches_enumeration(data):
    # both transports of both maps against per-cell enumeration, on sets
    # whose factors may be None (the whole alphabet)
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    depth = data.draw(st.integers(2, 5))
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=2))
    vectors = random_listed_vectors(rng, depth, float_coords)
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    spec = listed_spec(kind, vectors)
    factors = [set(int(x) for x in
                   rng.choice(len(v), size=max(1, int(rng.integers(1, len(v) + 1))),
                              replace=False))
               for v in vectors]
    S = DepthSet.product_form(
        spec, [data.draw(st.sampled_from([None, f])) for f in factors])
    R = DepthSet.product_form(
        spec, [data.draw(st.sampled_from([None, {0}, {0, len(v) - 1}]))
               for v in vectors])
    k = data.draw(st.integers(0, 400))
    if kind == "odometer":
        # the integer kernel against the per-Fraction chain: equal values of
        # the same type, so a float result is the exact one rounded once
        for subtract in (False, True):
            got = chain_measure(spec, None, S.factors, -k if subtract else k)
            want = carry_chain_oracle(spec, S.factors, k, subtract)
            assert type(got) is type(want) and got == want
    tr = build_truncation(spec, depth)
    bij = InducedBijection(spec, depth)
    cells = member_cells(S)
    brute_pull = sum(tr.cell_measure(c) for c in range(tr.cell_count)
                     if bij.forward(c, k) in cells)
    brute_fwd = sum(tr.cell_measure(bij.forward(c, k)) for c in cells)
    # a source set and rows of ones against DepthSet.mask enumeration; the
    # exact binary rows against the per-cell Fraction products
    binary, _ = spec.weight_rows(depth)
    for n in (k, -k):
        meet = [c for c in member_cells(R) if bij.forward(c, n) in cells]
        assert (image_overlap(spec, S, n)
                == len(cells & {bij.forward(c, n) for c in cells}))
        assert chain_measure(spec, R.factors, S.factors, n, [
            ((1,) * len(v), 1) for v in vectors]) == len(meet)
        exact_meet = sum((per_cell_fraction(vectors, tr.digits(c))
                          for c in meet), Fraction(0))
        got = chain_measure(spec, R.factors, S.factors, n, binary)
        assert got == exact_meet       # so float(got) rounds the exact sum
        brute_meet = sum(tr.cell_measure(c) for c in meet)
        if float_coords:
            assert (chain_measure(spec, R.factors, S.factors, n)
                    == pytest.approx(brute_meet))
        else:
            assert chain_measure(spec, R.factors, S.factors, n) == brute_meet
    if float_coords:
        assert preimage_measure(spec, S, k) == pytest.approx(brute_pull)
        assert forward_image_measure(spec, S, k) == pytest.approx(brute_fwd)
        return
    assert preimage_measure(spec, S, k) == brute_pull
    assert forward_image_measure(spec, S, k) == brute_fwd


def per_cell_fraction(vectors, digits) -> Fraction:
    """The exact measure of one cell: float weights at their binary values."""
    out = Fraction(1)
    for v, d in zip(vectors, digits):
        out *= Fraction(v[d])
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_float_measures_round_the_exact_cell_sum_once(data):
    # with a float coordinate every measure of a depth set is the exact sum
    # of its cells' per-Fraction products, rounded once, and each orbit
    # distance combines the exact transports before it rounds
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    depth = data.draw(st.integers(1, 4))
    float_coords = data.draw(st.sets(st.integers(1, depth), min_size=1,
                                     max_size=depth))
    vectors = random_listed_vectors(rng, depth, float_coords)
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    spec = listed_spec(kind, vectors)
    tr = build_truncation(spec, depth)
    bij = InducedBijection(spec, depth)

    def depth_set():
        return DepthSet.product_form(spec, [data.draw(st.sampled_from(
            [None, {0}, {len(v) - 1}, set(range(1, len(v)))]))
            for v in vectors])

    def exact(cells):
        return sum((per_cell_fraction(vectors, tr.digits(c)) for c in cells),
                   Fraction(0))

    S, F, G = depth_set(), depth_set(), depth_set()
    cells = member_cells(S)
    k = data.draw(st.integers(0, 200))
    pull = [c for c in range(tr.cell_count) if bij.forward(c, k) in cells]
    for got, want in ((preimage_measure(spec, S, k), exact(pull)),
                      (forward_image_measure(spec, S, k),
                       exact(bij.forward(c, k) for c in cells)),
                      (set_measure(spec, S), exact(cells))):
        assert type(got) is float and got == float(want)
    p = data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)]))
    horizon = 12
    trace = cylinder_orbit(spec, F, G, 0.1, p, horizon)
    f_cells, g_cells = member_cells(F), member_cells(G)
    for n in range(1, horizon + 1):
        back = {c for c in range(tr.cell_count) if bij.forward(c, n) in f_cells}
        dpow = exact(back) + exact(g_cells) - 2 * exact(back & g_cells)
        assert trace.distances[n - 1] == float(dpow) ** (1.0 / float(p))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_chain_pass_resumes_and_folds(data):
    # a pass stopped at any coordinate and resumed is one uninterrupted
    # pass; on integer rows the slice-sum fold of a coordinate both sets
    # leave free is the symbol loop over the whole alphabet listed
    import numpy as np
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    depth = data.draw(st.integers(1, 5))
    float_coords = data.draw(st.sets(st.integers(1, depth), max_size=2))
    vectors = random_listed_vectors(rng, depth, float_coords)
    kind = data.draw(st.sampled_from(["odometer", "diagonal-translation"]))
    spec = listed_spec(kind, vectors)
    ms = [len(v) for v in vectors]

    def factors():
        return [data.draw(st.sampled_from(
            [None, None, frozenset({0}), frozenset({m - 1}),
             frozenset(range(1, m))])) for m in ms]

    target = factors()
    source = data.draw(st.sampled_from([None, factors()]))
    # digits 0 and m - 1 often, so carries and borrows stay pending
    digits = [data.draw(st.sampled_from([0, m - 1]) | st.integers(0, m - 1))
              for m in ms]
    n = sum(d * w for d, w in zip(digits, spec.radix_weights(depth)))
    n += data.draw(st.integers(0, 2)) * spec.cell_count(depth)
    n *= data.draw(st.sampled_from([1, -1]))
    rows, exact = spec.weight_rows(depth)
    whole = chain_pass(spec, rows, source, target, n)
    got = chain_measure(spec, source, target, n)
    assert got == rounded(Fraction(whole[0] + whole[1], whole[2]), exact)
    if kind == "odometer" and source is None:
        want = carry_chain_oracle(spec, target, abs(n), n < 0)
        assert type(got) is type(want) and got == want
    src = source or (None,) * depth
    for cut in range(depth + 1):
        head = chain_pass(spec, rows[:cut], src[:cut], target[:cut], n)
        resumed = chain_pass(spec, rows[cut:], src[cut:], target[cut:], n,
                             head)
        assert resumed == whole
        assert [type(x) for x in resumed] == [type(x) for x in whole]
    listed = [frozenset(range(m)) if f is None else f
              for m, f in zip(ms, src)]
    for integer_rows in (rows, [((1,) * m, 1) for m in ms]):
        assert (chain_pass(spec, integer_rows, source, target, n)
                == chain_pass(spec, integer_rows, listed, target, n))


@pytest.mark.parametrize("kind", ["odometer", "diagonal-translation"])
def test_chain_fold_at_the_top_digit(kind):
    # every digit of |n| is m - 1, so from the second coordinate on a carry
    # (a borrow when n < 0) is pending with d + c = m: the whole row carries
    spec = listed_spec(kind, [[Fraction(1, 6), Fraction(2, 6), Fraction(3, 6)],
                              [Fraction(3, 10), Fraction(7, 10)],
                              [Fraction(1, 4)] * 4])
    rows, _ = spec.weight_rows(3)
    listed = [frozenset(range(m)) for m in (3, 2, 4)]
    for n in (23, -23, 24, -24, 1, -1):
        free = chain_pass(spec, rows, None, (None,) * 3, n)
        assert free == chain_pass(spec, rows, listed, (None,) * 3, n)
        assert Fraction(free[0] + free[1], free[2]) == 1


def test_float_ramp_coordinate_reads_one_vector(monkeypatch):
    # a ramp past the exact cap runs in floats, where weight(j) differs in
    # the last bits from the iterated vector weights(); within VECTOR_CAP
    # every reader sees the memoised vector
    m = 1100
    spec = SystemSpec(kind="odometer",
                      alphabet=AlphabetRule("constant", {"m": m}),
                      measure=RampMeasure({"layout": "tail", "n": "half",
                                           "delta": "inv-square"}))
    per_symbol = [spec.measure.weight(1, m, j) for j in range(m)]
    assert per_symbol != list(spec.measure.weights(1, m))
    # also once the memo has started over: one coordinate holds 1 + m
    # entries (its integer view is None), so a second one overflows 2m
    monkeypatch.setattr(space, "VECTOR_CAP", 2 * m)
    for i in (1, 2, 1):
        assert spec.mu(i) == spec.measure.weights(i, m)
        assert [spec.mu_weight(i, j) for j in range(m)] == list(spec.mu(i))
        assert list(spec._coords) == [i]
    assert build_truncation(spec, 1).all_measures() == list(spec.mu(1))
    want = [set(range(0, m, 3))]
    for k in (1, 550, 1099):
        for subtract in (False, True):
            assert (chain_measure(spec, None, want, -k if subtract else k)
                    == carry_chain_oracle(spec, want, k, subtract))


def test_forward_image_preserves_count_not_measure():
    spec = gallery.get_spec("same-measure(2/3,1/3)")
    S = DepthSet.product_form(spec, [{0}, {0}])
    cells = member_cells(S)
    bij = InducedBijection(spec, 2)
    image = {bij.forward(c, 1) for c in cells}
    assert len(image) == len(cells)
    tr = build_truncation(spec, 2)
    assert forward_image_measure(spec, S, 1) == sum(tr.cell_measure(c)
                                                    for c in image)


# ---------------------------------------------------------------------------
# boundedness and the equivalence product
# ---------------------------------------------------------------------------

def test_same_measure_unbounded_when_top_heavy():
    spec = gallery.get_spec("same-measure(1/6,1/3,1/2)")
    rep = boundedness(spec, 40)
    assert rep.verdict.startswith("unbounded")
    # the level values blow up like (nu(N-1)/nu(0))^(l-1) = 3^(l-1)
    assert rep.values[10] > rep.values[5] > rep.values[2]


def test_uniform_bound_is_one(binary_uniform):
    rep = boundedness(binary_uniform, 12)
    assert rep.supremum == 1
    assert rep.norm_estimate(p=2) == 1.0


def test_fhc_binary_bracket_closed_form(fhc_binary):
    rep = boundedness(fhc_binary, 12)
    assert all(rep.values[l - 1] == Fraction(l, math.factorial(l - 1))
               for l in range(1, 13))
    assert rep.supremum == 2     # attained at l = 2


def test_running_sup_nondecreasing(hc_not_mixing):
    rep = boundedness(hc_not_mixing, 20)
    assert all(a <= b for a, b in zip(rep.running_sup, rep.running_sup[1:]))


def test_kakutani_uniform_and_singular():
    uni = listed_spec("diagonal-translation", [[Fraction(1, 3)] * 3])
    out = kakutani_check(uni, 10)
    assert all(abs(f - 1.0) < 1e-12 for f in out["factors"])
    const = listed_spec("diagonal-translation", [[Fraction(3, 4), Fraction(1, 4)]])
    out = kakutani_check(const, 30)
    assert abs(out["factors"][0] - math.sqrt(3) / 2) < 1e-12
    assert out["verdict"] == "singular-trend"
    assert out["partial_products"][-1] < 0.02


def test_kakutani_converging_product():
    vectors = [[Fraction(1, 2) + Fraction(1, (i + 1) ** 2),
                Fraction(1, 2) - Fraction(1, (i + 1) ** 2)]
               for i in range(1, 40)]
    spec = listed_spec("diagonal-translation", vectors)
    out = kakutani_check(spec, 39)
    parts = out["partial_products"]
    assert all(a >= b > 0 for a, b in zip(parts, parts[1:]))
    # Cauchy-like: late factors are essentially 1
    assert parts[-1] > 0.99 * parts[20]


def test_norm_probe_bounded_by_weight_ratios():
    spec = gallery.get_spec("binary-alpha(2)")
    limit = 1.0
    for i in range(1, 11):
        limit *= float(spec.eta(i)) / float(spec.delta(i))
    probe, frac = norm_probe(spec, 10, 7)
    assert float(probe) <= limit + 1e-9
    assert frac == Fraction(2 ** 10 - 7, 2 ** 10)
