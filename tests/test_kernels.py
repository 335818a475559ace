"""Differential tests: the optimizer kernels against their earlier forms.

The oracles below are the implementations the kernels replaced: a path DP
that copies its chosen tuple on every step (the value-only passes and the
walked-back sets of the DPs both match it), a cycle-DP optimum on float
weights, the inline "run^2 / t" prefix loops, and the per-Fraction optimizers
that ran on mu_i before the integer numerators.  They stay here as the
reference, and the kernels must agree with them in value, type and chosen
indices; on floats that means bit for bit.
"""
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from odolab import criteria, gallery
from odolab.criteria import (GAMMA_BRUTE_CAP, _alpha, _alpha_value,
                             _best_prefix_average, _cycle_value,
                             _gamma_exhaustive, _gamma_sweep, _mwis_cycle,
                             _mwis_path, _path_value, _solve_chains,
                             alpha_shift, alpha_shift_witness,
                             beta_sup, disjoint_shift_set_zplus,
                             gamma_tilde_witness, gamma_witness, kappa,
                             odometer_filler, omega, table_lines, theta,
                             theta_witness)
from odolab.errors import CapExceeded
from odolab.scalars import integer_view
from odolab.space import AlphabetRule, MeasureFamily, SystemSpec

from conftest import listed_spec


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def tuple_mwis_path(weights):
    excl_v = 0
    excl_s = ()
    incl_v = None
    incl_s = ()
    for idx, w in enumerate(weights):
        new_incl_v = excl_v + w
        new_incl_s = excl_s + (idx,)
        if incl_v is not None and incl_v > excl_v:
            excl_v, excl_s = incl_v, incl_s
        incl_v, incl_s = new_incl_v, new_incl_s
    if incl_v is not None and incl_v > excl_v:
        return incl_v, incl_s
    return excl_v, excl_s


def tuple_mwis_cycle(weights):
    L = len(weights)
    if L == 1:
        return 0 * weights[0], ()
    if L == 2:
        return max((weights[0], (0,)), (weights[1], (1,)), key=lambda t: t[0])
    v1, s1 = tuple_mwis_path(weights[1:])
    s1 = tuple(t + 1 for t in s1)
    v2, s2 = tuple_mwis_path(weights[2:L - 1])
    v2 = v2 + weights[0]
    s2 = (0,) + tuple(t + 2 for t in s2)
    return max((v1, s1), (v2, s2), key=lambda t: t[0])


def _cycles(m, r):
    for s in range(math.gcd(r, m)):
        cyc = []
        x = s
        while True:
            cyc.append(x)
            x = (x + r) % m
            if x == s:
                break
        yield cyc


def cycle_alpha(w, n):
    """The exact cycle-DP optimum as alpha_shift_witness computed it."""
    m = len(w)
    r = n % m
    if r == 0:
        return (Fraction(0) if isinstance(w[0], Fraction) else 0.0), frozenset()
    total = None
    chosen = set()
    for cyc in _cycles(m, r):
        val, picked = tuple_mwis_cycle([w[x] for x in cyc])
        total = val if total is None else total + val
        chosen.update(cyc[t] for t in picked)
    return total, frozenset(chosen)


def alpha_float(weights, n):
    """The float copy of the cycle DP that the diagnostic rules used."""
    m = len(weights)
    r = n % m
    if r == 0:
        return 0.0
    total = 0.0
    for cyc in _cycles(m, r):
        total += tuple_mwis_cycle([weights[x] for x in cyc])[0]
    return total


def prefix_scan_exact(values):
    """gamma_tilde's loop: (best, t) with the first maximal prefix."""
    zero = values[0] * 0 if values else Fraction(0)
    best_val, best_t = zero, 0
    running = zero
    for t, val in enumerate(values, start=1):
        running = running + val
        cand = running * running / t
        if cand > best_val:
            best_val, best_t = cand, t
    return best_val, best_t


def prefix_scan_float(values):
    """The float rules' loop: the best value only."""
    best = run = 0.0
    for t, v in enumerate(values, start=1):
        run += v
        best = max(best, run * run / t)
    return best


def gamma_tilde_chosen(spec, n, index_horizon):
    """gamma_tilde_witness as it read with its inline scan."""
    drops = [(theta(spec, i, shift=n), i) for i in range(1, index_horizon + 1)]
    drops.sort(key=lambda t: t[0], reverse=True)
    zero = drops[0][0] * 0 if drops else Fraction(0)
    best_val, best_idx = zero, ()
    running = zero
    for t, (val, i) in enumerate(drops, start=1):
        running = running + val
        cand = running * running / t
        if cand > best_val:
            best_val = cand
            best_idx = tuple(idx for _, idx in drops[:t])
    return best_val, best_idx


def same(a, b):
    """Equal value and type; repr tells floats apart bit for bit."""
    return type(a) is type(b) and repr(a) == repr(b)


# small numerators make ties common; both backends see the same draws
def weights(min_size=0, low=0):
    nums = st.lists(st.integers(low, 3), min_size=min_size, max_size=12)
    return st.tuples(nums, st.booleans()).map(
        lambda t: [x / 7 if t[1] else Fraction(x, 7) for x in t[0]])


# ---------------------------------------------------------------------------
# path and cycle DPs
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(weights())
def test_path_dp_matches_tuple_copying_oracle(w):
    val, picked = _mwis_path(w)
    old_val, old_picked = tuple_mwis_path(w)
    assert same(val, old_val)
    assert same(_path_value(w), old_val)
    assert picked == old_picked


@settings(max_examples=300, deadline=None)
@given(weights())
def test_cycle_dp_matches_oracle(w):
    if not w:
        for dp in (_mwis_cycle, tuple_mwis_cycle):
            with pytest.raises(IndexError):
                dp(w)
        return
    val, picked = _mwis_cycle(w)
    old_val, old_picked = tuple_mwis_cycle(w)
    assert same(val, old_val)
    assert same(_cycle_value(w), old_val)
    assert picked == old_picked


@settings(max_examples=300, deadline=None)
@given(weights(min_size=1), st.integers(0, 30))
def test_alpha_matches_cycle_oracle(w, n):
    val, D = _alpha(w, n)
    old_val, old_D = cycle_alpha(w, n)
    assert same(val, old_val)
    assert same(_alpha_value(w, n), old_val)
    assert D == old_D


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=16), st.data())
def test_beta_bound_dominates_twice_alpha(w, data):
    # beta_sup's cap: 2 alpha_r <= B_r = sum_x max(w_x, w_{x+r}) <= twice
    # the sum of the ceil(m/2) largest weights
    m = len(w)
    r = data.draw(st.integers(1, m - 1))
    bound = sum(max(w[x], w[(x + r) % m]) for x in range(m))
    assert 2 * cycle_alpha(w, r)[0] <= bound <= 2 * sum(sorted(w)[m // 2:])


@settings(max_examples=300, deadline=None)
@given(weights(min_size=1, low=1), st.integers(0, 30))
def test_alpha_on_floats_is_the_float_copy_bit_for_bit(w, n):
    # weights are strictly positive, as every coordinate of a spec is
    w = [float(x) for x in w]
    assert same(_alpha(w, n)[0], alpha_float(w, n))
    assert same(_alpha_value(w, n), alpha_float(w, n))


def test_path_dp_on_a_long_float_path():
    w = [((7 * x) % 11) / 11 for x in range(5000)]
    val, picked = _mwis_path(w)
    old_val, old_picked = tuple_mwis_path(w)
    assert same(val, old_val)
    assert same(_path_value(w), old_val)
    assert picked == old_picked


# ---------------------------------------------------------------------------
# prefix scan
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(weights())
def test_prefix_scan_matches_inline_loops(values):
    best, t = _best_prefix_average(values)
    assert (best, t) == prefix_scan_exact(values)
    if values:
        assert same(best, prefix_scan_exact(values)[0])
    if all(isinstance(v, float) for v in values):
        # the float rules report float(best), the empty scan included
        assert same(float(best), prefix_scan_float(values))


@pytest.mark.parametrize("gid,index_horizon", [("hoeffbis-blocks", 9),
                                                ("trans-hc", 6)])
def test_gamma_tilde_witness_chooses_as_before(gid, index_horizon):
    spec = gallery.get_spec(gid)
    for n in range(1, 9):
        val, chosen = gamma_tilde_witness(spec, n, index_horizon)
        old_val, old_chosen = gamma_tilde_chosen(spec, n, index_horizon)
        assert same(val, old_val)
        assert chosen == old_chosen


# ---------------------------------------------------------------------------
# optimizers on integer numerators against the per-Fraction definitions
# ---------------------------------------------------------------------------

def same_measure_spec(nums):
    """A translation whose every coordinate carries nums / sum(nums)."""
    total = sum(nums)
    return SystemSpec.from_config({
        "kind": "diagonal-translation",
        "alphabet": {"family": "constant", "params": {"m": len(nums)}},
        "measure": {"family": "same",
                    "params": {"weights": [f"{x}/{total}" for x in nums]}}})


def fraction_theta(w, shift=None):
    m = len(w)
    zero = Fraction(0)

    def drop(k):
        D = frozenset(j for j in range(m) if w[j] > w[(j + k) % m])
        return sum((w[j] - w[(j + k) % m] for j in D), zero), D

    if shift is not None:
        k = shift % m
        if k == 0:
            return zero, frozenset(), 0
        return drop(k) + (k,)
    best = (zero, frozenset(), 0)
    for k in range(1, m):
        val, D = drop(k)
        if val > best[0]:
            best = (val, D, k)
    return best


def fraction_zplus(w, j):
    return _solve_chains(_mwis_path, w, [range(s, len(w), j) for s in range(j)])


def fraction_kappa(w):
    best = None
    for j in range(1, len(w)):
        val, _ = fraction_zplus(w, j)
        if best is None or val < best:
            best = val
    return best


def fraction_beta(w):
    """Every residue, not only r <= m/2."""
    best = None
    for r in range(1, len(w)):
        val = _alpha(w, r)[0]
        if best is None or val > best:
            best = val
    return best


def fraction_gamma(w):
    m = len(w)
    if m == 2:
        return (w[0], frozenset({0}), 1) if w[0] >= w[1] else \
            (w[1], frozenset({1}), 1)
    if m <= GAMMA_BRUTE_CAP:
        nums, q = integer_view(w)                    # a view built per call
        val, D, j = _gamma_exhaustive(nums, q)
        return Fraction(val, q), D, j
    return _gamma_sweep(w, None)                      # 1 - b on Fractions


def same_witness(got, want):
    assert same(got[0], want[0])
    assert tuple(got[1:]) == tuple(want[1:])


# numerators 1..3 make ties common; m past GAMMA_BRUTE_CAP reaches the sweep
exact_vectors = st.integers(2, 24).flatmap(
    lambda m: st.lists(st.integers(1, 3), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(exact_vectors, st.integers(0, 30))
@example([1] * 24, 5)
@example([3, 1, 3, 1, 2] * 4, 7)
def test_exact_optimizers_match_the_fraction_definitions(nums, n):
    spec = same_measure_spec(nums)
    w = spec.mu(1)
    m = len(w)
    same_witness(theta_witness(spec, 1), fraction_theta(w))
    same_witness(theta_witness(spec, 1, shift=n), fraction_theta(w, n))
    j = 1 + n % (m - 1)
    same_witness(disjoint_shift_set_zplus(spec, 1, j), fraction_zplus(w, j))
    assert same(kappa(spec, 1), fraction_kappa(w))
    same_witness(alpha_shift_witness(spec, 1, n), _alpha(w, n))
    assert same(alpha_shift(spec, 1, n), alpha_shift_witness(spec, 1, n)[0])
    assert same(beta_sup(spec, 1), fraction_beta(w))
    same_witness(gamma_witness(spec, 1), fraction_gamma(w))


TRANSLATIONS = ["trans-hc", "trans-mixing", "trans-fhc", "trans-rigid",
                "trans-hufhc", "hoeffbis-blocks"]


@pytest.mark.parametrize("gid", TRANSLATIONS)
def test_beta_sup_matches_every_residue_on_gallery_rows(gid):
    # the cap may stop at r = m/2; the Fraction scan solves all m - 1 residues.
    # Each distinct exact row up to m = 256 is checked once.
    spec = gallery.get_spec(gid)
    rows = {}
    i = 1
    while spec.m(i) <= 256:
        if spec.integer_weights(i) is not None:
            rows.setdefault(spec.integer_weights(i), i)
        i += 1
    assert max(spec.m(i) for i in rows.values()) >= 64
    for i in rows.values():
        assert same(beta_sup(spec, i), fraction_beta(spec.mu(i)))


@pytest.mark.parametrize("scan,kernel", [
    # beta_sup's first work is alpha at r = m/2, a pass over 2-cycles
    (lambda s: beta_sup(s, 1), "_alpha_value"),
    (lambda s: beta_sup(s, 1), "_path_value"),
    (lambda s: kappa(s, 1), "_path_value"),
    # the sweep's first work is sorting the symbols
    (lambda s: gamma_witness(s, 1), "sorted"),
], ids=["beta_sup", "beta_sup-path", "kappa", "gamma-sweep"])
def test_budgets_trip_before_any_work(monkeypatch, scan, kernel):
    def ran(*args, **kwargs):
        raise AssertionError(f"{kernel} ran")

    monkeypatch.setattr(criteria, kernel, ran, raising=False)
    # under the budget the scan reaches the kernel (on [3, 1] * 10 alpha_{m/2}
    # fails beta's cap, so the residue scan runs paths); over it, it never does
    with pytest.raises(AssertionError, match=f"{kernel} ran"):
        scan(same_measure_spec([3, 1] * 10))
    with pytest.raises(CapExceeded, match="work budget"):
        scan(same_measure_spec([1] * 2048))


# ---------------------------------------------------------------------------
# omega's interval start on integers against the Fraction expression
# ---------------------------------------------------------------------------

def fraction_omega(spec, i, kappa_param):
    m, m_next = spec.m(i), spec.m(i + 1)
    lo = max(0, math.ceil(Fraction(m - 1) - Fraction(kappa_param) * m * m_next))
    return spec.interval_measure(i, lo, m - 1)


kappas = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9).filter(
        lambda k: 0 < k < 1),
    st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6), st.integers(2, 10 ** 6), kappas)
@example(5, 2, Fraction(1, 5))            # m - 1 - k m m_next is an integer
@example(2, 2, Fraction(1, 4))            # lo = 0 exactly
@example(10 ** 6, 10 ** 6, 1e-12)
def test_omega_matches_the_fraction_expression(m, m_next, kappa_param):
    # uniform weights make omega (m - lo) / m, so it pins the interval start
    spec = SystemSpec.from_config({
        "kind": "odometer",
        "alphabet": {"family": "list", "params": {"list": [m, m_next],
                                                  "repeat": "last"}},
        "measure": {"family": "uniform", "params": {}}})
    got = omega(spec, 1, kappa_param)
    want = fraction_omega(spec, 1, kappa_param)
    assert same(got, want)


# ---------------------------------------------------------------------------
# odometer tables: one row per index, each distinct row solved once
# ---------------------------------------------------------------------------

def ascending_drop(w, k):
    """The positive parts of w_j - w_{j+k}, added in ascending j from 0."""
    total = 0 * w[0]
    for j in range(len(w)):
        d = w[j] - w[(j + k) % len(w)]
        if d > 0:
            total = total + d
    return total


def row(nums, as_float):
    total = sum(nums)
    return [x / total if as_float else Fraction(x, total) for x in nums]


# a flat row with a few spikes leaves sparse optimal sets at high symbols,
# where a frozenset does not iterate in ascending order
spiky_nums = st.integers(2, 16).flatmap(lambda m: st.tuples(
    st.integers(1, 3),
    st.dictionaries(st.integers(0, m - 1), st.integers(1, 40), max_size=4),
    st.just(m))).map(lambda t: [t[1].get(j, t[0]) for j in range(t[2])])
row_nums = st.one_of(
    spiky_nums,
    st.integers(2, 16).flatmap(
        lambda m: st.lists(st.integers(1, 9), min_size=m, max_size=m)))


@settings(max_examples=200, deadline=None)
@given(row_nums, st.booleans())
@example([1, 1, 1, 1, 1, 1, 2, 2, 5], True)       # D = {6, 8} at k = 3
@example([1] * 8 + [7, 1, 1, 1, 1, 1, 9, 1], True)
@example([3, 1, 1, 1, 1, 1, 1, 1, 5, 2, 1, 1, 1, 1, 1, 6], True)
def test_value_only_theta_matches_theta_witness(nums, as_float):
    w = row(nums, as_float)
    spec = listed_spec("odometer", [w])
    m = len(w)
    for shift in [None, *range(2 * m + 1)]:
        val, D, k = theta_witness(spec, 1, shift)
        assert same(theta(spec, 1, shift), val)
        if shift is not None:
            assert k == shift % m and same(val, ascending_drop(w, k))
        assert D == frozenset(j for j in range(m) if w[j] > w[(j + k) % m])
    val, _, k = theta_witness(spec, 1)
    drops = [ascending_drop(w, s) for s in range(1, m)]
    assert same(val, max(drops, default=0 * w[0]))
    assert k == (1 + drops.index(val) if val > 0 else 0)


class BySizeMeasure(MeasureFamily):
    """Test-only family: one weight vector per alphabet size, the last
    listed of each size."""

    name = "by-size-test"

    def __init__(self, vectors):
        super().__init__({})
        self.vectors = {len(v): tuple(v) for v in vectors}

    def weights(self, i, m):
        return self.vectors[m]


def per_index_table(spec, indices, kappa_param):
    """odometer_filler's cells from one theta/kappa/gamma_witness/omega call
    per index."""
    out = {}
    for i in indices:
        m = spec.m(i)
        cells = {"eta": (spec.eta(i), "closed-form"),
                 "delta": (spec.delta(i), "closed-form"),
                 "theta": (theta(spec, i), "closed-form"),
                 "kappa": (kappa(spec, i), "path-dp"),
                 "gamma": (gamma_witness(spec, i)[0],
                           "brute-force" if m <= GAMMA_BRUTE_CAP
                           else "search-lower-bound")}
        if kappa_param is not None:
            cells["omega"] = (omega(spec, i, kappa_param), "closed-form")
        for name, cell in cells.items():
            out.setdefault(name, {})[i] = cell
    return out


vector_pool = st.lists(st.tuples(row_nums, st.booleans()), min_size=1,
                       max_size=4)


@settings(max_examples=60, deadline=None)
@given(vector_pool, st.data(),
       st.sampled_from([None, Fraction(1, 5), Fraction(1, 2), Fraction(1, 9)]))
def test_odometer_table_matches_per_index_calls(pool, data, kappa_param):
    vectors = [row(nums, as_float) for nums, as_float in pool]
    picks = data.draw(st.lists(st.integers(0, len(vectors) - 1), min_size=1,
                               max_size=10))
    sizes = sorted({len(v) for v in vectors})
    lo = data.draw(st.sampled_from(sizes))
    hi = data.draw(st.sampled_from([m for m in sizes if m >= lo]))
    specs = [
        # listed rows repeat where a vector is picked twice, and past the list
        listed_spec("odometer", [vectors[p] for p in picks]),
        # a cycle of alphabet sizes repeats each size's row every cycle
        SystemSpec(kind="odometer",
                   alphabet=AlphabetRule("cycle-range", {"lo": lo, "hi": hi}),
                   measure=BySizeMeasure(
                       [row([1] * m, False) for m in range(lo, hi + 1)]
                       + [v for v in vectors if lo <= len(v) <= hi])),
    ]
    for spec in specs:
        indices = range(1, 3 * len(picks) + 1)
        # each distinct row is solved once
        assert kappa_solves(spec, indices, kappa_param) == len(
            {criteria._weights(spec, i) for i in indices})


def table_cells(spec, indices, kappa_param):
    """The (index, cells) rows odometer_filler fills as table_lines runs it
    to the end, with one line per row after the header."""
    fill, rows, stop = odometer_filler(spec, kappa_param), [], []

    def keep(cells, i):
        fill(cells, i)
        rows.append((i, cells))
    assert len(list(table_lines(keep, indices, stop))) == len(indices) + 1
    assert stop == []
    return rows


def assert_cells_match(rows, want):
    """Every row holds exactly the oracle's columns, equal in value, type
    and tag."""
    for i, cells in rows:
        assert sorted(cells) == sorted(want)
        for name, (got, got_tag) in cells.items():
            value, tag = want[name][i]
            assert same(got, value) and got_tag == tag, (name, i)


def kappa_solves(spec, indices, kappa_param=Fraction(1, 5)):
    """How many rows a table over indices solves; every cell must equal the
    per-index oracle's."""
    with mock.patch.object(criteria, "_kappa_value",
                           side_effect=criteria._kappa_value) as solve:
        rows = table_cells(spec, indices, kappa_param)
    assert_cells_match(rows, per_index_table(spec, indices, kappa_param))
    return solve.call_count


def test_solved_rows_keep_the_most_recent(monkeypatch):
    # alphabets 2..9 on a cycle: 8 distinct rows, each back after 8 indices.
    # Over three cycles each row is solved once, unless the store keeps
    # fewer than 8 rows: then every row has left it before it comes back.
    spec = SystemSpec(kind="odometer",
                      alphabet=AlphabetRule("cycle-range", {"lo": 2, "hi": 9}),
                      measure=BySizeMeasure([row(list(range(1, m + 1)), False)
                                             for m in range(2, 10)]))
    indices = range(1, 3 * 8 + 1)
    assert kappa_solves(spec, indices) == 8
    monkeypatch.setattr(criteria, "SOLVED_ROWS", 4)
    assert kappa_solves(spec, indices) == len(indices) == 24


def test_solved_rows_drop_the_least_recently_used(monkeypatch):
    # rows A B A C A D A E with two kept: A is used between every other
    # row, so it stays and only the five distinct rows are solved (dropping
    # the oldest inserted row instead would solve A twice)
    a, b, c, d, e = (row(nums, False) for nums in
                     ([1, 1], [1, 2], [1, 3], [1, 4], [1, 5]))
    spec = listed_spec("odometer", [a, b, a, c, a, d, a, e])
    monkeypatch.setattr(criteria, "SOLVED_ROWS", 2)
    assert kappa_solves(spec, range(1, 9)) == 5
