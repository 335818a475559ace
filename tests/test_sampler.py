"""Differential tests: the disjointness rungs against their row-major forms.

The oracles below are the implementations the depth-major sampler replaced:
a (points, depth) int64 digit matrix walked column by column, digits drawn
with `searchsorted` from one (size, depth) draw per seed chunk, and the
carry and membership loops over its columns.  They stay here as the
reference; the rungs must agree with them on digits, membership, images,
violation counts and example points, in order.  The exhaustive rung is a
hit-count chain that marks no cell; its count must equal the row-major
enumeration's.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import odolab
from odolab import gallery
from odolab.space import ODOMETER
from odolab.witness import (_DRAW_ROWS, _SAMPLE_BLOCK, TransitivityPlan,
                            _TransitivityMembership, _add_iterate,
                            _digit_dtype, _exhaustive_disjointness,
                            _sample_thresholds, _sampled_disjointness,
                            find_transitivity_params)

from conftest import listed_spec


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

class RowMembership:
    """Membership of B on a (points, depth) digit matrix."""

    def __init__(self, spec, plan, ux_min, uy_max):
        self.ux_min = ux_min
        self.uy_max = uy_max
        self.sel = [i - 1 for i in plan.indices]
        self.in_d = []
        self.in_shift = []
        for i, D, k in zip(plan.indices, plan.sets, plan.shifts):
            m = spec.m(i)
            d_mask = np.zeros(m, dtype=bool)
            d_mask[list(D)] = True
            s_mask = np.zeros(m, dtype=bool)
            s_mask[[(x + k) % m for x in D]] = True
            self.in_d.append(d_mask)
            self.in_shift.append(s_mask)
        self.bands = []
        for a, b in zip(plan.indices, plan.indices[1:]):
            cols = list(range(a, b - 1))
            tops = np.array([spec.m(r + 1) - 1 for r in cols], dtype=np.int64)
            self.bands.append((cols, tops))

    def __call__(self, digits):
        x_sum = np.zeros(len(digits), dtype=np.int64)
        y_sum = np.zeros(len(digits), dtype=np.int64)
        for col, d_mask, s_mask in zip(self.sel, self.in_d, self.in_shift):
            col_digits = digits[:, col]
            x_sum += d_mask[col_digits]
            y_sum += s_mask[col_digits]
        inside = (x_sum >= self.ux_min) & (y_sum <= self.uy_max)
        for cols, tops in self.bands:
            if not cols:
                continue
            in_band = np.all(digits[:, cols] == tops, axis=1)
            inside &= ~in_band
        return inside


def row_digit_matrix(spec, depth, idx):
    out = np.empty((len(idx), depth), dtype=np.int64)
    rem = idx.copy()
    for i in range(1, depth + 1):
        m = spec.m(i)
        out[:, i - 1] = rem % m
        rem //= m
    return out


def row_add_iterate(spec, digits, k):
    depth = digits.shape[1]
    kd = spec.digits_of(k, depth)
    out = np.empty_like(digits)
    carry = np.zeros(len(digits), dtype=np.int64)
    for i in range(1, depth + 1):
        m = spec.m(i)
        t = digits[:, i - 1] + kd[i - 1] + carry
        out[:, i - 1] = t % m
        carry = (t >= m).astype(np.int64)
    return out


def row_exhaustive(spec, membership, depth, k):
    cells = spec.cell_count(depth)
    idx = np.arange(cells, dtype=np.int64)
    in_b = membership(row_digit_matrix(spec, depth, idx))
    image = (np.nonzero(in_b)[0] + k) % cells
    return int(np.count_nonzero(in_b[image]))


def row_sampled(spec, membership, depth, k, trials, seed, chunk=100_000):
    seq = np.random.SeedSequence(seed)
    n_chunks = (trials + chunk - 1) // chunk
    child_seeds = seq.spawn(n_chunks)
    cdfs = []
    for i in range(1, depth + 1):
        w = np.array([float(x) for x in spec.mu(i)], dtype=np.float64)
        cdfs.append(np.cumsum(w))
    violations = 0
    examples = []
    done = 0
    for c in range(n_chunks):
        size = min(chunk, trials - done)
        done += size
        rng = np.random.Generator(np.random.PCG64(child_seeds[c]))
        digits = np.empty((size, depth), dtype=np.int64)
        u = rng.random((size, depth))
        for i in range(depth):
            digits[:, i] = np.searchsorted(cdfs[i], u[:, i], side="right")
        in_b = membership(digits)
        if not in_b.any():
            continue
        sub = digits[in_b]
        image = row_add_iterate(spec, sub, k)
        bad = membership(image)
        n_bad = int(np.count_nonzero(bad))
        violations += n_bad
        if n_bad and len(examples) < 3:
            examples.extend(sub[bad][:3 - len(examples)].tolist())
    return violations, examples


# ---------------------------------------------------------------------------
# random systems and witness sets
# ---------------------------------------------------------------------------

@st.composite
def systems(draw, max_depth=7):
    """A listed odometer with alphabets 2..9, a plan on it and thresholds.

    Some coordinates carry float weights.  Selected indices end at the
    depth, so every coordinate is either selected or in a band.
    """
    depth = draw(st.integers(2, max_depth))
    vectors = []
    for _ in range(depth):
        nums = draw(st.lists(st.integers(1, 4), min_size=2, max_size=9))
        v = [Fraction(x, sum(nums)) for x in nums]
        vectors.append([float(x) for x in v] if draw(st.booleans()) else v)
    spec = listed_spec(ODOMETER, vectors)
    inner = draw(st.sets(st.integers(1, depth - 1), max_size=depth - 1))
    indices = tuple(sorted(inner)) + (depth,)
    sets, shifts = [], []
    for i in indices:
        m = spec.m(i)
        sets.append(frozenset(draw(st.sets(st.integers(0, m - 1)))))
        shifts.append(draw(st.integers(0, m - 1)))
    plan = TransitivityPlan(offset=0, count=len(indices), indices=indices,
                            drops=(), sets=tuple(sets), shifts=tuple(shifts),
                            band_masses=(), gap_sum=Fraction(0),
                            hoeffding_bound=0.0)
    count = len(indices)
    ux_min = draw(st.integers(0, count))
    uy_max = draw(st.integers(0, count))
    return spec, plan, ux_min, uy_max


def memberships(spec, plan, ux_min, uy_max):
    return (_TransitivityMembership(spec, plan, ux_min, uy_max),
            RowMembership(spec, plan, ux_min, uy_max))


def iterates(cells):
    # 0 and multiples of the cell count map B onto itself: violations forced
    return st.one_of(st.just(0), st.integers(1, 3).map(lambda t: t * cells),
                     st.integers(0, 3 * cells))


# ---------------------------------------------------------------------------
# exhaustive rung: digits, membership, images, counts
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(systems(), st.data())
def test_exhaustive_rung_matches_row_major_oracle(system, data):
    spec, plan, ux_min, uy_max = system
    depth = plan.depth
    cells = spec.cell_count(depth)
    k = data.draw(iterates(cells))
    new, old = memberships(spec, plan, ux_min, uy_max)
    rows = row_digit_matrix(spec, depth, np.arange(cells, dtype=np.int64))
    digits = rows.T.astype(_digit_dtype(spec, depth))
    assert np.array_equal(new(digits), old(rows))
    moduli = [spec.m(i) for i in range(1, depth + 1)]
    image = _add_iterate(digits, moduli, spec.digits_of(k, depth))
    assert np.array_equal(image, row_add_iterate(spec, rows, k).T)
    assert (_exhaustive_disjointness(spec, plan, ux_min, uy_max, k)
            == row_exhaustive(spec, old, depth, k))


NO_NUMPY_CHAIN = """
import json, sys
sys.modules["numpy"] = None          # any import of NumPy now fails
from fractions import Fraction
from odolab import gallery
from odolab.witness import TransitivityPlan, _exhaustive_disjointness
spec = gallery.get_spec("same-measure(2/3,1/3)")
plan = TransitivityPlan(offset=0, count=3, indices=(2, 5, 6), drops=(),
                        sets=(frozenset({0}),) * 3, shifts=(1, 1, 1),
                        band_masses=(), gap_sum=Fraction(0),
                        hoeffding_bound=0.0)
print(json.dumps([_exhaustive_disjointness(spec, plan, u, v, k)
                  for u, v, k in json.loads(sys.argv[1])]))
"""


def test_exhaustive_rung_runs_without_numpy():
    spec = gallery.get_spec("same-measure(2/3,1/3)")
    plan = TransitivityPlan(offset=0, count=3, indices=(2, 5, 6), drops=(),
                            sets=(frozenset({0}),) * 3, shifts=(1, 1, 1),
                            band_masses=(), gap_sum=Fraction(0),
                            hoeffding_bound=0.0)
    # k = 2 + 16 + 32 shifts every selected digit; 0 maps B onto itself
    cases = [(2, 1, 50), (1, 2, 50), (2, 1, 0), (0, 3, 7), (3, 0, 50)]
    src = os.path.dirname(os.path.dirname(odolab.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_CHAIN,
                           json.dumps(cases)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts == [row_exhaustive(spec, RowMembership(spec, plan, u, v),
                                     6, k) for u, v, k in cases]
    assert counts[2] > 0


# ---------------------------------------------------------------------------
# sampled rung: the same draws, violations and examples
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(systems())
def test_comparison_digits_are_searchsorted_at_every_edge(system):
    # [0.1] * 10 sums to just below 1 in floats: its last entry stays
    for spec in (system[0], listed_spec(ODOMETER, [[0.1] * 10])):
        depth = len(spec.measure.vectors)
        thresholds = _sample_thresholds(spec, depth)
        for i in range(1, depth + 1):
            cdf = np.cumsum([float(x) for x in spec.mu(i)])
            u = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 2),
                                [0.0, np.nextafter(1.0, 0)]])
            u = u[u < 1]
            digits = (u[:, None] >= thresholds[:, i - 1]).sum(axis=1)
            assert np.array_equal(digits,
                                  np.searchsorted(cdf, u, side="right"))


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_sampled_rung_matches_row_major_oracle(system, data):
    spec, plan, ux_min, uy_max = system
    depth = plan.depth
    k = data.draw(iterates(spec.cell_count(depth)))
    trials = data.draw(st.integers(1, 9000))
    chunk = data.draw(st.sampled_from([100_000, 1000, 4096, 5000]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    new, old = memberships(spec, plan, ux_min, uy_max)
    got = _sampled_disjointness(spec, new, depth, k, trials, seed,
                                chunk=chunk)
    assert got == row_sampled(spec, old, depth, k, trials, seed, chunk=chunk)


def test_sampled_rung_over_two_seed_chunks():
    # 100k trials per chunk: the second chunk starts a new spawned stream
    spec = listed_spec(ODOMETER, [[Fraction(1, 3), Fraction(2, 3)],
                                  [0.25, 0.5, 0.25],
                                  [Fraction(1, 9)] * 9, [0.5, 0.5]])
    plan = TransitivityPlan(offset=0, count=2, indices=(2, 4),
                            drops=(), sets=(frozenset({1}), frozenset({0})),
                            shifts=(1, 1), band_masses=(),
                            gap_sum=Fraction(0), hoeffding_bound=0.0)
    new, old = memberships(spec, plan, 1, 1)
    for k in (0, 5, spec.cell_count(4)):
        got = _sampled_disjointness(spec, new, 4, k, 104_321, 11)
        assert got == row_sampled(spec, old, 4, k, 104_321, 11)
        assert got[0] > 0


@pytest.mark.parametrize("gid,eps", [("binary-alpha(1/3)", 0.1),
                                     ("hc-not-mixing", 0.2)])
def test_sampled_rung_on_gallery_plans(gid, eps):
    spec = gallery.get_spec(gid)
    plan = find_transitivity_params(spec, eps)
    count = plan.count
    radix = spec.radix_weights(plan.depth)
    k_plan = sum(s * radix[i - 1] for i, s in zip(plan.indices, plan.shifts))
    # looser thresholds than the plan's, and k = 0, force violations
    for ux_min, uy_max, k in ((count // 2, count // 2, k_plan),
                              (0, count, k_plan), (count // 2, count, 0)):
        new, old = memberships(spec, plan, ux_min, uy_max)
        got = _sampled_disjointness(spec, new, plan.depth, k, 5000, 3)
        assert got == row_sampled(spec, old, plan.depth, k, 5000, 3)
        assert got[0] > 0


def test_sampled_rung_across_blocks_and_draw_chunks():
    # 9000 points: three 4096-point blocks, the last one partial, and a
    # count that no whole number of 256-row draws makes
    assert 9000 > 2 * _SAMPLE_BLOCK and 9000 % _DRAW_ROWS
    spec = gallery.get_spec("hc-not-mixing")
    plan = find_transitivity_params(spec, 0.2)
    radix = spec.radix_weights(plan.depth)
    k = sum(s * radix[i - 1] for i, s in zip(plan.indices, plan.shifts))
    new, old = memberships(spec, plan, 0, plan.count)
    got = _sampled_disjointness(spec, new, plan.depth, k, 9000, 21)
    assert got == row_sampled(spec, old, plan.depth, k, 9000, 21)
    assert got[0] > 0


def test_sampled_rung_peak_memory_is_bounded():
    # binary-alpha(1/3)'s plan reaches depth 688: one 4096 x 688 draw of
    # float64 is 21.5 MiB, and two were live at once before draws went
    # through one buffer of _DRAW_ROWS rows
    import tracemalloc
    spec = gallery.get_spec("binary-alpha(1/3)")
    plan = find_transitivity_params(spec, 0.1)
    assert plan.depth == 688
    membership = _TransitivityMembership(spec, plan, 0, plan.count)
    tracemalloc.start()
    try:
        _sampled_disjointness(spec, membership, plan.depth, 1, 8192, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("trials", [0, -5])
def test_sampled_rung_needs_a_trial(trials):
    spec = listed_spec(ODOMETER, [[Fraction(1, 2)] * 2])
    plan = TransitivityPlan(offset=0, count=1, indices=(1,), drops=(),
                            sets=(frozenset({0}),), shifts=(1,),
                            band_masses=(), gap_sum=Fraction(0),
                            hoeffding_bound=0.0)
    new, _ = memberships(spec, plan, 1, 1)
    with pytest.raises(ValueError, match="trials"):
        _sampled_disjointness(spec, new, 1, 1, trials, 0)
