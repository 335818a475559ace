"""Witness constructions and their verification ladder.

Every construction returns a WitnessReport: the built objects, and one entry
per verified inequality recording the verification method used --

  exact                -- computed from measure primitives, no enumeration gap;
  independence-product -- exact product across independent coordinate blocks,
                          with the block law found by dynamic programming;
  proof-bound          -- a k-uniform certified bound (valid for the whole
                          range, not just sampled points);
  sampled              -- seeded Monte Carlo falsification with the seed,
                          trial count and violation count recorded.

A report passes only if every exact/product/bound check meets its bound and
every sampled check has zero violations.
"""
from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .criteria import (alpha_shift, alpha_shift_witness, charge_work,
                       disjoint_shift_set_zplus, gamma_witness,
                       kappa as kappa_seq, omega, theta_witness, tilted_mass)
from .errors import (CapExceeded, HypothesisUnavailable,
                     NotFoundWithinHorizon, StrategyInfeasible, WindowTooSmall)
from .maps import (chain_measure, chain_pass, forward_image_measure,
                   image_overlap, preimage_measure, rounded, set_measure)
from .scalars import Scalar, format_scalar, integer_view, is_exact
from .space import ODOMETER, SHIFT, TRANSLATION, DepthSet, SystemSpec

EXHAUSTIVE_CELL_CAP = 1 << 22
PLAN_SEARCH_BUDGET = EXHAUSTIVE_CELL_CAP   # theta steps the plan search may cost
DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 20240901
TRANSITIVITY_INDEX_CAP = 4000   # last index the transitivity plan scans
KAPPA_SCAN = 40                 # indices the mixing witness scans for i_0
FHC_K_BUDGET = 4096             # fhc checks every k up to kappa d within this
SHIFT_F_RADIUS = 3              # the shift witness's core F = [-3, 3]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    inequality: str
    required: str
    computed: str
    method: str
    ok: bool
    extras: dict = field(default_factory=dict)


@dataclass
class WitnessReport:
    construction: str
    params: dict
    checks: list = field(default_factory=list)
    objects: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name, inequality, required, computed, method, ok, **extras):
        self.checks.append(Check(name=name, inequality=inequality,
                                 required=_fmt(required), computed=_fmt(computed),
                                 method=method, ok=bool(ok), extras=extras))

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_document(self) -> dict:
        return {
            "construction": self.construction,
            "passed": self.passed,
            "params": {k: _fmt(v) for k, v in self.params.items()},
            "checks": [{"name": c.name, "inequality": c.inequality,
                        "required": c.required, "computed": c.computed,
                        "method": c.method, "ok": c.ok,
                        **{k: _fmt(v) for k, v in c.extras.items()}}
                       for c in self.checks],
        }


def _fmt(v):
    if isinstance(v, Fraction):
        return format_scalar(v)
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, (list, tuple)):
        return [_fmt(x) for x in v]
    if isinstance(v, frozenset):
        return sorted(v)
    return v


def _complement(mass: Scalar) -> Scalar:
    """1 - mass, clamped at 0 against float rounding on the float backend."""
    rest = 1 - mass
    if not is_exact(rest) and rest < 0:
        return 0.0
    return rest


def _ceil_scalar(x: Scalar) -> int:
    return math.ceil(x) if is_exact(x) else math.ceil(x - 1e-12)


def _floor_scalar(x: Scalar) -> int:
    return math.floor(x) if is_exact(x) else math.floor(x + 1e-12)


# ---------------------------------------------------------------------------
# the concentration-based transitivity witness (odometer)
# ---------------------------------------------------------------------------

@dataclass
class TransitivityPlan:
    """Index subsequence and per-index optimal-drop data for the witness."""

    offset: int
    count: int
    indices: tuple
    drops: tuple
    sets: tuple            # optimal D per selected index
    shifts: tuple          # optimal per-index digit shift
    band_masses: tuple     # all-top band mass between consecutive indices
    gap_sum: Scalar        # condition (a): sum of gap tail-weight products
    hoeffding_bound: float  # condition (b): exp(-(2/9n) (sum drops)^2)

    @property
    def depth(self) -> int:
        return self.indices[-1]


def find_transitivity_params(spec: SystemSpec, epsilon: float,
                             horizon: int = 400, beta: Optional[float] = None
                             ) -> TransitivityPlan:
    """Search offsets/lengths of the index rule i_s = floor((offset+s)^beta).

    Conditions: (a) the summed gap products of top-symbol weights stay below
    epsilon; (b) the concentration bound exp(-(2/9n)(sum of drops)^2) falls
    below epsilon.  Raises StrategyInfeasible when no pair works, and
    CapExceeded up front when the optimal drops would cost more than
    PLAN_SEARCH_BUDGET steps: theta at index i takes about m_i^2.  The
    budget is fixed; a witness's cell cap picks its disjointness rung only.
    """
    if spec.kind != ODOMETER:
        raise ValueError("the transitivity witness drives the odometer")
    beta = 1.5 if beta is None else beta
    raw = []
    seen = set()
    work = 0
    s = 1
    while len(raw) < horizon:
        i = math.floor(s ** beta)
        s += 1
        if i < 1 or i in seen:
            continue
        seen.add(i)
        if i > TRANSITIVITY_INDEX_CAP:
            break
        raw.append(i)
        work += spec.m(i) ** 2
        if work > PLAN_SEARCH_BUDGET:
            raise CapExceeded(
                f"the drops of the first {len(raw)} candidate indices cost "
                f"{work} > {PLAN_SEARCH_BUDGET} steps")
    drop_cache: dict[int, tuple] = {}

    def drop(i):
        if i not in drop_cache:
            drop_cache[i] = theta_witness(spec, i)
        return drop_cache[i]

    usable = [i for i in raw if drop(i)[0] > 0]
    if len(usable) >= 2:
        bands = [_band_mass(spec, a, b) for a, b in zip(usable, usable[1:])]
        gap_products = [float(x) for x in bands]
        drop_floats = [float(drop(i)[0]) for i in usable]
        for offset in range(len(usable) - 1):
            gap_sum = 0.0
            drop_sum = drop_floats[offset]
            for t in range(offset + 1, len(usable)):
                gap_sum += gap_products[t - 1]
                if gap_sum >= epsilon:
                    break
                drop_sum += drop_floats[t]
                count = t - offset + 1
                bound = math.exp(-(2.0 / (9 * count)) * drop_sum ** 2)
                if bound < epsilon:
                    chosen = usable[offset:t + 1]
                    return TransitivityPlan(
                        offset=offset, count=count, indices=tuple(chosen),
                        drops=tuple(drop(i)[0] for i in chosen),
                        sets=tuple(drop(i)[1] for i in chosen),
                        shifts=tuple(drop(i)[2] for i in chosen),
                        band_masses=tuple(bands[offset:t]),
                        gap_sum=sum(bands[offset:t], Fraction(0)),
                        hoeffding_bound=bound)
    raise StrategyInfeasible(
        f"no (offset, length) met both smallness conditions below eps={epsilon}")


def _band_mass(spec: SystemSpec, a: int, b: int) -> Scalar:
    """Mass of the all-top band strictly between coordinates a and b (1 if empty)."""
    prod = Fraction(1)
    for r in range(a + 1, b):
        prod = prod * spec.mu_weight(r, spec.m(r) - 1)
    return prod


def _pair_law(spec: SystemSpec, i: int, D: frozenset,
              shifted: frozenset) -> tuple:
    """(p11, p10, p01, p00): the joint law of (x_i in D, x_i in shifted)."""
    p11 = spec.subset_measure(i, D & shifted)
    p10 = spec.subset_measure(i, D - shifted)
    p01 = spec.subset_measure(i, shifted - D)
    return p11, p10, p01, _complement(p11 + p10 + p01)


def _thresholds(pairs: Sequence[tuple], drops: Sequence[Scalar]) -> tuple:
    """(t_x, t_y, ux_min, uy_max) for the concentration set.

    t_x sums mu(D) - drop/3 and t_y sums mu(D + k) + drop/3 over the pair
    laws, one term per pair; ux_min and uy_max are their integer roundings.
    """
    t_x = t_y = None
    for (p11, p10, p01, _), drop in zip(pairs, drops):
        tx_term = (p11 + p10) - drop / 3
        ty_term = (p11 + p01) + drop / 3
        t_x = tx_term if t_x is None else t_x + tx_term
        t_y = ty_term if t_y is None else t_y + ty_term
    return t_x, t_y, _ceil_scalar(t_x), _floor_scalar(t_y)


def _concentration_mass(pairs: Sequence[tuple], ux_min: int,
                        uy_max: int) -> Scalar:
    """P(sum X_s >= ux_min and sum Y_s <= uy_max) under the pair laws.

    A DP over the capped hit counts (u, v): u stops at ux_min, and a state
    whose v passes uy_max is dropped.  Each pair law runs on integers over
    its own denominator, floats at their binary values, rounded once.
    """
    dist, den = ({(0, 0): 1} if uy_max >= 0 else {}), 1
    for pair in pairs:
        nums, scale = integer_view([Fraction(p) for p in pair])
        den *= scale
        nxt: dict = {}
        for (u, v), w in dist.items():
            for du, dv, p in zip((1, 1, 0, 0), (1, 0, 1, 0), nums):
                key = (min(u + du, ux_min), v + dv)
                if p and key[1] <= uy_max:
                    nxt[key] = nxt.get(key, 0) + w * p
        dist = nxt
    mass = Fraction(sum(w for (u, _), w in dist.items() if u >= ux_min), den)
    return rounded(mass, all(is_exact(p) for pair in pairs for p in pair))


def transitivity_witness(spec: SystemSpec, epsilon: float,
                         horizon: int = 400, beta: Optional[float] = None,
                         trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                         cell_cap: int = EXHAUSTIVE_CELL_CAP) -> WitnessReport:
    """Build the concentration witness (B, k) and verify it.

    B keeps the points whose selected-coordinate hit counts concentrate, minus
    the all-top bands between consecutive selected indices; k shifts each
    selected digit by its optimal-drop amount.  mu(B) > 1 - 3 eps is verified
    through the independence product; disjointness of B from its k-th image is
    checked exhaustively within the cell cap and by seeded sampling beyond.
    """
    plan = find_transitivity_params(spec, epsilon, horizon=horizon, beta=beta)
    report = WitnessReport(construction="transitivity",
                           params={"epsilon": epsilon, "offset": plan.offset,
                                   "count": plan.count,
                                   "indices": list(plan.indices),
                                   "seed": seed, "trials": trials})
    report.add("smallness-gaps", "sum of gap products < eps", epsilon,
               plan.gap_sum, "exact", float(plan.gap_sum) < epsilon)
    report.add("smallness-concentration", "exp bound < eps", epsilon,
               plan.hoeffding_bound, "exact", plan.hoeffding_bound < epsilon)

    pairs = [_pair_law(spec, i, D, frozenset((x + k) % spec.m(i) for x in D))
             for i, D, k in zip(plan.indices, plan.sets, plan.shifts)]
    t_x, t_y, ux_min, uy_max = _thresholds(
        pairs, [(p11 + p10) - (p11 + p01) for p11, p10, p01, _ in pairs])

    mu_xy = _concentration_mass(pairs, ux_min, uy_max)
    mu_b = mu_xy * math.prod(1 - x for x in plan.band_masses)
    report.add("mass", "mu(B) > 1 - 3 eps", 1 - 3 * epsilon, mu_b,
               "independence-product", float(mu_b) > 1 - 3 * epsilon,
               concentration_mass=_fmt(mu_xy),
               band_measures=[_fmt(x) for x in plan.band_masses])

    radix = spec.radix_weights(plan.depth)
    k_iterate = sum(ks * radix[i - 1]
                    for i, ks in zip(plan.indices, plan.shifts))
    report.params["k"] = k_iterate

    cells = spec.cell_count(plan.depth)
    if cells <= cell_cap:
        violations = _exhaustive_disjointness(spec, plan, ux_min, uy_max,
                                              k_iterate)
        report.add("disjoint", "B and o^k(B) meet nowhere", 0, violations,
                   "exact", violations == 0, cells=cells)
    else:
        membership = _TransitivityMembership(spec, plan, ux_min, uy_max)
        violations, examples = _sampled_disjointness(spec, membership,
                                                     plan.depth, k_iterate,
                                                     trials, seed)
        report.add("disjoint", "B and o^k(B) meet nowhere", 0, violations,
                   "sampled", violations == 0, seed=seed, trials=trials,
                   violating_points=examples[:3])
    report.objects.update(plan=plan, thresholds=(t_x, t_y),
                          int_thresholds=(ux_min, uy_max), k=k_iterate,
                          mu_b=mu_b, pairs=pairs)
    return report


class _TransitivityMembership:
    """The sampled rung's membership test for B on depth-major digit
    matrices: row i - 1 holds coordinate i, one column per point."""

    def __init__(self, spec: SystemSpec, plan: TransitivityPlan,
                 ux_min: int, uy_max: int):
        import numpy as np
        self.ux_min = ux_min
        self.uy_max = uy_max
        dtype = _digit_dtype(spec, plan.depth)
        # per selected coordinate, [x in D] + ([x in D + k] << 32): one
        # lookup adds both hit counts
        self.hits = []
        for i, D, k in zip(plan.indices, plan.sets, plan.shifts):
            m = spec.m(i)
            table = np.zeros(m, dtype=np.int64)
            table[list(D)] += 1
            table[[(x + k) % m for x in D]] += 1 << 32
            self.hits.append((i - 1, table))
        self.bands = []                              # coordinates a+1..b-1
        for a, b in zip(plan.indices, plan.indices[1:]):
            if b - a > 1:
                tops = np.array([spec.m(r) - 1 for r in range(a + 1, b)],
                                dtype=dtype)
                self.bands.append((slice(a, b - 1), tops[:, None]))

    def __call__(self, digits: np.ndarray) -> np.ndarray:
        import numpy as np
        hits = np.zeros(digits.shape[1], dtype=np.int64)
        for row, table in self.hits:
            hits += table[digits[row]]
        inside = ((hits & 0xFFFFFFFF) >= self.ux_min) & (
            (hits >> 32) <= self.uy_max)
        for rows, tops in self.bands:
            inside &= ~(digits[rows] == tops).all(axis=0)
        return inside


def _digit_dtype(spec: SystemSpec, depth: int):
    """Smallest integer dtype holding a digit plus a digit plus a carry."""
    import numpy as np
    top = 2 * max(spec.m(i) for i in range(1, depth + 1)) - 1
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _add_iterate(digits: np.ndarray, moduli: Sequence[int],
                 k_digits: Sequence[int]) -> np.ndarray:
    """Depth-major digits of x + k, the carry out of the depth dropped.

    Row i first holds x_i + k_i - m_i; with the carry in added it is
    non-negative exactly when a carry goes out.  The carry runs row by row:
    k has nonzero digits up to the depth, so it cannot stop early.
    """
    import numpy as np
    m = np.array(moduli, dtype=digits.dtype)[:, None]
    out = digits + (np.array(k_digits, dtype=digits.dtype)[:, None] - m)
    carry = np.zeros(digits.shape[1], dtype=bool)
    for row in out:
        row += carry
        np.greater_equal(row, 0, out=carry)
    out += m * (out < 0)
    return out


def _exhaustive_disjointness(spec: SystemSpec, plan: TransitivityPlan,
                             ux_min: int, uy_max: int, k: int) -> int:
    """Number of depth-N cells c of B with c + k in B, indices mod M.

    A chain over coordinates 1..N on unit rows: a state is the carry and, for
    x and x + k, the capped hit counts (u, v) and whether the band since the
    last selected index is all top.  It counts the prefixes reaching it, so
    at coordinate r it holds at most M_r states and marks no cell.
    """
    sets = {i: (D, frozenset((x + s) % spec.m(i) for x in D))
            for i, D, s in zip(plan.indices, plan.sets, plan.shifts)}

    def step(h, f):
        if r not in sets:
            return h[:2] + (h[2] and f,)
        v = h[1] + f[1]
        if h[2] or v > uy_max:      # a band closed all top, or v passed
            return None
        return min(h[0] + f[0], ux_min), v, r + 1 not in sets

    states = {(0, (0, 0, False), (0, 0, False)): 1} if uy_max >= 0 else {}
    for r, d in enumerate(spec.digits_of(k, plan.depth), start=1):
        m, hits = spec.m(r), sets.get(r)
        kind = ((lambda z: (z in hits[0], z in hits[1])) if hits
                else (lambda z: z == m - 1))
        moves = [collections.Counter(
            (kind(x), kind((x + d + c) % m), x + d + c >= m)
            for x in range(m)) for c in (0, 1)]
        nxt: dict = {}
        for (c, hx, hy), n in states.items():
            for (fx, fy, out), w in moves[c].items():
                key = (out, step(hx, fx), step(hy, fy))
                if None not in key:
                    nxt[key] = nxt.get(key, 0) + n * w
        states = nxt
    return sum(n for (_, hx, hy), n in states.items()
               if min(hx[0], hy[0]) >= ux_min)


_SAMPLE_BLOCK = 4096      # points per membership test and carry
_DRAW_ROWS = 256          # points per draw: 256 x depth floats at a time


def _sample_thresholds(spec: SystemSpec, depth: int) -> np.ndarray:
    """(n, depth) cdf entries below 1, padded with inf.

    Digit i of a uniform u is the number of entries of column i at or below
    u: searchsorted(cdf_i, u, side="right"), because a cumulative sum of
    non-negative floats never decreases.  Entries >= 1 are dropped, since
    u < 1 never reaches them.
    """
    import numpy as np
    cdfs = []
    for i in range(1, depth + 1):
        cdf = np.cumsum([float(x) for x in spec.mu(i)])
        cdfs.append(cdf[cdf < 1.0])
    out = np.full((max(map(len, cdfs)), depth), np.inf)
    for i, cdf in enumerate(cdfs):
        out[:len(cdf), i] = cdf
    return out


def _sampled_disjointness(spec, membership, depth, k, trials, seed,
                          chunk: int = 100_000):
    """Seeded sampling from mu; returns (violations, example points).

    Each chunk of trials has its own spawned PCG64 stream.  Its uniforms are
    drawn _DRAW_ROWS rows at a time into one buffer; PCG64 fills row by row,
    so the draws are the rows of one (size, depth) draw.  Digits come from
    comparisons against the cdf thresholds and are held depth-major.
    """
    import numpy as np
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    child_seeds = np.random.SeedSequence(seed).spawn(
        (trials + chunk - 1) // chunk)
    thresholds = _sample_thresholds(spec, depth)
    dtype = _digit_dtype(spec, depth)
    moduli = [spec.m(i) for i in range(1, depth + 1)]
    k_digits = spec.digits_of(k, depth)
    buf = np.empty((_DRAW_ROWS, depth))
    violations = 0
    examples = []
    for c, child in enumerate(child_seeds):
        rng = np.random.Generator(np.random.PCG64(child))
        size = min(chunk, trials - c * chunk)
        for start in range(0, size, _SAMPLE_BLOCK):
            points = min(_SAMPLE_BLOCK, size - start)
            digits = np.empty((depth, points), dtype=dtype)
            for lo in range(0, points, _DRAW_ROWS):
                u = rng.random(out=buf[:points - lo])
                drawn = np.zeros(u.shape, dtype=dtype)
                for row in thresholds:
                    drawn += u >= row
                digits[:, lo:lo + len(u)] = drawn.T
            in_b = membership(digits)
            if not in_b.any():
                continue
            bad = in_b & membership(_add_iterate(digits, moduli, k_digits))
            n_bad = int(np.count_nonzero(bad))
            violations += n_bad
            if n_bad and len(examples) < 3:
                cols = np.nonzero(bad)[0][:3 - len(examples)]
                examples.extend(digits[:, cols].T.tolist())
    return violations, examples


# ---------------------------------------------------------------------------
# mixing witness (odometer)
# ---------------------------------------------------------------------------

def mixing_witness(spec: SystemSpec, epsilon: float,
                   k: Optional[int] = None) -> WitnessReport:
    """Two-coordinate witness disjoint from its k-th image, k past the burn-in
    (k = k_0, the burn-in itself, when None).

    Needs every shift-disjoint optimum at the top two digit positions of k to
    weigh at least 1 - eps/3; the burn-in threshold k_0 sums the radix weights
    up to the first index from which that holds.
    """
    if spec.kind != ODOMETER:
        raise ValueError("mixing witness drives the odometer")
    need = 1 - Fraction(epsilon).limit_denominator(10 ** 9) / 3
    kappas = {}
    i0 = None
    for i in range(1, KAPPA_SCAN + 1):
        kappas[i] = kappa_seq(spec, i)
        if float(kappas[i]) < float(need):
            i0 = None
        elif i0 is None:
            i0 = i
    if i0 is None:
        raise HypothesisUnavailable(
            f"no suffix of indices <= {KAPPA_SCAN} keeps the shift-disjoint "
            f"optimum above 1 - eps/3 = {float(need):.6g}")
    radix = spec.radix_weights(i0 + 1)
    k0 = sum(radix[i - 1] for i in range(1, i0 + 1))
    k = k0 if k is None else k
    report = WitnessReport(construction="mixing",
                           params={"epsilon": epsilon, "k": k, "i0": i0,
                                   "k0": k0})
    if k < k0:
        raise HypothesisUnavailable(f"k={k} is below the burn-in k_0={k0}")

    # the top digit position l of k and its digit k_l, which is nonzero
    rem, l = k, 0
    while rem > 0:
        l += 1
        rem, k_l = divmod(rem, spec.m(l))
    m_l = spec.m(l)

    v1, d_prime = disjoint_shift_set_zplus(spec, l, k_l)
    if k_l == m_l - 1:
        d_second = frozenset(range(m_l))
        v2 = Fraction(1)
    else:
        v2, d_second = disjoint_shift_set_zplus(spec, l, k_l + 1)
    d_l = d_prime & d_second
    v3, d_next = disjoint_shift_set_zplus(spec, l + 1, 1)
    for name, val in (("top-digit-set", v1), ("top-digit-plus-one-set", v2),
                      ("next-coordinate-set", v3)):
        report.add(name, "optimal mass >= 1 - eps/3", float(need), val,
                   "exact", float(val) >= float(need) - 1e-15)
    if not report.passed:
        raise HypothesisUnavailable(
            "shift-disjoint optima at the top digits fall below 1 - eps/3")

    B = DepthSet.cylinder(spec, l + 1, {l: d_l, l + 1: d_next})
    mu_b = set_measure(spec, B)
    report.add("mass", "mu(B) >= 1 - eps", 1 - epsilon, mu_b, "exact",
               float(mu_b) >= 1 - epsilon - 1e-15)

    overlap = image_overlap(spec, B, k)
    report.add("disjoint", "o^k(B) and B meet nowhere", 0, overlap,
               "exact", overlap == 0, cells=spec.cell_count(l + 1))
    report.objects.update(B=B, l=l, k_l=k_l, D_l=d_l, D_next=d_next,
                          kappas=kappas)
    return report


# ---------------------------------------------------------------------------
# frequent-hypercyclicity witness (odometer)
# ---------------------------------------------------------------------------

def fhc_witness(spec: SystemSpec, epsilon: float, kappa_param,
                f_symbols: Optional[Sequence[int]] = None,
                horizon: int = 400, spot_checks: int = 1000,
                seed: int = DEFAULT_SEED) -> WitnessReport:
    """Periodic-block witness: pullbacks stay small for kd steps, then large.

    Finds a depth N where the top-interval mass omega_{N-1}(kappa) and the
    split-level defect 1 - gamma_N both fall below eps/2, builds the cylinder
    over the shifted optimal set, and verifies the two pullback families by
    k-uniform certified bounds plus exact transports (all k within budget,
    else a seeded spot sample).  When f_symbols name a basic cylinder F, the
    depth scan starts at len(f_symbols) + 1, and the function-level
    inequalities for f = 1_F and g = 1_B f are verified exactly at p = 1.
    """
    if spec.kind != ODOMETER:
        raise ValueError("this witness drives the odometer")
    kappa_param = Fraction(kappa_param)
    delta_target = epsilon / 2
    # a depth N past F's makes n = j M_N a multiple of F's period
    first = 2 if f_symbols is None else max(2, len(f_symbols) + 1)
    found = None
    for i in range(first, horizon + 1):
        om = omega(spec, i - 1, kappa_param)
        gval, D, j = gamma_witness(spec, i)
        if max(float(om), 1 - float(gval)) < delta_target:
            found = (i, om, gval, D, j)
            break
    if found is None:
        raise HypothesisUnavailable(
            f"no index <= {horizon} has omega and split defect below eps/2")
    N, om, gval, D, j = found
    m_n = spec.m(N)
    radix = spec.radix_weights(N + 1)
    n_iter = j * radix[N - 1]
    d_period = radix[N]

    report = WitnessReport(construction="fhc",
                           params={"epsilon": epsilon,
                                   "kappa": kappa_param, "N": N, "j": j,
                                   "n": n_iter, "d": d_period, "seed": seed})

    if f_symbols is not None:
        # a basic depth-L cylinder returns after exactly M_{L+1} steps, which
        # divides n = j M_N since N > L
        f_fixed = {i: {s} for i, s in enumerate(f_symbols, start=1)}
        f_set = DepthSet.cylinder(spec, N, f_fixed)
        report.params.update(f_period=spec.cell_count(len(f_symbols)))

    shifted = frozenset((x + j) % m_n for x in D)
    B = DepthSet.cylinder(spec, N, {N: shifted})
    B_prime = DepthSet.cylinder(spec, N, {N: D})
    mu_shift = spec.subset_measure(N, shifted)
    mu_d = spec.subset_measure(N, D)

    # range validity: every k <= kappa d has no digit at position N
    range_ok = kappa_param * spec.m(N - 1) * m_n < spec.m(N - 1)
    report.add("kappa-range", "kappa m_{N-1} m_N < m_{N-1}",
               spec.m(N - 1), kappa_param * spec.m(N - 1) * m_n,
               "exact", bool(range_ok))

    small_bound = mu_shift + om
    large_bound = mu_d - om
    report.add("pullback-small-all-k",
               "mu(o^-k(B)) <= mu_N(D+j) + omega <= eps for k <= kappa d",
               epsilon, small_bound, "proof-bound",
               float(small_bound) <= epsilon + 1e-15)
    report.add("pullback-large-all-k",
               "mu(o^-(n+k)(B)) >= mu_N(D) - omega >= 1 - eps for k <= kappa d",
               1 - epsilon, large_bound, "proof-bound",
               float(large_bound) >= 1 - epsilon - 1e-15)
    moved = image_overlap(spec, B, 0) - image_overlap(spec, B, d_period)
    report.add("fixed-by-d", "o^-d(B) = B (d is the full block size)", 0,
               moved, "exact", moved == 0)

    kd = int(kappa_param * d_period)
    if kd + 1 <= FHC_K_BUDGET:
        ks = list(range(kd + 1))
        coverage = "all-k"
    else:
        if kd < 1 << 63:      # the bound NumPy's int64 draw accepts
            import numpy as np
            spots = np.random.Generator(np.random.PCG64(seed)).integers(
                0, kd + 1, size=spot_checks).tolist()
        else:       # Python ints from the same seed
            import random
            draw = random.Random(seed).randrange
            spots = [draw(kd + 1) for _ in range(spot_checks)]
        ks = sorted({0, 1, kd, *spots})
        coverage = f"seeded-spot({len(ks)})"
    # every set fixes N and at most F's coordinates below it: one chain per
    # k and prefix over 1..N-1, resumed at N; n = j M_N has no digit below
    # N, so n + k resumes k's chain with j more to add
    rows, exact = spec.weight_rows(N)

    def resume(state, n, want, more=0):
        f0, f1, den, _ = chain_pass(spec, rows[-1:], None, (want,), n,
                                    state[:3] + (state[3] + more,))
        return Fraction(f0 + f1, den)

    small, large, g_small, g_large = [], [], [], []
    for k in ks:
        state = chain_pass(spec, rows[:-1], None, B.factors[:-1], k)
        small.append(resume(state, k, shifted))
        large.append(resume(state, n_iter + k, shifted, j))
        if f_symbols is not None:
            # C^k g indicates o^-k(B and F), and C^(n+k) g o^-k(B' and F)
            # because o^-n fixes F (n is a multiple of its period) and sends
            # B to B'
            state = chain_pass(spec, rows[:-1], None, f_set.factors[:-1], k)
            g_small.append(resume(state, k, shifted))
            g_large.append(resume(state, k, None) - resume(state, k, D))
    # rounding is monotone, so the worst exact mass of each family, rounded
    # once, is the worst rounded one; every k passes exactly when it does
    worst_small, worst_large = (rounded(max(small), exact),
                                rounded(min(large), exact))
    agree_ok = (float(worst_small) <= float(small_bound) + 1e-15
                and float(worst_large) >= float(large_bound) - 1e-15)
    report.add("pullback-small-transport", "exact transports <= eps",
               epsilon, worst_small, "exact",
               float(worst_small) <= epsilon + 1e-15, coverage=coverage)
    report.add("pullback-large-transport", "exact transports >= 1 - eps",
               1 - epsilon, worst_large, "exact",
               float(worst_large) >= 1 - epsilon - 1e-15, coverage=coverage)
    report.add("bound-vs-transport", "certified bounds dominate transports",
               "bounds", "ok" if agree_ok else "violated", "exact", agree_ok)

    if f_symbols is not None:
        worst_g_small, worst_g_large = (rounded(max(g_small), exact),
                                        rounded(max(g_large), exact))
        report.add("function-small", "||C^k g||_1 <= eps for k <= kappa d",
                   epsilon, worst_g_small, "exact",
                   float(worst_g_small) <= epsilon + 1e-15, coverage=coverage)
        report.add("function-close", "||C^(n+k) g - C^k f||_1 <= eps",
                   epsilon, worst_g_large, "exact",
                   float(worst_g_large) <= epsilon + 1e-15, coverage=coverage)
    report.objects.update(B=B, B_prime=B_prime, D=D, shifted=shifted, N=N,
                          n=n_iter, d=d_period, ks=ks)
    return report


# ---------------------------------------------------------------------------
# counting witness for upper-density frequent hypercyclicity
# ---------------------------------------------------------------------------

def ufhc_count(spec: SystemSpec, epsilon: float, kappa_param=Fraction(1, 5),
               horizon: int = 200, B: Optional[DepthSet] = None,
               n_iter: Optional[int] = None,
               count_window: Optional[int] = None) -> WitnessReport:
    """Count iterates whose pullback of B nearly fills the space.

    Without a supplied B, scans for a depth where the tilted-interval
    inequality holds alongside the split pair and uses that cylinder.  The
    achieved count fraction is compared against kappa/(1+kappa).
    """
    kappa_param = Fraction(kappa_param)
    report = WitnessReport(construction="ufhc-count",
                           params={"epsilon": epsilon, "kappa": kappa_param})
    if B is None:
        delta_target = epsilon / 2
        found = None
        for i in range(2, horizon + 1):
            gval, D, j = gamma_witness(spec, i)
            if 1 - float(gval) >= delta_target:
                continue
            tilt = tilted_mass(spec, i, j, kappa_param)
            if float(tilt) < delta_target:
                found = (i, D, j, tilt)
                break
        if found is None:
            raise HypothesisUnavailable(
                "no depth satisfied the tilted-interval inequality")
        i, D, j, tilt = found
        shifted = frozenset((x + j) % spec.m(i) for x in D)
        B = DepthSet.cylinder(spec, i, {i: shifted})
        n_iter = j * spec.radix_weights(i)[i - 1]
        report.params.update(depth=i, j=j, n=n_iter)
        report.add("tilted-interval", "interval mass < eps/2", delta_target,
                   tilt, "exact", float(tilt) < delta_target)
        mu_b = set_measure(spec, B)
        report.add("set-small", "mu(B) <= eps", epsilon, mu_b, "exact",
                   float(mu_b) <= epsilon + 1e-15)
    if n_iter is None:
        raise ValueError("n_iter is required when B is supplied")
    if any(f is not None for f in B.factors[:-1]):
        raise ValueError("the counted B may fix only its last coordinate")
    m_count = count_window or math.ceil((1 + kappa_param) * n_iter)
    # B fixes coordinate i to S.  With k = a + b M (M = M_i on the odometer,
    # 1 on the translation) mu(map^-k B) = (1 - c(a)) mu_i(S - b) + c(a)
    # mu_i(S - b - 1), c(a) the carry into i: it has period M m_i in k and is
    # monotone in a, so a block's passing a's are a prefix or a suffix.  The
    # count bisects at most m_i + 1 blocks, one transport through B per call.
    i = B.depth
    M = spec.radix_weights(i)[i - 1] if spec.kind == ODOMETER else 1
    charge_work((spec.m(i) + 2) * (2 + M.bit_length()) * i, "ufhc count",
                "transport steps")
    rows, exact = spec.weight_rows(i)

    @functools.cache
    def fills(k: int) -> bool:
        back = rounded(chain_measure(spec, None, B.factors, k, rows), exact)
        return float(1 - back) <= epsilon + 1e-15

    def block(start: int, size: int) -> int:
        lo, hi = start, start + size - 1
        first = fills(lo)
        if fills(hi) == first:
            return size if first else 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fills(mid) == first else (lo, mid)
        return hi - start if first else start + size - hi

    # k in [0, m_count] is q whole periods of m_i blocks and r more
    q, r = divmod(m_count + 1, M * spec.m(i))
    whole = [block(b * M, M) for b in range(spec.m(i) if q else r // M)]
    rest = block(r - r % M, r % M) if r % M else 0
    count = q * sum(whole) + sum(whole[:r // M]) + rest - fills(0)
    achieved = Fraction(count, m_count)
    predicted = kappa_param / (1 + kappa_param)
    slack = Fraction(2, m_count)
    report.add("count", "achieved fraction >= kappa/(1+kappa) - slack",
               predicted - slack, achieved, "exact",
               achieved >= predicted - slack, count=count, window=m_count)
    report.add("fraction-sane", "achieved fraction <= 1", 1, achieved,
               "exact", achieved <= 1)
    report.objects.update(B=B, n=n_iter, count=count, window=m_count,
                          achieved=achieved, predicted=predicted)
    return report


# ---------------------------------------------------------------------------
# runaway products (supercyclicity)
# ---------------------------------------------------------------------------

def src_evaluate(spec: SystemSpec, B: DepthSet, n: int) -> dict:
    """The runaway product mu(map^n(B)) * mu(map^-n(B)), exactly."""
    fwd = forward_image_measure(spec, B, n)
    back = preimage_measure(spec, B, n)
    return {"forward": fwd, "backward": back, "product": fwd * back}


def _cylinder_candidates(spec: SystemSpec, i: int):
    """Prefix intervals, suffix intervals and the optimal-drop set at one site."""
    m = spec.m(i)
    for t in range(1, m):
        yield frozenset(range(t))            # prefix interval
        yield frozenset(range(t, m))         # suffix interval
    _, D, _ = theta_witness(spec, i)
    if D:
        yield D


def src_search(spec: SystemSpec, epsilon: float, depth_horizon: int = 8,
               iterate_horizon: int = 64,
               cell_cap: int = EXHAUSTIVE_CELL_CAP, seed: int = DEFAULT_SEED,
               trials: int = 100_000) -> WitnessReport:
    """Scan the product-cylinder family for a runaway pair (B, n).

    Success requires the complement of B to be small, B to miss its n-th
    image (a cell count of the chain kernel), and the runaway product to
    fall below eps; the two forms are checked independently.  Falls back to
    the concentration witness for odometers (seed, trials and cell_cap drive
    its rungs), and raises NotFoundWithinHorizon when everything fails.
    """
    report = WitnessReport(construction="src-search",
                           params={"epsilon": epsilon,
                                   "depth_horizon": depth_horizon,
                                   "iterate_horizon": iterate_horizon})

    def try_pair(B: DepthSet, comp: Scalar, n: int) -> bool:
        if image_overlap(spec, B, n):
            return False
        vals = src_evaluate(spec, B, n)
        if float(vals["product"]) >= epsilon:
            return False
        report.add("complement-small", "mu(complement of B) < eps", epsilon,
                   comp, "exact", True)
        report.add("disjoint", "B misses its n-th image", 0, 0, "exact", True)
        report.add("runaway-product", "mu(map^n B) mu(map^-n B) < eps",
                   epsilon, vals["product"], "exact", True,
                   forward=_fmt(vals["forward"]), backward=_fmt(vals["backward"]))
        report.objects.update(B=B, n=n)
        report.params.update(n=n, depth=B.depth)
        return True

    for depth in range(1, depth_horizon + 1):
        # 2 m_d - 1 candidates, each a cylinder over every symbol of 1..depth
        charge_work((2 * spec.m(depth) - 1)
                    * sum(spec.m(i) for i in range(1, depth + 1)),
                    f"src scan at depth {depth}", "cylinder symbols")
        for s in _cylinder_candidates(spec, depth):
            B = DepthSet.cylinder(spec, depth, {depth: s})
            comp = 1 - set_measure(spec, B)
            if float(comp) >= epsilon:
                continue
            base = spec.radix_weights(depth)[depth - 1]
            for n in (range(1, iterate_horizon + 1)
                      if spec.kind == TRANSLATION
                      else range(base, base * spec.m(depth), base)):
                if try_pair(B, comp, n):
                    return report
    if spec.kind == ODOMETER:
        try:
            tw = transitivity_witness(spec, epsilon / 3, trials=trials,
                                      seed=seed, cell_cap=cell_cap)
        except StrategyInfeasible:
            tw = None
        if tw is not None and tw.passed:
            mu_b = tw.objects["mu_b"]
            comp = 1 - mu_b
            product_bound = comp  # image of B avoids B, so mu(image) <= comp
            report.add("complement-small", "mu(complement of B) < eps",
                       epsilon, comp, "independence-product",
                       float(comp) < epsilon)
            inner = tw.check("disjoint")
            report.add("disjoint", "B misses its k-th image", 0,
                       inner.computed, inner.method, inner.ok, **inner.extras)
            report.add("runaway-product", "product < eps (via disjointness)",
                       epsilon, product_bound, "proof-bound",
                       float(product_bound) < epsilon)
            report.objects.update(inner=tw, n=tw.objects["k"])
            report.params.update(n=tw.objects["k"], route="transitivity")
            if report.passed:
                return report
    raise NotFoundWithinHorizon(
        "no candidate earned the runaway product below eps")


# ---------------------------------------------------------------------------
# translation-side witnesses
# ---------------------------------------------------------------------------

def _infinite_order(spec: SystemSpec):
    """Every translation witness needs a translation of infinite order."""
    if spec.kind != TRANSLATION:
        raise ValueError("translation witness on a non-translation spec")
    order = spec.alphabet.bounded_lcm()
    if order is not None:
        raise HypothesisUnavailable(
            f"degenerate: the translation has finite order {order} "
            "(bounded alphabets), every witness family fails")


def _candidate_shifts(m: int) -> list:
    """Small set of shifts worth trying at one site (kept in [1, m-1])."""
    cands = {1, 2, m - 1, m // 2, m // 3, m // 5, m // 8,
             m - m // 3, m - m // 5}
    if m <= 64:
        cands.update(range(1, m))
    return sorted(c for c in cands if 1 <= c <= m - 1)


def single_site_witness(spec: SystemSpec, epsilon: float = 0.1,
                        horizon: int = 24) -> WitnessReport:
    _infinite_order(spec)
    report = WitnessReport(construction="translation-single-site",
                           params={"epsilon": epsilon, "horizon": horizon})
    for i in range(1, horizon + 1):
        m = spec.m(i)
        # the first shift of largest value; only its set is built
        n = max(_candidate_shifts(m), key=lambda n: alpha_shift(spec, i, n))
        val, D = alpha_shift_witness(spec, i, n)
        if float(val) < 1 - epsilon:
            continue
        shifted = frozenset((x + n) % m for x in D)
        B = DepthSet.cylinder(spec, i, {i: shifted})
        report.params.update(site=i, n=n)
        report.add("site-mass", "mu_i(D) >= 1 - eps", 1 - epsilon, val,
                   "exact", True)
        overlap = D & shifted
        report.add("site-disjoint", "(D + n) misses D", 0, len(overlap),
                   "exact", len(overlap) == 0)
        back = preimage_measure(spec, B, n)
        report.add("pullback-large", "mu(t^-n(B)) >= 1 - eps", 1 - epsilon,
                   back, "exact", float(back) >= 1 - epsilon - 1e-12)
        mu_b = set_measure(spec, B)
        report.add("set-small", "mu(B) <= eps", epsilon, mu_b, "exact",
                   float(mu_b) <= epsilon + 1e-12)
        report.objects.update(B=B, D=D, site=i, n=n)
        return report
    raise HypothesisUnavailable(
        f"no site <= {horizon} reaches shift-disjoint mass 1 - eps")


def translation_hoeffding_witness(spec: SystemSpec, sites: Sequence[int],
                                  n: int, epsilon: float = 0.25) -> WitnessReport:
    """Threshold witness across several sites for one common shift n."""
    _infinite_order(spec)
    report = WitnessReport(construction="translation-hoeffding",
                           params={"sites": list(sites), "n": n,
                                   "epsilon": epsilon})
    pairs = []
    drops = []
    for i in sites:
        m = spec.m(i)
        val, D, _ = theta_witness(spec, i, shift=n % m)
        pairs.append(_pair_law(spec, i, D, frozenset((x + n) % m for x in D)))
        drops.append(val)
    drop_total = sum(drops[1:], drops[0])
    report.add("separation", "total drop > 0 (forces disjointness)", 0,
               drop_total, "exact", float(drop_total) > 0)
    n_sites = len(pairs)
    floor = 1 - 2 * math.exp(-(2.0 / (9 * n_sites)) * float(drop_total) ** 2)
    t_x, t_y, ux_min, uy_max = _thresholds(pairs, drops)
    mu_b = _concentration_mass(pairs, ux_min, uy_max)
    report.add("mass-vs-floor", "exact mu(B) >= concentration floor", floor,
               mu_b, "independence-product", float(mu_b) >= floor - 1e-12)
    report.add("mass-target", "mu(B) >= 1 - 2 eps", 1 - 2 * epsilon, mu_b,
               "independence-product", float(mu_b) >= 1 - 2 * epsilon - 1e-12)
    report.objects.update(thresholds=(t_x, t_y), mu_b=mu_b, pairs=pairs,
                          floor=floor)
    return report


def fhcsum_witness(spec: SystemSpec, epsilon: float = 0.2,
                   horizon: int = 16) -> WitnessReport:
    """Flipped per-site pullback family: big for a sixth of the order, then small."""
    _infinite_order(spec)
    report = WitnessReport(construction="translation-fhcsum",
                           params={"epsilon": epsilon, "horizon": horizon})
    for i in range(3, horizon + 1):
        m = spec.m(i)
        n_i = m // 5
        if n_i < 1:
            continue
        head = m - 2 * n_i
        D = range(head, m)    # middle ramp plus tail block
        mass = spec.interval_measure(i, head, m - 1)
        if float(mass) < 1 - epsilon:
            continue
        budget = m // 6
        charge_work(2 * (budget + 1), f"fhcsum shifts at site {i}",
                    "interval sums")
        ok_big = ok_small = True
        worst_big, worst_small = None, None
        for k in range(0, budget + 1):
            big = _shifted_interval_measure(spec, i, head - k, m - 1 - k)
            small = _shifted_interval_measure(spec, i, head - 2 * n_i - k,
                                              m - 1 - 2 * n_i - k)
            if worst_big is None or big < worst_big:
                worst_big = big
            if worst_small is None or small > worst_small:
                worst_small = small
            ok_big &= float(big) >= 1 - epsilon - 1e-12
            ok_small &= float(small) <= epsilon + 1e-12
        report.params.update(site=i, ramp=n_i, budget=budget)
        report.add("pullback-large", "mu_i(D - k) >= 1 - eps for k <= m/6",
                   1 - epsilon, worst_big, "exact", ok_big)
        report.add("pushed-small", "mu_i(D - 2n - k) <= eps for k <= m/6",
                   epsilon, worst_small, "exact", ok_small)
        report.objects.update(site=i, D=D)
        return report
    raise HypothesisUnavailable(
        f"no site <= {horizon} carries enough ramp mass for eps={epsilon}")


def _shifted_interval_measure(spec: SystemSpec, i: int, lo: int, hi: int) -> Scalar:
    """Measure of an integer interval taken mod m_i (split on wrap)."""
    m = spec.m(i)
    lo_m, hi_m = lo % m, hi % m
    if hi - lo + 1 >= m:
        return spec.interval_measure(i, 0, m - 1)
    if lo_m <= hi_m:
        return spec.interval_measure(i, lo_m, hi_m)
    return (spec.interval_measure(i, 0, hi_m)
            + spec.interval_measure(i, lo_m, m - 1))


def ufhcsum_witness(spec: SystemSpec, block: int,
                    epsilon: float = 0.2) -> WitnessReport:
    """Counting witness along the even iterates, of upper density 1/2.

    Uses the block structure m_i = 3 * 2^i: the top third pulls entirely into
    the flat two thirds for every k in [2^block, 2^(block+1)].
    """
    _infinite_order(spec)
    i = block
    m = spec.m(i)
    n_i = m // 3
    D = range(2 * n_i, m)
    report = WitnessReport(construction="translation-ufhcsum",
                           params={"block": block, "epsilon": epsilon,
                                   "along": "evens", "site": i})
    mass = spec.interval_measure(i, 2 * n_i, m - 1)
    report.add("set-large", "mu_i(D) >= 1 - eps", 1 - epsilon, mass, "exact",
               float(mass) >= 1 - epsilon - 1e-12)
    window = 2 * n_i
    charge_work(window, f"ufhcsum shifts at site {i}", "interval sums")
    hits = []
    for k in range(2, window + 1, 2):
        pulled = _shifted_interval_measure(spec, i, 2 * n_i - k, m - 1 - k)
        if float(pulled) <= epsilon + 1e-12:
            hits.append(k)
    density_lower = Fraction(len(hits), window)
    target = Fraction(1, 4)
    report.add("count", "hit fraction >= density/2 of the driving set",
               target, density_lower, "exact", density_lower >= target)
    report.objects.update(D=D, hits=hits, window=window)
    return report


# ---------------------------------------------------------------------------
# weighted-shift witness on a finite window
# ---------------------------------------------------------------------------

def shift_fhc_witness(spec: SystemSpec, kappa_param=0.15, d: int = 200,
                      n: Optional[int] = None,
                      window: int = 600) -> WitnessReport:
    """Block-union witness for the shift: misses F for kd steps, covers it after n.

    All sets are finite integer sets inside [-window, window]; every check is
    exact integer set algebra.  WindowTooSmall fires when a translate leaves
    the window.
    """
    if spec.kind != SHIFT:
        raise ValueError("this witness drives the weighted shift")
    kappa_f = float(kappa_param)
    if not 0 < kappa_f < Fraction(1, 6):
        raise ValueError("kappa must lie in (0, 1/6)")
    kd = math.floor(kappa_f * d)
    if n is None:
        n = math.floor(3.5 * kappa_f * d)
    if not (3 * kappa_f * d <= n <= 4 * kappa_f * d):
        raise ValueError("n must lie in [3 kappa d, 4 kappa d]")
    lo = -SHIFT_F_RADIUS if spec.index_set == "Z" else 0
    F = set(range(lo, SHIFT_F_RADIUS + 1))
    E = set()
    for k in range(kd + 1):
        E |= {x + k + n for x in F}
    needed = max(abs(min(E) - d), abs(max(E) + d), SHIFT_F_RADIUS + n + kd)
    if needed > window:
        raise WindowTooSmall(f"window {window} < needed range {needed}")
    shells = range(-((window + d) // d), (window + d) // d + 1)
    B = set()
    for l in shells:
        B |= {x - l * d for x in E}
    B = {x for x in B if -window <= x <= window}
    if spec.index_set == "Z+":
        B = {x for x in B if x >= 0}

    report = WitnessReport(construction="shift-fhc",
                           params={"kappa": kappa_param, "d": d, "n": n,
                                   "f_radius": SHIFT_F_RADIUS,
                                   "window": window})
    comp_mass = 1 - sum((spec.nu(x) for x in F),
                        Fraction(0)) / spec.shift_weights.total(spec.index_set)
    report.add("core-covers", "F carries most of the mass", "context",
               comp_mass, "exact", True, note="mu(complement of F)/mu(total)")
    miss_ok = cover_ok = True
    for k in range(kd + 1):
        pulled = {x - k for x in B}
        if pulled & F:
            miss_ok = False
        shifted_f = {x + n + k for x in F}
        if not shifted_f <= B:
            cover_ok = False
    report.add("miss", "B - k misses F for 0 <= k <= kappa d", 0,
               0 if miss_ok else "overlap", "exact", miss_ok)
    report.add("cover", "F + n + k sits inside B for 0 <= k <= kappa d",
               "subset", "ok" if cover_ok else "violated", "exact", cover_ok)
    lo_edge = 0 if spec.index_set == "Z+" else -window
    period_free = all((x + d in B or x + d > window)
                      and (x - d in B or x - d < lo_edge) for x in B)
    report.add("periodic", "B is d-periodic inside the window", "periodic",
               "ok" if period_free else "violated", "exact", period_free)
    report.objects.update(B=B, E=E, F=F, kd=kd)
    return report


# ---------------------------------------------------------------------------
# rigidity probe (translation with nested block structure)
# ---------------------------------------------------------------------------

def rigidity_probe(spec: SystemSpec, max_i: int = 8, cylinder_depth: int = 6,
                   registered_log_k: float = 1.0) -> WitnessReport:
    """Certified power bounds along the alphabet subsequence.

    For each i: shifting by m_{i-1} fixes every depth <= i-1 basic cylinder
    (divisibility, a complete symbolic check), and the pullback of every
    depth <= cylinder_depth basic cylinder grows by at most K, verified
    through the product of per-coordinate sup ratios (sup over all such
    cylinders factorizes exactly).
    """
    if spec.kind != TRANSLATION:
        raise ValueError("the rigidity probe drives diagonal translations")
    K = math.exp(registered_log_k)
    report = WitnessReport(construction="rigidity",
                           params={"max_i": max_i,
                                   "cylinder_depth": cylinder_depth,
                                   "K": K})
    for i in range(2, max_i + 1):
        s = spec.m(i - 1)
        divisible = all(s % spec.m(j) == 0 for j in range(1, i))
        report.add(f"fixes-depth-{i - 1}-cylinders@i={i}",
                   "m_{i-1} is a multiple of every earlier m_j (so the shift "
                   "fixes all their cylinders)", "divisible",
                   "ok" if divisible else "violated", "exact", divisible)
        sup_prod = 1.0
        per_coord = []
        for j in range(1, cylinder_depth + 1):
            r = float(spec.sup_shift_ratio(j, s % spec.m(j)))
            per_coord.append(r)
            sup_prod *= r
        report.add(f"power-bound@i={i}",
                   "sup over depth-cylinders of mu(t^-m_{i-1} B)/mu(B) <= K",
                   K, sup_prod, "exact", sup_prod <= K * (1 + 1e-9),
                   per_coordinate=per_coord)
        order_fix = all(spec.m(i) % spec.m(j) == 0 for j in range(1, i + 1))
        report.add(f"rigid-step@i={i}",
                   "t^{m_i} fixes every depth <= i cylinder", "divisible",
                   "ok" if order_fix else "violated", "exact", order_fix)
    return report
