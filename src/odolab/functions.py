"""Simple functions under composition: exact norms, periods, orbit statistics.

Everything testable lives in the span of cylinder indicators, so functions are
finite value tables over a truncation and composition is a permutation of the
table.  Rational specs give exact p-th powers of norms; the norms themselves
are exposed as float enclosures since p-th roots are irrational.
`cylinder_orbit` needs no table: ||C^n 1_F - 1_G||_p^p is mu(map^-n F) +
mu(G) - 2 mu(G and map^-n F), three exact chains on the integer weight rows
(float weights at their binary values), combined and then rounded once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .maps import InducedBijection, chain_measure, image_overlap, rounded
from .scalars import Scalar, format_scalar, integer_view, is_exact
from .space import (DepthSet, SimpleFunction, SystemSpec, TruncatedSpace,
                    build_truncation, float_quotients)


def apply_composition(spec: SystemSpec, f: SimpleFunction, n: int = 1) -> SimpleFunction:
    """(C^n f)(x) = f(map^n x): pull values back along the induced bijection.

    Values held in a NumPy array are pulled as an array, a tuple as a tuple.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f
    import numpy as np
    index = InducedBijection(spec, f.depth).forward(np.arange(len(f.values)), n)
    if isinstance(f.values, np.ndarray):
        return SimpleFunction(spec=spec, depth=f.depth, values=f.values[index])
    pulled = np.array(f.values, dtype=object)[index]
    return SimpleFunction(spec=spec, depth=f.depth, values=tuple(pulled))


def _scaled_values(values) -> tuple:
    """(nums, scale) with v = nums / scale: exact values as integer_view's
    numerators, int64 when they stay below 2**62 in size, so that differences
    of two such arrays fit, Python ints otherwise; values that include a
    float as a float64 array of float(v), with scale None.  Each distinct
    value object is converted once.
    """
    import numpy as np
    values = tuple(values)
    index = {}      # id of each distinct value object -> its row of the table
    at = np.fromiter((index.setdefault(id(v), len(index)) for v in values),
                     dtype=np.int64, count=len(values))
    distinct = list({id(v): v for v in values}.values())
    view = integer_view(distinct)
    if view is None:
        table, den = np.array([float(v) for v in distinct]), None
    else:
        nums, den = view
        small = max(map(abs, nums)) < 1 << 62
        table = np.array(nums, dtype=np.int64 if small else object)
    return table[at], den


def _lp_pow(tr: TruncatedSpace, nums, scale: Optional[int], p: Scalar) -> Scalar:
    """sum_c |v_c|^p mu(c) over v = nums / scale (nums when scale is None).

    Exact values and measures at an integer p: one integer dot (int64 while
    max|nums|^p times the measure denominator is below 2**63), a Fraction.
    Otherwise float(|v|^p), or |float(v)|^p at a non-integer p, once per
    distinct |v| with Python's `**`, times the float64 cell measures, summed
    by math.fsum where v != 0.  An empty support is Fraction(0).
    """
    import numpy as np
    measures, den = tr.measure_vector()
    pf = float(p)
    ip = int(pf) if pf == int(pf) else None
    if scale is not None and den is not None and ip is not None:
        top = int(np.max(np.abs(nums)))
        small = measures.dtype == np.int64 and top ** ip * den < 1 << 63
        dtype = np.int64 if small else object
        dot = np.dot(np.abs(nums.astype(dtype)) ** ip, measures.astype(dtype))
        return Fraction(int(dot), scale ** ip * den)
    support = nums != 0
    if not support.any():
        return Fraction(0)
    distinct, where = np.unique(np.abs(nums[support]), return_inverse=True)
    s = scale or 1
    powers = [(v / s) ** pf if ip is None else v ** ip / s ** ip
              for v in distinct.tolist()]
    if den is not None:
        measures = float_quotients(measures, den)
    return math.fsum((np.array(powers)[where] * measures[support]).tolist())


def lp_norm_pow(spec: SystemSpec, f: SimpleFunction, p: int = 1) -> Scalar:
    """The exact p-th power of the L_p norm (integer p >= 1)."""
    if p < 1 or int(p) != p:
        raise ValueError("lp_norm_pow needs an integer p >= 1")
    return _lp_pow(build_truncation(spec, f.depth), *_scaled_values(f.values),
                   int(p))


def lp_norm(spec: SystemSpec, f: SimpleFunction, p: Scalar = 1) -> float:
    """Float enclosure of the L_p norm, p in [1, infinity) (rational p ok)."""
    if float(p) < 1:
        raise ValueError("p must be >= 1")
    tr = build_truncation(spec, f.depth)
    return float(_lp_pow(tr, *_scaled_values(f.values), p)) ** (1.0 / float(p))


def lp_distance(spec: SystemSpec, f: SimpleFunction, g: SimpleFunction,
                p: Scalar = 1) -> float:
    return lp_norm(spec, f - g, p)


def period_of(spec: SystemSpec, f: SimpleFunction) -> int:
    """Least d >= 1 with C^d f = f, a divisor of the bijection order: a few
    permutation pulls of _scaled_values' array (of f.values if an array)."""
    import numpy as np
    if not isinstance(f.values, np.ndarray):
        f = SimpleFunction(spec, f.depth, _scaled_values(f.values)[0])
    return _least_period(spec, f.depth, lambda d: np.array_equal(
        apply_composition(spec, f, d).values, f.values))


def _least_period(spec: SystemSpec, depth: int,
                  fixed: Callable[[int], bool]) -> int:
    """Least divisor d of the bijection order (the last one) with fixed(d)."""
    n = InducedBijection(spec, depth).order()
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return next(d for d in sorted({*small, *(n // d for d in small)})
                if fixed(d))


@dataclass
class OrbitTrace:
    """Visit record of the orbit of f against a target g in the eps-ball."""

    spec: SystemSpec
    epsilon: float
    p: Scalar
    horizon: int
    distances: list
    visit_set: list
    running_density: list
    period: int
    tail_density_low: float
    tail_density_high: float

    def to_tsv_rows(self) -> list:
        rows = [("n", "distance", "visited", "running_density")]
        visits = set(self.visit_set)
        for n in range(1, self.horizon + 1):
            rows.append((str(n), format_scalar(self.distances[n - 1]),
                         "1" if n in visits else "0",
                         format_scalar(self.running_density[n - 1])))
        return rows


def _trace(spec: SystemSpec, epsilon: float, p: Scalar, horizon: int,
           lp_pow_at: Callable[[int], Scalar], period: int) -> OrbitTrace:
    """The visit and density loop over lp_pow_at(n) = ||C^n f - g||_p^p."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pf = float(p)
    # the exact ball's radius eps^p, one power per trace
    radius = (Fraction(epsilon) ** int(pf)
              if spec.backend == "rational" and pf == int(pf) else None)
    distances, visit_set, running = [], [], []
    for n in range(1, horizon + 1):
        dpow = lp_pow_at(n)
        dist = float(dpow) ** (1.0 / pf)
        inside = (dpow < radius if radius is not None and is_exact(dpow)
                  else dist < epsilon)
        distances.append(dist)
        if inside:
            visit_set.append(n)
        running.append(Fraction(len(visit_set), n))
    tail = running[horizon // 2:]
    return OrbitTrace(spec=spec, epsilon=epsilon, p=p, horizon=horizon,
                      distances=distances, visit_set=visit_set,
                      running_density=running, period=period,
                      tail_density_low=float(min(tail)),
                      tail_density_high=float(max(tail)))


def orbit_trace(spec: SystemSpec, f: SimpleFunction, g: SimpleFunction,
                epsilon: float, p: Scalar = 1, horizon: int = 64) -> OrbitTrace:
    """Exact visit set {n <= H : ||C^n f - g||_p < eps} with density diagnostics.

    The eps-ball uses strict inequality.  Densities are #(visits in [1, m])/m;
    the tail diagnostics are their extremes over the second half of [1, H].
    f and g become one array over a common scale; each iterate pulls f's
    array back by index arithmetic and sums its difference from g in _lp_pow.
    """
    f._check_compatible(g)
    tr = build_truncation(spec, f.depth)
    nums, scale = _scaled_values((*f.values, *g.values))
    f_nums = SimpleFunction(spec, f.depth, nums[:len(f.values)])
    g_nums = nums[len(f.values):]
    return _trace(spec, epsilon, p, horizon, lambda n: _lp_pow(
        tr, apply_composition(spec, f_nums, n).values - g_nums, scale, p),
        period_of(spec, f if scale is None else f_nums))


def cylinder_orbit(spec: SystemSpec, F: DepthSet, G: DepthSet, epsilon: float,
                   p: Scalar = 1, horizon: int = 64) -> OrbitTrace:
    """orbit_trace of 1_F against 1_G without cells: the three chains run
    on one read of the weight rows and the distance is rounded once, and
    the period is the least d whose cell count finds map^-d F = F.
    build_truncation checks orbit_trace's cap and allocates nothing."""
    if F.depth != G.depth:
        raise ValueError("F and G live on different truncations")
    build_truncation(spec, F.depth)
    rows, exact = spec.weight_rows(F.depth)
    mu_g = chain_measure(spec, None, G.factors, 0, rows)

    def lp_pow_at(n: int) -> Scalar:
        return rounded(chain_measure(spec, None, F.factors, n, rows) + mu_g
                       - 2 * chain_measure(spec, G.factors, F.factors, n, rows),
                       exact)

    size = image_overlap(spec, F, 0)
    return _trace(spec, epsilon, p, horizon, lp_pow_at, _least_period(
        spec, F.depth, lambda d: image_overlap(spec, F, d) == size))


# ---------------------------------------------------------------------------
# indicator norms in Orlicz-type spaces
# ---------------------------------------------------------------------------

@dataclass
class MonotoneGauge:
    """A strictly increasing scalar gauge with a known inverse.

    Used only through the indicator-norm formula; `threshold` is the point
    past which the gauge is strictly increasing (inverse defined beyond
    gauge(threshold)).
    """

    name: str
    fn: Callable[[float], float]
    inverse: Callable[[float], float]
    threshold: float = 0.0


def power_gauge(p: float) -> MonotoneGauge:
    return MonotoneGauge(name=f"power-{p}", fn=lambda t: t ** p,
                         inverse=lambda y: y ** (1.0 / p))


def exp_minus_one_gauge() -> MonotoneGauge:
    return MonotoneGauge(name="exp-minus-one", fn=lambda t: math.expm1(t),
                         inverse=lambda y: math.log1p(y))


def orlicz_indicator_norm(gauge: MonotoneGauge, mu_e: float) -> float:
    """Norm of an indicator of measure mu_e: 1 / inverse(1 / mu_e)."""
    if not 0 < mu_e <= 1:
        raise ValueError("the set measure must lie in (0, 1]")
    y = 1.0 / mu_e
    if y < gauge.fn(gauge.threshold):
        raise ValueError("gauge inverse undefined at 1/mu_e")
    inv = gauge.inverse(y)
    if inv <= 0:
        raise ValueError("gauge inverse must be positive")
    return 1.0 / inv
