"""Closed forms and brute forces that the benchmark checks odolab against.

Nothing here imports odolab.  Each weight formula is transcribed from the
system's definition (README gallery table and the measure docstrings), and
each optimum is recomputed by a method other than the program's own: bitmask
enumeration, a carry-probability recursion, or a closed form.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EXACT_RAMP_CAP = 512     # ramps up to this length are defined in exact rationals


# ---------------------------------------------------------------------------
# per-coordinate weights
# ---------------------------------------------------------------------------

def binary_alpha_weights(i: int, alpha: str):
    """(1/2 + p_i, 1/2 - p_i), p_i = i^-alpha halved until it is below 1/2."""
    a = Fraction(alpha)
    if a.denominator == 1:
        p, half = Fraction(1, i ** a.numerator), Fraction(1, 2)
    else:
        p, half = float(i) ** (-float(a)), 0.5
    while p >= half:
        p = p / 2
    return (half + p, half - p)


def fhc_binary_weights(i: int):
    return (Fraction(i, i + 1), Fraction(1, i + 1))


def fhc_not_mixing_weights(i: int):
    """Blocks of three: (k/(k+1), 1/(k+1)) twice, then (1/2, 1/2); block 0 uniform."""
    half = (Fraction(1, 2), Fraction(1, 2))
    if i <= 3:
        return half
    k, r = divmod(i - 1, 3)
    return half if r == 2 else (Fraction(k, k + 1), Fraction(1, k + 1))


def tent_weights(m: int):
    """hc-not-mixing: weights proportional to 2^-(distance from the middle)."""
    if m == 2:
        return (Fraction(2, 3), Fraction(1, 3))
    if m % 2 == 0:
        b = m // 2
        raw = [Fraction(1, 2 ** (b - 1 - j)) for j in range(b)]
        raw += [Fraction(1, 2 ** (j - b)) for j in range(b, m)]
    else:
        b = (m - 1) // 2
        raw = [Fraction(1, 2 ** abs(j - b)) for j in range(m)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def ornstein_weights(i: int):
    return (Fraction(1, 2),) + (Fraction(1, 2 * i),) * i


def ramp_weights(m: int, n: int, delta: Fraction):
    """Tail layout: flat eps on [0, m-n), then rho^(n-1) eps down to eps.

    rho = 1 + delta and (m - n) eps + eps (rho^n - 1)/delta = 1.  Only used
    on ramps short enough to be exact.
    """
    rho = 1 + delta
    eps = 1 / (Fraction(m - n) + (rho ** n - 1) / delta)
    return tuple([eps] * (m - n) + [eps * rho ** (n - 1 - t) for t in range(n)])


def ramp_eta_delta(m: int, n: int, delta: Fraction):
    """(max, min) weight of a ramp coordinate: exact up to EXACT_RAMP_CAP,
    floats in log space beyond, as the system defines them."""
    if n <= EXACT_RAMP_CAP:
        rho = 1 + delta
        eps = 1 / (Fraction(m - n) + (rho ** n - 1) / delta)
        return eps * rho ** (n - 1), eps
    lr = math.log1p(float(delta))
    eps = 1.0 / ((m - n) + math.expm1(n * lr) / float(delta))
    return eps * math.exp((n - 1) * lr), eps


def trans_hc_coordinate(i: int):
    """(m, ramp length, delta) of trans-hc: m = 2^i, tail ramp of m/2, delta = i^-2."""
    m = 2 ** i
    return m, m // 2, Fraction(1, i * i)


def trans_hufhc_coordinate(i: int):
    m = 3 * 2 ** i
    return m, m // 3, Fraction(1, i * i)


def hoeffbis_coordinate(i: int):
    """m = 2^(l+1) on l^2 <= i < (l+1)^2; tail ramp of m/2 with delta = 1/ramp."""
    l = max(math.isqrt(i), 1)
    m = 2 ** (l + 1)
    return m, m // 2, Fraction(1, m // 2)


def trans_rigid_m(i: int) -> int:
    return 4 ** (i * (i + 1) // 2)


# ---------------------------------------------------------------------------
# optima on one coordinate
# ---------------------------------------------------------------------------

def theta_shift(w, k: int):
    """sum_j max(w_j - w_{j+k mod m}, 0)."""
    m = len(w)
    return sum((max(w[j] - w[(j + k) % m], 0) for j in range(m)), 0 * w[0])


def theta_max(w):
    return max(theta_shift(w, k) for k in range(1, len(w)))


def _cycle_mwis(vals):
    """Max-weight independent set on a cycle, by two linear take/skip scans."""
    def path(xs):
        take, skip = None, 0 * vals[0]
        for x in xs:
            take, skip = skip + x, max(skip, take) if take is not None else skip
        return skip if take is None else max(take, skip)
    if len(vals) == 1:
        return 0 * vals[0]
    if len(vals) == 2:
        return max(vals)
    return max(path(vals[1:]), vals[0] + path(vals[2:-1]))


def alpha_shift(w, n: int):
    """Max mu(D) with (D + n) mod m disjoint from D, summed over the shift cycles."""
    m = len(w)
    r = n % m
    if r == 0:
        return 0 * w[0]
    total = 0 * w[0]
    for s in range(math.gcd(r, m)):
        cyc, x = [], s
        while True:
            cyc.append(w[x])
            x = (x + r) % m
            if x == s:
                break
        total = total + _cycle_mwis(cyc)
    return total


def gamma_tilde(thetas):
    """max over t of (sum of the t largest drops)^2 / t."""
    best, run = 0 * thetas[0], 0 * thetas[0]
    for t, v in enumerate(sorted(thetas, reverse=True), start=1):
        run = run + v
        best = max(best, run * run / t)
    return best


def _subset_sums(w):
    """(integer subset sums over all 2^m masks, common denominator)."""
    q = math.lcm(*(Fraction(x).denominator for x in w))
    sums = np.zeros(1, dtype=np.int64 if q < 1 << 62 else object)
    for x in w:
        sums = np.concatenate([sums, sums + int(Fraction(x) * q)])
    return sums, q


def brute_force_optima(w):
    """kappa, gamma and beta of one exact weight vector by enumerating all subsets.

    kappa = min_j max{mu(D) : D, D + j disjoint under integer addition};
    gamma = max_{j, D} min(mu(D), 1 - mu(D + j mod m));
    beta  = max_r max{mu(D) : D, D + r mod m disjoint}.
    """
    m = len(w)
    sums, q = _subset_sums(w)
    masks = np.arange(1 << m, dtype=np.int64)
    full = (1 << m) - 1
    kappa = gamma = beta = None
    for j in range(1, m):
        best = sums[(masks & (masks << j)) == 0].max()
        kappa = best if kappa is None else min(kappa, best)
        rot = ((masks << j) | (masks >> (m - j))) & full
        g = np.minimum(sums, q - sums[rot]).max()
        gamma = g if gamma is None else max(gamma, g)
        b = sums[(masks & rot) == 0].max()
        beta = b if beta is None else max(beta, b)
    return Fraction(int(kappa), q), Fraction(int(gamma), q), Fraction(int(beta), q)


def top_interval(w, kappa, m_next: int):
    """Mass of the top interval of width kappa * m * m_next symbols."""
    m = len(w)
    lo = max(0, math.ceil(Fraction(m - 1) - Fraction(kappa) * m * m_next))
    return sum(w[lo:], 0 * w[0])


# ---------------------------------------------------------------------------
# transports and cylinders on binary odometers
# ---------------------------------------------------------------------------

def binary_pullback(p1, depth: int, target: frozenset, k: int) -> Fraction:
    """mu{x : digit `depth` of (x + k) lies in target} on a binary odometer.

    p1(i) is the probability of digit 1 at coordinate i.  The carry into
    coordinate i+1 is set when x_i + k_i + c_i >= 2, and x_i is independent of
    the carry c_i, so the carry probability follows a one-line recursion.
    """
    carry = Fraction(0)
    for i in range(1, depth):
        ki = (k >> (i - 1)) & 1
        q1 = p1(i)
        carry = 1 - (1 - q1) * (1 - carry) if ki else q1 * carry
    kd = (k >> (depth - 1)) & 1
    q1 = p1(depth)
    mass = Fraction(0)
    for x, px in ((0, 1 - q1), (1, q1)):
        for c, pc in ((0, 1 - carry), (1, carry)):
            if (x + kd + c) % 2 in target:
                mass += px * pc
    return mass


def cylinder_orbit_distances(weights, f_sym, g_sym, horizon: int):
    """||C^n 1_[f] - 1_[g]||_1 for n = 1..horizon on an odometer.

    C^n 1_[f] is the indicator of the cylinder whose index is (f - n) mod M,
    M the product of the first len(f) alphabet sizes; two distinct cylinders
    of one length are disjoint.
    """
    sizes = [len(w) for w in weights]
    radix = [1]
    for m in sizes:
        radix.append(radix[-1] * m)
    M = radix[-1]

    def index(sym):
        return sum(s * r for s, r in zip(sym, radix))

    def mass(idx):
        out = Fraction(1)
        for w, m in zip(weights, sizes):
            idx, d = divmod(idx, m)
            out *= w[d]
        return out

    f_idx, g_idx = index(f_sym), index(g_sym)
    out = []
    for n in range(1, horizon + 1):
        c = (f_idx - n) % M
        out.append(Fraction(0) if c == g_idx else mass(c) + mass(g_idx))
    return out, M
