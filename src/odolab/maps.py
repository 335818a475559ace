"""The three symbol maps, their truncated bijections and exact transports.

On a depth-N truncation in little-endian mixed radix the odometer is literally
"+1 mod M_{N+1}" on cell indices, and its k-th iterate is "+k".  The diagonal
translation adds 1 to every digit independently.  Transports of depth sets
never enumerate cells: through odometer iterates a two-state carry chain
suffices, since the probability of reaching digit i with a pending carry is
all the process needs to remember, and the translation is the same loop
without a carry; mu(S) itself is the chain at n = 0.  It runs on integer
rows, float weights at their exact binary values, and rounds a float spec's
mass once.  On rows of ones it counts cells.  The chain is a pass that can
stop after any coordinate and resume, so transports that share a prefix run
it once; a coordinate both sets leave free costs slice sums, not a loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

from .errors import CapExceeded, CarryOverflow, UnresolvedTail
from .scalars import Scalar, format_scalar
from .space import (ODOMETER, SHIFT, TRANSLATION, DepthSet, SystemSpec,
                    build_truncation)


# ---------------------------------------------------------------------------
# odometer arithmetic on finite prefixes
# ---------------------------------------------------------------------------

@dataclass
class AddResult:
    digits: tuple
    carry_out: bool


def odometer_add(spec: SystemSpec, x: Sequence[int], k: int,
                 strict: bool = False) -> AddResult:
    """x boxplus (digits of k), with carry propagation to the right.

    The tail of x beyond the prefix is unconstrained; a carry leaving the
    prefix is reported via `carry_out` (or CarryOverflow when strict).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    depth = len(x)
    ms = [spec.m(i) for i in range(1, depth + 1)]
    digits = list(x)
    rem = k
    carry = 0
    for i, m in enumerate(ms):
        rem, d = divmod(rem, m)
        t = digits[i] + d + carry
        carry = 1 if t >= m else 0
        digits[i] = t % m
    carry_out = bool(carry) or rem > 0
    if strict and carry_out:
        raise CarryOverflow(
            f"adding {k} at depth {depth} carries past the prefix")
    return AddResult(digits=tuple(digits), carry_out=carry_out)


def odometer_step(spec: SystemSpec, x: Sequence[int]) -> AddResult:
    """Single application of the adding map (k = 1)."""
    return odometer_add(spec, x, 1)


def preimage_cylinder(spec: SystemSpec, symbols: Sequence[int]) -> tuple:
    """Symbols of the basic cylinder mapped onto [x_1..x_n] by one step.

    All-zero prefixes pull back to the all-(m_i - 1) cylinder; otherwise the
    first nonzero digit drops by one and everything before it tops out.
    """
    if spec.kind != ODOMETER:
        raise ValueError("preimage_cylinder is an odometer operation")
    ms = [spec.m(i) for i in range(1, len(symbols) + 1)]
    if any(not 0 <= s < m for s, m in zip(symbols, ms)):
        raise ValueError("symbol out of range")
    out = list(symbols)
    for i, s in enumerate(symbols):
        if s > 0:
            for r in range(i):
                out[r] = ms[r] - 1
            out[i] = s - 1
            return tuple(out)
    return tuple(m - 1 for m in ms)


def rn_derivative(spec: SystemSpec, x: Sequence[int]) -> Scalar:
    """Density of the image measure at a resolved prefix.

    h(x) = prod_{i<l} mu_i(m_i-1)/mu_i(x_i) * mu_l(x_l - 1)/mu_l(x_l), where
    l is the position of the first nonzero digit.  An all-zero prefix leaves
    l unresolved, so the value would depend on deeper coordinates.
    """
    if spec.kind != ODOMETER:
        raise ValueError("rn_derivative is an odometer operation")
    l = None
    for i, s in enumerate(x, start=1):
        if s != 0:
            l = i
            break
    if l is None:
        raise UnresolvedTail("all-zero prefix: deepen to resolve the density")
    h = None
    for i in range(1, l):
        r = spec.mu_weight(i, spec.m(i) - 1) / spec.mu_weight(i, x[i - 1])
        h = r if h is None else h * r
    top = spec.mu_weight(l, x[l - 1] - 1) / spec.mu_weight(l, x[l - 1])
    return top if h is None else h * top


# ---------------------------------------------------------------------------
# induced bijections of truncations
# ---------------------------------------------------------------------------

@dataclass
class InducedBijection:
    """The permutation a symbol map induces on the depth-N cells."""

    spec: SystemSpec
    depth: int

    def __post_init__(self):
        if self.spec.kind == SHIFT:
            raise ValueError("weighted shifts act on a countable space, not a truncation")
        self._radix = self.spec.radix_weights(self.depth)
        self._ms = tuple(self.spec.m(i) for i in range(1, self.depth + 1))

    @property
    def cell_count(self) -> int:
        return self._radix[-1]

    def forward(self, cell, n: int = 1):
        """Index of (map^n)(cell); `cell` may be a NumPy array of indices.

        The odometer rotates the indices by n; the translation adds n to
        every digit independently.
        """
        if self.spec.kind == ODOMETER:
            M = self.cell_count
            return (cell + n % M) % M
        out = 0
        for m, w in zip(self._ms, self._radix):
            cell, d = divmod(cell, m)
            out += ((d + n % m) % m) * w
        return out

    def inverse(self, cell, n: int = 1):
        return self.forward(cell, -n)

    def as_permutation(self, n: int = 1) -> list:
        import numpy as np
        return self.forward(np.arange(self.cell_count), n).tolist()

    def order(self) -> int:
        """Least d >= 1 with map^d = identity on the truncation."""
        if self.spec.kind == ODOMETER:
            return self.cell_count
        return math.lcm(*self._ms)


# ---------------------------------------------------------------------------
# exact transports of depth sets
# ---------------------------------------------------------------------------

def chain_measure(spec: SystemSpec, source: Optional[Sequence],
                  target: Sequence, n: int,
                  rows: Optional[list] = None) -> Scalar:
    """mu{x : x_i in source_i and (map^n x)_i in target_i, i <= N}, any sign
    of n; a None factor is the whole alphabet, a None source the space.

    A carry (a borrow when n < 0) only moves upward, so a two-state chain
    in it is exact in O(N * m).  On spec.weight_rows it returns `rounded`'s
    scalar; given integer `rows` (ones count cells), the exact Fraction.
    """
    rows, exact = ((rows, True) if rows is not None
                   else spec.weight_rows(len(target)))
    f0, f1, den, _ = chain_pass(spec, rows, source, target, n)
    return rounded(Fraction(f0 + f1, den), exact)


def rounded(value: Fraction, exact: bool) -> Scalar:
    """An exact mass as the spec's scalar: itself when every weight was
    exact, else the nearest float, rounded once."""
    return value if exact else float(value)


def chain_pass(spec: SystemSpec, rows: list, source: Optional[Sequence],
               target: Sequence, n: int,
               state: Optional[tuple] = None) -> tuple:
    """chain_measure's chain over integer `rows`; returns the state (f0, f1,
    den, rest): the masses with no carry and with a carry pending, the
    denominator so far and the digits of |n| still to add.  Passed back as
    `state` with the next rows, it resumes the chain.  A coordinate both
    sets leave free folds: the carry out of state c is the mass of the top
    d + c symbols, a borrow that of the bottom d + c."""
    odometer = spec.kind == ODOMETER
    sign = -1 if n < 0 and odometer else 1
    f0, f1, den, rest = state or (1, 0, 1, abs(n))
    for (weights, row_den), have, want in zip(rows, source or repeat(None),
                                              target):
        m = len(weights)
        rest, d = divmod(rest, m) if odometer else (rest, n % m)
        den *= row_den
        if have is None and want is None:
            total = sum(weights)
            o0, o1 = ((sum(weights[m - d - c:]) if sign > 0
                       else sum(weights[:d + c])) if odometer else 0
                      for c in (0, 1))
            f0, f1 = (f0 * (total - o0) + f1 * (total - o1),
                      f0 * o0 + f1 * o1)
            continue
        g0 = g1 = 0
        for c, fin in ((0, f0), (1, f1)):
            if fin == 0:
                continue
            step = sign * (d + c)
            for x in range(m) if have is None else have:
                t = x + step
                out = t % m
                if want is not None and out not in want:
                    continue
                if out != t and odometer:
                    g1 += fin * weights[x]
                else:
                    g0 += fin * weights[x]
        f0, f1 = g0, g1
    return f0, f1, den, rest


def image_overlap(spec: SystemSpec, S: DepthSet, n: int) -> int:
    """Number of depth-N cells of S whose image under map^n lies in S."""
    ones = [((1,) * spec.m(i), 1) for i in range(1, S.depth + 1)]
    return int(chain_measure(spec, S.factors, S.factors, n, ones))


def preimage_measure(spec: SystemSpec, S: DepthSet, n: int) -> Scalar:
    """mu(map^-n(S)), exact at any depth."""
    return chain_measure(spec, None, S.factors, n)


def odometer_pullback_measure(spec: SystemSpec, S: DepthSet, k: int) -> Scalar:
    """mu(o^-k(S)): preimage_measure under its odometer name."""
    return chain_measure(spec, None, S.factors, k)


def forward_image_measure(spec: SystemSpec, S: DepthSet, n: int) -> Scalar:
    """mu(map^n(S)) = mu(map^-(-n)(S)), exact at any depth."""
    return chain_measure(spec, None, S.factors, -n)


def set_measure(spec: SystemSpec, S: DepthSet) -> Scalar:
    """mu(S): the chain at n = 0."""
    return chain_measure(spec, None, S.factors, 0)


# ---------------------------------------------------------------------------
# boundedness and nonsingularity reports
# ---------------------------------------------------------------------------

UNBOUNDED_TRIGGER = 1e12


@dataclass
class BoundReport:
    """Per-level values of the boundedness quantity and the running supremum.

    The supremum at horizon L is a certified lower bound for the p-th power of
    the operator norm; `verdict` is one of "bounded-closed-form",
    "bounded-up-to-horizon" or "unbounded-witness(l)".
    """

    spec: SystemSpec
    horizon: int
    levels: list
    values: list
    running_sup: list
    verdict: str
    note: str = ""

    @property
    def supremum(self) -> Scalar:
        return self.running_sup[-1]

    def norm_estimate(self, p: Scalar = 1) -> float:
        return float(self.supremum) ** (1.0 / float(p))

    def to_tsv_rows(self) -> list:
        rows = [("l", "value", "running_sup")]
        for l, v, s in zip(self.levels, self.values, self.running_sup):
            rows.append((str(l), format_scalar(v), format_scalar(s)))
        return rows


def boundedness(spec: SystemSpec, horizon: int, closed_form: Optional[str] = None) -> BoundReport:
    """Evaluate the boundedness criterion level by level up to `horizon`.

    Odometer: value(l) = prod_{i<l} mu_i(m_i-1)/mu_i(0) * sup_j mu_l(j-1)/mu_l(j).
    Translation: value(l) = prod_{i<=l} sup_j mu_i(j-1)/mu_i(j)  (partial products).
    Shift: value(l) = sup over |i| <= l of nu_{i-1}/nu_i.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    levels = list(range(1, horizon + 1))
    values = []
    if spec.kind == ODOMETER:
        prefix = Fraction(1)
        for l in levels:
            values.append(prefix * spec.sup_shift_ratio(l, 1))
            m = spec.m(l)
            prefix = prefix * (spec.mu_weight(l, m - 1) / spec.mu_weight(l, 0))
    elif spec.kind == TRANSLATION:
        prod = Fraction(1)
        for l in levels:
            try:
                prod = prod * spec.sup_shift_ratio(l, 1)
            except CapExceeded:
                levels = levels[:len(values)]
                break
            values.append(prod)
    else:
        lo_bound = -horizon if spec.index_set == "Z" else 0
        sup = Fraction(0)
        for l in levels:
            for i in (l, -l) if spec.index_set == "Z" else (l,):
                if i - 1 < lo_bound:
                    continue
                sup = max(sup, spec.nu(i - 1) / spec.nu(i))
            values.append(sup)
    running = []
    sup = None
    for v in values:
        sup = v if sup is None or v > sup else sup
        running.append(sup)
    if closed_form:
        verdict, note = closed_form, "registered closed form"
    elif float(running[-1]) > UNBOUNDED_TRIGGER:
        worst = max(range(len(values)), key=lambda t: float(values[t]))
        verdict, note = f"unbounded-witness({levels[worst]})", "level value past trigger"
    else:
        verdict, note = "bounded-up-to-horizon", ""
    return BoundReport(spec=spec, horizon=horizon, levels=levels, values=values,
                       running_sup=running, verdict=verdict, note=note)


def norm_probe(spec: SystemSpec, depth: int, n: int,
               measures: Optional[list] = None) -> tuple:
    """Certified lower bound for the n-step density supremum at one depth.

    Returns (sup over resolved cells of the n-step density, resolved fraction).
    A depth-N cell is resolved when its n-step inverse stays inside the
    truncation without borrowing from deeper coordinates.  Pass precomputed
    cell measures to amortize across many n.
    """
    if spec.kind != ODOMETER:
        raise ValueError("norm probes are an odometer diagnostic")
    if measures is None:
        measures = build_truncation(spec, depth).all_measures()
    M = len(measures)
    n = n % M
    best = None
    resolved = M - n
    for c in range(n, M):
        ratio = measures[c - n] / measures[c]
        if best is None or ratio > best:
            best = ratio
    return best, Fraction(resolved, M)


def kakutani_check(spec: SystemSpec, horizon: int,
                   closed_form: Optional[str] = None) -> dict:
    """Partial products of sum_j sqrt(mu_i(j) mu_i(j-1)) for translations.

    The products are non-increasing and positive; staying bounded away from 0
    is the equivalence-of-measures test for the shifted product measure.
    """
    if spec.kind != TRANSLATION:
        raise ValueError("the equivalence check applies to diagonal translations")
    factors = []
    partials = []
    prod = 1.0
    note = ""
    for i in range(1, horizon + 1):
        try:
            w = spec.mu(i)
        except CapExceeded:
            note = f"stopped at i={i}: alphabet beyond the materialization cap"
            break
        m = spec.m(i)
        f = math.fsum(math.sqrt(float(w[j]) * float(w[j - 1])) for j in range(m))
        factors.append(f)
        prod *= f
        partials.append(prod)
    if closed_form:
        verdict = closed_form
    elif not factors:
        verdict = "inconclusive"
    else:
        tail_drop = 1.0 - factors[-1]
        verdict = ("nonsingular-up-to-horizon"
                   if partials[-1] > 0 and tail_drop < 1e-6
                   else "singular-trend" if factors[-1] < 1 - 1e-6
                   else "inconclusive")
    return {"factors": factors, "partial_products": partials,
            "verdict": verdict, "note": note}
