"""Product probability spaces, truncations, cylinder sets and simple functions.

The space is an infinite product of finite cyclic alphabets, each carrying a
strictly positive probability vector.  Everything downstream factors through
finite truncations, so a system is described by *rules*: an alphabet rule
producing the size m_i of the i-th coordinate and a measure rule producing its
weight vector.  Rules are evaluated lazily per index and are registered by
name so specs round-trip through a JSON-compatible config.

Weighted backward shifts live on a countable discrete measure space instead of
a product; they share the SystemSpec container but most product-space
operations reject them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import BracketFailure, CapExceeded, SpecError
from .scalars import (FLOAT_TOL, Scalar, integer_view, is_exact, parse_scalar,
                      scalar_sum)

ENUM_CAP = 1 << 24          # default cell cap for truncation enumeration
VECTOR_CAP = 1 << 16        # cap on one coordinate's weights and on a memo
GEOM_EXACT_CAP = 512        # longest geometric ramp kept in exact rationals

ODOMETER = "odometer"
TRANSLATION = "diagonal-translation"
SHIFT = "weighted-shift"


# ---------------------------------------------------------------------------
# alphabet rules
# ---------------------------------------------------------------------------

class AlphabetRule:
    """Rule i -> m_i (sizes of the coordinate alphabets), i >= 1."""

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = dict(params)
        self._fn = _ALPHABET_FAMILIES[family]

    def m(self, i: int) -> int:
        if i < 1:
            raise ValueError("coordinate indices start at 1")
        size = self._fn(i, self.params)
        if size < 2:
            raise SpecError(f"alphabet rule produced m_{i}={size} < 2")
        return size

    def bounded_lcm(self) -> Optional[int]:
        """lcm of the alphabet sizes when the rule is structurally bounded.

        Constant, list (cycled or repeating its last size) and cycle-range
        rules take finitely many sizes; every other family gives None.
        """
        p = self.params
        if self.family == "constant":
            return int(p["m"])
        if self.family == "list":
            return math.lcm(*(int(x) for x in p["list"]))
        if self.family == "cycle-range":
            return math.lcm(*range(int(p["lo"]), int(p["hi"]) + 1))
        return None

    def config(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    def __eq__(self, other):
        return (isinstance(other, AlphabetRule)
                and self.family == other.family and self.params == other.params)


def _alpha_constant(i, p):
    return int(p["m"])


def _alpha_list(i, p):
    lst = p["list"]
    if p.get("repeat", "cycle") == "cycle":
        return int(lst[(i - 1) % len(lst)])
    return int(lst[min(i - 1, len(lst) - 1)])


def _alpha_affine(i, p):
    return int(p.get("a", 1)) * i + int(p.get("b", 0))


def _alpha_cycle_range(i, p):
    lo, hi = int(p["lo"]), int(p["hi"])
    return lo + (i - 1) % (hi - lo + 1)


def _alpha_pow_blocks(i, p):
    # 2^(l+1) on the block l^2 <= i < (l+1)^2, l >= 1
    l = math.isqrt(i)
    if l * l > i:
        l -= 1
    l = max(l, 1)
    return 2 ** (l + 1)


def _alpha_power(i, p):
    return int(p["base"]) ** i


def _alpha_scaled_power(i, p):
    return int(p["scale"]) * int(p["base"]) ** i


def _alpha_superexp(i, p):
    # base^(1+2+...+i); consecutive ratios base^(i+1) are unbounded
    return int(p["base"]) ** (i * (i + 1) // 2)


_ALPHABET_FAMILIES: dict[str, Callable[[int, dict], int]] = {
    "constant": _alpha_constant,
    "list": _alpha_list,
    "affine": _alpha_affine,
    "cycle-range": _alpha_cycle_range,
    "pow-blocks": _alpha_pow_blocks,
    "power": _alpha_power,
    "scaled-power": _alpha_scaled_power,
    "superexp": _alpha_superexp,
}


# ---------------------------------------------------------------------------
# measure families
# ---------------------------------------------------------------------------

class MeasureFamily:
    """Rule i -> probability vector on [0, m_i).

    Subclasses either materialize the whole vector (small alphabets) or expose
    a piecewise-geometric description (huge alphabets).  `backend` declares
    whether weights are exact rationals ("rational") or floats ("float").
    `weight(i, m, j)` equals `weights(i, m)[j % m]` in value; an override may
    differ from it only in the rounding of float weights.  SystemSpec reads
    `weight` only past VECTOR_CAP, where it holds no vector.
    """

    name: str = ""

    def __init__(self, params: dict):
        self.params = dict(params)

    # -- required ----------------------------------------------------------
    def weights(self, i: int, m: int) -> tuple:
        raise NotImplementedError

    @property
    def backend(self) -> str:
        return "rational"

    # -- generic accessors (overridable with closed forms) ------------------
    # The defaults of eta, delta, interval_measure and sup_shift_ratio read
    # only the weight vector, so SystemSpec serves them from its memo.
    def weight(self, i: int, m: int, j: int) -> Scalar:
        return self.weights(i, m)[j % m]

    def eta(self, i: int, m: int) -> Scalar:
        return max(self.weights(i, m))

    def delta(self, i: int, m: int) -> Scalar:
        return min(self.weights(i, m))

    def interval_measure(self, i: int, m: int, lo: int, hi: int) -> Scalar:
        """Weight of the integer interval [lo, hi] intersected with [0, m)."""
        return _interval_sum(self.weights(i, m), lo, hi, self.backend)

    def sup_shift_ratio(self, i: int, m: int, s: int) -> Scalar:
        """sup_j mu_i(j - s mod m) / mu_i(j); equals 1 when s = 0 mod m."""
        return _shift_ratio(self.weights(i, m), s)

    def config(self) -> dict:
        return {"family": self.name, "params": dict(self.params)}

    def __eq__(self, other):
        return (isinstance(other, MeasureFamily)
                and self.name == other.name and self.params == other.params)


def _interval_sum(w: Sequence[Scalar], lo: int, hi: int,
                  backend: str) -> Scalar:
    lo, hi = max(lo, 0), min(hi, len(w) - 1)
    if lo > hi:
        return Fraction(0) if backend == "rational" else 0.0
    return scalar_sum(w[lo:hi + 1])


def _shift_ratio(w: Sequence[Scalar], s: int) -> Scalar:
    m = len(w)
    s %= m
    if s == 0:
        return Fraction(1)
    return max(w[(j - s) % m] / w[j] for j in range(m))


class UniformMeasure(MeasureFamily):
    name = "uniform"

    def weights(self, i, m):
        _check_vector_cap(m)
        return (Fraction(1, m),) * m

    def eta(self, i, m):
        return Fraction(1, m)

    delta = eta

    def sup_shift_ratio(self, i, m, s):
        return Fraction(1)

    def interval_measure(self, i, m, lo, hi):
        lo, hi = max(lo, 0), min(hi, m - 1)
        return Fraction(max(hi - lo + 1, 0), m)


class SameMeasure(MeasureFamily):
    """One fixed weight vector used on every coordinate."""

    name = "same"

    def __init__(self, params):
        super().__init__(params)
        self._nu = tuple(parse_scalar(t) if isinstance(t, str) else Fraction(t)
                         for t in params["weights"])
        # a cell-measure vector is exact or float64 as a whole, so a row is too
        if len({is_exact(w) for w in self._nu}) > 1:
            raise ValueError("same-measure weights mix p/q and decimal entries")

    @property
    def backend(self):
        return "rational" if is_exact(self._nu[0]) else "float"

    def weights(self, i, m):
        if m != len(self._nu):
            raise SpecError("alphabet size does not match the fixed vector")
        return self._nu


class OrnsteinMeasure(MeasureFamily):
    """mu_i(0) = 1/2 and mu_i(j) = 1/(2i) on the alphabet of size i+1."""

    name = "ornstein"

    def weights(self, i, m):
        if m != i + 1:
            raise SpecError("this measure family expects m_i = i + 1")
        _check_vector_cap(m)
        return (Fraction(1, 2),) + (Fraction(1, 2 * i),) * i

    def eta(self, i, m):
        return Fraction(1, 2)

    def delta(self, i, m):
        return Fraction(1, 2) if i == 1 else Fraction(1, 2 * i)


class BinaryHalfPlusMeasure(MeasureFamily):
    """Binary weights (1/2 + p_i, 1/2 - p_i) with p_i = i^(-alpha).

    Where the raw perturbation makes the vector invalid (p >= 1/2) it is
    halved until 1/2 + p < 1; this keeps every index usable and keeps the
    weights rational for integer alpha.
    """

    name = "binary-half-plus"

    def __init__(self, params):
        super().__init__(params)
        a = params["alpha"]
        self._alpha = parse_scalar(a) if isinstance(a, str) else Fraction(a)
        if self._alpha <= 0:
            raise ValueError(f"alpha must be positive, not {a}")
        self._rational = (isinstance(self._alpha, Fraction)
                          and self._alpha.denominator == 1)

    @property
    def backend(self):
        return "rational" if self._rational else "float"

    def perturbation(self, i: int) -> Scalar:
        if self._rational:
            p: Scalar = Fraction(1, i ** int(self._alpha))
            half: Scalar = Fraction(1, 2)
        else:
            p = float(i) ** (-float(self._alpha))
            half = 0.5
        while p >= half:
            p = p / 2
        return p

    def weights(self, i, m):
        if m != 2:
            raise SpecError("binary measure family on a non-binary alphabet")
        p = self.perturbation(i)
        if self._rational:
            return (Fraction(1, 2) + p, Fraction(1, 2) - p)
        return (0.5 + p, 0.5 - p)


class BinaryRatioMeasure(MeasureFamily):
    """Binary weights (i/(i+1), 1/(i+1))."""

    name = "binary-ratio"

    def weights(self, i, m):
        if m != 2:
            raise SpecError("binary measure family on a non-binary alphabet")
        return (Fraction(i, i + 1), Fraction(1, i + 1))


class BlocksOfThreeMeasure(MeasureFamily):
    """Binary weights in blocks of three coordinates.

    For block k >= 1: coordinates 3k+1 and 3k+2 carry (k/(k+1), 1/(k+1)) and
    coordinate 3k+3 carries (1/2, 1/2).  The k = 0 block would need weight 0,
    which the standing positivity assumption forbids, so its three
    coordinates are uniform.
    """

    name = "blocks-of-three"

    def weights(self, i, m):
        if m != 2:
            raise SpecError("binary measure family on a non-binary alphabet")
        if i <= 3:
            return (Fraction(1, 2), Fraction(1, 2))
        k, r = divmod(i - 1, 3)
        if r == 2:
            return (Fraction(1, 2), Fraction(1, 2))
        return (Fraction(k, k + 1), Fraction(1, k + 1))


class SplitGeometricMeasure(MeasureFamily):
    """Dyadic tent weights: c_i * 2^-(distance from the middle).

    m = 2 is the special pair (2/3, 1/3) (normalizer c = 1/3).  All weights
    are exact rationals and the normalizer satisfies c_i >= 1/4.
    """

    name = "split-geometric"

    def normalizer(self, m: int) -> Fraction:
        if m == 2:
            return Fraction(1, 3)
        if m % 2 == 0:
            beta = m // 2
            return 1 / (4 - Fraction(2) ** (2 - beta))
        beta = (m - 1) // 2
        return 1 / (3 - Fraction(2) ** (1 - beta))

    def weights(self, i, m):
        _check_vector_cap(m)
        if m == 2:
            return (Fraction(2, 3), Fraction(1, 3))
        c = self.normalizer(m)
        if m % 2 == 0:
            beta = m // 2
            left = [c / 2 ** (beta - 1 - j) for j in range(beta)]
            right = [c / 2 ** (j - beta) for j in range(beta, m)]
        else:
            beta = (m - 1) // 2
            left = [c / 2 ** (beta - j) for j in range(beta + 1)]
            right = [c / 2 ** (j - beta) for j in range(beta + 1, m)]
        return tuple(left + right)


def solve_geometric_ratio(i: int, m: int) -> float:
    """Root of sum_{j<m} c^j = (i+1)/i inside ((1/(i+1), 1/i]), by bisection.

    The bracket always encloses the root: the full geometric series at the
    left endpoint undershoots the target and the two-term lower bound at the
    right endpoint overshoots it.
    """
    if i < 1 or m < 2:
        raise ValueError("need i >= 1 and m >= 2")
    target = (i + 1) / i

    def f(c: float) -> float:
        return math.fsum(c ** j for j in range(m)) - target

    lo, hi = 1.0 / (i + 1), 1.0 / i
    if f(hi) < -FLOAT_TOL:
        raise BracketFailure(f"no sign change in the bracket for i={i}, m={m}")
    # run to machine precision (well inside FLOAT_TOL) so that
    # downstream normalization errors stay far below the float backend's 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break       # lo and hi are adjacent floats: every later mid is this
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class GeometricSolvedMeasure(MeasureFamily):
    """mu_i(j) = (i/(i+1)) c_i^j with c_i the root of sum_{j<m} c^j = (i+1)/i.

    The root is irrational in general, so this family runs on the float
    backend (bisection to 1e-12); eta keeps its exact closed form i/(i+1).
    """

    name = "geometric-solved"

    @property
    def backend(self):
        return "float"

    def ratio(self, i: int, m: int) -> float:
        return solve_geometric_ratio(i, m)

    def weights(self, i, m):
        _check_vector_cap(m)
        c = self.ratio(i, m)
        scale = i / (i + 1)
        return tuple(scale * c ** j for j in range(m))

    def eta(self, i, m):
        return Fraction(i, i + 1)


class RampMeasure(MeasureFamily):
    """Flat weight with one geometrically decaying ramp, per coordinate.

    Layouts:
      "tail"  -- constant epsilon on [0, m-n), ramp of length n at the end;
      "mid"   -- constant on [0, m-2n), ramp on [m-2n, m-n), constant tail.
    The ramp runs rho^(n-1) * eps down to eps with rho = 1 + delta_i.
    Normalization: (#const) * eps + eps (rho^n - 1)/(rho - 1) = 1.

    Coordinates not selected by the `selected` rule are uniform.  Weights stay
    exact rationals while the ramp is short enough; beyond GEOM_EXACT_CAP the
    family evaluates in floats (log-space powers).
    """

    name = "ramp"

    def __init__(self, params):
        super().__init__(params)
        self.layout = params.get("layout", "tail")
        self.n_rule = params["n"]
        self.delta_rule = params["delta"]
        self.select_rule = params.get("select", "all")
        self._alphabet: Optional[AlphabetRule] = None  # set by SystemSpec
        # (i, m) -> pieces; an exact ramp costs a rho**n with huge denominators
        self._pieces: dict[tuple, tuple] = {}

    def bind_alphabet(self, rule: AlphabetRule):
        self._alphabet = rule

    # -- per-coordinate parameters ------------------------------------------
    def selected(self, i: int) -> bool:
        rule = self.select_rule
        if rule == "all":
            return True
        if rule == "squares":
            r = math.isqrt(i)
            return r * r == i
        raise ValueError(f"unknown select rule {rule!r}")

    def ramp_len(self, i: int, m: int) -> int:
        rule = self.n_rule
        if rule == "half":
            return m // 2
        if rule == "third":
            return m // 3
        if rule == "fifth":
            return m // 5
        if rule == "eighth":
            return m // 8
        raise ValueError(f"unknown ramp-length rule {rule!r}")

    def delta_value(self, i: int) -> Fraction:
        rule = self.delta_rule
        if rule == "inv-square":
            return Fraction(1, i * i)
        if rule == "inv-ramp":
            m = self._alphabet.m(i)
            return Fraction(1, max(self.ramp_len(i, m), 1))
        if rule == "quad-over-pow":
            return Fraction(i * i, 2 ** i)
        if rule == "dyadic-over-prev-m":
            prev_m = 1 if i == 1 else self._alphabet.m(i - 1)
            return Fraction(1, 2 ** i * prev_m)
        raise ValueError(f"unknown delta rule {rule!r}")

    def pieces(self, i: int, m: int) -> tuple[tuple[int, int, Scalar, Scalar], ...]:
        """((start, length, first_weight, ratio), ...) in position order."""
        key = (i, m)
        if key not in self._pieces:
            self._pieces[key] = self._build_pieces(i, m)
        return self._pieces[key]

    def _build_pieces(self, i: int, m: int) -> tuple:
        n = self.ramp_len(i, m) if self.selected(i) else 0
        if n == 0:
            u = Fraction(1, m)
            return ((0, m, u, Fraction(1)),)
        delta = self.delta_value(i)
        if n <= GEOM_EXACT_CAP:
            rho = 1 + delta
            geom_sum = (rho ** n - 1) / delta
            eps = 1 / (Fraction(m - n) + geom_sum)
            top = eps * rho ** (n - 1)
            inv = 1 / rho
        else:
            log_rho = math.log1p(float(delta))
            if n * log_rho > 600:
                raise CapExceeded(
                    f"ramp at coordinate {i} spans e^{n * log_rho:.0f}, "
                    "beyond the float backend's range")
            geom_sum = math.expm1(n * log_rho) / float(delta)
            eps = 1.0 / ((m - n) + geom_sum)
            top = eps * math.exp((n - 1) * log_rho)
            # per-step decay may round to exactly 1.0 in float (delta below
            # machine epsilon); keep the log so powers stay honest
            inv = _GeomRatio(-log_rho)
        if self.layout == "tail":
            return ((0, m - n, eps, _one_like(eps)),
                    (m - n, n, top, inv))
        if self.layout == "mid":
            head = m - 2 * n
            return ((0, head, eps, _one_like(eps)),
                    (head, n, top, inv),
                    (head + n, n, eps, _one_like(eps)))
        raise ValueError(f"unknown layout {self.layout!r}")

    @property
    def backend(self):
        # Always "rational", although ramps longer than GEOM_EXACT_CAP
        # evaluate in floats; ROADMAP open item 4 makes this tag honest.
        return "rational"

    # -- accessors built on the piece list -----------------------------------
    def weights(self, i, m):
        _check_vector_cap(m)
        out = []
        for start, length, first, ratio in self.pieces(i, m):
            w = first
            for _ in range(length):
                out.append(w)
                w = w * ratio
        return tuple(out)

    def weight(self, i, m, j):
        j %= m
        for start, length, first, ratio in self.pieces(i, m):
            if start <= j < start + length:
                return _geom_at(first, ratio, j - start)
        raise AssertionError("pieces do not cover the alphabet")

    def eta(self, i, m):
        # every piece is flat or decays, so its first weight is its largest
        return max(first for _, _, first, _ in self.pieces(i, m))

    def delta(self, i, m):
        # the flat weight is the minimum: every ramp decays back down to it
        return self.weight(i, m, 0)

    def interval_measure(self, i, m, lo, hi):
        lo, hi = max(lo, 0), min(hi, m - 1)
        if lo > hi:
            return Fraction(0)
        total = None
        for start, length, first, ratio in self.pieces(i, m):
            a, b = max(lo, start), min(hi, start + length - 1)
            if a > b:
                continue
            part = _geom_interval_sum(first, ratio, a - start, b - start)
            total = part if total is None else total + part
        return total if total is not None else Fraction(0)

    def sup_shift_ratio(self, i, m, s):
        s %= m
        if s == 0:
            return Fraction(1)
        # On any maximal run where j and j-s stay inside fixed pieces, the
        # ratio is geometric in j, so its sup sits at a run endpoint.
        boundaries = set()
        for start, length, _, _ in self.pieces(i, m):
            for b in (start, start + length - 1):
                boundaries.add(b % m)
                boundaries.add((b + s) % m)
        best = None
        for j in boundaries:
            for jj in (j - 1, j, j + 1):
                jj %= m
                r = self.weight(i, m, jj - s) / self.weight(i, m, jj)
                if best is None or r > best:
                    best = r
        return best


class _GeomRatio(float):
    """A float ratio remembering its exact log (for sub-epsilon decays)."""

    def __new__(cls, log_value: float):
        obj = super().__new__(cls, math.exp(log_value))
        obj.log_value = log_value
        return obj


def _one_like(x: Scalar) -> Scalar:
    return Fraction(1) if is_exact(x) else 1.0


def _geom_at(first: Scalar, ratio: Scalar, t: int) -> Scalar:
    lr = getattr(ratio, "log_value", None)
    if lr is not None:
        return float(first) * math.exp(t * lr)
    if is_exact(first) and is_exact(ratio):
        return first * ratio ** t
    return float(first)    # the flat float piece, ratio 1.0


def _geom_interval_sum(first: Scalar, ratio: Scalar, t0: int, t1: int) -> Scalar:
    """sum of first * ratio^t for t in [t0, t1]."""
    k = t1 - t0 + 1
    lr = getattr(ratio, "log_value", None)
    if lr is not None:
        head = float(first) * math.exp(t0 * lr)
        return head * math.expm1(k * lr) / math.expm1(lr)
    if ratio == 1:
        return first * k
    return _geom_at(first, ratio, t0) * (ratio ** k - 1) / (ratio - 1)


_MEASURE_FAMILIES = {
    cls.name: cls
    for cls in (UniformMeasure, SameMeasure, OrnsteinMeasure,
                BinaryHalfPlusMeasure, BinaryRatioMeasure,
                BlocksOfThreeMeasure, SplitGeometricMeasure,
                GeometricSolvedMeasure, RampMeasure)
}


def _check_vector_cap(m: int):
    if m > VECTOR_CAP:
        raise CapExceeded(
            f"alphabet of size {m} exceeds the materialization cap {VECTOR_CAP}; "
            "use the piecewise accessors")


# ---------------------------------------------------------------------------
# shift weights (countable discrete space)
# ---------------------------------------------------------------------------

class ShiftWeights:
    """Weights nu_i > 0 on Z or Z_+ for the weighted backward shift."""

    def __init__(self, family: str, params: dict):
        self.family = family
        self.params = dict(params)
        if family != "geometric-abs":
            raise ValueError(f"unknown shift weight family {family!r}")
        r = params["ratio"]
        self.ratio = parse_scalar(r) if isinstance(r, str) else Fraction(r)
        if not 0 < self.ratio < 1:
            raise ValueError("shift weight ratio must lie in (0, 1)")

    def nu(self, i: int) -> Fraction:
        return self.ratio ** abs(i)

    def total(self, index_set: str) -> Fraction:
        if index_set == "Z":
            return (1 + self.ratio) / (1 - self.ratio)
        return Fraction(1) / (1 - self.ratio)

    def config(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    def __eq__(self, other):
        return (isinstance(other, ShiftWeights)
                and self.family == other.family and self.params == other.params)


# ---------------------------------------------------------------------------
# SystemSpec
# ---------------------------------------------------------------------------

_UNSET = object()


class _Coord:
    """Memoised view of one coordinate, each part filled in on first use.

    `weights` is the family's vector, which every reader of the coordinate
    sees; `ints` is (numerators, lcm denominator), or None for float weights.
    """

    __slots__ = ("m", "weights", "ints")

    def __init__(self, m: int):
        self.m = m
        self.weights = self.ints = _UNSET


@dataclass
class SystemSpec:
    """Full description of one dynamical system.

    kind is "odometer", "diagonal-translation" or "weighted-shift".  Product
    kinds carry an alphabet rule and a measure family; the shift kind carries
    an index set and shift weights.  Coordinates are memoised on first use,
    up to VECTOR_CAP entries: 1 per coordinate plus the length of each
    vector stored.  Past that the memo starts over.
    """

    kind: str
    alphabet: Optional[AlphabetRule] = None
    measure: Optional[MeasureFamily] = None
    index_set: str = "Z"
    shift_weights: Optional[ShiftWeights] = None
    gallery_id: Optional[str] = None
    enum_cap: int = ENUM_CAP
    _coords: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _held: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind in (ODOMETER, TRANSLATION):
            if self.alphabet is None or self.measure is None:
                raise ValueError("product-space specs need alphabet and measure")
            if isinstance(self.measure, RampMeasure):
                self.measure.bind_alphabet(self.alphabet)
        elif self.kind == SHIFT:
            if self.shift_weights is None:
                raise ValueError("weighted-shift specs need shift weights")
            if self.index_set not in ("Z", "Z+"):
                raise ValueError("index set must be 'Z' or 'Z+'")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    # -- product-space accessors --------------------------------------------
    def _product_only(self):
        if self.kind == SHIFT:
            raise ValueError("product-space operation on a weighted-shift spec")

    def _coord(self, i: int) -> _Coord:
        coord = self._coords.get(i)
        if coord is None:
            self._product_only()
            if self._held >= VECTOR_CAP:
                self._coords.clear()
                self._held = 0
            coord = self._coords[i] = _Coord(self.alphabet.m(i))
            self._held += 1
        return coord

    def _keep(self, i: int, slot: str, value):
        """Store and return coordinate i's `slot`, charged m_i unless it is
        None; past VECTOR_CAP, start over unstored."""
        coord = self._coord(i)
        size = 0 if value is None else coord.m
        if self._held + size <= VECTOR_CAP:
            self._held += size
            setattr(coord, slot, value)
        elif size < VECTOR_CAP:  # a vector no memo can hold clears nothing
            self._coords.clear()
            self._held = 0
        return value

    def m(self, i: int) -> int:
        return self._coord(i).m

    def mu(self, i: int) -> tuple:
        coord = self._coord(i)
        if coord.weights is _UNSET:
            return self._keep(i, "weights", self.measure.weights(i, coord.m))
        return coord.weights

    def mu_weight(self, i: int, j: int) -> Scalar:
        coord = self._coord(i)
        w = coord.weights
        if w is _UNSET:
            if coord.m > VECTOR_CAP:     # no vector; the family's closed form
                return self.measure.weight(i, coord.m, j)
            w = self.mu(i)
        return w[j % coord.m]

    def integer_weights(self, i: int) -> Optional[tuple]:
        """(numerators, denominator) of mu_i over the lcm of its denominators.

        None when any weight is a float.  The exact kernels multiply these
        integers and build one Fraction at the end.
        """
        ints = self._coord(i).ints
        if ints is _UNSET:
            return self._keep(i, "ints", integer_view(self.mu(i)))
        return ints

    def weight_rows(self, depth: int) -> tuple[list, bool]:
        """Integer (numerators, denominator) rows of mu_1 .. mu_depth, float
        weights at their exact binary values, and whether every weight was
        exact (else maps.rounded rounds a mass computed on them once)."""
        rows = [self.integer_weights(i) for i in range(1, depth + 1)]
        return [r or integer_view([Fraction(w) for w in self.mu(i)])
                for i, r in enumerate(rows, start=1)], None not in rows

    def _vector_default(self, name: str) -> bool:
        """Whether the family keeps MeasureFamily's default for `name`,
        which reads only the weight vector the memo holds."""
        self._product_only()
        return getattr(type(self.measure), name) is getattr(MeasureFamily, name)

    def eta(self, i: int) -> Scalar:
        if self._vector_default("eta"):
            return max(self.mu(i))
        return self.measure.eta(i, self.m(i))

    def delta(self, i: int) -> Scalar:
        if self._vector_default("delta"):
            return min(self.mu(i))
        return self.measure.delta(i, self.m(i))

    def interval_measure(self, i: int, lo: int, hi: int) -> Scalar:
        """On an exact coordinate whose integer row the memo holds, the
        slice sum of its numerators over one Fraction."""
        if not self._vector_default("interval_measure"):
            return self.measure.interval_measure(i, self.m(i), lo, hi)
        ints = self._coord(i).ints
        if ints is _UNSET or ints is None:
            return _interval_sum(self.mu(i), lo, hi, self.measure.backend)
        nums, q = ints
        return Fraction(sum(nums[max(lo, 0):hi + 1]), q)

    def subset_measure(self, i: int, subset: Iterable[int]) -> Scalar:
        w = self.mu(i)
        return scalar_sum(w[j % len(w)] for j in subset)

    def sup_shift_ratio(self, i: int, s: int) -> Scalar:
        if self._vector_default("sup_shift_ratio"):
            return _shift_ratio(self.mu(i), s)
        return self.measure.sup_shift_ratio(i, self.m(i), s)

    @property
    def backend(self) -> str:
        if self.kind == SHIFT:
            return "rational"
        return self.measure.backend

    def radix_weights(self, depth: int) -> list[int]:
        """[M_1, ..., M_{depth+1}] with M_1 = 1 and M_{i+1} = M_i * m_i."""
        self._product_only()
        out = [1]
        for i in range(1, depth + 1):
            out.append(out[-1] * self.m(i))
        return out

    def cell_count(self, depth: int) -> int:
        return self.radix_weights(depth)[-1]

    def digits_of(self, k: int, depth: int) -> list[int]:
        """Mixed-radix digits (k_1, ..., k_depth) of k mod M_{depth+1}."""
        self._product_only()
        out = []
        for i in range(1, depth + 1):
            k, d = divmod(k, self.m(i))
            out.append(d)
        return out

    def validate_coordinate(self, i: int):
        """Assert mu_i is a strictly positive probability vector.

        Uses interval sums so that huge piecewise alphabets validate without
        materializing their weight vectors.
        """
        if self.delta(i) <= 0:
            raise ValueError(f"mu_{i} has a nonpositive weight")
        total = self.interval_measure(i, 0, self.m(i) - 1)
        if is_exact(total):
            if total != 1:
                raise ValueError(f"mu_{i} sums to {total} != 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise ValueError(f"mu_{i} sums to {total} (off by > 1e-12)")

    # -- shift accessors ------------------------------------------------------
    def nu(self, i: int) -> Fraction:
        if self.kind != SHIFT:
            raise ValueError("nu() is a weighted-shift accessor")
        if self.index_set == "Z+" and i < 0:
            raise ValueError("Z+ index must be nonnegative")
        return self.shift_weights.nu(i)

    # -- config round-trip ----------------------------------------------------
    def to_config(self) -> dict:
        if self.kind == SHIFT:
            return {"kind": self.kind, "index_set": self.index_set,
                    "weights": self.shift_weights.config()}
        cfg = {"kind": self.kind, "alphabet": self.alphabet.config(),
               "measure": self.measure.config()}
        if self.gallery_id:
            cfg["gallery_id"] = self.gallery_id
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "SystemSpec":
        kind = cfg["kind"]
        if kind == SHIFT:
            w = cfg["weights"]
            return SystemSpec(kind=kind, index_set=cfg.get("index_set", "Z"),
                              shift_weights=ShiftWeights(w["family"], w["params"]))
        a = cfg["alphabet"]
        if "list" in a:
            alphabet = AlphabetRule("list", a)
        else:
            alphabet = AlphabetRule(a["family"], a.get("params", {}))
        mcfg = cfg["measure"]
        family = _MEASURE_FAMILIES[mcfg["family"]]
        return SystemSpec(kind=kind, alphabet=alphabet,
                          measure=family(mcfg.get("params", {})),
                          gallery_id=cfg.get("gallery_id"))

    def same_system(self, other: "SystemSpec") -> bool:
        return self.to_config() == other.to_config()


# ---------------------------------------------------------------------------
# truncations
# ---------------------------------------------------------------------------

@dataclass
class TruncatedSpace:
    """The finite quotient on the first `depth` coordinates.

    Cells are indexed 0 .. M_{depth+1}-1 in little-endian mixed radix
    (coordinate 1 varies fastest), so indices are stable across depths.
    """

    spec: SystemSpec
    depth: int
    ms: tuple
    radix: tuple            # (M_1, ..., M_{depth+1})
    _vector: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def cell_count(self) -> int:
        return self.radix[-1]

    def digits(self, cell: int) -> tuple:
        out = []
        for m in self.ms:
            cell, d = divmod(cell, m)
            out.append(d)
        return tuple(out)

    def index(self, digits: Sequence[int]) -> int:
        total = 0
        for d, M, m in zip(digits, self.radix, self.ms):
            if not 0 <= d < m:
                raise ValueError("digit out of range")
            total += d * M
        return total

    def measure_vector(self) -> tuple:
        """(values, den): the measures of all cells in index order, built once.

        On exact specs the values are integer numerators over den, the
        product of the per-coordinate denominators: int64 when den < 2**63,
        Python ints otherwise.  With a float coordinate they are float64 and
        den is None: the exact prefix is rounded once per cell and later rows
        multiply in as float(w), which is what Fraction * float computes, so
        these are the per-cell weight products.  One outer product per row.
        """
        if self._vector is None:
            import numpy as np
            den, values = 1, np.ones(1, dtype=np.int64)
            for i in range(1, self.depth + 1):
                ints = None if den is None else self.spec.integer_weights(i)
                if ints is None:
                    if den is not None:
                        values, den = float_quotients(values, den), None
                    row = np.array([float(w) for w in self.spec.mu(i)])
                else:
                    den *= ints[1]
                    if values.dtype == np.int64 and den >= 1 << 63:
                        values = values.astype(object)
                    row = np.array(ints[0], dtype=values.dtype)
                values = np.multiply.outer(row, values).ravel()
            self._vector = (values, den)
        return self._vector

    def cell_measure(self, cell: int) -> Scalar:
        values, den = self.measure_vector()
        v = values[cell]
        return float(v) if den is None else Fraction(int(v), den)

    def all_measures(self) -> list:
        """Measures of all cells in index order (memory ~ cell_count)."""
        values, den = self.measure_vector()
        out = values.tolist()
        return out if den is None else [Fraction(v, den) for v in out]


def float_quotients(nums: np.ndarray, den: int) -> np.ndarray:
    """n / den for 0 <= n <= den in float64, rounded as float(Fraction) is."""
    import numpy as np
    if nums.dtype == np.int64 and den < 1 << 53:
        return nums / den
    return np.array([n / den for n in nums.tolist()])


def build_truncation(spec: SystemSpec, depth: int, cap: Optional[int] = None) -> TruncatedSpace:
    """Materialize the depth-N quotient; CapExceeded beyond the cell cap."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cap = spec.enum_cap if cap is None else cap
    ms = tuple(spec.m(i) for i in range(1, depth + 1))
    radix = [1]
    for i, m in enumerate(ms, start=1):
        radix.append(radix[-1] * m)
        # stop at the first coordinate past the cap: the full product can
        # pass str()'s 4,300-digit limit
        if radix[-1] > cap:
            raise CapExceeded(
                f"truncation at depth {depth} passes the cap {cap} at "
                f"coordinate {i}: coordinates 1..{i} have {radix[-1]} cells")
    return TruncatedSpace(spec=spec, depth=depth, ms=ms, radix=tuple(radix))


# ---------------------------------------------------------------------------
# depth sets and simple functions
# ---------------------------------------------------------------------------

@dataclass
class DepthSet:
    """A product cylinder on the first `depth` coordinates.

    factors[i - 1] is the frozenset of symbols allowed at coordinate i, or
    None for the whole alphabet.  Measures and transports read the factors;
    only `mask` enumerates cells.
    """

    spec: SystemSpec
    depth: int
    factors: tuple

    @staticmethod
    def product_form(spec: SystemSpec,
                     factors: Sequence[Optional[Iterable[int]]]) -> "DepthSet":
        fs = tuple(None if f is None else frozenset(f) for f in factors)
        for i, f in enumerate(fs, start=1):
            if f is None:
                continue
            m = spec.m(i)
            if any(not 0 <= j < m for j in f):
                raise ValueError(f"factor {i} has symbols outside the alphabet")
        return DepthSet(spec=spec, depth=len(fs), factors=fs)

    @staticmethod
    def basic_cylinder(spec: SystemSpec, symbols: Sequence[int]) -> "DepthSet":
        return DepthSet.product_form(spec, [{s} for s in symbols])

    @staticmethod
    def cylinder(spec: SystemSpec, depth: int,
                 fixed: dict[int, Iterable[int]]) -> "DepthSet":
        """Product form on coordinates 1..depth: the symbols fixed[i] where
        given, the whole alphabet elsewhere."""
        if any(not 1 <= i <= depth for i in fixed):
            raise ValueError(f"fixed coordinates outside 1..{depth}")
        return DepthSet.product_form(
            spec, [fixed.get(i) for i in range(1, depth + 1)])

    def mask(self, cap: Optional[int] = None) -> np.ndarray:
        """Boolean array over the depth-N cells, True on the members."""
        import numpy as np
        tr = build_truncation(self.spec, self.depth, cap)
        keep = np.ones(tr.cell_count, dtype=bool)
        rest = np.arange(tr.cell_count)
        for m, f in zip(tr.ms, self.factors):
            rest, d = divmod(rest, m)
            if f is not None:
                keep &= np.isin(d, list(f))
        return keep


@dataclass
class SimpleFunction:
    """A function of the first `depth` coordinates, one value per cell: a tuple
    of scalars, or in `apply_composition` and `orbit_trace` a NumPy array."""

    spec: SystemSpec
    depth: int
    values: tuple | np.ndarray

    @staticmethod
    def indicator(S: DepthSet, cap: Optional[int] = None) -> "SimpleFunction":
        zero_one = (Fraction(0), Fraction(1))
        vals = tuple(map(zero_one.__getitem__, S.mask(cap).tolist()))
        return SimpleFunction(spec=S.spec, depth=S.depth, values=vals)

    @staticmethod
    def constant(spec: SystemSpec, depth: int, value: Scalar) -> "SimpleFunction":
        n = spec.cell_count(depth)
        if n > spec.enum_cap:
            raise CapExceeded("constant function beyond the enumeration cap")
        return SimpleFunction(spec=spec, depth=depth, values=(value,) * n)

    def __add__(self, other: "SimpleFunction") -> "SimpleFunction":
        self._check_compatible(other)
        return SimpleFunction(self.spec, self.depth,
                              tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "SimpleFunction") -> "SimpleFunction":
        self._check_compatible(other)
        return SimpleFunction(self.spec, self.depth,
                              tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c: Scalar) -> "SimpleFunction":
        return SimpleFunction(self.spec, self.depth,
                              tuple(c * v for v in self.values))

    def _check_compatible(self, other: "SimpleFunction"):
        if self.depth != other.depth or not self.spec.same_system(other.spec):
            raise ValueError("simple functions live on different truncations")


# ---------------------------------------------------------------------------
# the non-atomicity monitor
# ---------------------------------------------------------------------------

def atomless_monitor(spec: SystemSpec, depth: int) -> list:
    """Partial products of the per-coordinate max weights, n = 1 .. depth.

    The sequence is positive and non-increasing; it must tend to 0 for the
    product measure to be non-atomic.  Violations are flagged by the caller,
    not forbidden here.
    """
    out = []
    prod = None
    for i in range(1, depth + 1):
        e = spec.eta(i)
        prod = e if prod is None else prod * e
        out.append(prod)
    return out
