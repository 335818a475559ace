"""Criterion sequences and three-valued verdicts for the registered results.

Each quantity comes with the optimizer the table tags it with:

  theta      -- fixed-shift mass drop; the optimal set is {j : mu(j) > mu(j+k)},
                so the value is a positive-part sum (tag "closed-form");
  kappa      -- shift-disjoint sets under plain integer addition; the conflict
                graph is a union of paths, solved by take/skip DP ("path-dp");
  alpha/beta -- shift-disjoint sets mod m; the graph is a union of cycles,
                solved by the two-pass cycle DP ("cycle-dp"); beta on exact
                rows stops at r = m/2 when an integer bound shows it best;
  gamma      -- best split level; exhaustive (vectorized over bitmasks) up to
                m = 16 ("brute-force"), sorted-weight prefix sweeps beyond
                ("search-lower-bound");
  gamma~     -- best averaged drop; for fixed cardinality the optimum takes
                the largest drops, so a sorted prefix scan is exact for the
                windowed problem ("prefix-scan", value is a lower bound of the
                unwindowed supremum).

On exact coordinates every optimizer runs on the memoised integer numerators
over one denominator q and builds one Fraction at the end; the DPs only add
and compare, and scaling by q > 0 keeps every order and tie.  Float
coordinates run the same bodies on floats.  Values come from value-only
passes; only the *_witness functions build chosen sets.  Each super-linear
scan estimates its DP steps before it starts and raises CapExceeded past
WORK_BUDGET.

A criteria table is filled row by row, column by column, until a budget
stops it, and each row goes out as a TSV line once it is filled.  An
odometer row runs theta, kappa and gamma on one weight row; a weight row
among the SOLVED_ROWS most recently used reuses its cells.

Limit statements are never decided numerically: numeric mode reports
"satisfied-up-to-horizon" with an evidence trail, and true verdicts come only
from closed forms registered alongside the gallery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import CapExceeded, OdolabError, UnknownTheorem
from .gallery import SATISFIED_CF, VIOLATED, closed_form_verdict
from .scalars import Scalar, format_scalar
from .space import SHIFT, SystemSpec

GAMMA_BRUTE_CAP = 16
WORK_BUDGET = 1 << 20     # steps one scan may take; checked before it starts
FLOAT_ROW_CAP = 1 << 13   # widest alphabet the float translation rules read
SOLVED_ROWS = 64          # distinct weight rows an odometer table keeps solved


def _weights(spec: SystemSpec, i: int) -> tuple:
    """(numerators, q) of mu_i when it is exact, else (mu_i, None)."""
    view = spec.integer_weights(i)
    return view if view is not None else (spec.mu(i), None)


def _scalar(value, q: Optional[int]) -> Scalar:
    """A value computed on _weights' row, back on the scale of mu_i."""
    return value if q is None else Fraction(value, q)


def charge_work(steps: int, scan: str, unit: str = "DP steps") -> None:
    if steps > WORK_BUDGET:
        raise CapExceeded(f"{scan} needs {steps} {unit}, "
                          f"past the work budget of {WORK_BUDGET}")


# ---------------------------------------------------------------------------
# elementary sequences
# ---------------------------------------------------------------------------

def theta(spec: SystemSpec, i: int, shift: Optional[int] = None) -> Scalar:
    """Largest drop mu(D) - mu(D + k) over subsets, addition mod m_i.

    For a fixed shift the optimum is the positive-part sum; without a shift
    the maximum over k in [1, m_i - 1] is returned.
    """
    w, q = _weights(spec, i)
    return _scalar(_theta_value(w, shift), q)


def theta_witness(spec: SystemSpec, i: int, shift: Optional[int] = None):
    """(value, optimal set D, shift k) achieving the drop."""
    w, q = _weights(spec, i)
    m = len(w)
    if shift is not None:
        k = shift % m
        val = _drop(w, k)
    else:
        val, k = _best_drop(w)
    D = frozenset(j for j in range(m) if w[j] > w[(j + k) % m])
    return _scalar(val, q), D, k


def _drop(w: Sequence[Scalar], k: int) -> Scalar:
    """Sum of the positive parts of w_j - w_{j+k mod m}, in ascending j;
    shift 0 drops nothing."""
    return sum((a - b for a, b in zip(w, w[k:] + w[:k]) if a > b), 0 * w[0])


def _best_drop(w: Sequence[Scalar]) -> tuple:
    """(value, k): the largest _drop over k in [1, m - 1], the first k that
    reaches it, or (0, 0) when no shift drops anything."""
    val, k = 0 * w[0], 0
    for s in range(1, len(w)):
        cand = _drop(w, s)
        if cand > val:
            val, k = cand, s
    return val, k


def _theta_value(w: Sequence[Scalar], shift: Optional[int] = None) -> Scalar:
    """theta's value on _weights' row."""
    return _best_drop(w)[0] if shift is None else _drop(w, shift % len(w))


# ---------------------------------------------------------------------------
# path / cycle max-weight independent sets
# ---------------------------------------------------------------------------

def _path_value(weights: Sequence[Scalar]) -> Scalar:
    """_mwis_path's value alone, from the same adds and compares: a and b
    are the optima of the prefixes ending two steps and one step back."""
    a = b = 0
    for x in weights:
        c = a + x
        a = b
        if c > b:
            b = c
    return b


def _mwis_path(weights: Sequence[Scalar]) -> tuple:
    """(max weight, chosen indices) for an independent set on a path; one
    took-flag per step, walked back at the end."""
    a = b = 0
    took = []
    for x in weights:
        c = a + x
        a = b
        took.append(c > b)
        if took[-1]:
            b = c
    picked, idx = [], len(took) - 1
    while idx >= 0:
        if took[idx]:
            picked.append(idx)
        idx -= 1 + took[idx]
    return b, tuple(reversed(picked))


def _solve_chains(dp, w: Sequence[Scalar], chains) -> tuple:
    """(summed DP value, union of picked indices) over disjoint index chains."""
    total = None
    chosen = set()
    for chain in chains:
        val, picked = dp([w[x] for x in chain])
        total = val if total is None else total + val
        chosen.update(chain[t] for t in picked)
    return total, frozenset(chosen)


def disjoint_shift_set_zplus(spec: SystemSpec, i: int, j: int) -> tuple:
    """Max-weight D with (D + j) disjoint from D under plain integer addition.

    Conflicts x ~ x+j split the alphabet into arithmetic chains; each chain is
    an independent path DP.  Returns (value, D).
    """
    if not 1 <= j <= spec.m(i) - 1:
        raise ValueError("shift must lie in [1, m_i - 1]")
    w, q = _weights(spec, i)
    val, D = _solve_chains(_mwis_path, w,
                           [range(s, len(w), j) for s in range(j)])
    return _scalar(val, q), D


def kappa(spec: SystemSpec, i: int) -> Scalar:
    """Min over shifts of the best shift-disjoint mass (integer addition)."""
    w, q = _weights(spec, i)
    return _scalar(_kappa_value(w), q)


def _kappa_value(w: Sequence[Scalar]) -> Scalar:
    """kappa's value on _weights' row, charged before it starts."""
    m = len(w)
    charge_work(m * (m - 1), "kappa")
    return min(sum(_path_value(w[s::j]) for s in range(j))
               for j in range(1, m))


def _mwis_cycle(weights: Sequence[Scalar]) -> tuple:
    """(max weight, chosen positions) for an independent set on a cycle."""
    L = len(weights)
    if L == 1:
        return 0 * weights[0], ()
    if L == 2:
        return max((weights[0], (0,)), (weights[1], (1,)), key=lambda t: t[0])
    # exclude position 0, or take it and exclude its neighbours
    v1, s1 = _mwis_path(weights[1:])
    v2, s2 = _mwis_path(weights[2:L - 1])
    return max((v1, tuple(t + 1 for t in s1)),
               (v2 + weights[0], (0,) + tuple(t + 2 for t in s2)),
               key=lambda t: t[0])


def _cycle_value(weights: Sequence[Scalar]) -> Scalar:
    """_mwis_cycle's value alone, from two value-only path passes."""
    L = len(weights)
    if L <= 2:
        return _mwis_cycle(weights)[0]
    return max(_path_value(weights[1:]),
               _path_value(weights[2:L - 1]) + weights[0])


def alpha_shift(spec: SystemSpec, i: int, n: int) -> Scalar:
    w, q = _weights(spec, i)
    return _scalar(_alpha_value(w, n), q)


def alpha_shift_witness(spec: SystemSpec, i: int, n: int) -> tuple:
    """Max-weight D with (D + n) mod m_i disjoint from D; cycle DP."""
    w, q = _weights(spec, i)
    val, D = _alpha(w, n)
    return _scalar(val, q), D


def _alpha(w: Sequence[Scalar], n: int) -> tuple:
    """(value, D) of the shift-disjoint optimum mod len(w), on any scalars.

    The conflict graph is gcd(n, m) cycles of length m / gcd.  n = 0 mod m
    forces D empty.
    """
    m = len(w)
    r = n % m
    if r == 0:
        return 0 * w[0], frozenset()
    g = math.gcd(r, m)
    cycles = [[x % m for x in range(s, s + m // g * r, r)] for s in range(g)]
    return _solve_chains(_mwis_cycle, w, cycles)


def _alpha_value(w: Sequence[Scalar], n: int) -> Scalar:
    """_alpha's value alone."""
    m = len(w)
    r = n % m
    if r == 0:
        return 0 * w[0]
    g = math.gcd(r, m)
    return sum(_cycle_value([w[x % m] for x in range(s, s + m // g * r, r)])
               for s in range(g))


def beta_sup(spec: SystemSpec, i: int) -> Scalar:
    """sup over n >= 1 of alpha_{i,n}; only the residue of n matters.

    Shifts r and m - r have the same conflict edges, so alpha_r = alpha_{m-r}
    and exact rows scan r <= m/2 only.  Float rows scan every residue: the
    reversed chain order could change the last bit of a float sum.  Exact
    rows stop at alpha_{m/2} when it is at least the sum S of the ceil(m/2)
    largest weights: B_r = sum_x max(w_x, w_{x+r}) lies in [2 alpha_r, 2 S],
    since a chosen x owns terms x and x - r and each weight is in two terms.
    """
    w, q = _weights(spec, i)
    m = len(w)
    last = m // 2 if q is not None else m - 1
    charge_work(m * last, "beta_sup")
    if q is not None:
        best = _alpha_value(w, last)
        if sum(sorted(w)[m // 2:]) <= best:
            return Fraction(best, q)
    return _scalar(max(_alpha_value(w, r) for r in range(1, last + 1)), q)


def gamma_translation(spec: SystemSpec, n: int, index_horizon: int) -> Scalar:
    """sup over i <= horizon of alpha_{i,n}; a horizon-limited lower bound."""
    return max(alpha_shift(spec, i, n) for i in range(1, index_horizon + 1))


# ---------------------------------------------------------------------------
# the split-level quantity (exhaustive / sweeps)
# ---------------------------------------------------------------------------

def gamma_odometer(spec: SystemSpec, i: int) -> Scalar:
    return gamma_witness(spec, i)[0]


def gamma_witness(spec: SystemSpec, i: int) -> tuple:
    """(value, D, j) maximizing min(mu(D), 1 - mu(D + j)), addition mod m_i.

    Binary alphabets have the closed form max(mu(0), mu(1)).  Up to m = 16 the
    search is exhaustive over bitmasks (exact; integer-scaled when the weights
    are rational).  Beyond that, sorted-weight prefix sweeps give a flagged
    lower bound.
    """
    w, q = _weights(spec, i)
    val, D, j = _gamma_row(w, q)
    return _scalar(val, q), D, j


def _gamma_row(w: Sequence[Scalar], q: Optional[int]) -> tuple:
    """gamma_witness's (value, D, j) on _weights' row."""
    m = len(w)
    if m == 2:
        top = 0 if w[0] >= w[1] else 1
        return w[top], frozenset({top}), 1
    if m <= GAMMA_BRUTE_CAP:
        return _gamma_exhaustive(w, q)
    return _gamma_sweep(w, q)


def _gamma_exhaustive(w: Sequence[Scalar], q: Optional[int]) -> tuple:
    """(value, D, j) on _weights' row, over every bitmask and shift."""
    import numpy as np
    m = len(w)
    if q is not None:
        ints = np.array(w, dtype=np.int64)
        one = q
    else:
        ints = np.array([float(x) for x in w], dtype=np.float64)
        one = 1.0
    sums = np.zeros(1, dtype=ints.dtype)
    for x in ints:
        sums = np.concatenate([sums, sums + x])
    masks = np.arange(1 << m, dtype=np.int64)
    full = (1 << m) - 1
    best_val, best_mask, best_j = None, 0, 1
    for j in range(1, m):
        rot = ((masks << j) | (masks >> (m - j))) & full
        vals = np.minimum(sums, one - sums[rot])
        t = int(np.argmax(vals))
        v = vals[t]
        if best_val is None or v > best_val:
            best_val, best_mask, best_j = v, t, j
    D = frozenset(b for b in range(m) if best_mask >> b & 1)
    return best_val.item(), D, best_j


def _gamma_sweep(w: Sequence[Scalar], q: Optional[int]) -> tuple:
    """Prefix sweeps over weight-sorted orders; a lower bound past the cap.

    The row is _weights' row, whose total mass is q (1 on floats).
    """
    m = len(w)
    charge_work(2 * m * (m - 1), "gamma sweep")
    one = 1 if q is None else q
    zero = 0 * w[0]
    best = (zero, frozenset(), 1)
    for j in range(1, m):
        orders = [sorted(range(m), key=lambda x: (w[x] - w[(x + j) % m],), reverse=True),
                  sorted(range(m), key=lambda x: (w[x],), reverse=True)]
        for order in orders:
            a = zero
            b = zero
            members = []
            for x in order:
                a = a + w[x]
                b = b + w[(x + j) % m]
                members.append(x)
                val = min(a, one - b)
                if val > best[0]:
                    best = (val, frozenset(members), j)
    return best


def omega(spec: SystemSpec, i: int, kappa_param) -> Scalar:
    """Mass of the top interval of width kappa * m_i * m_{i+1} symbols."""
    k = Fraction(kappa_param)
    if not 0 < k < 1:
        raise ValueError("kappa must lie in (0, 1)")
    m = spec.m(i)
    m_next = spec.m(i + 1)
    # ceil(m - 1 - k m m_next) with k = a/b, on integers
    a, b = k.numerator, k.denominator
    lo = max(0, -((a * m * m_next - b * (m - 1)) // b))
    return spec.interval_measure(i, lo, m - 1)


def tilted_mass(spec: SystemSpec, i: int, j: int, kappa_param) -> Scalar:
    """The ufhc tilt: mu_{i-1}([ceil(m - kappa j m), m - 1]), m = m_{i-1}."""
    m_prev = spec.m(i - 1)
    lo = math.ceil(m_prev - kappa_param * j * m_prev)
    return spec.interval_measure(i - 1, lo, m_prev - 1)


def gamma_tilde(spec: SystemSpec, n: int, index_horizon: int) -> Scalar:
    return gamma_tilde_witness(spec, n, index_horizon)[0]


def gamma_tilde_witness(spec: SystemSpec, n: int, index_horizon: int) -> tuple:
    """(value, chosen indices) of the windowed averaged-drop supremum.

    Restricted to indices <= horizon (a lower bound of the full supremum).
    For fixed cardinality t the best choice takes the t largest drops, so
    scanning prefixes of the sorted drops is exact for the windowed problem.
    """
    drops = [(theta(spec, i, shift=n), i) for i in range(1, index_horizon + 1)]
    drops.sort(key=lambda t: t[0], reverse=True)
    best, t = _best_prefix_average([val for val, _ in drops])
    return best, tuple(i for _, i in drops[:t])


def _best_prefix_average(values: Sequence[Scalar]) -> tuple:
    """(best, t): the largest (v_1 + ... + v_t)^2 / t over prefixes, and its t.

    On values sorted in decreasing order this is the best averaged drop over
    subsets.  The first maximal prefix wins; t is 0 when no prefix is positive.
    """
    best = run = values[0] * 0 if values else Fraction(0)
    best_t = 0
    for t, v in enumerate(values, start=1):
        run = run + v
        cand = run * run / t
        if cand > best:
            best, best_t = cand, t
    return best, best_t


# ---------------------------------------------------------------------------
# shift-space products
# ---------------------------------------------------------------------------

def salas_products(spec: SystemSpec, i: int, j: int, horizon: int) -> list:
    """nu(phi^n(i)) * nu(phi^-n(j)) for n = 1..horizon (0 when the preimage is empty)."""
    if spec.kind != SHIFT:
        raise ValueError("Salas products are a weighted-shift quantity")
    out = []
    for n in range(1, horizon + 1):
        fwd = spec.nu(i + n)
        if spec.index_set == "Z+" and j - n < 0:
            out.append(Fraction(0))
        else:
            out.append(fwd * spec.nu(j - n))
    return out


# ---------------------------------------------------------------------------
# criteria tables
# ---------------------------------------------------------------------------

def table_lines(fill, indices: Iterable, stop: list):
    """A table's TSV lines, each yielded once its row is filled; no row is
    kept.  fill(cells, i) puts row i's (value, tag) cells one column at a
    time.  The header is the first row's columns, sorted (every fill puts the
    same columns).  The first CapExceeded ends the table after row i's
    columns and appends (i, error) to stop; an empty row is left out."""
    cols = None
    for i in indices:
        cells = {}
        try:
            fill(cells, i)
        except CapExceeded as exc:
            stop.append((i, exc))
        if cols is None:
            cols = sorted(cells)
            yield ("index", *cols, "optimizers")
        if cells:
            got = [cells.get(c) for c in cols]
            yield (str(i), *(format_scalar(v[0]) if v else "" for v in got),
                   ";".join(f"{c}={v[1]}" for c, v in zip(cols, got) if v))
        if stop:
            return


def odometer_filler(spec: SystemSpec, kappa_param=None):
    """fill for eta, delta, theta, kappa, gamma (and omega at a given kappa).

    theta, kappa and gamma read one _weights row.  The SOLVED_ROWS most
    recently used rows keep their three cells for reuse; an older row is
    solved again.  A new row is put column by column, so a budget that
    stops kappa or gamma leaves theta.
    """
    solved = {}     # row -> cells, least recently used first

    def fill(cells: dict, i: int) -> None:
        cells["eta"] = (spec.eta(i), "closed-form")
        cells["delta"] = (spec.delta(i), "closed-form")
        row = w, q = _weights(spec, i)
        known = solved.pop(row, None)
        if known is None:
            cells["theta"] = (_scalar(_theta_value(w), q), "closed-form")
            cells["kappa"] = (_scalar(_kappa_value(w), q), "path-dp")
            tag = ("brute-force" if len(w) <= GAMMA_BRUTE_CAP
                   else "search-lower-bound")
            cells["gamma"] = (_scalar(_gamma_row(w, q)[0], q), tag)
            known = cells["theta"], cells["kappa"], cells["gamma"]
            if len(solved) >= SOLVED_ROWS:
                del solved[next(iter(solved))]
        else:
            cells["theta"], cells["kappa"], cells["gamma"] = known
        solved[row] = known
        if kappa_param is not None:
            cells["omega"] = (omega(spec, i, kappa_param), "closed-form")
    return fill


def translation_fillers(spec: SystemSpec, index_horizon: int) -> tuple:
    """fills for a translation's two tables: eta, delta and beta per index
    i, and gamma_n and gamma~ per shift n over the indices <= index_horizon."""
    def by_index(cells: dict, i: int) -> None:
        cells["eta"] = (spec.eta(i), "closed-form")
        cells["delta"] = (spec.delta(i), "closed-form")
        cells["beta"] = (beta_sup(spec, i), "cycle-dp")

    def by_shift(cells: dict, n: int) -> None:
        cells["gamma_n"] = (gamma_translation(spec, n, index_horizon),
                            "cycle-dp")
        cells["gamma_tilde"] = (gamma_tilde(spec, n, index_horizon),
                                "prefix-scan")
    return by_index, by_shift


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

SATISFIED = "satisfied-up-to-horizon"
INCONCLUSIVE = "inconclusive"

EVAL_NEAR_ONE = 0.02     # "looks like 1 at the horizon" slack for numeric mode
DIVERGENCE_FLOOR = 10.0  # an averaged drop this large reads as divergent


@dataclass
class Verdict:
    criterion: str
    status: str
    evidence: dict
    params: dict = field(default_factory=dict)
    mode: str = "numeric-horizon"     # or "closed-form"

    def to_document(self) -> dict:
        def conv(x):
            if isinstance(x, Fraction):
                return format_scalar(x)
            if isinstance(x, float):
                return x
            if isinstance(x, (list, tuple)):
                return [conv(v) for v in x]
            if isinstance(x, dict):
                return {str(k): conv(v) for k, v in x.items()}
            return x
        return {"criterion": self.criterion, "status": self.status,
                "mode": self.mode, "params": conv(self.params),
                "evidence": conv(self.evidence)}


def contradicts(expected: str, status: str) -> bool:
    """Whether a computed status contradicts a registered expectation.

    "violated" contradicts a satisfied expectation and a satisfied status
    contradicts "violated"; "inconclusive" contradicts nothing.
    """
    if expected.startswith("satisfied"):
        return status == VIOLATED
    return expected == VIOLATED and status.startswith("satisfied")


def evaluate(spec: SystemSpec, criterion: str, horizon: int = 50,
             params: Optional[dict] = None, mode: str = "auto") -> Verdict:
    """Evaluate one registered criterion.

    mode "auto" consults the gallery's closed-form registry first and falls
    back to the numeric horizon rule; "numeric" forces the horizon rule.
    Numeric mode never returns a bare "satisfied" for a limit statement.  A
    rule that stops on a package error (an infeasible search, a budget's
    CapExceeded) is "inconclusive", with the error as its reason.
    """
    if criterion not in _RULES:
        raise UnknownTheorem(f"no rule registered for {criterion!r}")
    params = dict(params or {})
    if mode != "numeric":
        cf = closed_form_verdict(spec, criterion, params)
        if cf is not None:
            status, evidence = cf
            return Verdict(criterion, status, evidence, params, "closed-form")
    try:
        return _RULES[criterion](spec, horizon, params)
    except OdolabError as exc:
        return Verdict(criterion, INCONCLUSIVE, {"reason": str(exc)}, params)


def _numeric(name: str, ok: bool, evidence: dict, params: dict) -> Verdict:
    """Satisfied up to the horizon when ok, else inconclusive."""
    return Verdict(name, SATISFIED if ok else INCONCLUSIVE, evidence, params)


def _limsup_near_one(name, seq_fn):
    def rule(spec: SystemSpec, horizon: int, params: dict) -> Verdict:
        vals = [seq_fn(spec, i, params) for i in range(1, horizon + 1)]
        sup = max(float(v) for v in vals)
        argmax = 1 + max(range(len(vals)), key=lambda t: float(vals[t]))
        return _numeric(name, sup >= 1 - params.get("slack", EVAL_NEAR_ONE),
                        {"sup": sup, "argmax_index": argmax,
                         "tail": [float(v) for v in vals[-5:]]}, params)
    return rule


def _lim_near_one(name, seq_fn):
    def rule(spec: SystemSpec, horizon: int, params: dict) -> Verdict:
        vals = [float(seq_fn(spec, i, params)) for i in range(1, horizon + 1)]
        tail = vals[horizon // 2:]
        ok = min(tail) >= 1 - params.get("slack", EVAL_NEAR_ONE)
        return _numeric(name, ok, {"tail_min": min(tail), "tail": vals[-5:]},
                        params)
    return rule


def _rule_hc_limsup_drop(spec, horizon, params):
    drops = [spec.eta(i) - spec.delta(i) for i in range(1, horizon + 1)]
    margin = max(drops[horizon // 2:])
    return _numeric("hc-limsup-drop", float(margin) > 0,
                    {"margin": float(margin), "margin_exact": margin,
                     "first_indices": [float(d) for d in drops[:4]]}, params)


def _rule_hc_drop_hoeffding(spec, horizon, params):
    from .witness import find_transitivity_params
    plan = find_transitivity_params(spec, 0.1, horizon=horizon)
    return _numeric("hc-drop-hoeffding", True,
                    {"offset": plan.offset, "count": plan.count,
                     "indices": list(plan.indices[:8]),
                     "gap_sum": float(plan.gap_sum),
                     "hoeffding_bound": plan.hoeffding_bound}, params)


def _rule_power_bounded(spec, horizon, params):
    ratios = [float(spec.eta(i)) / float(spec.delta(i))
              for i in range(1, horizon + 1)]
    partial = []
    prod = 1.0
    for r in ratios:
        prod *= r
        partial.append(prod)
    last_rel = ratios[-1] - 1.0
    decreasing = all(ratios[t + 1] <= ratios[t] + 1e-15
                     for t in range(horizon // 2, horizon - 1))
    return _numeric("power-bounded", last_rel < 1e-6 and decreasing,
                    {"partial_product": partial[-1],
                     "last_factor_minus_one": last_rel,
                     "checkpoints": partial[:: max(1, horizon // 8)],
                     "note": "convergent product is not-hypercyclic evidence"},
                    params)


def _rule_ufhc_odometer(spec, horizon, params):
    kappa_param = Fraction(params.get("kappa", Fraction(1, 5)))
    ladder = (0.25, 0.1, 0.05)
    found = {}
    for dl in ladder:
        for i in range(horizon, 1, -1):
            gval, D, j = gamma_witness(spec, i)
            if float(gval) <= 1 - dl:
                continue
            tilted = tilted_mass(spec, i, j, kappa_param)
            if float(tilted) < dl:
                found[dl] = {"i": i, "j": j, "interval_mass": float(tilted)}
                break
    return _numeric("ufhc-odometer", len(found) == len(ladder),
                    {"found": found}, params)


def _float_rows(spec, idx_h) -> list:
    """mu_i as float lists for i = 1, 2, ..., stopping after idx_h, at the
    first m_i > FLOAT_ROW_CAP, or at the first mu_i past its cap."""
    rows = []
    for i in range(1, idx_h + 1):
        try:
            if spec.m(i) > FLOAT_ROW_CAP:
                break
            rows.append([float(x) for x in spec.mu(i)])
        except CapExceeded:
            break
    return rows


def _translation_gamma(name: str):
    """The gamma_n rule; hc and mixing read the same values, so one body."""
    def rule(spec, horizon, params):
        rows = _float_rows(spec, min(horizon, 12))
        vals = [max(_alpha_value(w, n) for w in rows)
                for n in range(1, horizon + 1)]
        sup = max(vals)
        return _numeric(name, sup >= 1 - params.get("slack", EVAL_NEAR_ONE),
                        {"sup": sup, "values_tail": vals[-5:],
                         "note": "gamma_n is horizon-limited in i"}, params)
    return rule


def _rule_hc_translation_hoeffding(spec, horizon, params):
    rows = _float_rows(spec, min(horizon, 40))
    vals = {}
    for n in (1 << l for l in range(1, 8)):
        drops = [math.fsum(max(w[j] - w[(j + n) % len(w)], 0.0)
                           for j in range(len(w))) for w in rows]
        vals[n] = float(_best_prefix_average(sorted(drops, reverse=True))[0])
    sup = max(vals.values())
    return _numeric("hc-translation-hoeffding", sup >= DIVERGENCE_FLOOR,
                    {"sup": sup, "per_shift": vals}, params)


def _rule_hc_translation_coprime(spec, horizon, params):
    ms = [spec.m(i) for i in range(1, horizon + 1)]
    coprime = all(math.gcd(ms[a], ms[b]) == 1
                  for a in range(len(ms)) for b in range(a + 1, len(ms)))
    if not coprime:
        return _numeric("hc-translation-coprime", False,
                        {"pairwise_coprime": False}, params)
    drops = []
    for i in range(1, horizon + 1):
        if ms[i - 1] > 4096:
            break        # unrestricted drop scans are quadratic in m
        try:
            drops.append(float(theta(spec, i)))
        except CapExceeded:
            break
    best = float(_best_prefix_average(sorted(drops, reverse=True))[0])
    return _numeric("hc-translation-coprime", best >= DIVERGENCE_FLOOR,
                    {"pairwise_coprime": True, "sup": best}, params)


def _rule_shift_salas(spec, horizon, params):
    if spec.kind != SHIFT:
        return _numeric("shift-salas", False,
                        {"reason": "not a weighted shift"}, params)
    sites = range(-3, 4) if spec.index_set == "Z" else range(4)
    worst_min = 0.0
    details = {}
    ok = True
    for i in sites:
        for j in sites:
            prods = [float(x) for x in salas_products(spec, i, j, horizon)]
            details[f"({i},{j})"] = prods[-1]
            if min(prods) > 1e-6:
                ok = False
            worst_min = max(worst_min, min(prods))
    return _numeric("shift-salas", ok,
                    {"worst_min_product": worst_min,
                     "final_products": details}, params)


def _seq_min_omega_gamma(spec, i, params):
    if i == 1:
        return 0.0
    k = params.get("kappa", Fraction(1, 5))
    return min(1 - float(omega(spec, i - 1, k)), float(gamma_odometer(spec, i)))


def _seq_min_omega_eta(spec, i, params):
    if i == 1:
        return 0.0
    k = params.get("kappa", Fraction(1, 5))
    return min(1 - float(omega(spec, i - 1, k)), float(spec.eta(i)))


def _seq_min_tailweight_eta(spec, i, params):
    if i == 1:
        return 0.0
    m_prev = spec.m(i - 1)
    return min(1 - float(spec.mu_weight(i - 1, m_prev - 1)), float(spec.eta(i)))


def _seq_min_kappa_interval_eta(spec, i, params):
    if i == 1:
        return 0.0
    k = Fraction(params.get("kappa", Fraction(1, 2)))
    m_prev = spec.m(i - 1)
    lo = math.ceil(k * m_prev)
    return min(1 - float(spec.interval_measure(i - 1, lo, m_prev - 1)),
               float(spec.eta(i)))


def _fhc_from_bounded(name: str, inner: str):
    """Bounded alphabets plus the inner rule's hypothesis give the fhc family."""
    def rule(spec, horizon, params):
        if spec.alphabet.bounded_lcm() is None:
            return _numeric(name, False,
                            {"reason": "alphabet rule is not bounded"}, params)
        verdict = _RULES[inner](spec, horizon, params)
        return _numeric(name, verdict.status == SATISFIED, verdict.evidence,
                        params)
    return rule


_RULES = {
    "hc-limsup-eta": _limsup_near_one("hc-limsup-eta",
                                      lambda s, i, p: s.eta(i)),
    "mixing-eta": _lim_near_one("mixing-eta", lambda s, i, p: s.eta(i)),
    "mixing-kappa": _lim_near_one("mixing-kappa", lambda s, i, p: kappa(s, i)),
    "hc-limsup-drop": _rule_hc_limsup_drop,
    "hc-drop-hoeffding": _rule_hc_drop_hoeffding,
    "power-bounded": _rule_power_bounded,
    "fhc-odometer": _limsup_near_one("fhc-odometer", _seq_min_omega_gamma),
    "fhc-eta": _limsup_near_one("fhc-eta", _seq_min_omega_eta),
    "fhc-bounded-tail": _limsup_near_one("fhc-bounded-tail",
                                         _seq_min_tailweight_eta),
    "fhc-from-eta-limit": _fhc_from_bounded("fhc-from-eta-limit", "mixing-eta"),
    "fhc-from-mixing": _fhc_from_bounded("fhc-from-mixing", "mixing-kappa"),
    "ufhc-odometer": _rule_ufhc_odometer,
    "ufhc-zero-heavy": _limsup_near_one("ufhc-zero-heavy",
                                        _seq_min_kappa_interval_eta),
    "hc-translation-gamma": _translation_gamma("hc-translation-gamma"),
    "mixing-translation-gamma": _translation_gamma("mixing-translation-gamma"),
    "hc-translation-hoeffding": _rule_hc_translation_hoeffding,
    "hc-translation-coprime": _rule_hc_translation_coprime,
    "shift-salas": _rule_shift_salas,
}
