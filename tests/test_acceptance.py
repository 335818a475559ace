"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.  Criterion 3's first clause is implemented twice: once literally
(known unattainable by a constant factor; kept as a strict expected failure
with the measured numbers in the assertion message) and once in the attainable
form that verifies the same convergence fact.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from odolab import gallery
from odolab.criteria import (alpha_shift, evaluate, gamma_odometer,
                             gamma_tilde_witness, kappa, omega,
                             salas_products, theta)
from odolab.maps import (InducedBijection, boundedness, norm_probe,
                         preimage_cylinder, rn_derivative, set_measure)
from odolab.space import DepthSet, build_truncation
from odolab.witness import (DEFAULT_SEED, EXHAUSTIVE_CELL_CAP, fhc_witness,
                            shift_fhc_witness, transitivity_witness)

from conftest import listed_spec, random_rational_vector


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {tag}" + (f" - {detail}" if detail else "")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. boundedness identity for the binary i/(i+1) odometer
# ---------------------------------------------------------------------------

def test_criterion_01_boundedness_identity():
    spec = gallery.get_spec("fhc-binary")
    rep = boundedness(spec, 20)
    ok = all(rep.values[l - 1] == Fraction(l, math.factorial(l - 1))
             for l in range(1, 21))
    _report("01", ok, "level values equal l/(l-1)! exactly for l <= 20")


# ---------------------------------------------------------------------------
# 2. Ornstein classification
# ---------------------------------------------------------------------------

def test_criterion_02_ornstein():
    spec = gallery.get_spec("ornstein")
    ok = all(spec.eta(i) == Fraction(1, 2)
             and spec.delta(i) == Fraction(1, 2 * i)
             for i in range(2, 10 ** 4 + 1))
    v = evaluate(spec, "hc-limsup-drop", horizon=400, mode="numeric")
    ok &= v.status == "satisfied-up-to-horizon"
    ok &= v.evidence["margin_exact"] >= Fraction(1, 4)
    _report("02", ok, f"eta/delta exact to 10^4; margin {v.evidence['margin']:.4f}")


# ---------------------------------------------------------------------------
# 3. binary weights 1/2 + i^-2: convergent ratio product, norm probes
# ---------------------------------------------------------------------------

def _ratio_partial_products(spec, horizon):
    prods = []
    p = 1.0
    for i in range(1, horizon + 1):
        p *= float(spec.eta(i)) / float(spec.delta(i))
        prods.append(p)
    return prods


@pytest.mark.xfail(strict=True, reason=(
    "stated tolerance is unattainable: every increment of the partial "
    "products near i = 10^3 is at least P * 4/i^2 ~ 1.7e-4 > 1e-6; the "
    "1e-6 threshold is only crossed near i = 13300 (see decisions ledger)"))
def test_criterion_03_product_increments_as_stated():
    spec = gallery.get_spec("binary-alpha(2)")
    prods = _ratio_partial_products(spec, 4000)
    increments = [b - a for a, b in zip(prods, prods[1:])]
    beyond = increments[1000:]
    _report("03a-literal", max(beyond) < 1e-6,
            f"max increment beyond i=10^3 is {max(beyond):.3e}")


def test_criterion_03_product_cauchy_attained():
    spec = gallery.get_spec("binary-alpha(2)")
    horizon = 20000
    prods = _ratio_partial_products(spec, horizon)
    increments = [b - a for a, b in zip(prods, prods[1:])]
    # increments decrease beyond the burn-in and eventually cross 1e-6;
    # past the crossing the product is Cauchy at that resolution
    ok = all(b <= a * (1 + 1e-12) for a, b in
             zip(increments[1000:], increments[1001:]))
    crossing = next(i for i, x in enumerate(increments) if x < 1e-6
                    and all(y < 1e-6 for y in increments[i:i + 100]))
    ok &= crossing < horizon
    ok &= prods[-1] - prods[crossing] < 0.05
    # document the defect in the stated form: the crossing is far past 10^3
    ok &= max(increments[1000:2000]) > 1e-6
    _report("03", ok,
            f"product converges to {prods[-1]:.4f}; increments fall below "
            f"1e-6 from i ~ {crossing + 1} (not 10^3 as stated)")


def test_criterion_03_norm_probes_below_product_limit():
    spec = gallery.get_spec("binary-alpha(2)")
    limit = _ratio_partial_products(spec, 15000)[-1]
    measures = build_truncation(spec, 12).all_measures()
    worst = 0.0
    ok = True
    for n in range(1, 101):
        probe, _ = norm_probe(spec, 12, n, measures=measures)
        worst = max(worst, float(probe))
        ok &= float(probe) <= limit + 1e-9
    _report("03b", ok, f"max probe {worst:.3f} <= product limit {limit:.3f} + 1e-9")


# ---------------------------------------------------------------------------
# 4. dyadic tent example: normalizer, drop floor, disjoint-mass ceiling
# ---------------------------------------------------------------------------

def test_criterion_04_hc_not_mixing():
    spec = gallery.get_spec("hc-not-mixing")
    ok = True
    for i in range(1, 201):
        m = spec.m(i)
        ok &= spec.measure.normalizer(m) >= Fraction(1, 4)
        ok &= spec.eta(i) - spec.delta(i) >= Fraction(1, 8)
        ok &= kappa(spec, i) <= Fraction(7, 8)
    _report("04", ok, "c >= 1/4, drop >= 1/8, disjoint mass <= 7/8 for i <= 200")


# ---------------------------------------------------------------------------
# 5. solved geometric weights
# ---------------------------------------------------------------------------

def test_criterion_05_geometric_mixing():
    spec = gallery.get_spec("geometric-mixing")
    ok = True
    for i in range(1, 101):
        m = spec.m(i)
        c = spec.measure.ratio(i, m)
        ok &= 1.0 / (i + 1) < c <= 1.0 / i + 1e-12
        ok &= spec.eta(i) == Fraction(i, i + 1)
        ok &= float(kappa(spec, i)) >= float(spec.eta(i)) - 1e-12
    ok &= float(kappa(spec, 100)) >= 0.99
    _report("05", ok, "ratios in bracket to 1e-12; eta exact; kappa >= eta, "
                      ">= 0.99 at i = 100")


# ---------------------------------------------------------------------------
# 6. blocks-of-three example
# ---------------------------------------------------------------------------

def _brute_gamma_binary(w0, w1):
    best = Fraction(0)
    for D in ((), (0,), (1,), (0, 1)):
        a = sum((w0, w1)[x] for x in D) if D else Fraction(0)
        b = sum((w0, w1)[(x + 1) % 2] for x in D) if D else Fraction(0)
        best = max(best, min(a, 1 - b))
    return best


def test_criterion_06_fhc_not_mixing():
    spec = gallery.get_spec("fhc-not-mixing")
    ok = True
    for k in range(1, 101):
        ok &= gamma_odometer(spec, 3 * k + 2) == 1 - Fraction(1, k + 1)
        ok &= omega(spec, 3 * k + 1, Fraction(1, 5)) == Fraction(1, k + 1)
    for k in range(0, 101):
        ok &= spec.eta(3 * k + 3) == Fraction(1, 2)
    # brute force agrees with the optimized route on small alphabets
    for k in range(1, 17):
        w = spec.mu(3 * k + 2)
        ok &= _brute_gamma_binary(*w) == gamma_odometer(spec, 3 * k + 2)
    _report("06", ok, "split levels 1 - 1/(k+1), top intervals 1/(k+1), "
                      "uniform third coordinates")


# ---------------------------------------------------------------------------
# 7. concentration transitivity witness
# ---------------------------------------------------------------------------

def test_criterion_07_transitivity_witness():
    spec = gallery.get_spec("binary-alpha(1/4)")
    eps = 0.1
    rep = transitivity_witness(spec, eps, trials=10 ** 6, seed=DEFAULT_SEED)
    ok = rep.passed
    mass = rep.check("mass")
    ok &= mass.method == "independence-product"
    ok &= float(rep.objects["mu_b"]) > 1 - 3 * eps
    disjoint = rep.check("disjoint")
    cells = spec.cell_count(rep.objects["plan"].depth)
    if cells <= EXHAUSTIVE_CELL_CAP:
        ok &= disjoint.method == "exact"
    else:
        ok &= disjoint.method == "sampled"
        ok &= disjoint.extras["trials"] == 10 ** 6
    ok &= disjoint.computed == 0
    _report("07", ok, f"mu(B) = {float(rep.objects['mu_b']):.4f} > 0.7; "
                      f"disjointness via {disjoint.method}, 0 violations")


# ---------------------------------------------------------------------------
# 8. periodic-block witness with function-level checks
# ---------------------------------------------------------------------------

def test_criterion_08_fhc_witness():
    spec = gallery.get_spec("fhc-binary")
    rep = fhc_witness(spec, 0.05, Fraction(1, 8), f_symbols=(0, 0, 0),
                      spot_checks=1000, seed=DEFAULT_SEED)
    ok = rep.passed
    for name in ("pullback-small-all-k", "pullback-large-all-k"):
        ok &= rep.check(name).method == "proof-bound" and rep.check(name).ok
    for name in ("pullback-small-transport", "pullback-large-transport",
                 "bound-vs-transport", "function-small", "function-close"):
        ok &= rep.check(name).ok
    ok &= rep.check("pullback-small-transport").extras["coverage"].startswith(
        "seeded-spot")
    _report("08", ok, f"N = {rep.params['N']}, kd = "
                      f"{int(Fraction(1, 8) * rep.params['d'])}; bounds, 10^3 "
                      "seeded transports and function-level checks all hold")


# ---------------------------------------------------------------------------
# 9. translation block suite
# ---------------------------------------------------------------------------

def test_criterion_09_hoeffbis_blocks():
    spec = gallery.get_spec("hoeffbis-blocks")
    ok = True
    for l in range(1, 8):
        i = l * l
        n = 2 ** l
        rho = 1 + Fraction(1, n)
        closed = (rho ** n - 1) / rho ** n
        from odolab.criteria import beta_sup
        ok &= beta_sup(spec, i) == closed
    for l in (5, 6, 7):
        ok &= theta(spec, l * l, shift=2 ** l) >= Fraction(1, 5)
    _report("09", ok, "beta matches the closed form exactly on blocks "
                      "l <= 7; drops at shift 2^l stay above 0.2 from l = 5")


# ---------------------------------------------------------------------------
# 10. rigidity probe
# ---------------------------------------------------------------------------

def test_criterion_10_rigidity():
    from odolab.witness import rigidity_probe
    spec = gallery.get_spec("trans-rigid")
    rep = rigidity_probe(spec, max_i=8, cylinder_depth=6, registered_log_k=1.0)
    ok = rep.passed
    # identity on shallow cylinders is a divisibility fact, checked for all i
    for i in range(2, 9):
        ok &= rep.check(f"fixes-depth-{i - 1}-cylinders@i={i}").ok
        ok &= rep.check(f"power-bound@i={i}").ok
    _report("10", ok, "shifts by m_(i-1) fix shallow cylinders; pullback "
                      "growth on depth <= 6 cylinders stays below K = e")


# ---------------------------------------------------------------------------
# 11. weighted shift suite
# ---------------------------------------------------------------------------

def test_criterion_11_shift_suite():
    spec = gallery.get_spec("shift-z")
    ok = True
    for i in range(-3, 4):
        prods = salas_products(spec, i, i, 60)
        for n in range(abs(i) + 1, 61):
            ok &= prods[n - 1] == Fraction(1, 4 ** n)
        ok &= all(a >= b for a, b in zip(prods, prods[1:]))
        ok &= prods[-1] < Fraction(1, 10 ** 30)
    rep = shift_fhc_witness(spec, kappa_param=0.15, d=200)
    ok &= rep.passed
    _report("11", ok, "products collapse to 4^-n monotonically; the window "
                      "construction passes every check exactly")


# ---------------------------------------------------------------------------
# 12. oracle equivalence for every optimizer
# ---------------------------------------------------------------------------

def _subset_sums(ints):
    s = np.zeros(1, dtype=np.int64)
    for x in ints:
        s = np.concatenate([s, s + x])
    return s


def test_criterion_12_oracle_equivalence():
    rng = np.random.default_rng(20240902)
    q = 720720
    ok = True
    for _ in range(200):
        m = int(rng.integers(2, 17))
        w = random_rational_vector(rng, m, q=q)
        spec = listed_spec("odometer", [w])
        ints = np.array([int(x * q) for x in w], dtype=np.int64)
        sums = _subset_sums(ints)
        masks = np.arange(1 << m, dtype=np.int64)
        full = (1 << m) - 1
        best_theta = 0
        kappa_or = None
        gamma_or = 0
        alpha_or = {}
        for k in range(1, m):
            rot = ((masks << k) | (masks >> (m - k))) & full
            best_theta = max(best_theta, int((sums - sums[rot]).max()))
            alpha_or[k] = int(sums[(masks & rot) == 0].max())
            shifted = (masks << k) & full          # plain addition: bits >= m leave
            v = int(sums[(masks & shifted) == 0].max())
            kappa_or = v if kappa_or is None else min(kappa_or, v)
            gamma_or = max(gamma_or, int(np.minimum(sums, q - sums[rot]).max()))
        ok &= theta(spec, 1) == Fraction(best_theta, q)
        ok &= kappa(spec, 1) == Fraction(kappa_or, q)
        ok &= gamma_odometer(spec, 1) == Fraction(gamma_or, q)
        for k in (1, m - 1, max(m // 2, 1), m, m + 3):
            expect = Fraction(alpha_or[k % m], q) if k % m else Fraction(0)
            ok &= alpha_shift(spec, 1, k) == expect
    # windowed averaged-drop scan against per-cardinality enumeration
    for _ in range(200):
        depth = int(rng.integers(2, 19))
        vectors = [random_rational_vector(rng, int(rng.integers(2, 7)), q=q)
                   for _ in range(depth)]
        tspec = listed_spec("diagonal-translation", vectors)
        n = int(rng.integers(1, 30))
        drops = [theta(tspec, i, shift=n) for i in range(1, depth + 1)]
        ints = np.array([int(d * q) for d in drops], dtype=np.int64)
        sums = _subset_sums(ints)
        counts = np.bitwise_count(np.arange(1 << depth, dtype=np.uint64))
        best = Fraction(0)
        for t in range(1, depth + 1):
            sel = sums[counts == t]
            if len(sel):
                s_max = int(sel.max())
                best = max(best, Fraction(s_max, q) ** 2 / t)
        val, _ = gamma_tilde_witness(tspec, n, depth)
        ok &= val == best
    _report("12", ok, "theta/kappa/alpha/gamma and the windowed scan all "
                      "match exhaustive enumeration on 200 random measures")


# ---------------------------------------------------------------------------
# 13. structural invariants
# ---------------------------------------------------------------------------

ODOMETER_GALLERY = ["ornstein", "hc-not-mixing", "fhc-binary",
                    "fhc-not-mixing", "binary-alpha(2)", "geometric-mixing"]
TRANSLATION_GALLERY = ["trans-hc", "trans-mixing", "hoeffbis-blocks"]


def _depth_within(spec, cap=4096, limit=6):
    depth, cells = 0, 1
    while depth < limit:
        nxt = cells * spec.m(depth + 1)
        if nxt > cap:
            break
        depth, cells = depth + 1, nxt
    return max(depth, 1)


def test_criterion_13_structural_invariants():
    rng = np.random.default_rng(20240903)
    ok = True
    for gid in ODOMETER_GALLERY + TRANSLATION_GALLERY:
        spec = gallery.get_spec(gid)
        depth = _depth_within(spec)
        bij = InducedBijection(spec, depth)
        perm = bij.as_permutation()
        ok &= sorted(perm) == list(range(bij.cell_count))
        ok &= all(bij.inverse(perm[c]) == c for c in range(bij.cell_count))
        order = bij.order()
        if spec.kind == "odometer":
            ok &= order == spec.cell_count(depth)
        else:
            ok &= math.lcm(*(spec.m(i) for i in range(1, depth + 1))) % order == 0
        ok &= all(bij.forward(c, order) == c for c in range(bij.cell_count))
        tr = build_truncation(spec, depth)
        total = sum(tr.all_measures()) if spec.backend == "rational" else None
        if total is not None:
            ok &= total == 1
        else:
            ok &= abs(math.fsum(float(x) for x in tr.all_measures()) - 1) < 1e-12
        # period divisibility for 100 random basic cylinders
        for _ in range(100):
            d = int(rng.integers(1, depth + 1))
            symbols = tuple(int(rng.integers(0, spec.m(i)))
                            for i in range(1, d + 1))
            from odolab.functions import period_of
            from odolab.space import SimpleFunction
            f = SimpleFunction.indicator(DepthSet.basic_cylinder(spec, symbols))
            per = period_of(spec, f)
            if spec.kind == "odometer":
                ok &= spec.cell_count(d) % per == 0
            else:
                ok &= math.lcm(*(spec.m(i) for i in range(1, d + 1))) % per == 0
    # density identity on resolved cells, depths <= 6, odometer gallery
    for gid in ODOMETER_GALLERY:
        spec = gallery.get_spec(gid)
        if spec.backend != "rational":
            continue
        depth = min(_depth_within(spec), 6)
        tr = build_truncation(spec, depth)
        for cell in range(1, tr.cell_count):
            symbols = tr.digits(cell)
            pre = preimage_cylinder(spec, symbols)
            lhs = set_measure(spec, DepthSet.basic_cylinder(spec, pre))
            ok &= lhs == rn_derivative(spec, symbols) * tr.cell_measure(cell)
    _report("13", ok, "permutation and order laws, exact normalization, the "
                      "density identity and period divisibility all hold")
