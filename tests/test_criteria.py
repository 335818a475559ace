import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from odolab import gallery
from odolab import criteria
from odolab.criteria import (alpha_shift, beta_sup, contradicts, evaluate,
                             gamma_odometer, gamma_tilde, gamma_tilde_witness,
                             gamma_witness, kappa, odometer_filler, omega,
                             salas_products, table_rows, theta,
                             theta_witness, tilted_mass, tsv_rows)
from odolab.errors import CapExceeded, UnknownTheorem
from odolab.maps import boundedness

from conftest import listed_spec


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the optimizer implementations)
# ---------------------------------------------------------------------------

def brute_theta(w, k=None):
    m = len(w)
    shifts = [k] if k else range(1, m)
    best = Fraction(0)
    for kk in shifts:
        for mask in range(1 << m):
            D = [j for j in range(m) if mask >> j & 1]
            val = sum((w[j] for j in D), Fraction(0)) \
                - sum((w[(j + kk) % m] for j in D), Fraction(0))
            best = max(best, val)
    return best


def brute_kappa(w):
    m = len(w)
    best = None
    for j in range(1, m):
        top = Fraction(0)
        for mask in range(1 << m):
            D = {x for x in range(m) if mask >> x & 1}
            if D & {x + j for x in D}:    # plain integer addition
                continue
            top = max(top, sum((w[x] for x in D), Fraction(0)))
        best = top if best is None else min(best, top)
    return best


def brute_alpha(w, n):
    m = len(w)
    r = n % m
    best = Fraction(0)
    for mask in range(1 << m):
        D = {x for x in range(m) if mask >> x & 1}
        if r == 0 and D:
            continue
        if D & {(x + r) % m for x in D}:
            continue
        best = max(best, sum((w[x] for x in D), Fraction(0)))
    return best


def brute_gamma(w):
    m = len(w)
    best = Fraction(0)
    for j in range(1, m):
        for mask in range(1 << m):
            D = [x for x in range(m) if mask >> x & 1]
            a = sum((w[x] for x in D), Fraction(0))
            b = sum((w[(x + j) % m] for x in D), Fraction(0))
            best = max(best, min(a, 1 - b))
    return best


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_theta_examples():
    uni = gallery.get_spec("same-measure(1/4,1/4,1/4,1/4)")
    assert theta(uni, 1) == 0
    s = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    assert theta(s, 1, shift=1) == Fraction(1, 3)
    assert theta(s, 1) == brute_theta(list(s.mu(1)))


def test_theta_binary_alpha_closed_form():
    spec = gallery.get_spec("binary-alpha(2)")
    for i in range(2, 50):
        assert theta(spec, i) == Fraction(2, i * i)


def test_theta_witness_achieves_value():
    s = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    val, D, k = theta_witness(s, 1)
    w = s.mu(1)
    achieved = sum((w[j] for j in D), Fraction(0)) \
        - sum((w[(j + k) % 3] for j in D), Fraction(0))
    assert achieved == val


def test_kappa_examples():
    b = gallery.get_spec("same-measure(2/3,1/3)")
    assert kappa(b, 1) == Fraction(2, 3)
    u3 = gallery.get_spec("same-measure(1/3,1/3,1/3)")
    assert kappa(u3, 1) == Fraction(2, 3)
    assert kappa(u3, 1) == brute_kappa(list(u3.mu(1)))


def test_kappa_hc_not_mixing_ceiling(hc_not_mixing):
    for i in range(1, 30):
        assert kappa(hc_not_mixing, i) <= Fraction(7, 8)


def test_gamma_examples():
    b = gallery.get_spec("same-measure(2/3,1/3)")
    assert gamma_odometer(b, 1) == Fraction(2, 3)
    u4 = gallery.get_spec("same-measure(1/4,1/4,1/4,1/4)")
    assert gamma_odometer(u4, 1) == Fraction(1, 2)
    u3 = gallery.get_spec("same-measure(1/3,1/3,1/3)")
    assert gamma_odometer(u3, 1) == Fraction(1, 3) == brute_gamma(list(u3.mu(1)))


def test_gamma_fhc_not_mixing_blocks():
    spec = gallery.get_spec("fhc-not-mixing")
    for k in range(1, 20):
        assert gamma_odometer(spec, 3 * k + 2) == 1 - Fraction(1, k + 1)


def test_gamma_witness_extracts_split():
    spec = gallery.get_spec("fhc-not-mixing")
    val, D, j = gamma_witness(spec, 8)
    mu_d = spec.subset_measure(8, D)
    mu_dj = spec.subset_measure(8, {(x + j) % 2 for x in D})
    assert min(mu_d, 1 - mu_dj) == val


def test_omega_examples(fhc_binary):
    assert omega(fhc_binary, 5, Fraction(1, 5)) == fhc_binary.mu_weight(5, 1)
    assert omega(fhc_binary, 5, Fraction(9, 10)) == 1
    spec = listed_spec("odometer", [[Fraction(1, 8), Fraction(3, 8),
                                     Fraction(1, 4), Fraction(1, 4)],
                                    [Fraction(1, 2), Fraction(1, 2)]])
    # interval [m-1 - kappa m m', m-1] = [2, 3] for kappa = 1/8, m=4, m'=2
    assert omega(spec, 1, Fraction(1, 8)) == Fraction(1, 2)


def test_tilted_mass_sums_the_top_interval():
    # m_{i-1} = 4 and kappa = 1/5: the interval starts at ceil(4 - 4/5 j),
    # at 4, 4, 3, 1 and 0 for j = 0, 1, 2, 4, 5, and at 0 again past j = 5
    w = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)]
    spec = listed_spec("odometer", [w, [Fraction(1, 2), Fraction(1, 2)]])
    for j, lo in [(0, 4), (1, 4), (2, 3), (4, 1), (5, 0), (6, 0)]:
        assert tilted_mass(spec, 2, j, Fraction(1, 5)) == sum(w[lo:],
                                                              Fraction(0))
    spec = gallery.get_spec("fhc-not-mixing")
    for i in range(2, 12):
        m = spec.m(i - 1)
        for j in range(1, spec.m(i)):
            lo = max(0, math.ceil(m - Fraction(1, 8) * j * m))
            assert tilted_mass(spec, i, j, Fraction(1, 8)) == sum(
                (spec.mu_weight(i - 1, x) for x in range(lo, m)), Fraction(0))


def test_alpha_examples():
    u4 = gallery.get_spec("same-measure(1/4,1/4,1/4,1/4)")
    assert alpha_shift(u4, 1, 2) == Fraction(1, 2) == brute_alpha(list(u4.mu(1)), 2)
    assert alpha_shift(u4, 1, 4) == 0
    assert alpha_shift(u4, 1, 5) == alpha_shift(u4, 1, 1)


def test_beta_is_max_over_residues():
    s = gallery.get_spec("same-measure(1/2,1/3,1/6)")
    assert beta_sup(s, 1) == max(alpha_shift(s, 1, r) for r in (1, 2))


def test_gamma_tilde_examples():
    flat = listed_spec("diagonal-translation",
                       [[Fraction(1, 2), Fraction(1, 2)]] * 3)
    assert gamma_tilde(flat, 1, 3) == 0
    vectors = [[Fraction(3, 4), Fraction(1, 4)],
               [Fraction(3, 4), Fraction(1, 4)],
               [Fraction(11, 20), Fraction(9, 20)]]
    spec = listed_spec("diagonal-translation", vectors)
    # drops for shift 1: (1/2, 1/2, 1/10); brute force over 7 subsets
    drops = [theta(spec, i, shift=1) for i in (1, 2, 3)]
    assert drops == [Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)]
    best = max((sum(sub) ** 2 / Fraction(len(sub)))
               for r in (1, 2, 3)
               for sub in itertools.combinations(drops, r))
    val, chosen = gamma_tilde_witness(spec, 1, 3)
    assert val == best == Fraction(1, 2)
    assert len(chosen) == 2


def test_gamma_tilde_monotone_in_horizon():
    spec = gallery.get_spec("hoeffbis-blocks")
    v1 = gamma_tilde(spec, 4, 4)
    v2 = gamma_tilde(spec, 4, 8)
    assert v2 >= v1


# ---------------------------------------------------------------------------
# randomized oracle equivalence (small; the big run is in acceptance)
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.data())
def test_optimizers_match_brute_force(data):
    m = data.draw(st.integers(2, 6))
    raw = data.draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    total = sum(raw)
    w = [Fraction(x, total) for x in raw]
    spec = listed_spec("odometer", [w])
    assert theta(spec, 1) == brute_theta(w)
    assert kappa(spec, 1) == brute_kappa(w)
    assert gamma_odometer(spec, 1) == brute_gamma(w)
    n = data.draw(st.integers(0, 2 * m))
    assert alpha_shift(spec, 1, n) == brute_alpha(w, n)


# ---------------------------------------------------------------------------
# sequence invariants on gallery specs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", ["ornstein", "hc-not-mixing", "fhc-binary",
                                 "fhc-not-mixing", "binary-alpha(2)"])
def test_odometer_sequence_inequalities(gid):
    spec = gallery.get_spec(gid)
    for i in range(1, 25):
        e, d = spec.eta(i), spec.delta(i)
        assert kappa(spec, i) >= e
        assert gamma_odometer(spec, i) >= e
        assert theta(spec, i) >= e - d


def test_binary_closed_forms_remark():
    # on binary alphabets: gamma = max weight, omega(kappa<1/4) = top weight
    for gid in ("fhc-binary", "fhc-not-mixing", "binary-alpha(2)",
                "binary-three-quarters"):
        spec = gallery.get_spec(gid)
        for i in range(1, 20):
            w = spec.mu(i)
            assert gamma_odometer(spec, i) == max(w)
            assert omega(spec, i, Fraction(1, 5)) == w[1]


def test_gamma_n_bounded_by_runaway_constant():
    spec = gallery.get_spec("trans-hc")
    K = boundedness(spec, 8).supremum
    for n in range(1, 9):
        g = max(alpha_shift(spec, i, n) for i in range(1, 7))
        assert g <= K ** n / (1 + K ** n)


def test_gamma_n_monotone_in_index_horizon():
    from odolab.criteria import gamma_translation
    spec = gallery.get_spec("trans-hc")
    assert gamma_translation(spec, 3, 6) >= gamma_translation(spec, 3, 3)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_evaluate_unknown():
    with pytest.raises(UnknownTheorem):
        evaluate(gallery.get_spec("ornstein"), "no-such-criterion")


def test_evaluate_turns_a_package_error_into_inconclusive(monkeypatch):
    seen = {}

    def over_budget(spec, horizon, params):
        seen.update(params)
        raise CapExceeded("budget of 10 steps passed")

    monkeypatch.setitem(criteria._RULES, "mixing-eta", over_budget)
    spec = gallery.get_spec("fhc-binary")
    v = evaluate(spec, "mixing-eta", horizon=8, params={"slack": 0.1},
                 mode="numeric")
    assert (v.criterion, v.status, v.mode) == (
        "mixing-eta", "inconclusive", "numeric-horizon")
    assert v.evidence == {"reason": "budget of 10 steps passed"}
    assert v.params == seen == {"slack": 0.1}
    with pytest.raises(UnknownTheorem):
        evaluate(spec, "no-such-criterion", horizon=8)


@pytest.mark.parametrize("expected,status,flagged", [
    ("satisfied-closed-form", "violated", True),
    ("satisfied-up-to-horizon", "violated", True),
    ("violated", "satisfied-closed-form", True),
    ("violated", "satisfied-up-to-horizon", True),
    ("satisfied-closed-form", "satisfied-up-to-horizon", False),
    ("violated", "violated", False),
    ("satisfied-closed-form", "inconclusive", False),
    ("violated", "inconclusive", False),
])
def test_contradicts_both_directions(expected, status, flagged):
    assert contradicts(expected, status) is flagged


def test_hoeffding_rule_lets_foreign_errors_through(monkeypatch):
    from odolab import witness

    def broken(*args, **kwargs):
        raise RuntimeError("not an odolab failure")

    monkeypatch.setattr(witness, "find_transitivity_params", broken)
    spec = gallery.get_spec("fhc-binary")
    with pytest.raises(RuntimeError):
        evaluate(spec, "hc-drop-hoeffding", horizon=40, mode="numeric")


def test_ornstein_drop_verdict():
    spec = gallery.get_spec("ornstein")
    v = evaluate(spec, "hc-limsup-drop", horizon=100, mode="numeric")
    assert v.status == "satisfied-up-to-horizon"
    assert v.evidence["margin"] >= 0.25
    cf = evaluate(spec, "hc-limsup-drop")
    assert cf.mode == "closed-form"


def test_uniform_same_measure_violated_with_isometry_flag():
    spec = gallery.get_spec("same-measure(1/3,1/3,1/3)")
    v = evaluate(spec, "hc-limsup-drop")
    assert v.status == "violated"
    assert v.evidence.get("isometry") is True


def test_power_bounded_binary_alpha_two():
    spec = gallery.get_spec("binary-alpha(2)")
    v = evaluate(spec, "power-bounded")
    assert v.status == "satisfied-closed-form"
    vn = evaluate(spec, "power-bounded", horizon=3000, mode="numeric")
    assert vn.status == "satisfied-up-to-horizon"
    assert "not-hypercyclic" in vn.evidence["note"]


def test_numeric_mode_never_plain_satisfied():
    spec = gallery.get_spec("fhc-binary")
    for crit in ("mixing-eta", "mixing-kappa", "fhc-odometer"):
        v = evaluate(spec, crit, horizon=60, mode="numeric")
        assert v.status in ("satisfied-up-to-horizon", "inconclusive")
        assert v.mode == "numeric-horizon"


def test_mixing_kappa_tracks_geometric_mixing():
    spec = gallery.get_spec("geometric-mixing")
    v = evaluate(spec, "mixing-kappa", horizon=60, mode="numeric",
                 params={"slack": 0.05})
    assert v.status == "satisfied-up-to-horizon"


def test_salas_products_shift_z():
    spec = gallery.get_spec("shift-z")
    prods = salas_products(spec, 2, 2, 12)
    for n in range(3, 13):
        assert prods[n - 1] == Fraction(1, 4 ** n)
    v = evaluate(spec, "shift-salas", horizon=60)
    assert v.status in ("satisfied-closed-form", "satisfied-up-to-horizon")
    zp = gallery.get_spec("shift-zplus")
    prods = salas_products(zp, 0, 0, 8)
    assert all(p == 0 for p in prods)


def test_odometer_table_layout(fhc_binary):
    rows, stop = table_rows(odometer_filler(fhc_binary, Fraction(1, 5)),
                            range(1, 6))
    assert stop is None
    lines = list(tsv_rows(rows))
    assert lines[0][:3] == ("index", "delta", "eta")
    assert len(lines) == 6
    assert dict(rows)[4]["gamma"] == (Fraction(4, 5), "brute-force")


def test_table_rows_stop_at_the_first_budget():
    exc = CapExceeded("over budget")

    def fill(cells, i):
        cells["b"] = (Fraction(i, 2), "two")
        cells["a"] = (i, "one")
        if i == 3:
            raise exc
        cells["c"] = (0.5, "three")

    rows, stop = table_rows(fill, range(1, 10))
    assert [i for i, _ in rows] == [1, 2, 3]
    assert rows[2][1] == {"b": (Fraction(3, 2), "two"), "a": (3, "one")}
    assert stop[0] == 3 and stop[1] is exc
    lines = list(tsv_rows(rows))
    assert lines[0] == ("index", "a", "b", "c", "optimizers")
    assert lines[1] == ("1", "1", "1/2", "0.5", "a=one;b=two;c=three")
    assert lines[3] == ("3", "3", "3/2", "", "a=one;b=two")
    assert len(lines) == 4


def test_table_rows_skip_a_row_stopped_before_its_first_column():
    def fill(cells, i):
        if i == 2:
            raise CapExceeded("over budget")
        cells["a"] = (i, "one")

    rows, stop = table_rows(fill, range(1, 4))
    assert rows == [(1, {"a": (1, "one")}), (2, {})] and stop[0] == 2
    assert list(tsv_rows(rows)) == [("index", "a", "optimizers"),
                                    ("1", "1", "a=one")]
    rows, stop = table_rows(fill, range(2, 4))
    assert list(tsv_rows(rows)) == [("index", "optimizers")]
