import math
from collections import Counter

import pytest

from quiddity import census, formulas, verify

MEMOIZED = (formulas.coeff_powP, formulas.coeff_Ptilde, formulas.coeff_D)


def clear_closed_forms():
    for fn in MEMOIZED:
        fn.cache_clear()


@pytest.fixture(autouse=True)
def fresh_closed_forms():
    # a value cached by another test would never reach a patched kernel,
    # and a value summed through a patched kernel must not outlive its test
    clear_closed_forms()
    yield
    clear_closed_forms()


def test_coeff_P_row():
    # P is the e = 1 power of itself
    assert [formulas.coeff_powP(1, n) for n in range(8)] == [1, 1, 2, 5, 15, 48, 160, 550]


def test_coeff_Q_row():
    assert [formulas.coeff_Q(n) for n in range(8)] == [1, 1, 2, 5, 15, 49, 166, 577]


def test_coeff_Ptilde_row():
    assert [formulas.coeff_Ptilde(n) for n in range(8)] == [
        1, -1, -1, -2, -6, -18, -57, -189]


def test_coeff_V1_row():
    assert [formulas.coeff_V1(n) for n in range(1, 8)] == [1, 1, 2, 6, 19, 62, 209]
    with pytest.raises(ValueError):
        formulas.coeff_V1(0)


def test_coeff_W11_row():
    assert [formulas.coeff_W11(n) for n in range(8)] == [0, 1, 0, 0, 1, 3, 9, 29]


def test_coeff_powP_small_exponents():
    # e = 1 must reproduce P itself
    assert [formulas.coeff_powP(1, n) for n in range(7)] == [1, 1, 2, 5, 15, 48, 160]
    # e = 2 is the Cauchy square of the P row
    p = [formulas.coeff_powP(1, n) for n in range(7)]
    square = [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(7)]
    assert [formulas.coeff_powP(2, n) for n in range(7)] == square


def test_coeff_D_row():
    assert [formulas.coeff_D(n) for n in range(1, 8)] == [1, 2, 5, 15, 49, 168, 595]


def test_coeff_E_convolution_seed():
    assert formulas.coeff_E(3) == 0
    assert formulas.coeff_E(4) == 6
    # E_n is (n + 2) times the D*D convolution over interior split points
    for n in range(3, 10):
        conv = sum(formulas.coeff_D(k - 2) * formulas.coeff_D(n - k)
                   for k in range(3, n))
        assert formulas.coeff_E(n) == (n + 2) * conv


def test_coeff_F_is_scaled_D():
    for n in range(3, 12):
        assert formulas.coeff_F(n) == 2 * (n + 2) * formulas.coeff_D(n - 2)


def test_index_guards():
    for fn in (lambda n: formulas.coeff_powP(1, n), formulas.coeff_Q,
               formulas.coeff_Ptilde, formulas.coeff_W11, formulas.coeff_D):
        with pytest.raises(ValueError):
            fn(-1)
    with pytest.raises(ValueError):
        formulas.coeff_powP(0, 3)
    with pytest.raises(ValueError):
        formulas.coeff_E(2)
    with pytest.raises(ValueError):
        formulas.coeff_F(2)


def test_non_integral_sum_names_its_label(monkeypatch):
    # binomials that are all off by one, as a convention slip would make them
    real = formulas.comb
    monkeypatch.setattr(formulas, "comb", lambda top, k: real(top, k) + 1)
    with pytest.raises(formulas.NonIntegralSumError,
                       match=r"^D_4 summed to the non-integer 154/5$"):
        formulas.coeff_D(4)
    with pytest.raises(formulas.NonIntegralSumError,
                       match=r"^\[X\^4\]P\^2 summed to the non-integer 1342/15$"):
        formulas.coeff_powP(2, 4)


def test_every_closed_form_sums_through_the_kernel(monkeypatch):
    class Sentinel(Exception):
        pass

    def spy(label, terms):
        raise Sentinel(label)

    monkeypatch.setattr(formulas, "_exact_sum", spy)
    # each closed form at its smallest index past the special cases;
    # E and F reach the kernel through D, and Q, V1 and W11 through the
    # first term of their ladder of powers of P
    cases = [(formulas.coeff_Q, 1, "[X^0]P^2"), (formulas.coeff_Ptilde, 1, "Ptilde_1"),
             (formulas.coeff_V1, 1, "[X^0]P^1"), (formulas.coeff_W11, 4, "[X^0]P^3"),
             (lambda n: formulas.coeff_powP(2, n), 0, "[X^0]P^2"),
             (formulas.coeff_D, 0, "D_0"), (formulas.coeff_E, 4, "D_1"),
             (formulas.coeff_F, 3, "D_1")]
    for fn, n, label in cases:
        with pytest.raises(Sentinel) as caught:
            fn(n)
        assert caught.value.args == (label,)
    # below its ladder's first rung, W11 is its X term alone
    assert [formulas.coeff_W11(n) for n in (2, 3)] == [0, 0]


def _binom(top, k):
    """The binomial under the closed forms' first conventions: a negative top
    gives 1, checked first; otherwise k outside 0..top gives 0."""
    if top < 0:
        return 1
    if k < 0 or k > top:
        return 0
    return math.comb(top, k)


def _ptilde_full_range(n):
    """Ptilde_n by the triple sum over every (j, k, l) of its plain ranges,
    the vanishing terms included."""
    if n == 0:
        return 1
    return -formulas._exact_sum(f"Ptilde_{n}", (
        ((-1 if (j - k) % 2 else 1) * math.comb(j, k) * (2 * j + 2)
         * _binom(n - j - 2 * k - 2 * l - 2, l)
         * _binom(2 * n - 4 * k - 4 * l - 1, n - j - 2 * k - 3 * l - 1),
         n + j - 2 * k - l + 1)
        for j in range(n) for k in range((n - j - 1) // 2 + 1)
        for l in range((n - j - 2 * k - 1) // 3 + 1)))


def test_coeff_Ptilde_equals_its_full_range_sum():
    assert [formulas.coeff_Ptilde(n) for n in range(41)] == [
        _ptilde_full_range(n) for n in range(41)]


def test_the_closed_forms_hand_the_kernel_no_zero_term(monkeypatch):
    terms, zeros = Counter(), Counter()
    real = formulas._exact_sum

    def spy(label, pairs):
        pairs = list(pairs)
        family = label.split("_")[0] if "_" in label else label.split("]")[1]
        terms[family] += len(pairs)
        zeros[family] += sum(num == 0 for num, _ in pairs)
        return real(label, pairs)

    monkeypatch.setattr(formulas, "_exact_sum", spy)
    for n in range(49):
        formulas.coeff_Ptilde(n)
        formulas.coeff_D(n)
        for e in (1, 2, 3):
            formulas.coeff_powP(e, n)
    # 46,836 over the plain ranges, 16,440 of them zero
    assert terms["Ptilde"] == 30396
    # P^e and D: n // 3 + 1 terms over the plain ranges, (n - 1) // 3 + 1 here
    assert terms["D"] == terms["P^1"] == sum(max(n - 1, 0) // 3 + 1 for n in range(49))
    assert set(terms) == {"Ptilde", "D", "P^1", "P^2", "P^3"}
    assert zeros == Counter()


def test_closed_forms_equal_one_series_build_to_order_100():
    order = 100
    p, q = census.series_row("P", order), census.series_row("Q", order)
    v1, w11 = census.series_V(1, order), census.series_row("W", order, 1, 1)
    assert [formulas.coeff_Q(n) for n in range(order + 1)] == list(q.coeffs)
    assert [formulas.coeff_V1(n) for n in range(1, order + 1)] == list(v1.coeffs[1:])
    assert [formulas.coeff_W11(n) for n in range(order + 1)] == list(w11.coeffs)
    for e in (1, 2, 3):
        assert [formulas.coeff_powP(e, n) for n in range(order + 1)] == list(p.pow(e).coeffs)
    # the triple sum costs about the order to the fourth power; CI runs it to 100
    ptilde = census.series_row("Ptilde", order).coeffs[:49]
    assert [formulas.coeff_Ptilde(n) for n in range(49)] == list(ptilde)
    for family, formula in zip("DEF", (formulas.coeff_D, formulas.coeff_E, formulas.coeff_F)):
        entries = census.census_table(family, order).entries
        assert [formula(n) for n in entries] == list(entries.values()), family


def test_each_closed_form_value_is_summed_once_per_process(monkeypatch):
    summed = Counter()
    real = formulas._exact_sum

    def spy(label, terms):
        summed[label] += 1
        return real(label, terms)

    monkeypatch.setattr(formulas, "_exact_sum", spy)
    # E_n reads D_1..D_{n-3}, so E_3..E_48 read D_1..D_45, each many times
    for n in range(3, 49):
        formulas.coeff_E(n)
    assert summed == Counter(f"D_{k}" for k in range(1, 46))

    for n in range(1, 17):
        formulas.coeff_Ptilde(n)
    summed.clear()
    verify.identity_checks(order=32)
    assert ({label for label in summed if label.startswith("Ptilde_")}
            == {f"Ptilde_{n}" for n in range(17, 33)})
    assert max(summed.values()) == 1
