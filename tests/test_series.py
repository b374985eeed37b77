import copy
import pickle
import random

import pytest

from quiddity.series import NotInvertibleError, OrderMismatchError, TruncSeries


def test_construction_and_accessors():
    ts = TruncSeries([1, 2, 3])
    assert ts.order == 2
    assert ts.coeffs == (1, 2, 3)
    assert ts.coeff(1) == 2
    with pytest.raises(IndexError):
        ts.coeff(3)
    with pytest.raises(IndexError):
        ts.coeff(-1)


def test_construction_rejects_non_integers():
    with pytest.raises(TypeError):
        TruncSeries([1, 2.0])
    with pytest.raises(TypeError):
        TruncSeries([True, 0])
    with pytest.raises(ValueError):
        TruncSeries([])


def test_immutability_and_equality():
    ts = TruncSeries([1, 2])
    with pytest.raises(AttributeError):
        ts._coeffs = (0,)
    with pytest.raises(AttributeError):
        ts.coeffs = (0, 0)
    assert ts == TruncSeries([1, 2])
    assert hash(ts) == hash(TruncSeries([1, 2]))
    assert hash(TruncSeries.one(1).add(TruncSeries([0, 2]))) == hash(ts)
    assert ts != TruncSeries([1, 2, 0])
    assert ts != (1, 2)


def test_series_pickles_and_copies():
    ts = TruncSeries([1, -2, 3])
    for twin in (pickle.loads(pickle.dumps(ts)), copy.copy(ts), copy.deepcopy(ts)):
        assert type(twin) is TruncSeries and twin == ts and hash(twin) == hash(ts)
        assert type(twin.coeffs) is tuple


def test_constructors():
    assert TruncSeries.one(3).coeffs == (1, 0, 0, 0)
    assert TruncSeries.zero(2).coeffs == (0, 0, 0)


def test_add_sub_mul():
    a = TruncSeries([1, 2, 3])
    b = TruncSeries([4, 0, -1])
    assert (a + b).coeffs == (5, 2, 2)
    assert (a - b).coeffs == (-3, 2, 4)
    assert (a * b).coeffs == (4, 8, 11)


def test_mul_is_truncated_cauchy_product():
    a = TruncSeries([1, 1, 1, 1])
    assert (a * a).coeffs == (1, 2, 3, 4)


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatchError):
        TruncSeries([1, 2]) + TruncSeries([1, 2, 3])
    with pytest.raises(OrderMismatchError):
        TruncSeries([1, 2]) * TruncSeries([1])
    with pytest.raises(TypeError, match="expected TruncSeries"):
        TruncSeries([1, 2]).add([1, 2])


def test_pow():
    a = TruncSeries([1, 1, 0, 0])
    assert a.pow(0) == TruncSeries.one(3)
    assert a.pow(3).coeffs == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        a.pow(-1)


def test_shift():
    a = TruncSeries([1, 2, 3, 4])
    assert a.shift(0) == a
    assert a.shift(2).coeffs == (0, 0, 1, 2)
    # a shift past the order drops every coefficient
    assert a.shift(4) == TruncSeries.zero(3)
    with pytest.raises(IndexError):
        a.shift(-1)
    for order in range(5):
        b = TruncSeries([(-3) ** i for i in range(order + 1)])
        for j in range(order + 4):
            # multiply untruncated by X^j, then truncate back to the order
            wide = TruncSeries(b.coeffs + (0,) * j)
            power = TruncSeries([int(i == j) for i in range(order + j + 1)])
            assert b.shift(j).coeffs == wide.mul(power).coeffs[:order + 1], (order, j)
        with pytest.raises(IndexError):
            b.shift(-1)


def test_inverse_of_geometric_series():
    geo = TruncSeries([1] * 6)
    assert geo.inverse().coeffs == (1, -1, 0, 0, 0, 0)
    assert (geo * geo.inverse()) == TruncSeries.one(5)


def test_inverse_with_negative_unit():
    a = TruncSeries([-1, 2, 5])
    assert (a * a.inverse()) == TruncSeries.one(2)


def test_inverse_requires_unit_constant():
    with pytest.raises(NotInvertibleError):
        TruncSeries([2, 1]).inverse()
    with pytest.raises(NotInvertibleError):
        TruncSeries([0, 1]).inverse()


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(16)]
        ts = TruncSeries(coeffs)
        assert ts * ts.inverse() == TruncSeries.one(16)
        assert ts.inverse().inverse() == ts


def test_repr_roundtrip():
    ts = TruncSeries([3, 0, -1])
    assert eval(repr(ts)) == ts
