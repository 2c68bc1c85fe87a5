import math

import pytest
from hypothesis import given, strategies as st

from layered_wheels.functions import (
    INF,
    CumulativeFunction,
    CumulativeFunctionError,
    SlowFunction,
    SlowFunctionError,
    cumulative_from_slow,
    parse_f_spec,
    slow_from_cumulative,
)


def test_identity_values():
    f = SlowFunction.identity()
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 4, 5, 6, 7]


def test_capped_values():
    f = SlowFunction.capped(3)
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 3, 3, 3, 3]


def test_table_with_repeat_tail():
    f = SlowFunction.from_table([1, 2, 3, 3, 4])
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 3, 4, 4, 4]


@pytest.mark.parametrize("bad", [
    (1, 2, 4),           # jump of two
    (1, 2, 3, 2),        # decrease
    (2, 2, 3),           # wrong start
    (1, 2),              # too short
])
def test_invalid_tables_rejected(bad):
    with pytest.raises(SlowFunctionError):
        SlowFunction.from_table(bad)


def test_cap_below_three_rejected():
    with pytest.raises(SlowFunctionError):
        SlowFunction.capped(2)


def test_domain_starts_at_one():
    with pytest.raises(SlowFunctionError):
        SlowFunction.identity()(0)


def test_cumulative_of_cap_is_eventually_infinite():
    F = SlowFunction.capped(3).cumulative()
    assert (F(1), F(2)) == (1, 2)
    # f stays at 3 forever, so every budget >= 3 covers all layers
    assert F(3) == INF
    assert F(10) == INF


def test_cumulative_of_identity_is_identity():
    F = SlowFunction.identity().cumulative()
    assert [F(k) for k in range(1, 10)] == list(range(1, 10))


def test_cumulative_star_violation_rejected():
    F = CumulativeFunction.from_table([1, 2, 2])
    with pytest.raises(CumulativeFunctionError):
        F(3)


def test_cumulative_bad_start_rejected():
    with pytest.raises(CumulativeFunctionError):
        CumulativeFunction(lambda k: k + 1)


def test_slow_from_cumulative_table():
    F = CumulativeFunction.from_table([1, 2, 5, 7])
    f = slow_from_cumulative(F)
    # F(3)=5 means layers 1..5 have budget <= 3; F(4)=7 adds layers 6..7
    assert [f(i) for i in range(1, 9)] == [1, 2, 3, 3, 3, 4, 4, 5]


def test_dominating_profile_poly2():
    F = CumulativeFunction.dominating(lambda k: k * k)
    assert (F(1), F(2), F(3), F(4)) == (1, 2, 10, 17)


@st.composite
def slow_profiles(draw):
    steps = draw(st.lists(st.integers(0, 1), min_size=0, max_size=12))
    values = [1, 2, 3]
    for s in steps:
        values.append(values[-1] + s)
    tail = draw(st.sampled_from(["constant", "increment"]))
    return SlowFunction(tuple(values), tail=tail)


@given(slow_profiles())
def test_slow_cumulative_round_trip(f):
    g = slow_from_cumulative(cumulative_from_slow(f))
    assert all(f(i) == g(i) for i in range(1, 50))


@given(slow_profiles(), st.integers(1, 40))
def test_cumulative_definition_is_sup(f, k):
    # F(k) = sup{i | f(i) <= k}, checked against direct evaluation
    F = f.cumulative()
    v = F(k)
    if v is INF or v == INF:
        assert f(10_000) <= k
    else:
        assert f(v) <= k
        assert f(v + 1) > k


@pytest.mark.parametrize("spec,probe", [
    ("identity", [1, 2, 3, 4, 5]),
    ("cap:3", [1, 2, 3, 3, 3]),
    ("table:1,2,3,3,4", [1, 2, 3, 3, 4]),
    ("cumulative:1,2,4", [1, 2, 3, 3, 4]),
])
def test_parse_f_spec_values(spec, probe):
    f = parse_f_spec(spec)
    assert [f(i) for i in range(1, len(probe) + 1)] == probe


def test_parse_f_spec_poly_profile():
    f = parse_f_spec("cumulative:poly:2")
    F = f.cumulative()
    assert F(3) == 10
    assert f(10) == 3 and f(11) == 4


def test_parse_f_spec_question84_coeffs():
    f = parse_f_spec("question84:coeffs:1,0,1")   # g(k) = k^2 + 1
    F = f.cumulative()
    assert F(3) == 11


@pytest.mark.parametrize("bad", ["", "cap:", "poly:2", "cumulative:1,1,1",
                                 "table:2,3,4", "nope:5"])
def test_parse_f_spec_rejects_garbage(bad):
    with pytest.raises((SlowFunctionError, CumulativeFunctionError,
                        ValueError)):
        f = parse_f_spec(bad)
        f(5)   # lazily validated specs fail on evaluation


def test_descriptor_round_trip():
    for spec in ["identity", "cap:4", "table:1,2,3,3",
                 "cumulative:1,2,5", "cumulative:poly:2"]:
        f = parse_f_spec(spec)
        g = parse_f_spec(f.descriptor)
        assert all(f(i) == g(i) for i in range(1, 30))


def test_infinity_is_math_inf():
    assert INF == math.inf
