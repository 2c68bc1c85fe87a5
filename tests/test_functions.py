import math

import pytest
from hypothesis import given, strategies as st

from layered_wheels.functions import (
    INF,
    CumulativeFunctionError,
    SlowFunctionError,
    parse_f_spec,
)


def _table(values):
    return "table:" + ",".join(str(v) for v in values)


def test_identity_values():
    f = parse_f_spec("identity")
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 4, 5, 6, 7]


def test_capped_values():
    f = parse_f_spec("cap:3")
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 3, 3, 3, 3]


def test_table_with_repeat_tail():
    f = parse_f_spec("table:1,2,3,3,4")
    assert [f(i) for i in range(1, 8)] == [1, 2, 3, 3, 4, 4, 4]


@pytest.mark.parametrize("bad", [
    (1, 2, 4),           # jump of two
    (1, 2, 3, 2),        # decrease
    (2, 2, 3),           # wrong start
    (1, 2),              # too short
])
def test_invalid_tables_rejected(bad):
    # checked when the spec is parsed, before any value is asked for
    with pytest.raises(SlowFunctionError):
        parse_f_spec(_table(bad))


def test_cap_below_three_rejected():
    with pytest.raises(SlowFunctionError):
        parse_f_spec("cap:2")


def test_domain_starts_at_one():
    with pytest.raises(SlowFunctionError):
        parse_f_spec("identity")(0)


def test_cumulative_of_cap_is_eventually_infinite():
    f = parse_f_spec("cap:3")
    F = f.cumulative()
    assert f.cumulative() is F   # f is held as its F, not rebuilt per call
    assert (F(1), F(2)) == (1, 2)
    # f stays at 3 forever, so every budget >= 3 covers all layers
    assert F(3) == INF
    assert F(10) == INF


def test_cumulative_of_identity_is_identity():
    F = parse_f_spec("identity").cumulative()
    assert [F(k) for k in range(1, 10)] == list(range(1, 10))


def test_cumulative_star_violation_rejected():
    F = parse_f_spec("cumulative:1,2,2").cumulative()
    with pytest.raises(CumulativeFunctionError):
        F(3)


def test_cumulative_bad_start_rejected():
    # F(1)=1 and F(2)=2 are checked when the spec is parsed
    with pytest.raises(CumulativeFunctionError):
        parse_f_spec("cumulative:2,3,4")


def test_slow_from_cumulative_table():
    f = parse_f_spec("cumulative:1,2,5,7")
    # F(3)=5 means layers 1..5 have budget <= 3; F(4)=7 adds layers 6..7
    assert [f(i) for i in range(1, 9)] == [1, 2, 3, 3, 3, 4, 4, 5]


def test_dominating_profile_poly2():
    F = parse_f_spec("cumulative:poly:2").cumulative()
    assert (F(1), F(2), F(3), F(4)) == (1, 2, 10, 17)


@st.composite
def table_specs(draw):
    steps = draw(st.lists(st.integers(0, 1), min_size=0, max_size=12))
    values = [1, 2, 3]
    for s in steps:
        values.append(values[-1] + s)
    return _table(values)


@given(table_specs())
def test_slow_cumulative_round_trip(spec):
    # the f of a table and the f of its F's finite values are one function
    f = parse_f_spec(spec)
    F = f.cumulative()
    finite = []
    while F(len(finite) + 1) != INF:
        finite.append(F(len(finite) + 1))
    g = parse_f_spec("cumulative:" + ",".join(str(v) for v in finite))
    assert all(f(i) == g(i) for i in range(1, 50))


@given(table_specs(), st.integers(1, 40))
def test_cumulative_definition_is_sup(spec, k):
    # F(k) = sup{i | f(i) <= k}, checked against direct evaluation
    f = parse_f_spec(spec)
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
                                 "table:2,3,4", "nope:5", "question84:bogus"])
def test_parse_f_spec_rejects_garbage(bad):
    with pytest.raises((SlowFunctionError, CumulativeFunctionError,
                        ValueError)):
        f = parse_f_spec(bad)
        f(5)   # lazily validated specs fail on evaluation


def test_question84_names_a_growth_spec_it_cannot_parse():
    with pytest.raises(SlowFunctionError,
                       match="^cannot parse polynomial spec 'bogus'$"):
        parse_f_spec("question84:bogus")


def test_descriptor_round_trip():
    for spec in ["identity", "cap:4", "table:1,2,3,3",
                 "cumulative:1,2,5", "cumulative:poly:2",
                 "question84:poly:2", "question84:coeffs:3", " cap:3 "]:
        f = parse_f_spec(spec)
        g = parse_f_spec(f.descriptor)
        assert all(f(i) == g(i) for i in range(1, 30))


def test_infinity_is_math_inf():
    assert INF == math.inf
