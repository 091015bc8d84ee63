"""Scalar layer behaviour that must hold on either backend (gmpy2.mpq or
fractions.Fraction): every assertion goes through ``Q(...)`` and ``str``."""
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transmaps.errors import DomainError, ParameterError
from transmaps.rational import Q, as_scalar, scalar_str
from transmaps.serialize import parse_scalar

from test_transitivity import ceil_to_grid, floor_to_grid


class TestAsScalar:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (3, Q(3)),
            (-2, Q(-2)),
            ("3/4", Q(3, 4)),
            ("6/8", Q(3, 4)),
            ("-1/3", Q(-1, 3)),
            ("7", Q(7)),
            ("0.15", Q(3, 20)),
            ("0.5", Q(1, 2)),
            (Q(2, 5), Q(2, 5)),
        ],
    )
    def test_accepted_forms(self, value, expected):
        assert as_scalar(value) == expected
        assert str(as_scalar(value)) == str(expected)

    @pytest.mark.parametrize("value", [Q(2, 5), Q(0), Q(-7, 3), Q(10**30 + 1, 3)])
    def test_scalar_comes_back_itself(self, value):
        # rationals are immutable, so the coercion shares rather than copies
        assert as_scalar(value) is value

    @pytest.mark.parametrize("text, expected", [("5/10", Q(1, 2)), ("1.25", Q(5, 4))])
    def test_strings_still_parse(self, text, expected):
        got = as_scalar(text)
        assert type(got) is Q and got == expected

    @pytest.mark.parametrize("value", [0.5, 1.0, 0.0])
    def test_floats_rejected(self, value):
        with pytest.raises(DomainError, match="floats"):
            as_scalar(value)

    @pytest.mark.parametrize("value", ["abc", "", "1/2/3", "1/0", None, [1, 2]])
    def test_garbage_rejected(self, value):
        with pytest.raises(DomainError, match="not a rational scalar"):
            as_scalar(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (Q(3, 4), "3/4"),
        (Q(6, 8), "3/4"),
        (Q(4, 2), "2"),
        (Q(0), "0"),
        (Q(-1, 3), "-1/3"),
        (Q(1), "1"),
        ("10/4", "5/2"),
        (7, "7"),
    ],
)
def test_scalar_str_is_canonical(value, text):
    assert scalar_str(value) == text


@pytest.mark.skipif(
    Q is not Fraction or not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="only the Fraction backend has CPython's int-string digit limit",
)
def test_scalar_str_past_the_digit_limit_is_a_parameter_error():
    with pytest.raises(ParameterError, match="cannot write rational"):
        scalar_str(Q(10**5000))


class TestGridRounding:
    """The outward grid rounding of the refuter oracle in test_transitivity."""

    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_unit_ends_are_fixed(self, level):
        for x in (Q(0), Q(1)):
            assert floor_to_grid(x, level) == x
            assert ceil_to_grid(x, level) == x

    def test_grid_points_are_fixed(self):
        for x in (Q(3, 8), Q(1, 2), Q(5, 8), Q(1, 8)):
            assert floor_to_grid(x, 3) == x
            assert ceil_to_grid(x, 3) == x

    def test_between_grid_points(self):
        assert floor_to_grid(Q(1, 3), 2) == Q(1, 4)
        assert ceil_to_grid(Q(1, 3), 2) == Q(1, 2)
        assert floor_to_grid(Q(99, 100), 3) == Q(7, 8)
        assert ceil_to_grid(Q(1, 100), 3) == Q(1, 8)
        assert floor_to_grid(Q(2, 3), 0) == Q(0)
        assert ceil_to_grid(Q(2, 3), 0) == Q(1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1000), st.integers(1, 1000), st.integers(0, 10))
    def test_brackets_x_within_one_cell(self, p, q, level):
        x = Q(min(p, q), q)
        cell = Q(1, 2**level)
        lo, hi = floor_to_grid(x, level), ceil_to_grid(x, level)
        assert lo <= x <= hi
        assert hi - lo in (Q(0), cell)
        assert (hi - lo == 0) == (x == lo)
        for v in (lo, hi):
            assert "/" not in str(v / cell)  # a whole number of cells


class TestParseScalar:
    @pytest.mark.parametrize(
        "text, expected",
        [("1/2", Q(1, 2)), ("-3", Q(-3)), ("0", Q(0)), ("7/8", Q(7, 8)), ("2/4", Q(1, 2))],
    )
    def test_accepts_the_scalar_str_grammar(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize(
        "value", ["0.5", "1/0", " 1/2", "1/2 ", "+1", "1/-2", "", "a", 1, None, Q(1, 2)]
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ParameterError, match="not a rational literal"):
            parse_scalar(value)

    @pytest.mark.parametrize("value", [Q(3, 4), Q(-5), Q(0), Q(22, 7)])
    def test_round_trips_scalar_str(self, value):
        assert parse_scalar(scalar_str(value)) == value
