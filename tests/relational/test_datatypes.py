"""Unit tests for column types and coercion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatch
from repro.relational.datatypes import DataType, coerce, infer_type


class TestCoerceInteger:
    def test_int_passthrough(self):
        assert coerce(42, DataType.INTEGER) == 42

    def test_none_passthrough(self):
        assert coerce(None, DataType.INTEGER) is None

    def test_integral_float(self):
        assert coerce(7.0, DataType.INTEGER) == 7

    def test_fractional_float_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce(7.5, DataType.INTEGER)

    def test_numeric_string(self):
        assert coerce(" 13 ", DataType.INTEGER) == 13

    def test_bad_string_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce("abc", DataType.INTEGER)

    def test_bool_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce(True, DataType.INTEGER)

    def test_list_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce([1], DataType.INTEGER)


class TestCoerceReal:
    def test_float_passthrough(self):
        assert coerce(3.25, DataType.REAL) == 3.25

    def test_int_widens(self):
        assert coerce(3, DataType.REAL) == 3.0
        assert isinstance(coerce(3, DataType.REAL), float)

    def test_string_parses(self):
        assert coerce("2.5", DataType.REAL) == 2.5

    def test_bad_string_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce("two", DataType.REAL)

    def test_bool_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce(False, DataType.REAL)


class TestCoerceText:
    def test_string_passthrough(self):
        assert coerce("hello", DataType.TEXT) == "hello"

    def test_int_stringifies(self):
        assert coerce(5, DataType.TEXT) == "5"

    def test_bool_stringifies(self):
        assert coerce(True, DataType.TEXT) == "true"

    def test_none_passthrough(self):
        assert coerce(None, DataType.TEXT) is None

    def test_dict_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce({}, DataType.TEXT)


class TestCoerceBoolean:
    @pytest.mark.parametrize("raw", [True, 1, "true", "T", "yes", "1"])
    def test_truthy(self, raw):
        assert coerce(raw, DataType.BOOLEAN) is True

    @pytest.mark.parametrize("raw", [False, 0, "false", "F", "no", "0"])
    def test_falsy(self, raw):
        assert coerce(raw, DataType.BOOLEAN) is False

    def test_other_int_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce(2, DataType.BOOLEAN)

    def test_bad_string_rejected(self):
        with pytest.raises(TypeMismatch):
            coerce("maybe", DataType.BOOLEAN)


class TestInferType:
    def test_bool_before_int(self):
        assert infer_type(True) is DataType.BOOLEAN

    def test_int(self):
        assert infer_type(4) is DataType.INTEGER

    def test_float(self):
        assert infer_type(4.5) is DataType.REAL

    def test_string(self):
        assert infer_type("x") is DataType.TEXT

    def test_none_defaults_to_text(self):
        assert infer_type(None) is DataType.TEXT


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.text(alphabet="abcde", max_size=4),
        st.none(),
    ),
    st.sampled_from(list(DataType)),
)
def test_coercion_idempotent(value, dtype):
    try:
        once = coerce(value, dtype)
    except Exception:
        return  # rejection is fine; idempotence only for accepted values
    assert coerce(once, dtype) == once
