"""Column data types for the relational catalog.

The catalog supports a deliberately small set of scalar types — the same set
needed by the paper's academic database (Figure 3) and by the four-table TGDB
storage layout (Section 6.2): integers, floats, text, and booleans. ``NULL``
is represented by Python ``None`` and is a member of every type's domain
unless the column is declared ``NOT NULL``.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatch


class DataType(enum.Enum):
    """Scalar column types understood by the catalog."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_TRUE_STRINGS = {"true", "t", "1", "yes"}
_FALSE_STRINGS = {"false", "f", "0", "no"}


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` into the Python representation of ``dtype``.

    ``None`` passes through unchanged (NULL belongs to every domain).
    Raises :class:`TypeMismatch` when the value cannot be represented
    without information loss (e.g. ``coerce("abc", INTEGER)``).
    """
    if value is None:
        return None
    if dtype is DataType.INTEGER:
        return _coerce_integer(value)
    if dtype is DataType.REAL:
        return _coerce_real(value)
    if dtype is DataType.TEXT:
        return _coerce_text(value)
    if dtype is DataType.BOOLEAN:
        return _coerce_boolean(value)
    raise TypeMismatch(f"unknown data type {dtype!r}")  # pragma: no cover


def _coerce_integer(value: Any) -> int:
    if isinstance(value, bool):
        raise TypeMismatch(f"cannot store boolean {value!r} in INTEGER column")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise TypeMismatch(f"cannot store non-integral float {value!r} in INTEGER column")
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise TypeMismatch(f"cannot parse {value!r} as INTEGER") from None
    raise TypeMismatch(f"cannot store {type(value).__name__} in INTEGER column")


def _coerce_real(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeMismatch(f"cannot store boolean {value!r} in REAL column")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise TypeMismatch(f"cannot parse {value!r} as REAL") from None
    raise TypeMismatch(f"cannot store {type(value).__name__} in REAL column")


def _coerce_text(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    raise TypeMismatch(f"cannot store {type(value).__name__} in TEXT column")


def _coerce_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise TypeMismatch(f"cannot parse {value!r} as BOOLEAN")
    raise TypeMismatch(f"cannot store {type(value).__name__} in BOOLEAN column")


def infer_type(value: Any) -> DataType:
    """Infer the narrowest :class:`DataType` able to hold ``value``.

    Used by CSV import and by ad-hoc relation construction in tests.
    ``None`` infers as TEXT (the widest practical default).
    """
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.REAL
    return DataType.TEXT
