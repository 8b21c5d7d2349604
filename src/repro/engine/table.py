"""Minimal in-memory column store.

Just enough of a storage layer to host realistic end-to-end examples:
named tables of equal-length numpy columns, with exact scans used as
ground truth against the synopsis estimates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidDataError, InvalidQueryError

#: Largest magnitude an appended numeric value may have: float64 holds
#: every integer up to 2**53 exactly, so range sums stay exact and the
#: builders' squared-error terms stay finite; larger values overflow
#: them to inf/NaN.
MAX_APPEND_MAGNITUDE = float(2**53)


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name: str, columns: dict[str, np.ndarray]) -> None:
        if not name or not isinstance(name, str):
            raise InvalidDataError("table name must be a non-empty string")
        if not columns:
            raise InvalidDataError(f"table {name!r} must have at least one column")
        self.name = name
        self.columns: dict[str, np.ndarray] = {}
        length = None
        for column_name, values in columns.items():
            values = np.asarray(values)
            if values.ndim != 1:
                raise InvalidDataError(f"column {column_name!r} must be 1-D")
            if length is None:
                length = values.size
            elif values.size != length:
                raise InvalidDataError(
                    f"column {column_name!r} has {values.size} rows, expected {length}"
                )
            self.columns[column_name] = values
        self.row_count = int(length or 0)

    def with_appended(self, rows: dict[str, np.ndarray]) -> "Table":
        """A new table with ``rows`` appended to every column.

        ``rows`` must cover exactly this table's columns with
        equal-length 1-D arrays; a numeric column only accepts finite
        numbers of magnitude at most :data:`MAX_APPEND_MAGNITUDE`.
        Anything else raises :class:`InvalidDataError` before a new
        table exists.  A zero-row append returns ``self``.
        """
        if set(rows) != set(self.columns):
            raise InvalidDataError(
                f"appended rows must cover exactly the columns "
                f"{self.column_names()}, got {sorted(rows)}"
            )
        appended = {}
        for name in self.columns:
            try:
                appended[name] = np.asarray(rows[name])
            except ValueError as error:  # ragged nested sequences
                raise InvalidDataError(
                    f"appended column {name!r} is not a flat array: {error}"
                ) from error
        lengths = {name: values.size for name, values in appended.items()}
        if len(set(lengths.values())) != 1:
            raise InvalidDataError(
                f"appended columns must have equal lengths, got {lengths}"
            )
        for name, values in appended.items():
            if values.ndim != 1:
                raise InvalidDataError(f"appended column {name!r} must be 1-D")
            if values.size and self.columns[name].dtype.kind in "biuf":
                if values.dtype.kind not in "biuf":
                    raise InvalidDataError(
                        f"appended column {name!r} must be numeric, "
                        f"got dtype {values.dtype}"
                    )
                if not np.all(np.isfinite(values)):
                    raise InvalidDataError(
                        f"appended column {name!r} contains NaN or infinite values"
                    )
                if np.abs(values.astype(np.float64)).max() > MAX_APPEND_MAGNITUDE:
                    raise InvalidDataError(
                        f"appended column {name!r} has values beyond "
                        f"+-{MAX_APPEND_MAGNITUDE:.0f}"
                    )
        if not next(iter(lengths.values())):
            return self
        merged = {
            name: np.concatenate((values, appended[name]))
            for name, values in self.columns.items()
        }
        return Table(self.name, merged)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise InvalidQueryError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {sorted(self.columns)}"
            )
        return self.columns[name]

    def column_names(self) -> list[str]:
        return sorted(self.columns)

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Table {self.name!r} rows={self.row_count} cols={self.column_names()}>"
