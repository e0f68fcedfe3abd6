"""Column tables: the in-memory form of every CSV report."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class CsvTable:
    """A header plus one 1-d numpy column per field, all of one length.

    Each column's dtype decides how its cells are written (see
    ``cli._write_csv``), so build a column with the dtype of the values it
    holds: integer indices stay integer, counts stay integer.  Iterating
    yields the header, then each row as a list of Python scalars.
    """

    def __init__(self, header: Sequence[str], columns: Sequence[np.ndarray]):
        columns = [np.asarray(c) for c in columns]
        if len(columns) != len(header):
            raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
        lengths = {c.shape for c in columns}
        if len(lengths) > 1 or any(c.ndim != 1 for c in columns):
            raise ValueError(f"columns must be 1-d and of one length, got shapes {sorted(lengths)}")
        self.header = list(header)
        self.columns = columns

    @property
    def row_count(self) -> int:
        return self.columns[0].size if self.columns else 0

    def __iter__(self):
        yield list(self.header)
        for row in zip(*(c.tolist() for c in self.columns)):
            yield list(row)
