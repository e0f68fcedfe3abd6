"""The column tables behind CSV reports and the streamed writer."""

import numpy as np
import pytest

from rbdsdep import cli
from rbdsdep.table import CsvTable


def per_cell_csv(table: CsvTable, schema: str, config_hash: str) -> str:
    """Reference: the CSV text cell by cell, from numpy scalars."""

    def cell(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (np.floating, float)):
            return repr(float(value))
        if isinstance(value, (np.integer, int)):
            return str(int(value))
        return str(value)

    lines = [f"# schema={schema} config_hash={config_hash}", ",".join(table.header)]
    for r in range(table.row_count):
        lines.append(",".join(cell(c[r]) for c in table.columns))
    return "\n".join(lines) + "\n"


def write(tmp_path, table: CsvTable) -> str:
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), table, "rbdsdep.t.v1", "abc")
    return path.read_text(encoding="utf-8")


GOLDEN = CsvTable(
    ["flag", "neg", "x", "i32", "u8", "x32"],
    [
        np.array([True, False, True, False, True, False, True, False]),
        np.array([-3, -1, 0, 7, -(2**40), 2**62, -9, 12], dtype=np.int64),
        np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2, 1.0]),
        np.array([-5, 0, 1, 2, 3, 4, 5, 2**31 - 1], dtype=np.int32),
        np.array([0, 1, 2, 3, 4, 5, 6, 255], dtype=np.uint8),
        np.array([0.1, -2.5, 1e-8, 3.0, 0, 7, 1e30, -1e-30], dtype=np.float32),
    ],
)


class TestWriter:
    def test_golden_cells_match_the_per_cell_rule(self, tmp_path):
        text = write(tmp_path, GOLDEN)
        assert text == per_cell_csv(GOLDEN, "rbdsdep.t.v1", "abc")
        lines = text.splitlines()
        assert lines[1] == "flag,neg,x,i32,u8,x32"
        assert [line.split(",")[2] for line in lines[2:]] == [
            "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.30000000000000004", "1.0",
        ]
        assert lines[2].startswith("true,-3,")
        assert lines[6].split(",")[:2] == ["true", str(-(2**40))]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rows_around_the_block_size(self, tmp_path, offset):
        n = cli.CSV_BLOCK_ROWS + offset
        rng = np.random.default_rng(n)
        table = CsvTable(
            ["path", "y", "hit"],
            [np.arange(n), rng.normal(size=n), rng.random(n) < 0.5],
        )
        text = write(tmp_path, table)
        assert text == per_cell_csv(table, "rbdsdep.t.v1", "abc")
        assert text.count("\n") == n + 2

    def test_empty_table_writes_the_header(self, tmp_path):
        table = CsvTable(["a", "b"], [np.zeros(0), np.zeros(0, dtype=int)])
        assert write(tmp_path, table) == "# schema=rbdsdep.t.v1 config_hash=abc\na,b\n"

    def test_no_temp_file_is_left_after_a_write(self, tmp_path):
        write(tmp_path, GOLDEN)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_a_failed_write_leaves_the_old_file_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        write(tmp_path, GOLDEN)
        before = (tmp_path / "t.csv").read_bytes()

        seen = []

        def fail_in_second_block(value):
            seen.append(value)
            if len(seen) > cli.CSV_BLOCK_ROWS:
                raise OSError("disk full")
            return repr(value)

        monkeypatch.setitem(cli._CELL_FORMAT, "f", fail_in_second_block)
        big = CsvTable(["y"], [np.ones(2 * cli.CSV_BLOCK_ROWS)])
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, big)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
        assert (tmp_path / "t.csv").read_bytes() == before


class TestCsvTable:
    def test_iterates_header_then_rows_of_python_scalars(self):
        rows = list(GOLDEN)
        assert rows[0] == GOLDEN.header
        assert len(rows) == 1 + 8
        assert rows[1][:2] == [True, -3]
        assert [type(v) for v in rows[1]] == [bool, int, float, int, int, float]

    def test_columns_must_agree(self):
        with pytest.raises(ValueError, match="header fields"):
            CsvTable(["a"], [np.zeros(2), np.zeros(2)])
        with pytest.raises(ValueError, match="one length"):
            CsvTable(["a", "b"], [np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match="1-d"):
            CsvTable(["a"], [np.zeros((2, 2))])
