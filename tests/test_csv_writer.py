"""The column tables behind CSV reports, their block encoder and the
streamed writer.

The per-cell rule (``repr`` of a float, ``str`` of an integer,
``true``/``false``) defines every cell; ``per_cell_csv`` and plain
``repr`` are the oracles the vectorised encoder is checked against.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsdep import cli
from rbdsdep.table import CELL_FORMAT, ENCODE_MIN_CELLS, CsvTable, _mul_shift_all


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

        blocks = []
        encode = CsvTable.encode

        def fail_in_second_block(self, start, stop):
            blocks.append(start)
            if len(blocks) > 1:
                raise OSError("disk full")
            return encode(self, start, stop)

        monkeypatch.setattr(CsvTable, "encode", fail_in_second_block)
        big = CsvTable(["y"], [np.ones(2 * cli.CSV_BLOCK_ROWS)])
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, big)
        assert blocks == [0, cli.CSV_BLOCK_ROWS]
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


def encode_all(t: CsvTable) -> str:
    """The body of t (no header lines), encoded block by block."""
    step = cli.CSV_BLOCK_ROWS
    return b"".join(t.encode(s, s + step) for s in range(0, t.row_count, step)).decode()


def repr_lines(x: np.ndarray) -> str:
    return "\n".join(map(repr, x.tolist())) + "\n"


def float_bits(patterns) -> np.ndarray:
    return np.asarray(patterns, np.uint64).view(np.float64)


BOUNDARY_FLOATS = np.concatenate(
    [
        [0.0, -0.0, 5e-324, -5e-324, 1e-323, np.nextafter(2.0**-1022, 0.0), 2.0**-1022],
        float_bits([1, 2, 3, 0x000FFFFFFFFFFFFF, 0x0008000000000000, 0x0010000000000001]),
        [np.finfo(np.float64).max, -np.finfo(np.float64).max, np.nan, np.inf, -np.inf],
        2.0 ** np.arange(-1074, 1024),
        -(2.0 ** np.arange(-1074, 1024, 7)),
        *(
            v + np.array([-3, -2, -1, 0, 1, 2, 3]) * np.spacing(v)
            for v in (1e-4, 1e-5, 1e15, 1e16, 2.0**53, 2.0**54, 1e17, 0.1, 1.0)
        ),
        [np.nextafter(v, d) for v in (1e-4, 1e-5, 1e15, 1e16, 2.0**53, 2.0**54) for d in (0.0, np.inf)],
        [9007199254740993.0, 18014398509481984.0, 18014398509481982.0, 123456789012345678.0],
    ]
)


class TestFloatKernel:
    """Blocks of at least ENCODE_MIN_CELLS cells go through the vectorised
    shortest round-trip kernel; every cell must read as repr writes it."""

    def test_a_million_random_bit_patterns_match_repr(self):
        rng = np.random.default_rng(17)
        x = float_bits(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64))
        assert encode_all(CsvTable(["x"], [x])) == repr_lines(x)

    def test_boundary_floats_match_repr(self):
        x = np.resize(BOUNDARY_FLOATS, max(BOUNDARY_FLOATS.size, ENCODE_MIN_CELLS))
        t = CsvTable(["x"], [x])
        assert encode_all(t) == repr_lines(x)
        assert encode_all(t) == per_cell_csv(t, "s", "h").split("\n", 2)[2]

    def test_scaled_draws_short_mantissas_and_rounded_decimals_match_repr(self):
        """Rounded decimals include round numbers and the doubles a few
        spacings from them in [2**50, 2**54), where doubles lie 1/4 to 2
        apart and the rounding interval's bounds halfway between them."""
        rng = np.random.default_rng(5)
        n = 50_000
        unit = 10.0 ** rng.integers(1, 8, n)
        big = np.round(rng.uniform(2.0**50, 2.0**54, n) / unit) * unit
        x = np.concatenate(
            [
                rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n),
                rng.integers(1, 2**20, n) * 2.0 ** rng.integers(-70, 40, n),
                np.round(rng.normal(size=n) * 1e6) / 10.0 ** rng.integers(0, 12, n),
                rng.integers(-(10**6), 10**6, n) * 1.0,
                big + rng.integers(-3, 4, n) * np.spacing(big),
            ]
        )
        assert encode_all(CsvTable(["x"], [x])) == repr_lines(x)

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_bit_pattern_matches_repr(self, pattern):
        rows = ENCODE_MIN_CELLS // 4
        x = np.random.default_rng(0).normal(size=rows)
        x[7] = float_bits([pattern])[0]
        t = CsvTable(["x", "a", "b", "c"], [x] + [np.arange(rows)] * 3)
        lines = t.encode(0, rows).decode().splitlines()
        assert [line.split(",")[0] for line in lines] == list(map(repr, x.tolist()))

    def test_only_cells_outside_the_kernel_keep_the_per_cell_rule(self, monkeypatch):
        """nan, inf and |x| >= 2**54 are written by CELL_FORMAT['f'] inside a
        vectorised block; 2**54 - 2 (the largest double below) is not."""
        seen = []

        def cell(value):
            seen.append(value)
            return repr(value)

        monkeypatch.setitem(CELL_FORMAT, "f", cell)
        x = np.full(ENCODE_MIN_CELLS, 0.5)
        x[:6] = [np.nan, np.inf, -np.inf, 2.0**54, -1e300, 2.0**54 - 2]
        assert CsvTable(["x"], [x]).encode(0, x.size).decode() == repr_lines(x)
        assert len(seen) == 5 and seen[3:] == [2.0**54, -1e300]


def mul_shift_cases(seed: int, count: int):
    """(mv, pow5, j, mm_shift) for _mul_shift_all: random ones, and
    ones whose multiplier puts m * pow5 within m of a multiple of 2**j for
    one of the three m, so that (m being as short as a subnormal's, at
    times) only the low columns' carries and borrows decide the floor."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        mv = 4 * rng.randrange(1, 2 ** rng.randint(1, 53))
        j, mm_shift = rng.randint(118, 122), rng.randint(0, 1)
        pow5 = rng.randrange(2**124, 2**125)
        m = rng.choice([mv, mv + 2, mv - 1 - mm_shift, None])
        if m is not None:
            k = m * pow5 >> j
            pow5 = (k << j) // m + rng.choice([0, 1])  # m * pow5 just below or at k * 2**j
        if 2**124 <= pow5 < 2**125:
            cases.append((mv, pow5, j, mm_shift))
    return cases


class TestMulShift:
    def test_the_three_floors_match_python_integers(self):
        cases = mul_shift_cases(3, 20_000)
        mv, pow5, j, mm_shift = (list(c) for c in zip(*cases))
        limbs = [np.array([p >> 32 * k & 0xFFFFFFFF for p in pow5], np.uint64) for k in range(4)]
        got = _mul_shift_all(
            np.array(mv, np.uint64), limbs, np.array(j, np.uint64), np.array(mm_shift, bool)
        )
        for m, g in zip(
            ([a for a in mv], [a + 2 for a in mv], [a - 1 - s for a, s in zip(mv, mm_shift)]), got
        ):
            assert g.tolist() == [a * p >> s for a, p, s in zip(m, pow5, j)]


INT_COLUMNS = {
    "i64": np.array([-(2**63), 2**63 - 1, 0, -1, 1, -10, 10**18, -(10**18) + 1], np.int64),
    "u64": np.array([2**63, 2**64 - 1, 0, 1, 10**19, 10**19 - 1, 2**63 - 1, 9], np.uint64),
    "i32": np.array([-(2**31), 2**31 - 1, 0, -7, 99999, -100000, 5, 1000], np.int32),
    "u8": np.array([0, 255, 1, 9, 10, 99, 100, 254], np.uint8),
    "i8": np.array([-128, 127, 0, -1, 5, -50, 60, 3], np.int8),
    "u16": np.array([65535, 0, 1, 1000, 9999, 10000, 12345, 7], np.uint16),
}


class TestIntAndBoolColumns:
    def test_extreme_and_narrow_ints_match_str(self):
        rng = np.random.default_rng(3)
        reps = ENCODE_MIN_CELLS // 8
        columns = [np.tile(c, reps) for c in INT_COLUMNS.values()]
        columns[0][8:] = rng.integers(-(2**63), 2**63 - 1, size=columns[0].size - 8, dtype=np.int64)
        columns[1][8:] = rng.integers(2**63, 2**64 - 1, size=columns[1].size - 8, dtype=np.uint64)
        t = CsvTable(list(INT_COLUMNS), columns)
        assert encode_all(t) == per_cell_csv(t, "s", "h").split("\n", 2)[2]
        lines = encode_all(t).splitlines()
        assert lines[0].split(",")[:2] == [str(-(2**63)), str(2**63)]
        assert lines[1].split(",")[:2] == [str(2**63 - 1), str(2**64 - 1)]

    def test_float32_and_bool_columns_match_the_per_cell_rule(self):
        """float32 cells are widened to float64 first, as tolist does."""
        rng = np.random.default_rng(11)
        n = ENCODE_MIN_CELLS + 5
        x32 = rng.integers(0, 2**32, size=n, dtype=np.uint32).view(np.float32)
        x32[:4] = [0.1, -2.5, np.float32(1e-8), np.float32(3e38)]
        flags = rng.random(n) < 0.5
        t = CsvTable(["x32", "flag", "x16"], [x32, flags, rng.normal(size=n).astype(np.float16)])
        assert encode_all(t) == per_cell_csv(t, "s", "h").split("\n", 2)[2]
        assert encode_all(t).startswith(f"{float(np.float32(0.1))!r},{str(bool(flags[0])).lower()},")


def mixed_table(rows: int, seed: int) -> CsvTable:
    rng = np.random.default_rng(seed)
    return CsvTable(
        ["i", "y", "x32", "hit", "u", "z"],
        [
            np.arange(rows) - rows // 2,
            rng.normal(size=rows),
            rng.normal(size=rows).astype(np.float32),
            rng.random(rows) < 0.5,
            rng.integers(0, 2**64, size=rows, dtype=np.uint64),
            rng.normal(size=rows) * 10.0 ** rng.integers(-8, 20, rows),
        ],
    )


class TestBlockSizes:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_mixed_tables_around_the_block_size(self, tmp_path, offset):
        t = mixed_table(cli.CSV_BLOCK_ROWS + offset, offset + 1)
        assert write(tmp_path, t) == per_cell_csv(t, "rbdsdep.t.v1", "abc")

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize(
        "column",
        [
            np.linspace(-3.0, 3.0, ENCODE_MIN_CELLS + 1),
            np.arange(ENCODE_MIN_CELLS + 1) * -7,
            np.arange(ENCODE_MIN_CELLS + 1) % 3 == 0,
        ],
        ids=["float", "int", "bool"],
    )
    def test_tables_around_the_crossover(self, tmp_path, offset, column):
        t = CsvTable(["c"], [column[: ENCODE_MIN_CELLS + offset]])
        assert write(tmp_path, t) == per_cell_csv(t, "rbdsdep.t.v1", "abc")

    @pytest.mark.parametrize("cells, per_cell", [(ENCODE_MIN_CELLS - 1, ENCODE_MIN_CELLS - 1), (ENCODE_MIN_CELLS, 0)])
    def test_blocks_below_the_crossover_keep_the_per_cell_rule(self, monkeypatch, cells, per_cell):
        seen = []

        def cell(value):
            seen.append(value)
            return repr(value)

        monkeypatch.setitem(CELL_FORMAT, "f", cell)
        x = np.linspace(0.0, 1.0, cells)
        assert CsvTable(["x"], [x]).encode(0, cells).decode() == repr_lines(x)
        assert len(seen) == per_cell
