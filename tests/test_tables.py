"""CSV tables: the shared reader and writer and the formats built on them."""

import fractions
import hashlib
import io
import itertools
import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sweepsense import core
from sweepsense.cli import measurement_to_csv, read_measurement_csv
from sweepsense.core import (
    _WRITE_CELLS,
    FrequencyPlan,
    HeaderError,
    Measurement,
    check_rows,
    line_error,
    open_bytes,
    read_table,
    table_text,
    write_text,
)
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.fingerprint import (
    CHUNK_ROWS,
    Dictionary,
    PositionGrid,
    build_dictionary,
    dictionary_text,
    localize_batch,
)
from sweepsense.synth import AntennaModel

PLAN8 = FrequencyPlan(60e9, 66e9, 8)
WIDE_SHA256 = "919a50c1db183bc038038218c290fe210544355ac57bd12b5c67a738c8f050ec"  # wide_dictionary
READ_BYTES = 1 << 17  # 128 KB: the line-end and blank-line tests span several of these
WIDTH = 7  # columns of the table_text block tests
BLOCK_ROWS = _WRITE_CELLS // WIDTH  # rows table_text formats at once at that width
MODEL8 = LinearSineDispersion.for_plan(PLAN8)
ANT = AntennaModel()
PROPERTY = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def table_csv(header, table, n_int=0) -> str:
    """The text table_text prints for ``header`` and the one 2-D array ``table``."""
    return groups_csv(header, (table,), n_int)


def groups_csv(header, groups, n_int=0) -> str:
    """The text table_text prints for ``header`` and the one table of column ``groups``."""
    return b"".join(table_text(header, [groups], n_int)).decode("ascii")


def read_file(path, header):
    """read_table of ``path``, opened as its callers open it."""
    with open_bytes(path) as fh:
        return read_table(path, header, fh)


class TestWriteTable:
    def test_path_file_and_text_agree(self, tmp_path):
        table = np.array([[0, 1.5, -0.0], [12, 2.5e-300, 1e300]])
        text = table_csv("i,a,b", table, n_int=1)
        assert text == (
            "i,a,b\n"
            "0,1.500000000e+00,-0.000000000e+00\n"
            "12,2.500000000e-300,1.000000000e+300\n"
        )
        write_text(tmp_path / "t.csv", table_text("i,a,b", [(table,)], n_int=1))
        buf = io.StringIO()
        write_text(buf, table_text("i,a,b", [(table,)], n_int=1))
        assert (tmp_path / "t.csv").read_text() == buf.getvalue() == text

    @staticmethod
    def savetxt(header, table, n_int):
        """The text np.savetxt writes for the table, as the table writer once called it."""
        fmt = ["%d"] * n_int + ["%.9e"] * (table.shape[1] - n_int)
        buf = io.StringIO()
        np.savetxt(buf, table, fmt=fmt, delimiter=",", header=header, comments="")
        return buf.getvalue()

    def test_probe_table_matches_savetxt(self, tmp_path):
        rng = np.random.default_rng(11)
        table = np.column_stack([np.linspace(-5.0, 5.0, 2001), rng.uniform(0.0, 1.0, 2001)])
        expected = self.savetxt("offset,similarity", table, 0)
        assert table_csv("offset,similarity", table) == expected
        write_text(tmp_path / "t.csv", table_text("offset,similarity", [(table,)]))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    def test_wide_table_with_extreme_cells_matches_savetxt(self, tmp_path):
        rng = np.random.default_rng(12)
        cells = rng.normal(size=(40, 37)) * 10.0 ** rng.integers(-300, 300, (40, 37))
        cells[::3, ::2] = -0.0
        cells[1::3, ::5] = 1e-300
        cells[2::3, 1::4] = 1e300
        cells[0, :4] = [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
        indices = np.column_stack([np.arange(40) % 4, np.arange(40) // 4 % 5, np.arange(40) // 20])
        table = np.hstack([indices, cells])
        header = ",".join(f"c{i}" for i in range(table.shape[1]))
        expected = self.savetxt(header, table, 3)
        assert "-0.000000000e+00" in expected and "1.000000000e+300" in expected
        assert table_csv(header, table, n_int=3) == expected
        with open(tmp_path / "t.csv", "w") as fh:
            write_text(fh, table_text(header, [(table,)], n_int=3))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    @staticmethod
    def per_row(header, table, n_int):
        """The text of one % format per row, as the table writer once built it."""
        line = ",".join(["%d"] * n_int + ["%.9e"] * (table.shape[1] - n_int)) + "\n"
        return header + "\n" + "".join(line % tuple(row.tolist()) for row in table)

    @pytest.mark.parametrize("n_int", [0, 3])
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_blocks_match_per_row_formatting(self, n_int, n):
        rng = np.random.default_rng(13)
        table = rng.normal(size=(n, WIDTH)) * 10.0 ** rng.integers(-300, 300, (n, WIDTH))
        table[:, :n_int] = rng.integers(0, 50, (n, n_int))
        table[:1, -3:] = [-0.0, 1e-320, 1e300]
        header = ",".join(f"c{i}" for i in range(WIDTH))
        text = table_csv(header, table, n_int)
        assert text == self.per_row(header, table, n_int)
        assert text.count("\n") == n + 1
        assert n == 0 or "-0.000000000e+00,9.999888672e-321,1.000000000e+300\n" in text  # 1e-320


def per_cell(table, n_int=0):
    """The body table_text must print: ``"%d" % x`` or ``"%.9e" % x`` per cell."""
    line = ",".join(["%d"] * n_int + ["%.9e"] * (table.shape[1] - n_int)) + "\n"
    return "".join(line % tuple(row) for row in table.tolist())


def body(table, n_int=0):
    return table_csv("h", table, n_int).removeprefix("h\n")


class TestWriteTableOracle:
    """table_text against Python's % formatting, cell for cell."""

    @pytest.mark.parametrize("width", [1, 2, 7, 518])
    def test_random_bit_patterns(self, width):
        # 2**18 cells per width, 2**20 in all: every exponent, subnormals,
        # both zeros, both infinities and NaNs.
        rng = np.random.default_rng(width)
        cells = rng.integers(0, 2**64, 2**18 // width * width, dtype=np.uint64).view(float)
        cells[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        table = cells.reshape(-1, width)
        assert body(table) == per_cell(table)

    @pytest.mark.parametrize("width", [1, 2, 7, 518])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_block_edges_with_int_columns(self, width, step):
        rng = np.random.default_rng(100 + width)
        n = _WRITE_CELLS // width + step
        table = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-320, 300, (n, width))
        n_int = min(3, width - 1)
        table[:, :n_int] = rng.integers(-(10**12), 10**12, (n, n_int)) / 10.0 ** rng.integers(
            0, 12, (n, n_int))
        assert body(table, n_int) == per_cell(table, n_int)

    def test_ties_round_half_even(self):
        table = np.array([[2.0**-15, 3 * 2.0**-15, 2.0**-16, 0.5 + 2**-34]])
        assert body(table) == per_cell(table)
        assert body(table[:, :2]) == "3.051757812e-05,9.155273438e-05\n"
        # The floats nearest 11-digit decimals ending in 5: exact ties up to
        # 10^15, beyond that a hair off one, on either side.
        rng = np.random.default_rng(15)
        digits = rng.integers(10**9, 10**10, 6000).tolist()
        exponents = rng.integers(-300, 300, 6000).tolist()
        ties = np.array([float(f"{d}5e{p}") for d, p in zip(digits, exponents)]).reshape(-1, 6)
        ties[:, 0] = np.array(digits[:1000]) * 10.0 + 5
        assert body(ties) == per_cell(ties)

    def test_decade_carries(self):
        table = np.array([[9.9999999996e-01, -9.99999999951e99, 9.9999999995e-308, 1e308]])
        assert body(table) == per_cell(table)
        assert body(table[:, :2]) == "1.000000000e+00,-1.000000000e+100\n"

    def test_every_power_of_ten_and_its_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
        table = np.column_stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
        assert body(table) == per_cell(table)
        assert body(-table) == per_cell(-table)

    def test_int_columns_print_as_percent_d(self):
        ints = [-7.0, -0.0, -0.7, 2.9, -2.9, 9999999999.0, 1e10, -1e10, 2.0**53, 2.0**53 + 2,
                2.0**63, -(2.0**70), 1e300, -1.7976931348623157e308, 5e-324]
        table = np.column_stack([ints, ints[::-1], np.linspace(-1.0, 1.0, len(ints))])
        assert body(table, 2) == per_cell(table, 2)
        wide = np.array([[-0.0, -0.7, -2.9, 2.0**53 + 2, 1e10, -(2.0**70), 0.25]])
        assert body(wide, 6) == "0,0,-2,9007199254740994,10000000000,-1180591620717411303424,"\
            "2.500000000e-01\n"

    @pytest.mark.parametrize("cell, error", [(np.nan, ValueError), (np.inf, OverflowError),
                                             (-np.inf, OverflowError)])
    def test_int_column_raises_as_percent_d(self, cell, error):
        with pytest.raises(error):
            "%d" % cell
        with pytest.raises(error):
            table_csv("i,a", np.array([[1.0, 2.0], [cell, 3.0]]), n_int=1)

    def test_column_groups_match_one_table(self):
        rng = np.random.default_rng(14)
        n = 3 * _WRITE_CELLS // 9 + 5
        groups = (np.arange(n), rng.normal(size=(n, 3)), rng.normal(size=(n, 5)))
        table = np.column_stack(groups)
        assert groups_csv("h", groups, n_int=1) == table_csv("h", table, n_int=1)
        assert body(table, 1) == per_cell(table, 1)

    def test_column_groups_of_other_row_counts_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            groups_csv("a,b", (np.zeros(3), np.zeros(4)))


def loadtxt_read_table(path, header):
    """read_table as np.loadtxt alone reads a file: the reference the reader must match."""
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            fields = [f.strip() for f in fh.readline().split(",")]
            body = (np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
                    if ",".join(fields) == header else None)
        except ValueError:
            raise loadtxt_first_bad_line(path, header.count(",") + 1) from None
    if body is None:
        raise HeaderError(path, header, fields)
    if not body.size:
        raise ValueError(f"{path}: no data rows after line 1")
    if body.shape[1] != len(fields) or not np.isfinite(body).all():
        raise loadtxt_first_bad_line(path, len(fields))
    return body


def loadtxt_first_bad_line(path, n_fields):
    """The error for the first line loadtxt_read_table rejects, one loadtxt per line."""

    def finite(text):
        try:
            values = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return False
        return values.size > 0 and bool(np.isfinite(values).all())

    with open(path, "rb") as fh:
        raw_lines = itertools.chain.from_iterable(raw.splitlines() for raw in fh)
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at column {exc.start + 1}"
                return ValueError(f"{path}: line {lineno}: {message}")
            if lineno == 1 or not line:
                continue
            cells = line.split(",")
            if len(cells) != n_fields:
                return ValueError(f"{path}: line {lineno}: expected {n_fields} fields, "
                                  f"got {len(cells)}")
            if not finite(line):
                col = next(i for i, cell in enumerate(cells) if not finite(cell))
                message = f"field {col + 1} is not a finite number: {cells[col].strip()!r}"
                return ValueError(f"{path}: line {lineno}: {message}")
    return ValueError(f"{path}: unreadable CSV body")


def outcome(reader, path, header):
    """The bits of what ``reader`` reads, or the type and text of its error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither reader may warn
            body = reader(path, header)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return body.shape, body.view(np.int64).tobytes()


def midpoint_decimals():
    """Decimals q 10^k, q of 10 digits, that lie within about 2^-85 of a
    midpoint between two normal doubles: q is a continued-fraction
    denominator of 10^k / u, u half the spacing of the doubles near q 10^k,
    whose numerator, the number of half-spacings, is odd."""
    cells = []
    for k in range(-333, 300):
        scale = fractions.Fraction(10) ** k
        low = math.floor((k + 9) * math.log2(10)) - 1
        for e in range(max(low, -1022), min(low + 6, 1023)):  # q 10^k in [2^e, 2^(e+1))
            q_min = max(10**9, math.ceil(2**e / scale))
            q_max = min(10**10 - 1, math.ceil(2 ** (e + 1) / scale) - 1)
            ratio = scale / fractions.Fraction(2) ** (e - 53)
            a, b = ratio.numerator, ratio.denominator
            p0, p1, q0, q1 = 0, 1, 1, 0
            while b and q1 <= q_max:
                t = a // b
                a, b = b, a - t * b
                p0, p1, q0, q1 = p1, t * p1 + p0, q1, t * q1 + q0
                if q_min <= q1 <= q_max and p1 % 2:
                    digits = str(q1)
                    cells.append(f"{digits[0]}.{digits[1:]}e{k + 9:+03d}")
    return cells


def near_midpoint(text):
    """True where the decimal ``text`` lies within 2^-60 of it from a midpoint
    between the two doubles nearest to it."""
    exact = abs(fractions.Fraction(text))
    x = abs(float(text))
    for y in (np.nextafter(x, 0.0), np.nextafter(x, np.inf)):
        if abs((fractions.Fraction(x) + fractions.Fraction(y)) / 2 - exact) < exact * 2.0**-60:
            return True
    return False


@pytest.fixture(scope="module")
def wide_dictionary(tmp_path_factory):
    """The file test_cli pins by digest, and its dictionary: 9^3 grid, M=128,
    12 cm antenna."""
    plan = FrequencyPlan(60e9, 66e9, 128)
    grid = PositionGrid((-0.25, 0.25), (-0.25, 0.25), (2.75, 3.25), nx=9, ny=9, nz=9)
    d = build_dictionary(grid, plan, LinearSineDispersion.for_plan(plan),
                         AntennaModel(length=0.12, two_way=True))
    path = tmp_path_factory.mktemp("wide") / "dict.csv"
    write_text(path, dictionary_text(d))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA256
    return path, d


class TestReadTableOracle:
    """read_table against np.loadtxt (loadtxt_read_table), bit for bit and
    error for error."""

    def same(self, tmp_path, text, header=None, name="t.csv"):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        if header is None:
            header = path.read_bytes().splitlines()[0].decode()
        got = outcome(read_file, path, header)
        assert got == outcome(loadtxt_read_table, path, header)
        return got

    @staticmethod
    def table_text(table, n_int=0):
        header = ",".join(f"c{i}" for i in range(table.shape[1]))
        return table_csv(header, table, n_int)

    @pytest.mark.parametrize("width", [1, 2, 7, 518])
    def test_random_bit_patterns(self, tmp_path, width):
        # 2**18 cells per width, 2**20 in all, at every exponent: subnormals
        # and both zeros too. NaNs and infinities become finite patterns.
        rng = np.random.default_rng(1000 + width)
        bits = rng.integers(0, 2**64, 2**18 // width * width, dtype=np.uint64)
        bits[(bits & np.uint64(0x7FF << 52)) == np.uint64(0x7FF << 52)] ^= np.uint64(1 << 62)
        cells = bits.view(float)
        cells[:4] = [0.0, -0.0, 5e-324, -5e-324]
        shape, _ = self.same(tmp_path, self.table_text(cells.reshape(-1, width)))
        assert shape == (len(cells) // width, width)

    def test_every_power_of_ten_and_its_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        table = np.column_stack([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
        self.same(tmp_path, self.table_text(np.vstack([table, -table])))

    def test_zeros_and_subnormals(self, tmp_path):
        rng = np.random.default_rng(21)
        tiny = rng.integers(1, 2**52, 3000, dtype=np.uint64).view(float)  # subnormal
        edges = [0.0, -0.0, 5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                 2.225073858507201e-308, 2.2250738585072e-308, 4.9406564584124654e-324 * 1.5]
        cells = np.concatenate([edges, tiny, tiny * 2.0**40, -tiny])
        cells = cells[: len(cells) // 7 * 7].reshape(-1, 7)
        path = tmp_path / "t.csv"
        path.write_text(self.table_text(cells))
        body = read_file(path, path.read_text().split("\n")[0])
        assert np.signbit(body[0, 1]) and body[0, 1] == 0.0
        self.same(tmp_path, path.read_bytes())

    def test_decimals_nearest_a_midpoint(self, tmp_path):
        cells = midpoint_decimals()
        assert len(cells) > 500
        assert all(near_midpoint(c) for c in cells[::50])
        text = "c\n" + "".join(f"{c}\n" for c in cells)
        shape, _ = self.same(tmp_path, text)
        assert shape == (len(cells), 1)

    def test_int_columns(self, tmp_path):
        rng = np.random.default_rng(22)
        widths = rng.integers(0, 11, (3000, 3))
        ints = rng.integers(0, 10**10, (3000, 3)) % 10**widths * rng.choice([-1, 1], (3000, 3))
        ints[:4] = [[9999999999, -9999999999, 0], [1, -1, 10], [-7, 1234567890, -1000000000],
                    [0, 5, -0]]
        table = np.column_stack([ints, rng.normal(size=(3000, 2))])
        text = self.table_text(table, n_int=3)
        assert "-9999999999," in text
        self.same(tmp_path, text)
        self.same(tmp_path, "a,b\n-0,0\n007,-00\n")

    @pytest.fixture
    def blocks(self):
        """The text of a table of about 640 KB."""
        rng = np.random.default_rng(23)
        n = 5 * READ_BYTES // (16 * 9)
        table = rng.normal(size=(n, 9)) * 10.0 ** rng.integers(-320, 300, (n, 9))
        text = self.table_text(table)
        assert len(text) > 4 * READ_BYTES
        return text

    @pytest.mark.parametrize("edit", [
        lambda t: t,
        lambda t: t.rstrip("\n"),  # no line end on the last line
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t.replace("\n", "\r", 3),  # lone CRs in the first lines only
        lambda t: t.replace("\n", "\r").rstrip("\r"),
    ], ids=["lf", "no-last-lf", "crlf", "cr", "some-cr", "cr-no-last"])
    def test_line_ends(self, tmp_path, blocks, edit):
        shape, _ = self.same(tmp_path, edit(blocks))
        assert shape == (blocks.count("\n") - 1, 9)

    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_blank_lines_across_blocks(self, tmp_path, blocks, blank):
        lines = blocks.split("\n")
        for at in (1, 2, len(lines) // 3, len(lines) // 2, len(lines) - 2):
            lines.insert(at, blank)
        got = self.same(tmp_path, "\n".join(lines))
        assert (got[0] == (blocks.count("\n") - 1, 9)) == (blank == "")

    @pytest.mark.parametrize("cell", ["+1.5", "1E5", ".5", " 2.5 ", "7", "1e400", "-1e400",
                                      "1e-400", "1_0", "\u0663", "nan", "", "0x10",
                                      "1.000000000e+5", "1.0000000000e+05", "1.000000000e+0005",
                                      "1.000000000e+005", "-1.000000000e-099", "0.000000001e+05",
                                      "-0", "00000000001", "-9999999999", "1.5e"])
    @pytest.mark.parametrize("where", ["first", "late"])
    def test_other_spellings(self, tmp_path, blocks, cell, where):
        lines = blocks.split("\n")
        row = 2 if where == "first" else 4 * len(lines) // 5
        cells = lines[row].split(",")
        cells[3] = cell
        lines[row] = ",".join(cells)
        self.same(tmp_path, "\n".join(lines))

    def test_lines_longer_than_a_block(self, tmp_path):
        rng = np.random.default_rng(24)
        wide = rng.normal(size=(3, 3 * READ_BYTES // 16))
        text = self.table_text(wide)
        assert len(text.split("\n")[0]) > READ_BYTES
        shape, _ = self.same(tmp_path, text)
        assert shape == wide.shape

    def test_pipe_reads_as_a_file(self, tmp_path, blocks):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_text(blocks))
        writer.start()
        try:
            body = read_file(fifo, "c0,c1,c2,c3,c4,c5,c6,c7,c8")
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        shape, bits = self.same(tmp_path, blocks)
        assert (body.shape, body.view(np.int64).tobytes()) == (shape, bits)

    @pytest.mark.parametrize("where", [2, 3, -3])
    def test_byte_that_is_not_utf8(self, tmp_path, blocks, where):
        lines = blocks.encode().split(b"\n")
        lines[where] = lines[where][:20] + b"\xff" + lines[where][21:]
        self.same(tmp_path, b"\n".join(lines))

    def test_bad_cell_blocks_in_named_from_its_block(self, tmp_path, blocks):
        lines = blocks.split("\n")
        for at in (5, 6, len(lines) // 2):
            lines.insert(at, "")
        row = len(lines) - 3  # in the last block
        cells = lines[row].split(",")
        cells[4] = "nan"
        lines[row] = ",".join(cells)
        got = self.same(tmp_path, "\n".join(lines))
        message = f"line {row + 1}: field 5 is not a finite number: 'nan'"
        assert got == ("ValueError", f"{tmp_path / 't.csv'}: {message}")

    @pytest.mark.parametrize("text", [
        "a,b\n", "a,b", "", "a,b\r\n\r\n", "a,b\r1,2\r", "a,b\r\n1,2", " a , b \n1,2\n",
        "a,b\n1,2\n\n", "a,c\n1,2\n", "a,b\n1,2,3\n", "a\xff,b\n1,2\n", "a,c\n1,\xff\n",
        "a,b\n1,2\n3\n4,5\n",
    ])
    def test_small_files(self, tmp_path, text):
        self.same(tmp_path, text.encode("latin-1"), header="a,b")

    def test_header_error_keeps_its_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a, c\n1,2\n")
        with pytest.raises(HeaderError) as err:
            read_file(path, "a,b")
        assert err.value.fields == ["a", "c"]


@pytest.fixture(scope="module")
def dictionary_32(tmp_path_factory):
    """A 9^3 x 32 dictionary and the file it exports to."""
    plan = FrequencyPlan(60e9, 66e9, 32)
    grid = PositionGrid((-0.5, 0.5), (-0.5, 0.5), (2.0, 4.0), 9, 9, 9)
    d = build_dictionary(grid, plan, LinearSineDispersion.for_plan(plan), AntennaModel(0.012))
    path = tmp_path_factory.mktemp("dictionary_32") / "dict.csv"
    write_text(path, dictionary_text(d))
    return path, d


def counting(monkeypatch, owner, name) -> list:
    """A list that grows by the first argument of each call of ``owner.name`` for the rest
    of the test."""
    calls, func = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a[0]) or func(*a, **k))
    return calls


class TestReadTable:
    def write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return path

    def test_header_and_body(self, tmp_path):
        body = read_file(self.write(tmp_path, "a, b\n1,2\n\n3,4e1\n"), "a,b")
        np.testing.assert_array_equal(body, [[1.0, 2.0], [3.0, 40.0]])

    @pytest.mark.parametrize("line1", ["a,c", "A,b", "a,b,c", "1,2"])
    def test_other_header_names_line_1(self, tmp_path, line1):
        path = self.write(tmp_path, f"{line1}\n1,2\n")
        with pytest.raises(HeaderError, match=f"^{path}: line 1: expected header 'a,b'$") as err:
            read_file(path, "a,b")
        assert err.value.fields == line1.split(",")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("a,b\n1,2\n1,2,3\n", "line 3: expected 2 fields, got 3"),
            ("a,b\n1,2\n\n\n1\n", "line 5: expected 2 fields, got 1"),
            ("a,b\n1,2\n   \n", "line 3: expected 2 fields, got 1"),
            ("a,b\n\n1,nan\n", "line 3: field 2 is not a finite number: 'nan'"),
            ("a,b\n1,2\n-inf,2\n", "line 3: field 1 is not a finite number: '-inf'"),
            ("a,b\n1, x \n", "line 2: field 2 is not a finite number: 'x'"),
            ("a,b\n1,\n", "line 2: field 2 is not a finite number: ''"),
            ("a,b,c\n1,2\n3,4\n", "line 2: expected 3 fields, got 2"),
            ("a,b\n\n", "no data rows after line 1"),
            ("", "no data rows after line 1"),
        ],
    )
    def test_rejects_naming_the_line(self, tmp_path, text, match):
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=f"{path}: {match}"):
            read_file(path, text.split("\n")[0])

    def test_non_finite_cell_is_named_with_one_loadtxt(self, tmp_path, dictionary_32,
                                                         monkeypatch):
        # np.loadtxt read the whole body, so the bad cell is named from the array it gave
        # and the text of its line, with no second parse.
        text = dictionary_32[0].read_text()
        path = self.write(tmp_path, text[: text.rindex(",") + 1] + "nan\n")
        header = text[: text.index("\n")]
        n_fields = header.count(",") + 1
        calls = counting(monkeypatch, core.np, "loadtxt")
        message = f"line 730: field {n_fields} is not a finite number: 'nan'"
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            read_file(path, header)
        assert len(calls) == 1

    def test_text_cell_in_line_2_is_named_after_one_run_of_lines(
        self, tmp_path, dictionary_32, monkeypatch
    ):
        lines = dictionary_32[0].read_text().splitlines()
        n_fields = lines[0].count(",") + 1
        lines[1] = "x" + lines[1][1:]  # its ix cell, 0
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        drawn, body_lines = [], core._body_lines
        monkeypatch.setattr(core, "_body_lines",
                            lambda *a: (drawn.append(line) or line for line in body_lines(*a)))
        with pytest.raises(ValueError, match=f"^{path}: line 2: field 1 is not a finite number: "
                                             "'x'$"):
            read_file(path, lines[0])
        assert 1 <= len(drawn) <= _WRITE_CELLS // n_fields

    @pytest.mark.parametrize("row", [0, 300, 728])
    @pytest.mark.parametrize("spoil, message", [
        (lambda cells: cells[:-1] + ["x"], "field {fields} is not a finite number: 'x'"),
        (lambda cells: cells[:5] + [" y "] + cells[6:], "field 6 is not a finite number: 'y'"),
        (lambda cells: cells[:-1], "expected {fields} fields, got {short}"),
    ], ids=["text-last-cell", "text-sixth-cell", "short-row"])
    def test_rejected_file_is_halved_to_its_first_bad_line(
        self, tmp_path, dictionary_32, monkeypatch, row, spoil, message
    ):
        # np.loadtxt rejects the file, so the lines are read again in runs of about
        # _WRITE_CELLS cells, then the first bad run a line at a time, and its bad line a
        # cell at a time: past the bad line, loadtxt is handed at most one run more.
        lines = dictionary_32[0].read_text().splitlines()
        header, n_fields, n_rows = lines[0], lines[0].count(",") + 1, len(lines) - 1
        for at in {row + 1, n_rows}:  # a later bad line is not the one named
            lines[at] = ",".join(spoil(lines[at].split(",")))
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        calls = counting(monkeypatch, core.np, "loadtxt")
        expected = message.format(fields=n_fields, short=n_fields - 1)
        with pytest.raises(ValueError, match=f"^{path}: line {row + 2}: {expected}$"):
            read_file(path, header)
        file, *rescan = calls
        assert not isinstance(file, list) and all(isinstance(run, list) for run in rescan)
        assert sum(map(len, rescan)) <= row + 1 + _WRITE_CELLS // n_fields + n_fields

    @pytest.mark.parametrize("lineno", [2, 4033, 4097])
    def test_narrow_file_is_rescanned_in_about_twice_root_k_calls(
        self, tmp_path, monkeypatch, lineno
    ):
        # k = 4096 lines of 2 cells per _WRITE_CELLS, so a line at a time would cost
        # thousands of calls. Line 4033 ends the first run: its every sub-run and the
        # last sub-run's every line are read. Line 4097 ends the first sub-run of the second.
        lines = [f"{i}.5,{2 * i}.25" for i in range(8192)]
        lines[lineno - 2] = lines[lineno - 2].split(",")[0] + ",x"
        path = self.write(tmp_path, "a,b\n" + "\n".join(lines) + "\n")
        calls = counting(monkeypatch, core.np, "loadtxt")
        with pytest.raises(ValueError, match=f"^{path}: line {lineno}: field 2 is not a "
                                             "finite number: 'x'$"):
            read_file(path, "a,b")
        assert len(calls) <= 2 * math.isqrt(_WRITE_CELLS // 2) + 3

    def test_line_error_counts_skipped_lines(self, tmp_path):
        path = self.write(tmp_path, "a\n1\n\n2\n\n\n3\n")
        with open_bytes(path) as fh:
            errors = [str(line_error(path, i, "bad", fh)) for i in range(3)]
        assert errors == [
            f"{path}: line {n}: bad" for n in (2, 4, 7)
        ]


class TestCheckRows:
    EXPECTED = np.array([[0.0, 6e10, -30.0], [1.0, 6.1e10, 0.0], [2.0, 6.2e10, 30.0]])

    def check(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text("m,f,t\n" + "".join(",".join(map(str, row)) + "\n" for row in body))
        with open_bytes(path) as fh:
            check_rows(path, np.array(body, dtype=float), self.EXPECTED, "m,f,t", fh)
        return path

    def test_printed_cells_pass(self, tmp_path):
        printed = [[float(f"{v:.9e}") for v in row] for row in self.EXPECTED + 4e-10]
        self.check(tmp_path, np.hstack([printed, [[7.0]] * 3]))  # extra cells are not keys

    def test_rejects_a_cell_beyond_the_column_tolerance(self, tmp_path):
        body = self.EXPECTED.copy()
        body[2, 2] += 3.1e-8  # 1e-9 of the column's largest |value| is 3e-8
        with pytest.raises(ValueError, match=r"line 4: expected m,f,t = 2,6.2e\+10,30 "
                                             r"\(from the config\), got 2,6.2e\+10,30.00000003$"):
            self.check(tmp_path, body)
        body[2, 2] -= 2e-9
        self.check(tmp_path, body)

    def test_rejects_another_row_count(self, tmp_path):
        with pytest.raises(ValueError, match="has 2 data rows but the config expects 3"):
            self.check(tmp_path, self.EXPECTED[:2])


GRID = PositionGrid((-0.2, 0.2), (0.0, 0.0), (2.5, 3.5), nx=3, ny=1, nz=2)


def small_dictionary():
    return build_dictionary(GRID, PLAN8, MODEL8, ANT)


class Prebuilt:
    """A built Dictionary whose every chunks() pass slices its entries: a pass prints and
    compares the rows but builds none, so a peak measured over it counts those alone."""

    def __init__(self, dictionary: Dictionary):
        self.grid, self.n_points = dictionary.grid, dictionary.n_points
        self.entries = dictionary.entries

    def chunks(self):
        return ((start, self.entries[start : start + CHUNK_ROWS])
                for start in range(0, len(self.entries), CHUNK_ROWS))


def rewrite(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


class TestDictionaryImport:
    def exported(self, tmp_path):
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(small_dictionary()))
        return path

    def test_reversed_rows_rejected(self, tmp_path):
        path = self.exported(tmp_path)

        def reverse(lines):
            lines[1:] = lines[:0:-1]

        rewrite(path, reverse)
        with pytest.raises(ValueError, match="line 2: expected ix,iy,iz,x,y,z = 0,0,0,-0.2,0,2.5 "
                                             r"\(from the config\), got 2,0,1,0.2,0,3.5$"):
            localize_batch([], small_dictionary(), path)

    def test_duplicated_row_rejected(self, tmp_path):
        path = self.exported(tmp_path)
        rewrite(path, lambda lines: lines.__setitem__(4, lines[3]))
        with pytest.raises(ValueError, match="line 5: expected ix,iy,iz,x,y,z = 0,0,1,"):
            localize_batch([], small_dictionary(), path)

    def test_position_off_grid_rejected(self, tmp_path):
        path = self.exported(tmp_path)

        def shift_x(lines):
            cells = lines[3].split(",")
            cells[3] = "1.000000001e-01"  # grid x is 0.0 here
            lines[3] = ",".join(cells)

        rewrite(path, shift_x)
        with pytest.raises(ValueError, match="line 4: expected ix,iy,iz,x,y,z = 2,0,0,0.2,"):
            localize_batch([], small_dictionary(), path)

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines.__setitem__(4, lines[3]), "line 5: expected ix,iy,iz,x,y,z = 0,0,1,"),
        (lambda lines: lines.__setitem__(3, lines[3] + "x"), "line 4: field 38 is not a finite "),
    ], ids=["key-cell", "text-cell"])
    def test_rejected_file_builds_no_entries(self, tmp_path, edit, match):
        # the rows are built once, to score and to print; the full entries only for a file
        # whose keys are read and pass
        path = self.exported(tmp_path)
        rewrite(path, edit)
        d = Dictionary(GRID, PLAN8, MODEL8, ANT)
        with pytest.raises(ValueError, match=match):
            localize_batch([], d, path)
        assert "entries" not in vars(d)

    def test_huge_index_rejected_without_sizing_a_grid(self, tmp_path):
        path = self.exported(tmp_path)
        rewrite(path, lambda lines: lines.__setitem__(2, "1000000000000" + lines[2][1:]))
        with pytest.raises(ValueError, match="line 3: expected ix,iy,iz,x,y,z = 1,0,0,"):
            localize_batch([], small_dictionary(), path)

    def test_non_unit_row_named(self, tmp_path):
        path = self.exported(tmp_path)
        cells = path.read_text().splitlines()[6].split(",")

        def scale(lines):
            lines[6] = ",".join(cells[:6] + [f"{2 * float(c):.9e}" for c in cells[6:]])

        rewrite(path, scale)
        with pytest.raises(ValueError) as err:
            localize_batch([], small_dictionary(), path)
        # the first cell whose change is beyond the print tolerance, of all 32 that doubled
        found = re.fullmatch(fr"{path}: line 7: expected ((re|im)_(\d+)) = (\S+) "
                             r"\(from the config\), got (\S+)", str(err.value))
        name, _, q, want, got = found.groups()
        col = 2 * int(q) + name.startswith("im")
        assert float(want) == pytest.approx(float(cells[6 + col]), rel=1e-9)
        assert float(got) == pytest.approx(2 * float(want), rel=1e-9)

    @pytest.mark.parametrize("grid, match", [
        # the same size and order, positions on another box: named at its first row
        (PositionGrid((-0.2, 0.2), (0.0, 0.0), (2.5, 3.6), nx=3, ny=1, nz=2),
         "line 5: expected ix,iy,iz,x,y,z = 0,0,1,-0.2,0,3.6 "),
        (PositionGrid((-0.2, 0.2), (0.0, 0.0), (2.5, 3.5), nx=2, ny=1, nz=3),
         "line 3: expected ix,iy,iz,x,y,z = 1,0,0,0.2,0,2.5 .*, got 1,0,0,0,0,2.5$"),
        (PositionGrid((-0.2, 0.2), (0.0, 0.0), (2.5, 3.5), nx=3, ny=1, nz=3),
         "has 6 data rows but the config expects 9"),
    ])
    def test_other_grid_rejected(self, tmp_path, grid, match):
        path = self.exported(tmp_path)
        with pytest.raises(ValueError, match=match):
            localize_batch([], build_dictionary(grid, PLAN8, MODEL8, ANT), path)

    def test_other_point_count_names_both(self, tmp_path):
        path = self.exported(tmp_path)
        plan = FrequencyPlan(60e9, 66e9, 4)
        d = build_dictionary(GRID, plan, LinearSineDispersion.for_plan(plan), ANT)
        with pytest.raises(ValueError, match=f"^{path}: line 1: has 8 frequency points but the "
                                             "plan expects 4$"):
            localize_batch([], d, path)

    def test_malformed_header_named(self, tmp_path):
        path = self.exported(tmp_path)
        rewrite(path, lambda lines: lines.__setitem__(0, lines[0].replace("re_3", "re_x")))
        with pytest.raises(HeaderError, match=f"^{path}: line 1: expected header 'ix,iy,iz,"):
            localize_batch([], small_dictionary(), path)

    def test_import_holds_no_second_copy(self, wide_dictionary):
        # A file of the dictionary's own bytes is compared as it is printed,
        # a block at a time: neither its table nor a copy of the entries is held.
        path, d = wide_dictionary
        d = Prebuilt(d)  # building a chunk of rows takes more than the bound
        localize_batch([], d, path)  # tables built on first use are not counted
        tracemalloc.start()
        try:
            localize_batch([], d, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = 9**3 * (6 + 4 * 128) * 8
        assert peak < d.entries.nbytes / 4 < table_bytes / 4  # bounded by a block of rows

    def test_export_holds_one_block(self, tmp_path, wide_dictionary):
        # A path is written in binary a block at a time: the text is never joined.
        d = Prebuilt(wide_dictionary[1])  # building a chunk of rows takes more than the bound
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(d))  # tables built on first use are not counted
        tracemalloc.start()
        try:
            write_text(path, dictionary_text(d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.entries.nbytes / 4
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA256

    def test_tolerance_check_holds_no_full_size_temporary(self, tmp_path, wide_dictionary):
        # A CRLF copy is read and each entry cell checked within the print
        # tolerance, a block of rows at a time: beyond the loaded body no
        # array of the table's size is held.
        source, d = wide_dictionary
        d = Prebuilt(d)  # building a chunk of rows takes more than the bound
        path = tmp_path / "crlf.csv"
        path.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
        localize_batch([], d, path)
        tracemalloc.start()
        try:
            localize_batch([], d, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        body_bytes = 9**3 * (6 + 4 * 128) * 8
        assert peak < 1.5 * body_bytes

    def test_comparison_stops_at_the_first_differing_block(self, tmp_path, dictionary_32,
                                                            monkeypatch):
        source, d = dictionary_32
        calls = counting(monkeypatch, core, "_format_block")
        localize_batch([], d, source)
        # each chunk of rows is printed in blocks of k rows: 5 + 5 + 4 for 256 + 256 + 217
        k = core._WRITE_CELLS // (6 + 4 * d.n_points)
        chunks = [min(CHUNK_ROWS, d.size - start) for start in range(0, d.size, CHUNK_ROWS)]
        assert len(calls) == sum(-(-rows // k) for rows in chunks) == 14
        # With CRLF line ends the header line already differs: no block is
        # printed, and the file is still accepted.
        path = tmp_path / "crlf.csv"
        path.write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))
        calls.clear()
        localize_batch([], d, path)
        assert calls == []

    def test_blank_lines_skipped(self, tmp_path):
        path = self.exported(tmp_path)
        rewrite(path, lambda lines: lines.insert(3, ""))
        localize_batch([], small_dictionary(), path)

    @pytest.mark.parametrize("spell", [
        lambda c: c.replace("e", "E"),
        lambda c: f" {c} ",
        lambda c: repr(float(c)),
    ], ids=["upper-e", "spaces", "repr"])
    def test_same_value_spelled_otherwise_passes(self, tmp_path, spell):
        path = self.exported(tmp_path)

        def respell(lines):
            cells = lines[3].split(",")
            cells[8] = spell(cells[8])
            lines[3] = ",".join(cells)

        rewrite(path, respell)
        localize_batch([], small_dictionary(), path)

    def test_missing_last_line_end_or_extra_bytes_take_the_full_check(self, tmp_path):
        path = self.exported(tmp_path)
        text = path.read_bytes()
        path.write_bytes(text.rstrip(b"\n"))
        localize_batch([], small_dictionary(), path)
        path.write_bytes(text + b"0,0,0,0,0,0" + b",0" * 32 + b"\n")
        with pytest.raises(ValueError, match="has 7 data rows but the config expects 6"):
            localize_batch([], small_dictionary(), path)


@st.composite
def dictionaries(draw):
    """Dictionaries of small physical configs: grids within 45 deg of boresight,
    antennas short enough that every grid point stays in the beam."""
    def axis(lo, hi):
        a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
        return (a, b)

    grid = PositionGrid(
        axis(-1.0, 1.0), axis(-1.0, 1.0), axis(1.0, 4.0),
        nx=draw(st.integers(1, 3)), ny=draw(st.integers(1, 3)), nz=draw(st.integers(1, 3)),
    )
    plan = FrequencyPlan(60e9, draw(st.floats(60.5e9, 66e9)), draw(st.integers(1, 8)))
    model = LinearSineDispersion.for_plan(plan, math.radians(draw(st.floats(10.0, 70.0))))
    antenna = AntennaModel(draw(st.floats(0.003, 0.03)), draw(st.booleans()))
    return build_dictionary(grid, plan, model, antenna)


@st.composite
def measurements(draw):
    f_min = draw(st.floats(1e9, 100e9))
    plan = FrequencyPlan(f_min, f_min * (1.0 + draw(st.floats(1e-3, 1.0))), draw(st.integers(1, 8)))
    # Bounded: near the largest double, rounding to 10 digits can print a
    # number above it, which parses back as inf.
    values = st.floats(-1e300, 1e300)
    s = [complex(draw(values), draw(values)) for _ in range(2 * plan.n_points)]
    return Measurement(plan, s[::2], s[1::2])


def corrupt(draw, text):
    """Replace one random body cell with a bad value, insert one empty line,
    and return the new text with the physical line of the bad cell."""
    lines = text.splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(["nan", "inf", "-inf", "x"]))
    lines[row] = ",".join(cells)
    at = draw(st.integers(1, len(lines)))
    lines.insert(at, "")
    return "\n".join(lines) + "\n", row + (at <= row) + 1


class TestRoundTripProperties:
    @PROPERTY
    @given(d=dictionaries())
    def test_dictionary_emit_import_emit(self, tmp_path, d):
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(d))
        assert b"".join(dictionary_text(d)) == path.read_bytes()
        localize_batch([], d, path)  # the bytes it prints
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        localize_batch([], d, path)  # the cells it prints, read back

    @PROPERTY
    @given(d=dictionaries(), data=st.data())
    def test_dictionary_bad_cell_names_line(self, tmp_path, d, data):
        text, lineno = corrupt(data.draw, b"".join(dictionary_text(d)).decode("ascii"))
        path = tmp_path / "dict.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {lineno}: field"):
            localize_batch([], d, path)

    @PROPERTY
    @given(meas=measurements())
    def test_measurement_emit_read_emit(self, tmp_path, meas):
        model = LinearSineDispersion.for_plan(meas.plan)
        text = measurement_to_csv(meas, model)
        path = tmp_path / "meas.csv"
        path.write_text(text)
        assert measurement_to_csv(read_measurement_csv(path, meas.plan, model), model) == text

    @PROPERTY
    @given(meas=measurements(), data=st.data())
    def test_measurement_bad_cell_names_line(self, tmp_path, meas, data):
        model = LinearSineDispersion.for_plan(meas.plan)
        text, lineno = corrupt(data.draw, measurement_to_csv(meas, model))
        path = tmp_path / "meas.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {lineno}: field"):
            read_measurement_csv(path, meas.plan, model)

