"""The CSV reader against its reference: numpy's parser first, the csv loop as fallback.

``_read_columns`` must return what ``reference_reader.read_columns`` (the
csv-module reader it replaced) returns, bit for bit and dtype included, or
raise a ParseError with the same text.

Hypothesis is a test-only dependency; without it this module is skipped.
"""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agekit.errors import ParseError  # noqa: E402
from agekit.simulator import TRACE_HEADER  # noqa: E402
from agekit.timeseries import CSV_HEADER, _read_columns  # noqa: E402

from reference_reader import read_columns  # noqa: E402


def outcome(read, path, header):
    """The arrays ``read`` returns, or the text of the ParseError it raises."""
    try:
        return read(path, header)
    except ParseError as exc:
        return str(exc)


def assert_same_outcome(path, header):
    got = outcome(_read_columns, path, header)
    want = outcome(read_columns, path, header)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, tuple) and len(got) == len(want)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype
        assert column.shape == expected.shape
        assert column.tobytes() == expected.tobytes()


def write_bytes(work, data):
    path = os.path.join(work, "in.csv")
    with open(path, "wb") as handle:
        handle.write(data)
    return path


# Cell text both parsers read, padded as spreadsheets and hand edits pad it.
number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
padded = st.tuples(st.sampled_from(["", " ", "\t"]), number, st.sampled_from(["", " "])).map(
    "".join
)
# Cells only float() reads (1_000, a non-ASCII digit, a quoted cell), cells
# neither reads, and cells that read as non-finite.
odd_cell = st.sampled_from(
    ["1_000", "٣", '"1.5"', '""', "nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
     "1e-400", "0x10", "", " ", "abc", "+.5", "1.", '"']
)
blank_row = st.sampled_from(["", " ", "\t", ",", " , ", ",,"])
ending = st.sampled_from(["\n", "\r\n", "\r"])
header_line = st.sampled_from([" t , value ", '"t",value', "t,value,", "time,value", "value,t"])


@st.composite
def csv_files(draw):
    """(bytes, header): a well-formed file, then up to three hazards dropped into it.

    A hazard is a blank or whitespace row, an odd cell, a trailing comma, a
    missing or extra cell, or a byte that is not UTF-8. The header line may be
    missing, odd or padded, the endings are LF, CRLF or lone CR line by line,
    and a BOM may lead.
    """
    header = draw(st.sampled_from([CSV_HEADER, TRACE_HEADER]))
    rows = draw(st.lists(st.lists(padded, min_size=len(header), max_size=len(header)), max_size=12))
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        at = draw(st.integers(0, len(lines) - 1))
        cells = lines[at].split(",")
        where = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(["blank", "cell", "comma", "short", "long", "header", "drop"]))
        if kind == "blank":
            lines.insert(at, draw(blank_row))
        elif kind == "header":
            lines[0] = draw(header_line)
        elif kind == "drop":
            del lines[at]  # at 0: a header-less file
        else:
            if kind == "cell":
                cells[where] = draw(odd_cell)
            elif kind == "comma":
                cells.append("")
            elif kind == "short":
                del cells[where]
            else:
                cells.insert(where, draw(padded))
            lines[at] = ",".join(cells)
    text = "".join(line + draw(ending) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line ending
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xb5" + data[at:]
    return data, header


@settings(max_examples=400, deadline=None)
@given(csv_files())
def test_reader_matches_the_reference_bit_for_bit_or_by_message(drawn):
    data, header = drawn
    with tempfile.TemporaryDirectory() as work:
        assert_same_outcome(write_bytes(work, data), header)
