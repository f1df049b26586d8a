"""Raw indicator series: CSV ingestion, validation, and time rescaling.

A series is the package's unit of currency: every downstream stage (smoothing,
normalization, fitting) consumes a MetricSeries and leaves the time grid alone.
Files are two-column CSV with the exact header ``t,value``, UTF-8, LF or CRLF.
The numeric CSV reader here also reads simulator traces. numpy's parser reads
a file first, from the open handle; the checking ``csv`` loop, the only source
of messages, re-reads any file it cannot: a padded or quoted header or cell,
``1_000``, a non-ASCII digit, a whitespace-only, short or non-finite row. It
also re-reads a file that may hold a cell past the csv module's field limit,
so such a cell fails to load on both paths.
"""

import contextlib
import csv
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParseError, _is_real, _shown

CSV_HEADER = ("t", "value")


class Orientation(Enum):
    """Which direction of an indicator means degradation."""

    HIGHER_IS_WORSE = "higher-is-worse"
    LOWER_IS_WORSE = "lower-is-worse"


def _as_float_array(values, what):
    """``values`` as a float array of any shape; non-numeric input raises DomainError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be numeric") from None


def _as_readonly_float_array(values, what, nonfinite=None):
    """A read-only 1-D float copy; a NaN or inf entry raises ``nonfinite`` when given."""
    arr = _as_float_array(values, what).copy()
    if arr.ndim != 1:
        raise DomainError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if nonfinite is not None and not np.isfinite(arr).all():
        raise DomainError(nonfinite)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MetricSeries:
    """A monitored indicator sampled at strictly increasing times.

    Callers rescale time explicitly with :func:`rescale_time`.
    """

    name: str
    orientation: Orientation
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.orientation, Orientation):
            raise DomainError(f"orientation must be an Orientation, got {self.orientation!r}")
        t = _as_readonly_float_array(self.t, "t", "series has non-finite timestamps")
        values = _as_readonly_float_array(self.values, "values", "series has non-finite values")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        if len(t) != len(values):
            raise DomainError(f"t and values lengths differ: {len(t)} vs {len(values)}")
        if len(t) == 0:
            raise DomainError("series is empty")
        if t[0] < 0:
            raise DomainError(f"timestamps must be nonnegative, first is {t[0]}")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            bad = int(np.flatnonzero(np.diff(t) <= 0)[0]) + 1
            raise DomainError(
                f"timestamps must be strictly increasing; sample {bad} "
                f"(t={t[bad]}) does not advance past t={t[bad - 1]}"
            )

    def __len__(self):
        return len(self.t)


def rescale_time(series, factor):
    """Return a copy of ``series`` with every timestamp multiplied by ``factor``.

    The usual call converts seconds to hours with factor 1/3600.
    """
    if not (_is_real(factor) and factor > 0):
        raise DomainError(f"time rescale factor must be positive and finite, got {_shown(factor)}")
    return MetricSeries(
        name=series.name,
        orientation=series.orientation,
        t=series.t * factor,
        values=series.values,
    )


def _parse_row(path, row, line_num, header):
    """Values of one CSV row, None for a blank row, or a ParseError naming the bad field."""
    if all(not cell.strip() for cell in row):
        return None
    at = f"{path}: row {line_num}"
    if len(row) != len(header):
        raise ParseError(f"{at}: expected {len(header)} fields, got {len(row)}")
    values = []
    for name, cell in zip(header, row):
        text = cell.strip()
        if not text:
            raise ParseError(f"{at}: empty {name} field")
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"{at}: field {name} is not numeric: {text!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{at}: field {name} is not finite: {text!r}")
        values.append(value)
    return values


def _open_text(path):
    """Open ``path`` as UTF-8 (a spreadsheet's BOM dropped), newline=""; OSError -> ParseError."""
    try:
        return open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _may_hold_long_cell(handle):
    """Whether the file may hold a cell longer than the csv module's field limit.

    Bytes bound characters, so a file within the limit holds no such cell.
    In a longer one, a run of more than ``limit`` bytes without a separator
    covers an offset limit + m * (limit + 1), so only the runs through those
    offsets are measured, each to at most ``limit`` + 1 bytes on either side.
    """
    limit = csv.field_size_limit()
    if os.fstat(handle.fileno()).st_size <= limit:
        return False
    handle.seek(0)
    data = handle.buffer.read()
    for at in range(limit, len(data), limit + 1):
        # the nearest separator on each side, each search within the nearest found so far
        before, after = at - limit - 1, min(at + limit + 1, len(data))
        for sep in b",\n\r":
            before = max(before, data.rfind(sep, before + 1, at))
            found = data.find(sep, at, after)
            if found >= 0:
                after = found
        if after - before - 1 > limit:
            return True
    return False


def _numpy_table(handle, header):
    """numpy's (rows, columns) parse of a file headed by ``header``; else None, rewound for csv."""
    # on a ValueError (a cell numpy rejects, a ragged row, a bad byte) the csv loop reads
    # it; so it does a file where a cell may pass the csv module's field limit, which
    # only the csv loop decides
    with contextlib.suppress(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header only: csv says "no data rows"
        line = next((line for line in handle if line.replace(",", "").strip()), "")
        if tuple(cell.strip() for cell in line.split(",")) == header:
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, dtype=float)
            if (
                table.shape[1] == len(header)
                and len(table)
                and np.isfinite(table).all()
                and not _may_hold_long_cell(handle)
            ):
                return table
    handle.seek(0)


def _read_columns(path, header, header_label="header"):
    """Read a numeric CSV whose first non-blank row is exactly ``header``.

    Returns one float array per column. UTF-8 (BOM allowed), LF, CRLF or CR.
    Blank rows are skipped; any other malformed row fails with its physical
    row number and the name of the offending field. numpy's parser reads a
    seekable file first; whatever it rejects, the csv loop re-reads.
    """
    with _open_text(path) as handle:
        if handle.seekable() and (table := _numpy_table(handle, header)) is not None:
            return tuple(table.T.copy())
        reader = csv.reader(handle)
        try:
            row = next((row for row in reader if any(cell.strip() for cell in row)), None)
            if row is None:
                raise ParseError(f"{path}: file is empty")
            got = tuple(cell.strip() for cell in row)
            if got != header:
                raise ParseError(
                    f"{path}: row {reader.line_num}: expected {header_label} "
                    f"'{','.join(header)}', got '{','.join(got)}'"
                )
            parsed = (_parse_row(path, row, reader.line_num, header) for row in reader)
            rows = [values for values in parsed if values is not None]  # None: a blank row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return tuple(np.array(rows, dtype=float).T.copy())


def load_series(path, name, orientation):
    """Read a two-column ``t,value`` CSV into a MetricSeries.

    Blank lines are skipped; any other malformed row fails with its row number.
    Non-increasing timestamps (duplicates included) are a domain error.
    """
    t, values = _read_columns(path, CSV_HEADER)
    try:
        return MetricSeries(name=name, orientation=orientation, t=t, values=values)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def write_text_atomic(path, text):
    """Write ``text`` to ``path`` atomically (temp file, fsync, rename).

    A new file gets mode 0666 minus the umask, as ``open`` would give it; an
    existing file keeps its mode.
    """
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it; restore at once
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".agekit-", suffix=".tmp")
    except OSError as exc:
        # name the caller's path, not the temp file that could not be created
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fchmod(handle.fileno(), mode)
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def format_float(x):
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def save_series(series, path):
    """Serialize a series back to ``t,value`` CSV (atomic write).

    Floats use shortest round-trip formatting, so load(save(s)) is a fixed point.
    """
    lines = [",".join(CSV_HEADER)]
    for t, v in zip(series.t, series.values):
        lines.append(f"{format_float(t)},{format_float(v)}")
    write_text_atomic(path, "\n".join(lines) + "\n")
