"""Raw indicator series: CSV ingestion, validation, and time rescaling.

A series is the package's unit of currency: every downstream stage (smoothing,
normalization, fitting) consumes a MetricSeries and leaves the time grid alone.
Files are two-column CSV with the exact header ``t,value``, UTF-8, LF or CRLF.
The numeric CSV reader here also reads simulator traces.
"""

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParseError

CSV_HEADER = ("t", "value")


class Orientation(Enum):
    """Which direction of an indicator means degradation."""

    HIGHER_IS_WORSE = "higher-is-worse"
    LOWER_IS_WORSE = "lower-is-worse"


def _as_readonly_float_array(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError(f"{what} must be one-dimensional, got shape {arr.shape}")
    arr = arr.copy()
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
        t = _as_readonly_float_array(self.t, "t")
        values = _as_readonly_float_array(self.values, "values")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        if len(t) != len(values):
            raise DomainError(f"t and values lengths differ: {len(t)} vs {len(values)}")
        if len(t) == 0:
            raise DomainError("series is empty")
        if not np.all(np.isfinite(t)):
            raise DomainError("series has non-finite timestamps")
        if not np.all(np.isfinite(values)):
            raise DomainError("series has non-finite values")
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
    if not np.isfinite(factor) or factor <= 0:
        raise DomainError(f"time rescale factor must be positive and finite, got {factor}")
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


def _read_columns(path, header, header_label="header"):
    """Read a numeric CSV whose first non-blank row is exactly ``header``.

    Returns one float array per column. UTF-8 (BOM allowed), LF or CRLF.
    Blank rows are skipped; any other malformed row fails with its physical
    row number and the name of the offending field.
    """
    try:
        # utf-8-sig so a BOM from spreadsheet exports does not corrupt the header
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    rows = []
    with handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if all(not cell.strip() for cell in row):
                    continue
                got = tuple(cell.strip() for cell in row)
                if got != header:
                    raise ParseError(
                        f"{path}: row {reader.line_num}: expected {header_label} "
                        f"'{','.join(header)}', got '{','.join(got)}'"
                    )
                break
            else:
                raise ParseError(f"{path}: file is empty")
            for row in reader:
                # Fast path for a well-formed row; a NaN or infinity makes the
                # sum non-finite. Anything else takes the checking path, which
                # also accepts the rare finite row whose sum overflows.
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    values = None
                if values is None or len(values) != len(header) or not math.isfinite(sum(values)):
                    values = _parse_row(path, row, reader.line_num, header)
                    if values is None:
                        continue
                rows.append(values)
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
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".agekit-", suffix=".tmp")
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
