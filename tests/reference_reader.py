"""Reference CSV reader: ``timeseries._read_columns`` as it was before numpy's parser.

Kept as the oracle for the differential property in ``test_reader_oracle.py``,
the way ``reference_lowess.py`` is kept for LOWESS. It reads every row with
the ``csv`` module and ``float``, so it defines which files load, the arrays
they load to and the ParseError text of every file that does not. It shares
no code with the library, only the error type.
"""

import csv
import math

import numpy as np

from agekit.errors import ParseError


def _parse_row(path, row, line_num, header):
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


def read_columns(path, header, header_label="header"):
    """One float array per column of ``path``, or the ParseError the library must raise."""
    rows = []
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
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
