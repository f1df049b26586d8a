"""Series ingestion, validation, rescaling, and CSV round trips."""

import csv
import math
import os
import stat
import threading
import warnings

import numpy as np
import pytest

from agekit import timeseries
from agekit.errors import DomainError, ParseError
from agekit.timeseries import (
    CSV_HEADER,
    MetricSeries,
    Orientation,
    _read_columns,
    load_series,
    rescale_time,
    save_series,
    write_text_atomic,
)

from reference_reader import read_columns


def make_series(t, values, orientation=Orientation.HIGHER_IS_WORSE):
    return MetricSeries(name="s", orientation=orientation, t=t, values=values)


class TestMetricSeries:
    def test_basic_construction(self):
        s = make_series([0.0, 15.0, 30.0], [120.0, 118.0, 115.0])
        assert len(s) == 3
        assert s.t[1] == 15.0
        assert s.values[2] == 115.0

    def test_arrays_are_read_only(self):
        s = make_series([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValueError):
            s.t[0] = 9.0
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            make_series([0.0, 0.0], [1.0, 2.0])

    def test_decreasing_timestamps_rejected_with_sample_index(self):
        with pytest.raises(DomainError, match="sample 2"):
            make_series([0.0, 10.0, 5.0], [1.0, 2.0, 3.0])

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            make_series([-1.0, 0.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            make_series([0.0, float("nan")], [1.0, 2.0])
        with pytest.raises(DomainError):
            make_series([0.0, 1.0], [1.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            make_series([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="lengths differ"):
            make_series([0.0, 1.0], [1.0])

    def test_orientation_type_enforced(self):
        with pytest.raises(DomainError, match="orientation"):
            MetricSeries(name="s", orientation="up", t=[0.0], values=[1.0])


class TestRescaleTime:
    def test_identity_factor(self):
        s = make_series([0.0, 15.0, 30.0], [1.0, 2.0, 3.0])
        r = rescale_time(s, 1.0)
        assert np.array_equal(r.t, s.t)
        assert np.array_equal(r.values, s.values)

    def test_seconds_to_hours(self):
        s = make_series([3600.0, 7200.0], [1.0, 2.0])
        r = rescale_time(s, 1.0 / 3600.0)
        assert r.t[0] == 1.0
        assert r.t[1] == 2.0

    def test_fifteen_second_spacing_in_hours(self):
        s = make_series([0.0, 15.0], [1.0, 2.0])
        r = rescale_time(s, 1.0 / 3600.0)
        assert abs((r.t[1] - r.t[0]) - 0.0041667) < 1e-6
        # the wrong factor 1/240 would give a visibly different spacing
        assert abs(rescale_time(s, 1.0 / 240.0).t[1] - 0.0625) < 1e-12

    def test_round_trip_within_one_ulp(self):
        t = np.linspace(0.1, 99.7, 57)
        s = make_series(t, np.arange(57, dtype=float))
        back = rescale_time(rescale_time(s, 3.7), 1.0 / 3.7)
        for a, b in zip(back.t, s.t):
            assert abs(a - b) <= math.ulp(b)

    def test_values_untouched(self):
        s = make_series([1.0, 2.0], [5.0, 6.0])
        assert np.array_equal(rescale_time(s, 2.0).values, s.values)

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_factor_rejected(self, factor):
        s = make_series([1.0], [1.0])
        with pytest.raises(DomainError):
            rescale_time(s, factor)


class TestLoadSeries:
    def write(self, tmp_path, text, name="in.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_three_row_file(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,120\n15,118\n30,115\n")
        s = load_series(path, "bw", Orientation.LOWER_IS_WORSE)
        assert len(s) == 3
        assert list(s.t) == [0.0, 15.0, 30.0]
        assert list(s.values) == [120.0, 118.0, 115.0]
        assert s.orientation is Orientation.LOWER_IS_WORSE

    def test_duplicate_timestamps_error(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,1\n0,2\n")
        with pytest.raises(DomainError, match="strictly increasing"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_long_uniform_file(self, tmp_path):
        rows = "\n".join(f"{i * 15},{100 + (i % 7)}" for i in range(4000))
        path = self.write(tmp_path, "t,value\n" + rows + "\n")
        s = load_series(path, "s", Orientation.HIGHER_IS_WORSE)
        assert len(s) == 4000
        assert s.t[-1] == 3999 * 15

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_series(str(tmp_path / "nope.csv"), "s", Orientation.HIGHER_IS_WORSE)

    def test_wrong_header(self, tmp_path):
        path = self.write(tmp_path, "time,val\n0,1\n")
        with pytest.raises(ParseError, match="expected header"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ParseError, match="empty"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "t,value\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_non_numeric_row_reports_row_number(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,1\nlater,2\n")
        with pytest.raises(ParseError, match="row 3"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_empty_value_field_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,\n")
        with pytest.raises(ParseError, match="empty value field"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_wrong_field_count(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,1,2\n")
        with pytest.raises(ParseError, match="expected 2 fields"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self.write(tmp_path, "t,value\n0,inf\n")
        with pytest.raises(ParseError, match="not finite"):
            load_series(path, "s", Orientation.HIGHER_IS_WORSE)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "t,value\n\n0,1\n\n1,2\n")
        s = load_series(path, "s", Orientation.HIGHER_IS_WORSE)
        assert len(s) == 2

    def test_crlf_and_bom_accepted(self, tmp_path):
        path = tmp_path / "win.csv"
        path.write_bytes(b"\xef\xbb\xbft,value\r\n0,1\r\n1,2\r\n")
        s = load_series(str(path), "s", Orientation.HIGHER_IS_WORSE)
        assert list(s.values) == [1.0, 2.0]


def spy_on_loadtxt(monkeypatch):
    """Record what each np.loadtxt call returned or raised."""
    calls = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        try:
            table = real(*args, **kwargs)
        except Exception as exc:
            calls.append(exc)
            raise
        calls.append(table)
        return table

    monkeypatch.setattr(timeseries.np, "loadtxt", spy)
    return calls


class TestNumpyFirstReader:
    """numpy's parser reads a file first; the csv loop re-reads what it cannot."""

    def test_header_only_file_says_no_data_rows_without_a_warning(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"t,value\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                _read_columns(str(path), CSV_HEADER)

    def test_bad_byte_deep_in_a_large_file_keeps_the_reference_message(self, tmp_path, monkeypatch):
        lines = [b"t,value"] + [f"{i},{i * 0.5!r}".encode() for i in range(60_000)]
        lines[50_000] = b"49999.5,\xb5"
        path = tmp_path / "in.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        calls = spy_on_loadtxt(monkeypatch)
        with pytest.raises(ParseError) as raised:
            _read_columns(str(path), CSV_HEADER)
        # the decode failed inside numpy's parse, and the csv loop wrote the message
        assert len(calls) == 1 and isinstance(calls[0], UnicodeDecodeError)
        with pytest.raises(ParseError) as reference:
            read_columns(str(path), CSV_HEADER)
        assert str(raised.value) == str(reference.value)
        assert "can't decode byte 0xb5" in str(raised.value)

    def test_a_clean_file_takes_numpy_and_a_quoted_cell_the_csv_loop(self, tmp_path, monkeypatch):
        clean = tmp_path / "clean.csv"
        clean.write_bytes(b"\xef\xbb\xbft,value\r\n0,1.5\r\n15,2.25\r\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(clean.read_bytes().replace(b"15,2.25", b'15,"2.25"'))
        calls = spy_on_loadtxt(monkeypatch)
        fast = _read_columns(str(clean), CSV_HEADER)
        fallback = _read_columns(str(quoted), CSV_HEADER)
        assert isinstance(calls[0], np.ndarray) and isinstance(calls[1], ValueError)
        for a, b in zip(fast, fallback):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("excess", [0, 1])
    @pytest.mark.parametrize("rows_before", [0, 30_000])  # the cell past the first check offset
    def test_a_cell_past_the_csv_field_limit_reads_alike_on_both_paths(
        self, tmp_path, monkeypatch, excess, rows_before
    ):
        limit = csv.field_size_limit()
        cell = b" " * (limit - 3 + excess) + b"1.5"  # limit + excess characters
        head = b"t,value\n" + b"".join(b"%d,0\n" % i for i in range(rows_before))
        row = b"%d,%s\n" % (rows_before, cell)
        plain = tmp_path / "plain.csv"
        plain.write_bytes(head + row + b"1e9,2.5\n")
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(head + row + b'1e9,"2.5"\n')
        calls = spy_on_loadtxt(monkeypatch)

        def read(path, reader):
            try:
                return [column.tobytes() for column in reader(str(path), CSV_HEADER)]
            except ParseError as exc:
                return str(exc).replace(str(path), "<path>")

        fast, fallback = read(plain, _read_columns), read(quoted, _read_columns)
        # numpy parses the plain file whether or not its cell passes the limit
        assert isinstance(calls[0], np.ndarray) and isinstance(calls[1], ValueError)
        assert fast == fallback == read(plain, read_columns) == read(quoted, read_columns)
        if excess:
            assert fast == f"<path>: field larger than field limit ({limit})"
        else:
            t = np.append(np.arange(rows_before + 1.0), 1e9)
            values = np.append(np.zeros(rows_before), [1.5, 2.5])
            assert fast == [t.tobytes(), values.tobytes()]
        assert csv.field_size_limit() == limit

    def test_the_long_cell_check_finds_a_run_past_the_limit_at_any_offset(
        self, tmp_path, monkeypatch
    ):
        # a limit of 8 read through the csv module's accessor; the module's own limit stays
        monkeypatch.setattr(timeseries.csv, "field_size_limit", lambda: 8)
        path = tmp_path / "runs.bin"
        for length in (8, 9):
            for offset in range(40):
                data = bytearray(b",\r\n" * 20)
                data[offset : offset + length] = b"x" * length
                data[offset + length + 2 : offset + length + 6] = b"7.25"  # a shorter run beside it
                path.write_bytes(bytes(data))
                with timeseries._open_text(str(path)) as handle:
                    assert timeseries._may_hold_long_cell(handle) == (length > 8)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_a_pipe_is_read_once_by_the_csv_loop(self, tmp_path):
        path = str(tmp_path / "pipe.csv")
        os.mkfifo(path)

        def feed():  # a quoted cell: numpy could not have read it
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('t,value\n0,1\n15,"2"\n')

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            series = load_series(path, "s", Orientation.HIGHER_IS_WORSE)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert series.t.tolist() == [0.0, 15.0]
        assert series.values.tolist() == [1.0, 2.0]


class TestSaveSeries:
    def test_load_save_load_fixed_point(self, tmp_path):
        rng = np.random.default_rng(7)
        t = np.cumsum(rng.uniform(0.01, 3.0, 200))
        v = rng.normal(0, 1e3, 200)
        s = make_series(t, v)
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        save_series(s, p1)
        loaded = load_series(p1, "s", s.orientation)
        assert np.array_equal(loaded.t, s.t)
        assert np.array_equal(loaded.values, s.values)
        save_series(loaded, p2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_header_written(self, tmp_path):
        path = str(tmp_path / "out.csv")
        save_series(make_series([1.0], [2.0]), path)
        assert (tmp_path / "out.csv").read_text().splitlines()[0] == "t,value"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "out.csv")
        save_series(make_series([1.0], [2.0]), path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "out.csv"]
        assert leftovers == []


class TestWriteTextAtomic:
    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def mode(self, path):
        return stat.S_IMODE(os.stat(path).st_mode)

    def test_new_file_mode_follows_umask(self, tmp_path, umask_022):
        path = tmp_path / "new.csv"
        write_text_atomic(str(path), "t,value\n")
        assert path.read_text() == "t,value\n"
        assert self.mode(path) == 0o644

    def test_failed_rename_keeps_target_and_removes_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_text_atomic(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_clean_up_keeps_the_rename_error(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def refuse_rename(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        def refuse_unlink(target):
            raise OSError(16, "Device or resource busy", target)

        monkeypatch.setattr(os, "replace", refuse_rename)
        monkeypatch.setattr(os, "unlink", refuse_unlink)
        with pytest.raises(PermissionError):
            write_text_atomic(str(path), "new\n")
        monkeypatch.undo()
        assert path.read_text() == "old\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.csv"]
        assert len(leftovers) == 1 and leftovers[0].read_text() == "new\n"

    def test_missing_directory_error_names_the_path(self, tmp_path):
        path = str(tmp_path / "absent" / "out.csv")
        with pytest.raises(FileNotFoundError) as excinfo:
            write_text_atomic(path, "x\n")
        assert excinfo.value.filename == path

    def test_existing_file_keeps_its_mode(self, tmp_path, umask_022):
        path = tmp_path / "old.csv"
        path.write_text("stale\n")
        os.chmod(path, 0o640)
        write_text_atomic(str(path), "fresh\n")
        assert path.read_text() == "fresh\n"
        assert self.mode(path) == 0o640
