"""Score CSV parsing/writing and report rendering tests."""

import json

import numpy as np
import pytest

from pairloss import ScoreFileError, ValidationError, read_score_file, write_score_file
from pairloss.scorefile import format_float, render_report, round_floats

from conftest import make_set


def write(tmp_path, text, name="scores.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadScoreFile:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,1\n1,0.25,0\n2,-1.5,-1\n")
        ss = read_score_file(path)
        assert ss.scores.tolist() == [0.5, 0.25, -1.5]
        assert ss.labels.tolist() == [1, 0, -1]

    def test_rows_in_any_order(self, tmp_path):
        path = write(tmp_path, "index,score,label\n2,0.3,0\n0,0.1,1\n1,0.2,0\n")
        ss = read_score_file(path)
        assert ss.scores.tolist() == [0.1, 0.2, 0.3]

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "idx,score,label\n0,0.5,1\n")
        with pytest.raises(ScoreFileError) as exc:
            read_score_file(path)
        assert exc.value.line == 1
        assert exc.value.column == 1

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5\n")
        with pytest.raises(ScoreFileError) as exc:
            read_score_file(path)
        assert exc.value.line == 2

    def test_unparseable_fields_carry_column(self, tmp_path):
        for column, row in ((1, "x,0.5,1"), (2, "0,zz,1"), (3, "0,0.5,pos")):
            path = write(tmp_path, f"index,score,label\n{row}\n", name=f"bad{column}.csv")
            with pytest.raises(ScoreFileError) as exc:
                read_score_file(path)
            assert exc.value.line == 2
            assert exc.value.column == column

    def test_nan_score_names_the_row(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,1\n1,nan,0\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_score_file(path)

    def test_inf_score_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,inf,1\n")
        with pytest.raises(ValidationError):
            read_score_file(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,7\n")
        with pytest.raises(ValidationError, match="label 7"):
            read_score_file(path)

    def test_duplicate_index_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,1\n0,0.4,0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_score_file(path)

    def test_index_gap_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,1\n2,0.4,0\n")
        with pytest.raises(ValidationError):
            read_score_file(path)

    def test_header_only_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n")
        with pytest.raises(ValidationError):
            read_score_file(path)

    def test_blank_line_rejected(self, tmp_path):
        path = write(tmp_path, "index,score,label\n0,0.5,1\n\n1,0.4,0\n")
        with pytest.raises(ScoreFileError) as exc:
            read_score_file(path)
        assert exc.value.line == 3

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"index,score,label\r\n0,0.5,1\r\n1,0.25,0\r\n")
        ss = read_score_file(str(path))
        assert ss.scores.tolist() == [0.5, 0.25] and ss.labels.tolist() == [1, 0]

    def test_non_utf8_byte_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"index,score,label\r\n0,0.5,1\r\n1,\xc3\xa9\xff,0\r\n")
        with pytest.raises(ScoreFileError) as exc:
            read_score_file(str(path))
        assert (exc.value.line, exc.value.column) == (3, 4)
        assert exc.value.message == f"{path} is not UTF-8: byte 0xff (invalid start byte)"

    def test_missing_file(self):
        # nothing was parsed, so this is not a parse error with a position
        with pytest.raises(ValidationError, match="^cannot read /nonexistent/scores.csv: No such file or directory$"):
            read_score_file("/nonexistent/scores.csv")


class TestWriteScoreFile:
    def test_round_trip(self, tmp_path):
        ss = make_set([0.1, -2.25, 0.7], [1, 0, -1])
        path = str(tmp_path / "out.csv")
        write_score_file(path, ss)
        back = read_score_file(path)
        np.testing.assert_array_equal(back.scores, ss.scores)
        np.testing.assert_array_equal(back.labels, ss.labels)

    def test_writes_documented_format(self, tmp_path):
        ss = make_set([0.5, 0.25], [1, 0])
        path = str(tmp_path / "out.csv")
        write_score_file(path, ss)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        assert text == "index,score,label\n0,0.5,1\n1,0.25,0\n"

    def test_unwritable_path(self):
        with pytest.raises(ValidationError, match="^cannot write /nonexistent/x.csv: No such file or directory$"):
            write_score_file("/nonexistent/x.csv", make_set([0.5, 0.25], [1, 0]))


class TestReportRendering:
    def test_floats_round_trip_at_printed_precision(self):
        report = {"value": 0.05776226504666211, "items": [1.0 / 3.0, 2.256064234806769e-36]}
        parsed = json.loads(render_report(report))
        assert parsed["value"] == float(format_float(0.05776226504666211))
        for printed, original in zip(parsed["items"], report["items"]):
            assert printed == float(format_float(original))
            assert printed == pytest.approx(original, rel=1e-14)

    def test_fifteen_significant_digits(self):
        assert format_float(0.1) == "0.1"
        assert format_float(1.0 / 3.0) == "0.333333333333333"
        assert len(format_float(123456.789012345678).replace(".", "")) <= 16

    def test_round_floats_handles_containers(self):
        data = {"a": np.float64(0.5), "b": np.array([1.5, 2.5]), "c": (True, 3, None)}
        out = round_floats(data)
        assert out == {"a": 0.5, "b": [1.5, 2.5], "c": [True, 3, None]}
        assert isinstance(out["c"][0], bool)
