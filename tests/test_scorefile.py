"""Score CSV parsing/writing and report rendering tests."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairloss import ScoreFileError, ValidationError, read_score_file, write_score_file
from pairloss.scorefile import _read_columns, _read_lines, format_float, read_text, render_report, round_floats

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


HEADER = "index,score,label\n"

# every file above and in test_cli.py that a reader refuses, and the edges of the column read
CORPUS = {
    "empty": b"",
    "bad header": b"idx,score,label\n0,0.5,1\n",
    "swapped header": b"score,index,label\n0,0.5,1\n",
    "header with spaces": b"  index,score,label \n0,0.5,1\n",
    "header only": HEADER.encode(),
    "header without newline": b"index,score,label",
    "wrong field count": (HEADER + "0,0.5\n").encode(),
    "2 fields then 4 fields": (HEADER + "0,1\n0,1,0,1\n").encode(),
    "trailing comma": (HEADER + "0,0.5,1,\n").encode(),
    "separators only": (HEADER + ",,\n").encode(),
    "bad index": (HEADER + "x,0.5,1\n").encode(),
    "bad score": (HEADER + "0,zz,1\n").encode(),
    "bad label": (HEADER + "0,0.5,pos\n").encode(),
    "nan score in row 2": (HEADER + "0,0.5,1\n1,nan,0\n").encode(),
    "nan score in row 1": (HEADER + "0,nan,1\n1,0.5,0\n").encode(),
    "inf score": (HEADER + "0,inf,1\n").encode(),
    "1e400 score": (HEADER + "0,1e400,1\n").encode(),
    "label 7": (HEADER + "0,0.5,7\n").encode(),
    "duplicate index": (HEADER + "0,0.5,1\n0,0.4,0\n").encode(),
    "index gap": (HEADER + "0,0.5,1\n2,0.4,0\n").encode(),
    "negative index": (HEADER + "-1,0.5,1\n0,0.4,0\n").encode(),
    "permutation with one duplicate": (HEADER + "2,0.5,1\n1,0.4,0\n1,0.3,0\n").encode(),
    "index 10**20": (HEADER + f"{10**20},0.5,1\n").encode(),
    "label 10**20": (HEADER + f"0,0.5,{10**20}\n").encode(),
    "bad label before a bad line": (HEADER + "0,0.5,7\nx,0.4,0\n").encode(),
    "blank line": (HEADER + "0,0.5,1\n\n1,0.4,0\n").encode(),
    "blank last line": (HEADER + "0,0.5,1\n\n").encode(),
    "whitespace line": (HEADER + "0,0.5,1\n  \n").encode(),
    "missing final newline": (HEADER + "0,0.5,1\n1,0.25,0").encode(),
    "crlf": b"index,score,label\r\n0,0.5,1\r\n1,0.25,0\r\n",
    "lone cr": b"index,score,label\r0,0.5,1\r1,0.25,0\r",
    "not utf-8": b"index,score,label\r\n0,0.5,1\r\n1,\xc3\xa9\xff,0\r\n",
    "latin-1": (HEADER + "0,0.5,1\n1,0.4,0 \u00e9t\u00e9\n").encode("latin-1"),
    "underscore score": (HEADER + "0,1_0,1\n").encode(),
    "spaced fields": (HEADER + " 1, 0.5 ,+0\n0,-0.0,-1\n").encode(),
    "arabic-indic digits": (HEADER + "\u0660,\u0663,1\n").encode(),
    "hex score": (HEADER + "0,0x1p3,1\n").encode(),
    "float index": (HEADER + "0.0,0.5,1\n").encode(),
}


def _leaves(obj):
    """The numbers of a parsed JSON value."""
    if isinstance(obj, dict):
        return [v for item in obj.values() for v in _leaves(item)]
    if isinstance(obj, list):
        return [v for item in obj for v in _leaves(item)]
    return [obj]


def outcome(read):
    """The bits of the ScoreSet that read() returns, or the type, text and position of what it raises."""
    try:
        score_set = read()
    except (ScoreFileError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return score_set.scores.tobytes(), score_set.labels.tobytes()


class TestColumnReadAgreesWithLineParser:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus(self, tmp_path, name):
        path = tmp_path / "scores.csv"
        path.write_bytes(CORPUS[name])
        assert outcome(lambda: read_score_file(str(path))) == outcome(lambda: _read_lines(read_text(str(path))))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-1, 0, 1])),
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    def test_shuffled_valid_rows(self, tmp_path, rows, data):
        order = data.draw(st.permutations(range(len(rows))))
        end = data.draw(st.sampled_from(["\n", ""]))
        text = HEADER + "\n".join(f"{i},{rows[i][0]!r},{rows[i][1]}" for i in order) + end
        path = tmp_path / "scores.csv"
        path.write_text(text, encoding="utf-8")
        got = outcome(lambda: read_score_file(str(path)))
        assert got == outcome(lambda: _read_lines(read_text(str(path))))
        assert got == (np.array([r[0] for r in rows]).tobytes(), np.array([r[1] for r in rows]).tobytes())
        assert _read_columns(text) is not None  # a valid file never needs the line parser


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

    def test_largest_floats_read_back_finite(self, tmp_path):
        ss = make_set([1.7976931348623157e308, -1.7976931348623157e308, 1.797693134862315e308, 0.5], [1, 0, 0, -1])
        path = str(tmp_path / "out.csv")
        write_score_file(path, ss)
        back = read_score_file(path)
        assert back.scores.tolist() == [1.79769313486231e308, -1.79769313486231e308, 1.79769313486231e308, 0.5]

    def test_bytes_equal_the_per_row_format_float_text(self, tmp_path):
        largest = 1.7976931348623157e308
        scores = [-0.0, 0.0, 5e-324, -2.5e-320, 1e-310, 1e-5, -1e-5, largest, -largest, 1.797693134862315e308]
        scores += np.random.default_rng(5).normal(0.0, 1e3, 40).tolist()
        labels = [1, -1, 0, -1, 1, 0, -1, 1, 0, -1] + [1, 0, -1, 0] * 10
        path = tmp_path / "out.csv"
        write_score_file(str(path), make_set(scores, labels))
        rows = "".join(f"{i},{format_float(score)},{label}\n" for i, (score, label) in enumerate(zip(scores, labels)))
        assert path.read_bytes() == ("index,score,label\n" + rows).encode("utf-8")
        assert b"\n0,-0,1\n" in path.read_bytes() and b"\n8,-1.79769313486231e+308,0\n" in path.read_bytes()

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

    def test_largest_floats_round_toward_zero(self):
        assert format_float(1.7976931348623157e308) == "1.79769313486231e+308"
        assert format_float(-1.797693134862315e308) == "-1.79769313486231e+308"
        # no other text moves: below the largest 15-digit value rounding is to nearest, and inf stays inf
        assert format_float(1.797693134862314e308) == "1.79769313486231e+308"
        assert format_float(1.7976931348623e308) == "1.7976931348623e+308"
        assert format_float(float("inf")) == "inf" and format_float(-1e308) == "-1e+308"

    def test_largest_floats_render_as_strict_json(self):
        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        largest = 1.7976931348623157e308
        for report in ({"x": largest}, {"gradient": np.array([largest, 0.0, -largest])}, {"rows": [[-largest]]}):
            parsed = json.loads(render_report(report), parse_constant=refuse)
            assert {abs(v) for v in _leaves(parsed) if v} == {1.79769313486231e308}

    def test_round_floats_handles_containers(self):
        data = {"a": np.float64(0.5), "b": np.array([1.5, 2.5]), "c": (True, 3, None)}
        out = round_floats(data)
        assert out == {"a": 0.5, "b": [1.5, 2.5], "c": [True, 3, None]}
        assert isinstance(out["c"][0], bool)

    def test_numpy_bool_renders_as_json_bool(self):
        text = render_report({"x": np.bool_(True), "y": [np.bool_(False)]})
        assert text == '{\n  "x": true,\n  "y": [\n    false\n  ]\n}\n'


FLOATS = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, -1e-310, 1.79769313486231e308, -1.7976931348623e308,
     0.1 + 0.2, 1.0 / 3.0, -2.256064234806769e-36, 0.05776226504666211, 123456.789012345678, 1.0]
)

REPORTS = {
    "edge floats": {"gradient": FLOATS},
    "mostly zeros": {"total_loss": 0.3, "gradient": np.where(np.arange(98) % 7 == 0, FLOATS[np.arange(98) // 7], 0.0)},
    "largest floats round toward zero": {"gradient": np.array([1.7976931348623157e308, 0.0, -1.7976931348623157e308])},
    "nan": {"gradient": np.array([0.5, np.nan, -0.0])},
    "inf": {"gradient": np.array([np.inf, 0.0, -np.inf])},
    "single float": {"gradient": np.array([1.0 / 3.0])},
    "empty float array": {"gradient": np.array([])},
    "int array": {"gradient": np.array([3, 0, -1])},
    "float32 array": {"gradient": np.array([0.1, -0.0], dtype=np.float32)},
    "2-d array": {"gradient": FLOATS[:12].reshape(3, 4)},
    "array in a list": {"rows": [FLOATS[:3], {"g": FLOATS[3:6]}]},
    "array in a dict": {"nested": {"gradient": FLOATS, "n": np.int64(4)}},
    "none gradient": {"command": "eval", "total_loss": 0.25, "warnings": [], "gradient": None},
    "empty containers": {"a": [], "b": {}, "c": ""},
    "no keys": {},
    "non-string keys": {1: FLOATS[:2], 2.5: "x", None: True, "\u00e9\n": "\u00df"},
}


class TestRenderMatchesReference:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_render_is_the_json_of_the_rounded_report(self, name):
        report = REPORTS[name]
        assert render_report(report) == json.dumps(round_floats(report), indent=2) + "\n"
