"""Score file (CSV) parsing/writing and JSON report formatting.

Score file format: UTF-8, LF line endings, header line `index,score,label`,
then one `index,score,label` row per element. Labels are 1 (positive),
0 (negative), -1 (ignore); indices must form the permutation 0..n-1, so row
order does not have to match index order.

Structural problems (bad header, wrong column count, unparseable numbers,
a byte that is not UTF-8) raise ScoreFileError with 1-based line and
column; domain problems (non-finite score, unknown label, duplicate or
missing index, a file that cannot be read or written) raise ValidationError
naming the row or file. The two map to different CLI exit codes.

A score file is read a column at a time: the body is split on commas and
newlines once, and each column goes through int() or float() in one pass,
so the accepted spellings are those of the builtins. Any anomaly (a field
count, a spelling, an index, a score or a label) sends the whole text to
the line parser, which is the reference reader and the only one that raises,
so every error keeps its message, position and order.

Reports are JSON with stable key names. Floats are rounded to 15
significant digits before serialisation, so the printed text re-parses to
exactly the printed values. The text is that of json.dumps(indent=2) on
the rounded report; a 1-D float array at the top level is written straight
from the array, which is what makes a large gradient cheap to render.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .types import ScoreSet, ValidationError, VALID_LABELS, instance

SCORE_FILE_HEADER = "index,score,label"


class ScoreFileError(Exception):
    """A score file failed to parse; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def read_text(path: str, what: str = "") -> str:
    """The UTF-8 text of the file at path, with universal newlines, as text-mode open reads it.

    A file that cannot be read raises ValidationError, and one that is not
    UTF-8 raises ScoreFileError locating the bad byte by its 1-based line and
    column; both name `what` and the path.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {what}{path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        message = f"{what}{path} is not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})"
        raise ScoreFileError(message, line, column) from None
    return _universal_newlines(text)


def write_text(path: str, text: str, what: str = "") -> None:
    """Write text to the file at path as UTF-8 with LF newlines, the mirror of read_text.

    A path that cannot be written raises ValidationError naming `what` and the path.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what}{path}: {exc.strerror or exc}") from None


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_score_file(path: str) -> ScoreSet:
    """Parse a score CSV into a ScoreSet."""
    text = read_text(path)
    score_set = _read_columns(text)
    return _read_lines(text) if score_set is None else score_set


def _read_columns(text: str) -> ScoreSet | None:
    """The ScoreSet of a well-formed score file, read a column at a time; None on any anomaly.

    Each field goes through the same int()/float() as in _read_lines, so the
    two accept the same spellings. This checks the layout and the index
    permutation, and ScoreSet judges the scores and labels. Anything either
    does not accept is left to _read_lines, which finds the error and names
    its position.
    """
    header, _, body = text.partition("\n")
    if header.strip() != SCORE_FILE_HEADER or not body:
        return None
    if not body.endswith("\n"):
        body += "\n"
    # every line holds exactly three fields when the separators read ",,\n" once per line;
    # no byte of a multi-byte UTF-8 character is a comma or a newline
    raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    n = body.count("\n")
    if raw[(raw == ord(",")) | (raw == ord("\n"))].tobytes() != b",,\n" * n:
        return None
    fields = body.replace("\n", ",").split(",")[:-1]
    try:
        indices = np.fromiter(map(int, fields[0::3]), dtype=np.int64, count=n)
        scores = np.fromiter(map(float, fields[1::3]), dtype=np.float64, count=n)
        labels = np.fromiter(map(int, fields[2::3]), dtype=np.int64, count=n)
    except (ValueError, OverflowError):
        return None
    valid = (
        (indices >= 0).all() and (indices < n).all()
        and np.bincount(indices, minlength=n).max() == 1
    )
    if not valid:
        return None
    by_index = np.empty(n, dtype=np.int64)
    by_index[indices] = np.arange(n)
    try:
        return ScoreSet(scores=scores[by_index], labels=labels[by_index])
    except ValidationError:  # a score or a label the set refuses, which _read_lines names by its row
        return None


def _read_lines(text: str) -> ScoreSet:
    """Parse score file text line by line: the reference reader, and the one that raises.

    Errors come in file order, each naming its 1-based line and column or
    its row.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ScoreFileError("empty file, expected header " + SCORE_FILE_HEADER, 1, 1)
    if lines[0].strip() != SCORE_FILE_HEADER:
        raise ScoreFileError(
            f"bad header {lines[0]!r}, expected {SCORE_FILE_HEADER!r}", 1, 1
        )
    rows: list[tuple[int, float, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            raise ScoreFileError("blank line", lineno, 1)
        fields = raw.split(",")
        if len(fields) != 3:
            raise ScoreFileError(f"expected 3 comma-separated fields, got {len(fields)}", lineno, len(fields))
        try:
            index = int(fields[0])
        except ValueError:
            raise ScoreFileError(f"bad index {fields[0]!r}", lineno, 1) from None
        try:
            score = float(fields[1])
        except ValueError:
            raise ScoreFileError(f"bad score {fields[1]!r}", lineno, 2) from None
        try:
            label = int(fields[2])
        except ValueError:
            raise ScoreFileError(f"bad label {fields[2]!r}", lineno, 3) from None
        rows.append((index, score, label))
    if not rows:
        raise ValidationError("score file has a header but no rows")
    n = len(rows)
    seen = set()
    scores = np.empty(n)
    labels = np.empty(n, dtype=np.int64)
    for ordinal, (index, score, label) in enumerate(rows, start=1):
        if not 0 <= index < n:
            raise ValidationError(f"row {ordinal}: index {index} outside 0..{n - 1}")
        if index in seen:
            raise ValidationError(f"row {ordinal}: duplicate index {index}")
        seen.add(index)
        if not math.isfinite(score):
            raise ValidationError(f"row {ordinal} (index {index}): non-finite score {score!r}")
        if label not in VALID_LABELS:
            raise ValidationError(
                f"row {ordinal} (index {index}): label {label} not in {sorted(VALID_LABELS)}"
            )
        scores[index] = score
        labels[index] = label
    return ScoreSet(scores=scores, labels=labels)


def write_score_file(path: str, score_set: ScoreSet) -> None:
    """Write a ScoreSet as a score CSV (inverse of read_score_file).

    Each score is written as format_float writes it: one %-format per row
    gives its 15-digit text, and the one text past the largest double is
    turned toward zero in the joined body. Only a score field can hold it,
    after a comma or a minus sign, as indices and labels are integers.
    """
    instance("score_set", score_set, ScoreSet)
    rows = zip(range(len(score_set)), score_set.scores.tolist(), score_set.labels.tolist())
    body = "".join(map("%d,%.15g,%d\n".__mod__, rows))
    write_text(path, SCORE_FILE_HEADER + "\n" + body.replace(_PAST_LARGEST, _BELOW_LARGEST))


# the 15-digit text past the largest double, and the nearest text toward zero; a replace keeps the sign
_PAST_LARGEST, _BELOW_LARGEST = "1.79769313486232e+308", "1.79769313486231e+308"


def format_float(x: float) -> str:
    """Render a float with 15 significant digits.

    A finite value whose nearest 15-digit text lies beyond the largest
    double rounds toward zero instead, so every finite value reads back finite.
    """
    return f"{x:.15g}".replace(_PAST_LARGEST, _BELOW_LARGEST)


def round_floats(obj):
    """Recursively round floats in a JSON-able structure to 15 significant digits.

    The rounded value re-parses exactly, which is what makes printed reports
    round-trip.
    """
    if isinstance(obj, float):
        return float(format_float(obj))
    if isinstance(obj, np.floating):
        return float(format_float(float(obj)))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [round_floats(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    """Serialise a report dict as indented JSON with rounded floats.

    The text is json.dumps(round_floats(report), indent=2) plus a newline.
    Each top-level value is rendered on its own: a 1-D array of finite
    float64 values is written an element at a time from the array, and
    every other value goes through json.dumps, indented one level.
    """
    items = {str(key): value for key, value in report.items()}
    if not items:
        return "{}\n"
    lines = [f"  {json.dumps(key)}: {_render_value(value)}" for key, value in items.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _render_value(value) -> str:
    """A top-level report value as json.dumps(round_floats(value), indent=2) writes it one level in."""
    texts = _float_texts(value)
    if texts is None:
        return json.dumps(round_floats(value), indent=2).replace("\n", "\n  ")
    return "[\n    " + ",\n    ".join(texts) + "\n  ]"


def _float_texts(value) -> list[str] | None:
    """json's text of each rounded entry of a non-empty 1-D float64 array; None for any other value.

    A zero is written by its sign and any other entry as the repr of its
    rounded value. An entry that is or rounds to NaN or ±inf gives None, so
    that json spells it.
    """
    if not (isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64 and value.size):
        return None
    nonzero = np.flatnonzero(value)
    rounded = [float(format_float(x)) for x in value[nonzero].tolist()]
    if not np.isfinite(rounded).all():
        return None
    texts = np.array(["0.0", "-0.0"], dtype=object)[np.signbit(value).view(np.uint8)]
    texts[nonzero] = [repr(x) for x in rounded]
    return texts.tolist()
