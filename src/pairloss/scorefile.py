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

Reports are JSON with stable key names. Floats are rounded to 15
significant digits before serialisation, so the printed text re-parses to
exactly the printed values.
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
    """Write a ScoreSet as a score CSV (inverse of read_score_file)."""
    instance("score_set", score_set, ScoreSet)
    lines = [SCORE_FILE_HEADER]
    for i in range(len(score_set)):
        lines.append(f"{i},{format_float(float(score_set.scores[i]))},{int(score_set.labels[i])}")
    write_text(path, "\n".join(lines) + "\n")


def format_float(x: float) -> str:
    """Render a float with 15 significant digits."""
    return f"{x:.15g}"


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
    if isinstance(obj, np.ndarray):
        return [round_floats(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def render_report(report: dict) -> str:
    """Serialise a report dict as indented JSON with rounded floats."""
    return json.dumps(round_floats(report), indent=2) + "\n"
