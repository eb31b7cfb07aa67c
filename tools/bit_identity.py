"""Check that two source trees of pairloss give the same results bit for bit.

Usage:

    python3 tools/bit_identity.py OTHER_SRC

OTHER_SRC is the directory that holds another tree's `pairloss` package,
for example the `src` of a checkout of the parent commit. One fixed corpus
is evaluated in two child processes, one on this repository's `src` and one
on OTHER_SRC: generated, edge and overflow score sets, each under ranksum
and negcount, Q in {unlimited, 1, 3, 200}, lambda in {0.5, 8, 1e-307, 3}, and
the forward loss and both gradient forms. lambda = 3 is the one value that
is not a power of two, where scaling by lambda rounds, so a change that
rearranges the cross-entropy shows there. The generated sets include the
500 / 9 500 shape of the benchmark's dense workload, whose blocks are
6 x 9 500 when Q does not bind and 327 x 200 when Q = 200 does, so its
unbounded calls hand their reductions to the reducing thread, and a set of
ten blocks in which an early and a later block both fail, which compares
which error a pipelined call raises. The scores are drawn here with numpy,
not by the trees under test. A result is equal when total_loss, the
per-anchor losses, the gradient bytes, the stats, and the active pair
count and the name of its type all match bit for bit, or when both trees
raise the same error type with the same message.

After the corpus, each child runs a fixed matrix of command lines through
`pairloss.cli.main(argv)` with stdout and stderr captured: every subcommand,
eval under ranksum, negcount, step and Q = 3 and with --out, gradcheck
passing and failing, sweeps of lambda, T and Q, curve H, S and CE, simulate,
eval on score files in spellings that the column read of a score file
accepts (CRLF line ends, no final newline, a spaced header, shuffled
indices, Arabic-Indic digits), and each exit code: a failed check and a
diverging sweep (1), a malformed CSV, a UTF-8 BOM and a blank middle line
(2), and a missing file, an unwritable --out, lambda = 0 and an
unparseable Q sweep (3). The inputs are written here with numpy and plain
text into one temporary directory, whose path reads {dir} in the captured
text. A run is byte-identical when its stdout, stderr, exit code and --out
bytes all match.

Prints how many results are equal, then one line per group of differing
results, with its count: a differing field of a result groups by lambda, Q,
mode, form and field name, and a float field (total_loss, per_anchor_loss,
gradient) also shows its largest distance in ulp; a result that is an error
in either tree groups by the two outcomes, an error type or "result". Then
comes the first difference. Last, it prints how many CLI runs are
byte-identical, then one line per subcommand and field that differ, with
the runs that differ there. Exits 0 when every result is equal and every
run byte-identical, and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# a child puts its tree and this directory first on sys.path, then dumps the corpus and CLI results to stdout
CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import bit_identity; bit_identity.dump(sys.argv[1], sys.argv[3])"


def score_sets() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """The corpus inputs: (name, scores, labels), drawn from fixed seeds."""
    rng = np.random.Generator(np.random.PCG64(20240))

    def generated(n_pos, n_neg, pos_mean, neg_mean, std):
        scores = np.concatenate([rng.normal(pos_mean, std, n_pos), rng.normal(neg_mean, std, n_neg)])
        return scores, np.array([1] * n_pos + [0] * n_neg)

    lattice = rng.integers(0, 8, 90) / 4.0
    magnitudes = rng.choice([-1.0, 1.0], 200) * np.ldexp(rng.uniform(0.5, 1.0, 200), rng.integers(-60, 10, 200))
    return [
        ("generated 30/300", *generated(30, 300, 0.6, 0.4, 0.2)),
        ("generated 300/1000, several blocks", *generated(300, 1000, 0.45, 0.55, 0.2)),
        ("generated 2/70000, rows wider than a block", *generated(2, 70_000, 0.5, 0.5, 0.3)),
        ("generated magnitudes 2^-60..2^10", magnitudes, rng.permutation([1] * 60 + [0] * 140)),
        ("edge lattice ties", lattice, rng.permutation([1] * 30 + [0] * 60)),
        ("edge signed zeros", np.array([0.0, -0.0, 0.0, -0.0, 0.25, 0.25, -0.25]), np.array([1, 1, 0, 0, 1, 0, 0])),
        ("edge all tied", np.full(10, 0.5), np.array([1] + [0] * 9)),
        ("edge no positives", np.array([0.1, 0.2, 0.3]), np.array([0, 0, 0])),
        ("edge no negatives", np.array([0.1, 0.2, 0.3]), np.array([1, 1, 1])),
        ("edge ignored entries", rng.uniform(0, 1, 40), rng.permutation([1] * 10 + [0] * 20 + [-1] * 10)),
        ("edge subnormals", np.arange(1, 21) * 5e-324, np.array([1, 0] * 10)),
        ("edge offset 1e15", 1e15 + rng.normal(0.0, 1.0, 60), rng.permutation([1] * 20 + [0] * 40)),
        ("overflow pair sum", np.array([1e306] * 100 + [-1e306]), np.array([0] * 100 + [1])),
        ("overflow kept difference", np.array([-1e308, 1e308]), np.array([1, 0])),
        ("overflow total loss", np.array([-8e307] * 10 + [8e307]), np.array([1] * 10 + [0])),
        ("overflow outside the kept pairs", np.array([9e307, 8.9e307, 8.95e307, 9.1e307, -1e308]), np.array([1, 1, 0, 0, 0])),
        ("overflow past a prefix", np.array([1.7e308, -2e307, 1.75e308, -1e307]), np.array([1, 1, 0, 0])),
        ("generated 500/9500, the dense benchmark shape", *generated(500, 9500, 0.6, 0.4, 0.1)),
        ("overflow in an early and a later block", *early_and_late_overflows()),
    ]


def early_and_late_overflows() -> tuple[np.ndarray, np.ndarray]:
    """60 anchors against 10 000 negatives: six anchors per block, ten blocks, when Q does not bind.

    Anchors 0 and 40 sit 1e305 below the negatives, so their pair sums
    overflow at lambda = 8, in blocks 0 and 6; at lambda = 1e-307 every pair
    sum overflows. Anchor 8 lies exactly the largest double below the top
    negative, a difference whose cross-entropy overflows in the kernel at
    lambda = 1e-307: in block 1, while block 0's reductions may still be
    running on the reducing thread.
    """
    rng = np.random.Generator(np.random.PCG64(20242))
    top = np.finfo(float).max / 2
    scores = np.concatenate([rng.normal(0.5, 0.2, 60), rng.normal(0.5, 0.2, 9_999), [top]])
    scores[[0, 40]] = -1e305
    scores[8] = -top
    return scores, np.array([1] * 60 + [0] * 10_000)


# the CLI matrix: run name -> argv, with {dir} the input directory; a run that names --out also reports its bytes
CLI_RUNS = {
    "eval ranksum": ["eval", "{dir}/scores.csv"],
    "eval negcount": ["eval", "{dir}/scores.csv", "--mode", "negcount"],
    "eval step": ["eval", "{dir}/scores.csv", "--distance", "step"],
    "eval Q=3": ["eval", "{dir}/scores.csv", "--q", "3"],
    "eval --out": ["eval", "{dir}/scores.csv", "--mode", "negcount", "--lambda", "3", "--out", "{dir}/report.json"],
    "eval malformed CSV": ["eval", "{dir}/malformed.csv"],
    "eval missing file": ["eval", "{dir}/missing.csv"],
    "eval unwritable --out": ["eval", "{dir}/scores.csv", "--out", "{dir}/missing/report.json"],
    "eval lambda=0": ["eval", "{dir}/scores.csv", "--lambda", "0"],
    "eval CRLF line ends": ["eval", "{dir}/crlf.csv"],
    "eval no final newline": ["eval", "{dir}/no_final_newline.csv"],
    "eval spaced header": ["eval", "{dir}/spaced_header.csv"],
    "eval shuffled indices": ["eval", "{dir}/shuffled.csv"],
    "eval Arabic-Indic digits": ["eval", "{dir}/arabic_indic.csv"],
    "eval UTF-8 BOM": ["eval", "{dir}/bom.csv"],
    "eval blank middle line": ["eval", "{dir}/blank_line.csv"],
    "gradcheck passing": ["gradcheck", "{dir}/small.csv"],
    "gradcheck failing": ["gradcheck", "{dir}/small.csv", "--tolerance", "1e-30"],
    "sweep lambda": ["sweep", "{dir}/scores.csv", "--parameter", "lambda", "--values", "2,3,8", "--steps", "5"],
    "sweep T": ["sweep", "--parameter", "T", "--values", "0.1,0.3", "--n-pos", "20", "--n-neg", "80", "--steps", "5"],
    "sweep Q": ["sweep", "{dir}/scores.csv", "--parameter", "Q", "--values", "1,10,unlimited", "--steps", "5"],
    "sweep unparseable Q": ["sweep", "--parameter", "Q", "--values", "10,lots", "--n-pos", "3", "--n-neg", "5", "--steps", "1"],
    "sweep diverging": [
        "sweep", "{dir}/diverging.csv", "--parameter", "lambda", "--values", "8",
        "--lr", "1e308", "--steps", "3", "--reduction", "sum",
    ],
    "curve H": ["curve", "--function", "H", "--samples", "11"],
    "curve S": ["curve", "--function", "S", "--lambda", "3", "--samples", "11"],
    "curve CE": ["curve", "--function", "CE", "--x-min", "-3", "--x-max", "3", "--samples", "13"],
    "simulate": ["simulate", "--n-pos", "10", "--n-neg", "40", "--steps", "10", "--seed", "7"],
    "simulate autodiff-ce": ["simulate", "--n-pos", "10", "--n-neg", "40", "--steps", "10", "--grad-form", "autodiff-ce"],
}

_CLI_FIELDS = ("stdout", "stderr", "exit code", "--out bytes")


def write_cli_inputs(directory: Path) -> None:
    """The score files the CLI matrix reads, written as plain text from fixed seeds."""
    rng = np.random.Generator(np.random.PCG64(20241))

    def score_file(name, scores, labels):
        rows = "".join(f"{i},{float(s)!r},{int(label)}\n" for i, (s, label) in enumerate(zip(scores, labels)))
        (directory / name).write_text("index,score,label\n" + rows, encoding="utf-8")

    labels = rng.permutation([1] * 40 + [0] * 150 + [-1] * 10)
    score_file("scores.csv", rng.normal(0.5, 0.25, 200) + 0.2 * (labels == 1), labels)
    score_file("small.csv", rng.uniform(0.0, 1.0, 8), [1, 1, 1, 0, 0, 0, 0, 0])
    score_file("diverging.csv", [1e308] * 20 + [1.01e308], [1] * 20 + [0])
    (directory / "malformed.csv").write_text("index,score,label\n0,0.5,1\n1,half,0\n", encoding="utf-8")
    # one set of rows in spellings the column read accepts, and in two that it leaves to the line parser to refuse
    header = "index,score,label"
    rows = [f"{i},{s!r},{i % 3 == 0:d}" for i, s in enumerate(rng.uniform(0.0, 1.0, 12).tolist())]
    arabic_indic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    variants = {
        "crlf.csv": "\r\n".join([header, *rows, ""]),
        "no_final_newline.csv": "\n".join([header, *rows]),
        "spaced_header.csv": "\n".join([f"  {header} ", *rows, ""]),
        "shuffled.csv": "\n".join([header, *(rows[i] for i in rng.permutation(12)), ""]),
        "arabic_indic.csv": "\n".join([header, *rows, ""]).translate(arabic_indic),
        "bom.csv": "\n".join(["\ufeff" + header, *rows, ""]),
        "blank_line.csv": "\n".join([header, *rows[:5], "", *rows[5:], ""]),
    }
    for name, text in variants.items():
        (directory / name).write_bytes(text.encode("utf-8"))


def _run_cli(inputs: str) -> list:
    """(run name, (stdout, stderr, exit code, --out bytes)) of each CLI_RUNS entry, with {dir} for the input directory."""
    from pairloss.cli import main

    results = []
    for name, argv in CLI_RUNS.items():
        argv = [arg.replace("{dir}", inputs) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse refusing a flag the tree does not know
                code = stop.code
        written = None
        if "--out" in argv and (path := Path(argv[argv.index("--out") + 1])).is_file():
            written = path.read_bytes()
            path.unlink()
        texts = (out.getvalue().replace(inputs, "{dir}"), err.getvalue().replace(inputs, "{dir}"))
        results.append((name, (*texts, code, written)))
    return results


def _record(result) -> tuple:
    """Every bit of a LossResult, as comparable plain values."""
    return (
        result.total_loss.hex(),
        tuple((u, value.hex()) for u, value in result.per_anchor_loss.items()),
        None if result.gradient is None else result.gradient.tobytes(),
        tuple(tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(s)) for s in result.stats),
        result.truncated,
        result.no_anchors,
        result.active_pairs,
        type(result.active_pairs).__name__,
    )


def dump(src: str, inputs: str) -> None:
    """Evaluate the corpus and run the CLI matrix on `inputs` with the pairloss on sys.path; pickle both to stdout."""
    import pairloss as pl

    if not Path(pl.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"pairloss imported from {pl.__file__}, not from {src}")
    forms = {"forward": pl.evaluate_loss, "error-driven": pl.gradient_error_driven, "autodiff-ce": pl.gradient_autodiff_ce}
    results = []
    for name, scores, labels in score_sets():
        score_set = pl.ScoreSet(scores, labels)
        for mode in (pl.FilterMode.RANK_SUM, pl.FilterMode.VALID_NEG_COUNT):
            for q in (None, 1, 3, 200):
                for lam in (0.5, 8.0, 1e-307, 3.0):
                    config = pl.LossConfig(
                        distance=pl.DistanceSpec(lam=lam), pair_filter=pl.FilterSpec(mode=mode), budget=pl.PairBudget(q)
                    )
                    for form, evaluate in forms.items():
                        case = (name, mode.value, q or "unlimited", lam, form)
                        try:
                            record = ("result", *_record(evaluate(score_set, config)))
                        except Exception as error:  # an error counts as a result: its type and message
                            record = ("error", type(error).__name__, str(error))
                        results.append((case, record))
    pickle.dump((results, _run_cli(inputs)), sys.stdout.buffer)


def _run(src: Path, inputs: str) -> tuple[list, list]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-c", CHILD, str(src), str(HERE), inputs]
    out = subprocess.run(argv, env=env, capture_output=True, check=False)
    if out.returncode:
        raise SystemExit(f"evaluating the corpus on {src} failed:\n{out.stderr.decode(errors='replace')}")
    return pickle.loads(out.stdout)


_FIELDS = (
    "kind", "total_loss", "per_anchor_loss", "gradient", "stats", "truncated", "no_anchors", "active_pairs",
    "active_pairs type",
)


def _summary(record: tuple) -> str:
    return f"{record[1]}: {record[2]}" if record[0] == "error" else f"total_loss {float.fromhex(record[1])!r}"


def _doubles(field: str, value) -> np.ndarray | None:
    """The doubles of a total_loss, per_anchor_loss or gradient field; None for any other field."""
    if field == "total_loss":
        return np.array([float.fromhex(value)])
    if field == "per_anchor_loss":
        return np.array([float.fromhex(x) for _, x in value], dtype=np.float64)
    return np.frombuffer(value) if field == "gradient" and value is not None else None


def _ulps(field: str, a, b) -> int | None:
    """Largest distance in ulp between the doubles of two values of a field; None where they hold none or differ in number."""
    x, y = _doubles(field, a), _doubles(field, b)
    if x is None or y is None or x.size != y.size:
        return None
    # the bits of a double, read as an integer ordered as the doubles are: the distance is the ulp count
    ordered = [[i if i >= 0 else -(1 << 63) - i for i in v.view(np.int64).tolist()] for v in (x, y)]
    return max((abs(i - j) for i, j in zip(*ordered)), default=0)


def _groups(differ: list) -> dict[str, tuple[int, int | None]]:
    """Per group line, the count of differing results and their largest ulp distance, None where no floats differ."""
    groups: dict[str, tuple[int, int | None]] = {}
    for (_, mode, q, lam, form), a, b in differ:
        if "error" in (a[0], b[0]):
            outcomes = [x[1] if x[0] == "error" else "result" for x in (a, b)]
            keyed = [(f"error: this tree {outcomes[0]}, OTHER_SRC {outcomes[1]}", None)]
        else:
            where = f"lambda={lam!r}, Q={q}, {mode}, {form}"
            keyed = [(f"{where}, {field}", _ulps(field, x, y)) for field, x, y in zip(_FIELDS, a, b) if x != y]
        for line, ulps in keyed:
            count, most = groups.get(line, (0, None))
            groups[line] = (count + 1, most if ulps is None else max(most or 0, ulps))
    return groups


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bit_identity.py OTHER_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as inputs:
        write_cli_inputs(Path(inputs))
        (ours, our_runs), (theirs, their_runs) = _run(HERE.parent / "src", inputs), _run(Path(argv[0]), inputs)
    assert [case for case, _ in ours] == [case for case, _ in theirs]
    differ = [(case, a, b) for (case, a), (_, b) in zip(ours, theirs) if a != b]
    print(f"{len(ours) - len(differ)} of {len(ours)} results equal bit for bit")
    for line, (count, ulps) in sorted(_groups(differ).items()):
        print(f"  {line}: {count} differ" + ("" if ulps is None else f", at most {ulps} ulp apart"))
    if differ:
        (name, mode, q, lam, form), a, b = differ[0]
        case = f"{name}, {mode}, Q={q}, lambda={lam!r}, {form}"
        fields = _FIELDS if a[0] == "result" else ("kind", "error type", "message")
        names = ["kind"] if a[0] != b[0] else [field for field, x, y in zip(fields, a, b) if x != y]
        print(f"first difference: {case}: {', '.join(names)}")
        print(f"  this tree: {_summary(a)}")
        print(f"  OTHER_SRC: {_summary(b)}")
    runs_differ: dict[str, list[str]] = {}
    for (name, a), (_, b) in zip(our_runs, their_runs):
        for field, x, y in zip(_CLI_FIELDS, a, b):
            if x != y:
                runs_differ.setdefault(f"{CLI_RUNS[name][0]}, {field}", []).append(name)
    identical = sum(a == b for (_, a), (_, b) in zip(our_runs, their_runs))
    print(f"{identical} of {len(our_runs)} CLI runs byte-identical")
    for line, names in sorted(runs_differ.items()):
        print(f"  {line}: {len(names)} differ ({', '.join(names)})")
    return 1 if differ or runs_differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
