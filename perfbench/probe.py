"""Child-process entry points of the benchmark (run.py starts them; PYTHONPATH=src).

    probe.py setup <workload> <seed> <workdir> <tiny 0|1>
        Time a fresh interpreter's import of pairloss plus the workload's
        input set-up, and print the seconds.
    probe.py cli <trace-file> <pairloss cli arguments...>
        Run pairloss.cli.main in this process with span tracing on, write the
        operation's spans to <trace-file>, and exit with main's exit code.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(name: str, seed: str, workdir: str, tiny: str) -> int:
    from workloads import WORKLOADS

    WORKLOADS[name](int(seed), tiny == "1", Path(workdir)).build()
    print(time.perf_counter() - _START)
    return 0


def traced_cli(trace_file: str, *cli_args: str) -> int:
    import pairloss.cli
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        code = pairloss.cli.main(list(cli_args))
        wall = time.perf_counter() - start
    Path(trace_file).write_text(json.dumps(tracer.collect(wall).to_json()))
    return code


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": traced_cli}[command](*rest))
