"""Child process of the benchmark: times ``import fairchase.cli``, then runs
one CLI command or one workload's in-process closed loop, timing the
reference kernel between the steps of the loop.

    python3 bench/worker.py RESULT TRACE [COMMAND ARGS...]
        Run ``fairchase.cli.main(COMMAND ARGS)``; with no command, only import.
    python3 bench/worker.py --loop SPEC
        Run the in-process workload that the JSON file SPEC describes.

RESULT (or the spec's "result") receives the perf_counter reading taken
when the import returned; on Linux that clock is shared by all processes,
so the parent can subtract its own reading taken before it started us.
"""

import sys
import time


def _command(result_path: str, trace: bool, argv: list[str]) -> int:
    import fairchase.cli as cli

    imported = time.perf_counter()
    import json
    from pathlib import Path

    from tracing import Tracer

    tracer = Tracer() if trace else None
    code = 0
    try:
        if argv and tracer:
            tracer.install()
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        elif argv:
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer:
            tracer.write(Path(result_path + ".spans"))
        Path(result_path).write_text(json.dumps({"imported": imported}), encoding="utf-8")
    return code


def another_cycle(started: float, cycles: int, seconds: float) -> bool:
    """Start another cycle if, at the mean cycle time so far, at least half of it fits within seconds.

    The number of cycles is then seconds over the cycle time, rounded to
    the nearest, so a workload whose cycle takes about half the run does not
    drop to one cycle whenever the machine is a little slow.
    """
    elapsed = time.perf_counter() - started
    return cycles == 0 or elapsed + elapsed / cycles / 2 <= seconds


def _loop(spec_path: str) -> int:
    import fairchase.cli as cli

    imported = time.perf_counter()
    import json
    from pathlib import Path

    import reference
    from tracing import Tracer

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](cli, spec)
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    workload.tracer = tracer

    started = time.perf_counter()
    cycle = 0
    before = reference.timed()
    with open(spec["ops"], "w", encoding="utf-8") as ops:
        while another_cycle(started, cycle, spec["seconds"]):
            for kind, op in workload.cycle(cycle):
                start = time.perf_counter()
                try:
                    raw, error = op(), None
                except Exception as exc:  # the loop records the failure and goes on
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
                after = reference.timed()
                result = None if error else workload.render(kind, raw)
                ref = (before + after) / 2
                record = {"cycle": cycle, "kind": kind, "wall": wall, "ref": ref, "error": error, "result": result}
                before = after
                ops.write(json.dumps(record) + "\n")
            cycle += 1

    if tracer:
        tracer.write(Path(spec["ops"] + ".spans"))
    Path(spec["result"]).write_text(json.dumps({"imported": imported}), encoding="utf-8")
    return 0


class _InProcess:
    """One in-process workload: set-up outside the timed loop, then cycles of operations."""

    tracer = None

    def __init__(self, cli, spec):
        self.cli = cli
        self.spec = spec

    def main(self, argv: list[str]) -> dict:
        """fairchase.cli.main with stdout and stderr captured, as a user would run it."""
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer:
                code = self.tracer.call(f"cli.{argv[0]}", self.cli.main, argv)
            else:
                code = self.cli.main(argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-1000:]}

    def render(self, kind: str, raw):
        return raw


class BulkPaper(_InProcess):
    """Parse, categorize, summarize and a three-family report over a multiple of the paper's matches."""

    def cycle(self, cycle: int):
        cli = self.cli

        def pipeline():
            dataset = cli.categorize(cli.parse_matches(self.spec["data"]))
            rows = cli.summarize(dataset)
            return rows, cli.revision_report(dataset, tuple(cli.Family))

        return [("pipeline", pipeline)]

    def render(self, kind, raw):
        rows, report = raw
        return {"summary": self.cli.summary_to_json(rows), "report": self.cli.report_to_json(report)}


class ManyVenues(_InProcess):
    """fit, curves, validate and report through the CLI on many thin venues."""

    def cycle(self, cycle: int):
        data = self.spec["data"]
        curves = f"{self.spec['work']}/curves-{'t' if self.tracer else 'u'}{cycle}"
        return [
            ("fit", lambda: self.main(["fit", "--data", data])),
            ("curves", lambda: self.main(["curves", "--data", data, "--out", curves]) | {"dir": curves}),
            ("validate", lambda: self.main(["validate", "--data", data])),
            ("report", lambda: self.main(["report", "--data", data, "--format", "json"])),
        ]


WORKLOADS = {"bulk_paper10": BulkPaper, "many_venues": ManyVenues}


if __name__ == "__main__":
    if sys.argv[1] == "--loop":
        sys.exit(_loop(sys.argv[2]))
    sys.exit(_command(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
