"""fairchase benchmark: one seeded workload, run by one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It makes the workload's inputs from
the seed, starts one child process at a time with BLAS threads pinned to 1,
times a fixed reference (bench/reference.py) between the timed steps,
checks every output against an independent reference, prints every metric
with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the run spends
half its time untraced and half traced and reports the per-layer ones.
See bench/README.md for what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# One BLAS thread, here and in every child, set before numpy is imported.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from oracle import FAMILIES, GRID  # noqa: E402
from tracing import LayerTotals  # noqa: E402
from worker import another_cycle  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
COMMANDS = ("summary", "fit", "revise", "report", "curves", "validate", "simulate", "generate")
WORKLOADS = ("cli_paper", "bulk_paper10", "many_venues")
BULK_SCALE = 10  # bulk_paper10: 10x the paper's matches
MANY_VENUES = 50
SIM_TRIALS = 1_000_000
CLI_FAMILIES = {"negbin": "nb", "normal": "normal", "logistic": "logistic"}
GENERATE_VENUES, GENERATE_MATCHES = 10, 1000


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Op:
    kind: str
    wall: float
    ref: float  # mean wall seconds of the reference run just before and just after this step
    result: dict | None
    error: str | None
    expect: dict = field(default_factory=dict)
    cycle: int = 0
    verdict: object = None


@dataclass
class Phase:
    ops: list[Op]
    import_s: list[float]  # cold start until `import fairchase.cli` returned
    span_files: list[Path]


class Run:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        # Children cache byte code under src/, as an installed package would have it.
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

        if workload == "bulk_paper10":
            self.dataset = inputs.paper_dataset(seed, scale=BULK_SCALE)
        elif workload == "many_venues":
            self.dataset = inputs.thin_venues_dataset(seed, MANY_VENUES)
        else:
            self.dataset = inputs.paper_dataset(seed)
        self.data = work / "matches.csv"
        self.data.write_bytes(self.dataset.csv)
        self.checker = checks.Checker(self.dataset)
        self.generated_totals = checks.generated_totals(GENERATE_VENUES, GENERATE_MATCHES)
        self._n = 0

    # --- child processes ----------------------------------------------------

    def _child(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], env=self.env, cwd=ROOT, capture_output=True, text=True
        )
        return start, proc

    def _path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}-{self._n}"

    def cold_reference(self) -> float:
        """Wall seconds of a cold interpreter that imports numpy and runs the reference kernel once."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], env=self.env, cwd=ROOT, capture_output=True)
        if proc.returncode != 0:
            raise BenchError(f"reference process exited {proc.returncode}")
        return time.perf_counter() - start

    def probe(self) -> float:
        """Start a cold interpreter that only imports fairchase.cli; seconds until the import returned."""
        result = self._path("probe")
        start, proc = self._child([str(result), "0"])
        if proc.returncode != 0:
            raise BenchError(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(result.read_text())["imported"] - start

    def importtime(self) -> dict[str, float]:
        """Self import time per package, from `python -X importtime`."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(WORKER), str(self._path("importtime")), "0"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise BenchError(f"importtime probe exited {proc.returncode}")
        totals = {"numpy": 0.0, "scipy": 0.0, "fairchase": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue
            package = name.split(".")[0]
            if package in totals:
                totals[package] += int(self_us) / 1e6
        return totals

    # --- the closed loop ----------------------------------------------------

    def phase(self, seconds: float, trace: bool) -> Phase:
        """Whole cycles of the workload's operations, as many as fit in seconds (at least one)."""
        if self.workload == "cli_paper":
            return self._cli_phase(seconds, trace)
        return self._loop_phase(seconds, trace)

    def _cli_cycle(self, cycle: int, tag: str):
        data = str(self.data)
        venues = [v for v in self.dataset.venues if v != inputs.OVERALL]
        venue, target = venues[cycle % len(venues)], GRID[cycle % len(GRID)]
        sim_venue, sim_target = venues[(cycle + 5) % len(venues)], GRID[(cycle + 2) % len(GRID)]
        sim_seed = (self.seed * 1_000_003 + cycle) % 2**32
        curves = str(self.work / f"curves-{tag}{cycle}")
        generated = str(self.work / f"generated-{tag}{cycle}.csv")
        simulations = [
            ("simulate",
             ["simulate", "--data", data, "--venue", sim_venue, "--target", str(sim_target), "--seed", str(sim_seed),
              "--family", CLI_FAMILIES[family], "--trials", str(SIM_TRIALS)],
             {"code": self._expected_code(sim_venue, sim_target), "family": family, "trials": SIM_TRIALS})
            for family in FAMILIES
        ]
        return [
            ("summary", ["summary", "--data", data], {}),
            ("fit", ["fit", "--data", data], {}),
            ("revise", ["revise", "--data", data, "--venue", venue, "--target", str(target)],
             {"code": self._expected_code(venue, target)}),
            ("report", ["report", "--data", data, "--format", "json"], {}),
            ("curves", ["curves", "--data", data, "--out", curves], {"dir": curves}),
            ("validate", ["validate", "--data", data], {}),
            *simulations,
            ("generate",
             ["generate", "--num-venues", str(GENERATE_VENUES), "--matches", str(GENERATE_MATCHES),
              "--seed", str(sim_seed), "--out", generated],
             {"totals": self.generated_totals, "out": generated}),
        ]

    def _expected_code(self, venue: str, target: int) -> int:
        model = self.checker.models[(venue, "negbin")]
        return 3 if model is None or model.level(target) <= 0.0 else 0

    def _cli_phase(self, seconds: float, trace: bool) -> Phase:
        ops, import_s, spans = [], [], []
        tag = "t" if trace else "u"
        started = time.perf_counter()
        cycle = 0
        before = self.cold_reference()
        while another_cycle(started, cycle, seconds):
            for kind, argv, expect in self._cli_cycle(cycle, tag):
                result_path = self._path("command")
                start, proc = self._child([str(result_path), "1" if trace else "0", *argv])
                wall = time.perf_counter() - start
                after = self.cold_reference()
                ref, before = (before + after) / 2, after
                error = None
                if result_path.exists():
                    import_s.append(json.loads(result_path.read_text())["imported"] - start)
                else:
                    error = f"no result from the command process: {proc.stderr.strip()[-500:]}"
                if trace and Path(f"{result_path}.spans").exists():
                    spans.append(Path(f"{result_path}.spans"))
                result = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-1000:]}
                ops.append(Op(kind, wall, ref, result, error, expect, cycle))
            cycle += 1
        return Phase(ops, import_s, spans)

    def _loop_phase(self, seconds: float, trace: bool) -> Phase:
        tag = "t" if trace else "u"
        spec = {
            "workload": self.workload,
            "seconds": seconds,
            "trace": trace,
            "seed": self.seed,
            "data": str(self.data),
            "work": str(self.work),
            "ops": str(self.work / f"ops-{tag}.jsonl"),
            "result": str(self.work / f"loop-{tag}.json"),
        }
        spec_path = self.work / f"spec-{tag}.json"
        spec_path.write_text(json.dumps(spec))
        start, proc = self._child(["--loop", str(spec_path)])
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        imported = json.loads(Path(spec["result"]).read_text())["imported"]
        ops = []
        with open(spec["ops"], encoding="utf-8") as lines:
            for line in lines:
                rec = json.loads(line)
                ops.append(Op(rec["kind"], rec["wall"], rec["ref"], rec["result"], rec["error"], {}, rec["cycle"]))
        spans = [Path(spec["ops"] + ".spans")] if trace else []
        return Phase(ops, [imported - start], spans)

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            op.verdict = self.checker.check(op.kind, op.result, op.error, op.expect)

    # --- metrics ------------------------------------------------------------

    def timed(self, ops: list[Op]) -> list[tuple[float, float]]:
        """(wall, reference) seconds of the timed operations: each command process
        in cli_paper, a whole cycle elsewhere.

        The steps of an in-process cycle take from 0.2 s to 1.5 s, so a median
        over single steps would fall on the gap between two kinds.
        """
        if self.workload == "cli_paper":
            return [(op.wall, op.ref) for op in ops]
        cycles: dict[int, tuple[float, float]] = {}
        for op in ops:
            wall, ref = cycles.get(op.cycle, (0.0, 0.0))
            cycles[op.cycle] = (wall + op.wall, ref + op.ref)
        return list(cycles.values())

    def work_done(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """Throughput: completed work over the summed wall time of the operations.

        Work counts for operations that produced a result.
        """

        def rate(selected, per_op):
            done = per_op * sum(op.error is None and (op.result or {}).get("code", 0) == 0 for op in selected)
            return done / sum(op.wall for op in selected)

        if self.workload == "cli_paper":
            return {"commands_per_s": (rate(ops, 1), "commands/s")}
        if self.workload == "bulk_paper10":
            return {"matches_per_s": (rate(ops, self.dataset.rows), "matches/s")}
        return {"venues_per_s": (rate(ops, len(self.dataset.venues) - 1), "venues/s")}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, as (value, percentile).

    With 10 samples or fewer no such percentile exists; the maximum is
    returned, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 10
    return ordered[k - 1], 100.0 * k / n


def layer_metrics(run: Run, traced: Phase, untraced: Phase, imports: list[dict]) -> dict:
    totals = LayerTotals()
    for path in traced.span_files:
        totals.add_file(path)
    n = len(traced.ops)
    m: dict[str, tuple[float, str]] = {}

    def per_op(name):
        return totals.self_s.get(name, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    for package in ("numpy", "scipy", "fairchase"):
        m[f"cli.import.{package}_s"] = (statistics.median(i[package] for i in imports), "s")
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = (per_op(f"cli.{command}"), "s/op")
    for stage in ("parse", "categorize", "summarize", "serialize"):
        m[f"matches.{stage}.self_s"] = (per_op(f"matches.{stage}"), "s/op")
    m["matches.parse.rows_per_s"] = (ratio(totals.count["matches.parse"], totals.self_s["matches.parse"]), "rows/s")
    fit_names = [f"distributions.fit.{f}" for f in FAMILIES]
    for family, name in zip(FAMILIES, fit_names):
        m[f"distributions.fit.self_s.{family}"] = (per_op(name), "s/op")
    fit_calls = sum(totals.calls[name] for name in fit_names)
    m["distributions.fit.calls"] = (fit_calls / n, "calls/op")
    m["distributions.fit.ok_ratio"] = (ratio(sum(totals.ok[name] for name in fit_names), fit_calls), "ratio")
    for fn in ("survival", "pmf", "quantile"):
        m[f"distributions.{fn}.calls"] = (totals.calls[f"distributions.{fn}"] / n, "calls/op")
        m[f"distributions.{fn}.self_s"] = (per_op(f"distributions.{fn}"), "s/op")
    for stage in ("build_model", "revise_target", "report"):
        m[f"revision.{stage}.self_s"] = (per_op(f"revision.{stage}"), "s/op")
    statuses = [
        cell["status"]
        for op in traced.ops
        if op.kind in ("report", "pipeline") and not op.verdict.failed
        for cell in json.loads(op.result.get("report") or op.result["stdout"])["targets"]
    ]
    m["revision.attainable_ratio"] = (ratio(statuses.count("ok"), len(statuses)), "ratio")
    for stage in ("check_equalization", "generate"):
        m[f"simulate.{stage}.self_s"] = (per_op(f"simulate.{stage}"), "s/op")
    m["simulate.generate.ok_ratio"] = (
        ratio(totals.ok["simulate.generate"], totals.calls["simulate.generate"]), "ratio")
    z = {f: [] for f in FAMILIES}
    misses = {f: [] for f in FAMILIES}
    for op in untraced.ops + traced.ops:
        for family, value in op.verdict.z:
            z[family].append(value)
        for family, beyond in op.verdict.mc_misses:
            misses[family].append(beyond)
    for family in FAMILIES:
        mean_z = statistics.fmean(z[family]) if z[family] else 0.0
        print(f"  simulate mean z {family}: {mean_z:+.3f} over {len(z[family])} estimates")
        m[f"simulate.mc_z.{family}"] = (abs(mean_z), "abs_z")
        m[f"simulate.mc_beyond_4se.{family}"] = (ratio(sum(misses[family]), len(misses[family])), "ratio")
    m["trace.overhead_s"] = (
        statistics.median(w for w, _ in run.timed(traced.ops)) - statistics.median(w for w, _ in run.timed(untraced.ops)),
        "s")
    return m


def context() -> list[str]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "n/a (not a git checkout)"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    threads = ",".join(f"{var}=1" for var in THREAD_VARS)
    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}",
        f"nproc {os.cpu_count()}  threads {threads}  commit {commit}  src_lines {src_lines}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "fairchase" / "cli.py").is_file():
        print(f"error: no fairchase sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, config, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, config, work: Path) -> int:
    run = Run(args.workload, args.seed, work)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"input matches.csv  rows {run.dataset.rows}  sha256 {run.dataset.sha256}")
    for line in context():
        print(line)

    run.probe()  # fills the byte-code and page caches; not counted
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        imports = [run.importtime() for _ in range(IMPORTTIME_PROBES)]
        untraced = run.phase(args.seconds / 2, trace=False)
        traced = run.phase(args.seconds / 2, trace=True)
        ops = untraced.ops + traced.ops
        run.check(ops)
        metrics.update(layer_metrics(run, traced, untraced, imports))
        wanted = config["per_layer"]
    else:
        probes = [] if args.workload == "cli_paper" else [run.probe() for _ in range(SETUP_PROBES)]
        measured = run.phase(args.seconds, trace=False)
        ops = measured.ops
        run.check(ops)
        timed = run.timed(ops)
        walls = [wall for wall, _ in timed]
        value, percentile = tail(walls)
        metrics["setup_s"] = (statistics.median(probes or measured.import_s), "s")
        metrics["op_wall_s.p50"] = (statistics.median(walls), "s")
        metrics["op_wall_s.tail"] = (value, f"s (p{percentile:.1f} of n={len(walls)})")
        metrics["op_wall_ref.p50"] = (statistics.median(wall / ref for wall, ref in timed), "ref")
        metrics["op_wall_ref.mean"] = (sum(walls) / sum(ref for _, ref in timed), "ref")
        metrics["reference_s.p50"] = (statistics.median(op.ref for op in ops), "s")
        metrics.update(run.work_done(ops))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        for kind in dict.fromkeys(op.kind for op in ops):
            kind_walls = [op.wall for op in ops if op.kind == kind]
            print(f"  {kind}: median {statistics.median(kind_walls):.4f} s over {len(kind_walls)}")
        wanted = config["end_to_end"]

    failed = sum(op.verdict.failed for op in ops)
    metrics["failed_ops_ratio"] = (failed / len(ops), "failed/attempted")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for label, attr in (("check failed", "reasons"), ("known defect", "defects")):
        seen: dict[str, list[str]] = {}
        for op in ops:
            for reason in getattr(op.verdict, attr):
                seen.setdefault(re.sub(r"-?\d[\d.]*", "#", reason), []).append(reason)
        for pattern, reasons in sorted(seen.items(), key=lambda kv: -len(kv[1])):
            print(f"{label} x{len(reasons)}: {pattern}  (first: {reasons[0]})")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics listed in BENCHMARK.json were not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
