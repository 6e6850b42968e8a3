"""Per-operation output checks.

Each check returns a Verdict. An operation *fails* when it produced no
result (unexpected exit code, exception) or any check on its result did
not pass. Every operation runs on fixed inputs with a fixed seed, so each
failure is a defect and makes the run incorrect.

Two known defects of the program are measured, not counted as failures,
because whether one shows in a given operation is chance: a Monte Carlo
estimate beyond criterion 8's 4-SE bound (the normal and logistic draws
are biased), and `generate` giving up on drawing a loser score. Each is
recorded on the verdict, printed with its count, and reported as a
per-layer figure.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from inputs import CASES, OVERALL, Dataset

CURVE_COLUMNS = ("bat_first_win", "bat_first_lose", "bat_second_win", "bat_second_lose")
CURVE_MAX_SCORE = 600
MC_SE_BOUND = 4.0
#: What `generate` prints when its rejection sampler gives up.
GENERATE_GIVE_UP = "could not draw a loser score"


@dataclass
class Verdict:
    failed: bool = False
    reasons: list[str] = field(default_factory=list)
    #: Known defects seen in this operation's output.
    defects: list[str] = field(default_factory=list)
    #: (family, z) pairs from Monte Carlo estimates.
    z: list[tuple[str, float]] = field(default_factory=list)
    #: (family, beyond the 4-SE bound) for each Monte Carlo comparison.
    mc_misses: list[tuple[str, bool]] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reasons.append(reason)


class Checker:
    """Checks the outputs of one workload's operations against the reference."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.models = oracle.models(dataset.samples)
        self._fittable = oracle.fittable_cases(dataset.samples, "negbin")
        self._seen: dict[str, Verdict] = {}

    def check(self, kind: str, result: dict | None, error: str | None, expect: dict) -> Verdict:
        verdict = Verdict()
        if error is not None:
            verdict.fail(f"{kind}: {error}")
            return verdict
        if kind == "validate":
            pass  # _validate checks the exit code beside the verdict line it printed
        elif "code" in result and result["code"] != expect.get("code", 0):
            why = _last_line(result["stderr"])
            if kind == "generate" and result["code"] == 2 and GENERATE_GIVE_UP in why:
                verdict.defects.append(f"generate: {why}")
            else:
                verdict.fail(f"{kind}: exit code {result['code']}: {why}")
            return verdict
        elif result.get("code", 0) != 0:
            return verdict
        method = getattr(self, "_" + kind)
        # Identical outputs of a deterministic operation need checking once.
        key = None if kind in ("simulate", "curves", "generate") else kind + json.dumps(result, sort_keys=True)
        if key is not None and key in self._seen:
            return self._seen[key]
        try:
            method(result, expect, verdict)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            verdict.fail(f"{kind}: malformed output ({type(exc).__name__}: {exc})")
        if key is not None:
            self._seen[key] = verdict
        return verdict

    # --- one method per operation kind -------------------------------------

    def _summary(self, result, expect, verdict, text=None):
        text = result["stdout"] if text is None else text
        if not text.strip():
            verdict.fail("summary: empty output")
            return
        if text.lstrip().startswith("["):
            rows = {r["venue"]: r["total_matches"] for r in json.loads(text)}
        else:
            rows = {r["venue"]: int(r["total_matches"]) for r in csv.DictReader(io.StringIO(text))}
        want = expect.get("totals") or {v: self.dataset.decisive(v) for v in self.dataset.venues}
        if rows != want:
            verdict.fail(f"summary: match counts differ from the input ({len(rows)} rows)")

    def _fit(self, result, expect, verdict):
        from fairchase.distributions import fitted_from_json, fitted_to_json

        text = result["stdout"]
        entries = fitted_from_json(text)
        if fitted_to_json(entries) + "\n" != text:
            verdict.fail("fit: JSON does not round-trip through fitted_from_json")
        got = {(venue, case) for venue, case, _ in entries}
        if got != self._fittable:
            verdict.fail(f"fit: {len(got)} fitted cases, reference has {len(self._fittable)}")

    def _revise(self, result, expect, verdict):
        row = list(csv.DictReader(io.StringIO(result["stdout"])))[0]
        model = self.models[(row["venue"], "negbin")]
        self._target(model, int(row["actual_target"]), int(row["revised_target"]), verdict, "revise")

    def _report(self, result, expect, verdict, text=None):
        doc = json.loads(result["stdout"] if text is None else text)
        cells = {(c["venue"], c["family"], c["actual_target"]): c for c in doc["targets"]}
        totals = {(r["venue"], r["family"]): r for r in doc["bias_totals"]}
        want_keys = {(v, f, a) for v in self.dataset.venues for f in oracle.FAMILIES for a in oracle.GRID}
        if set(cells) != want_keys:
            verdict.fail(f"report: {len(cells)} cells, reference has {len(want_keys)}")
            return
        for (venue, family), model in self.models.items():
            sums = 0
            for actual in oracle.GRID:
                cell = cells[(venue, family, actual)]
                if model is None:
                    if not cell["status"].startswith("skipped"):
                        verdict.fail(f"report: {venue}/{family} should be skipped, got {cell['status']}")
                    sums = None
                    continue
                if model.level(actual) <= 0.0:
                    if cell["status"] != "unattainable":
                        verdict.fail(f"report: {venue}/{family}@{actual} should be unattainable")
                    sums = None
                    continue
                if cell["status"] != "ok":
                    verdict.fail(f"report: {venue}/{family}@{actual} status {cell['status']!r}")
                    sums = None
                    continue
                self._target(model, actual, cell["revised_target"], verdict, "report")
                if sums is not None:
                    sums += actual - cell["revised_target"]
            if sums is not None and totals[(venue, family)]["bias_total"] != sums:
                verdict.fail(f"report: {venue}/{family} bias total {totals[(venue, family)]['bias_total']} != {sums}")

    def _pipeline(self, result, expect, verdict):
        self._summary(result, expect, verdict, text=result["summary"])
        self._report(result, expect, verdict, text=result["report"])

    def _validate(self, result, expect, verdict):
        last = _last_line(result["stdout"])
        if result["code"] != 0 or not re.fullmatch(r"validate: \d+ checks, 0 failures", last):
            verdict.fail(f"validate: exit code {result['code']}, last line {last!r}")

    def _curves(self, result, expect, verdict):
        out = Path(result.get("dir") or expect["dir"])
        want = {
            f"curves_{_slug(v)}.csv": v
            for v in self.dataset.venues
            if all((v, case) in self._fittable for case in CASES)
        }
        got = {p.name for p in out.glob("curves_*.csv")}
        if got != set(want):
            verdict.fail(f"curves: {len(got)} files, reference has {len(want)}")
            return
        for name, venue in want.items():
            rows = list(csv.reader(io.StringIO((out / name).read_text(encoding="utf-8"))))
            if tuple(rows[0]) != ("score",) + CURVE_COLUMNS or len(rows) != CURVE_MAX_SCORE + 3:
                verdict.fail(f"curves: {name} has the wrong shape")
                return
            columns = list(zip(*[[float(x) for x in r[1:]] for r in rows[1:]]))
            if any(b > a + 1e-12 for col in columns for a, b in zip(col, col[1:])):
                verdict.fail(f"curves: {name} survival increases")
                return
            first_win = self.models[(venue, "negbin")].first
            if abs(columns[0][301] - float(first_win.survival(300))) > 1e-6:
                verdict.fail(f"curves: {name} survival at 300 is off the reference")
                return

    def _simulate(self, result, expect, verdict):
        result = json.loads(result["stdout"])
        family = expect["family"]
        model = self.models[(result["venue"], family)]
        actual, revised = result["actual_target"], result["revised_target"]
        self._target(model, actual, revised, verdict, "simulate")
        if result["trials"] != expect["trials"]:
            verdict.fail(f"simulate: {result['trials']} trials, asked for {expect['trials']}")
        exact_first = float(model.first.survival(actual))
        exact_second = float(model.second.survival(revised))
        for est, se, exact in (
            (result["est_first_exceed"], result["se_first_exceed"], exact_first),
            (result["est_second_exceed"], result["se_second_exceed"], exact_second),
        ):
            if se > 0:
                verdict.z.append((family, (est - exact) / se))
            self._mc_bound(verdict, family, abs(est - exact) > MC_SE_BOUND * se,
                           f"estimate {est:.6f} vs exact {exact:.6f} beyond 4 SE")
        bound = MC_SE_BOUND * (result["se_second_exceed"] + model.win_ratio * result["se_first_exceed"])
        bound += float(model.second.pmf(revised))
        differ = abs(result["est_second_exceed"] - model.win_ratio * result["est_first_exceed"]) > bound
        self._mc_bound(verdict, family, differ, "simulated sides differ beyond 4 SE")

    @staticmethod
    def _mc_bound(verdict, family, beyond, why):
        verdict.mc_misses.append((family, beyond))
        if beyond:
            verdict.defects.append(f"simulate {family}: {why}")

    def _generate(self, result, expect, verdict):
        """Parse the written file back with the program's own reader and count its matches."""
        from fairchase import cli

        rows = cli.summarize(cli.categorize(cli.parse_matches(expect["out"])))
        self._summary(result, expect, verdict, text=cli.summary_to_json(rows))

    def _target(self, model, actual, revised, verdict, where):
        if model is None:
            verdict.fail(f"{where}: target for a venue the reference cannot fit")
            return
        if model.family == "negbin":
            accepted = model.revised(actual)
            if accepted is None or revised not in accepted:
                verdict.fail(f"{where}: {model.venue}@{actual} revised {revised}, reference {accepted}")
        if not model.identity_holds(actual, revised):
            verdict.fail(f"{where}: {model.venue}/{model.family}@{actual} breaks the equalization identity")


def _last_line(text: str) -> str:
    return (text.strip().splitlines() or [""])[-1]


def _slug(venue: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in venue.lower()).strip("-") or "venue"


def generated_totals(num_venues: int, matches: int) -> dict[str, int]:
    """Decisive matches per venue that `generate --num-venues N --matches M` must write."""
    totals = {f"venue{v:02d}": matches for v in range(1, num_venues + 1)}
    totals[OVERALL] = num_venues * matches
    return totals
