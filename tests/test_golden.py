"""Golden-output parity: every command's output on a small fixed dataset.

tests/golden/matches.csv holds 179 rows at six venues, chosen so that
every branch of the pipeline runs: a venue right at the minimum sample size
(Bangalore), one whose high first-innings wins make most targets
unattainable (Colombo), one too thin to fit at all (Darwin), one whose
losing scores are underdispersed for the count model (Eden), and one whose
count-model fits are flat or hit the dispersion bound (Fremantle), plus a
tie, a no-result and reduced-overs rows. index.json lists each command,
its arguments and its exit code; the other files hold its stdout (for
curves, the files it writes).

Integers, statuses, counts and validate verdicts must match exactly, and
so must every byte of summary.csv, validate_*.txt, report.json (the
three-family report with full-precision q_internal) and revise_*.json.
Floating-point values may move within these tolerances, no further:

- fitted parameters: 1e-5 relative (the dispersion search resolves n to
  about 1e-6 relative);
- fitted log-likelihoods: no lower than recorded by more than 1e-9
  relative (a better optimum may raise them);
- survival-curve values: 1e-6 absolute;
- q_internal: 2e-6 (it is printed to six decimals);
- Monte Carlo estimates: 5 draws out of the trial count, because the
  count-model sampler reads the fitted n and p, and a draw sitting on a
  threshold can flip when they move in their last digits; their standard
  errors: 1e-6 absolute.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py
--update`` only when an output change is intended, and name the changed
files in CHANGES.md.

The tests after the parity cases use the same data to check that curves
and validate evaluate whole score ranges as arrays, byte for byte as the
per-score calls would.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fairchase.distributions as distributions
from fairchase import CaseLabel, categorize, fit, parse_family, parse_matches, survival
from fairchase.cli import _FIT_ERRORS, _curves_csv, main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = GOLDEN / "matches.csv"
INDEX = GOLDEN / "index.json"

FAMILIES = ("nb", "normal", "logistic")
CURVE_VENUES = "Auckland,Darwin,Eden,Fremantle"

PARAM_REL = 1e-5
LOGLIK_REL = 1e-9
CURVE_ABS = 1e-6
Q_INTERNAL_ABS = 2e-6
SIM_DRAWS = 5
SIM_SE_ABS = 1e-6


def golden_cases() -> dict[str, list[str]]:
    """Golden file name -> command line (without --data)."""
    cases = {"summary.csv": ["summary"], "report.json": ["report", "--format", "json"]}
    for family in FAMILIES:
        flag = ["--family", family]
        cases[f"fit_{family}.json"] = ["fit", *flag]
        cases[f"revise_{family}.csv"] = ["revise", "--venue", "overall", "--target", "330", *flag]
        cases[f"revise_{family}.json"] = [
            "revise", "--venue", "overall", "--target", "330", "--format", "json", *flag
        ]
        cases[f"revise_unattainable_{family}.csv"] = [
            "revise", "--venue", "Colombo", "--target", "300", *flag
        ]
        cases[f"report_{family}.csv"] = ["report", *flag]
        cases[f"curves_{family}.txt"] = [
            "curves", "--venues", CURVE_VENUES, "--curve-max-score", "400", *flag
        ]
        cases[f"validate_{family}.txt"] = ["validate", *flag]
        cases[f"simulate_{family}.json"] = [
            "simulate", "--venue", "overall", "--target", "330",
            "--trials", "100000", "--seed", "7", *flag,
        ]
    return cases


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and output of one command run in process on the golden data."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        if argv[0] != "curves":
            return main([*argv, "--data", str(DATA)]), stdout.getvalue()
        out_dir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        code = main([*argv, "--data", str(DATA), "--out", str(out_dir)])
        text = "".join(
            f"== {path.name}\n{path.read_text(encoding='utf-8')}" for path in sorted(out_dir.iterdir())
        )
        return code, text


def _close(got: float, want: float, tol: float, what: str) -> None:
    assert abs(got - want) <= tol, f"{what}: got {got!r}, golden {want!r}, tolerance {tol:g}"


def _compare_csv(got: str, want: str, float_columns: dict[str, float], what: str) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert len(got_rows) == len(want_rows), f"{what}: row count"
    header: list[str] = []
    for number, (g, w) in enumerate(zip(got_rows, want_rows), start=1):
        assert len(g) == len(w), f"{what} row {number}: field count"
        if not header or not w:
            header = w  # the first row, and the row after a blank separator
            assert g == w, f"{what} row {number}"
            continue
        for column, g_cell, w_cell in zip(header, g, w):
            tol = float_columns.get(column)
            if tol is None or not w_cell:
                assert g_cell == w_cell, f"{what} row {number} column {column}"
            else:
                _close(float(g_cell), float(w_cell), tol, f"{what} row {number} column {column}")


def _compare_curves(got: str, want: str, what: str) -> None:
    got_files = got.split("== ")[1:]
    want_files = want.split("== ")[1:]
    assert [f.split("\n", 1)[0] for f in got_files] == [f.split("\n", 1)[0] for f in want_files], (
        f"{what}: written files"
    )
    for g, w in zip(got_files, want_files):
        name, g_body = g.split("\n", 1)
        w_body = w.split("\n", 1)[1]
        columns = w_body.split("\n", 1)[0].split(",")[1:]
        _compare_csv(g_body, w_body, dict.fromkeys(columns, CURVE_ABS), f"{what}/{name}")


def _compare_fit(got: str, want: str, what: str) -> None:
    got_docs, want_docs = json.loads(got), json.loads(want)
    assert len(got_docs) == len(want_docs), f"{what}: fit count"
    for g, w in zip(got_docs, want_docs):
        label = f"{what} {w['venue']}/{w['case']}"
        assert g.keys() == w.keys(), label
        for key in w:
            if key == "params":
                assert g[key].keys() == w[key].keys(), label
                for name, value in w[key].items():
                    _close(g[key][name], value, PARAM_REL * abs(value), f"{label} {name}")
            elif key == "log_likelihood":
                floor = w[key] - LOGLIK_REL * abs(w[key])
                assert g[key] >= floor, f"{label}: log_likelihood {g[key]!r} below golden {w[key]!r}"
            else:
                assert g[key] == w[key], f"{label} {key}"


def _compare_simulate(got: str, want: str, what: str) -> None:
    g, w = json.loads(got), json.loads(want)
    assert g.keys() == w.keys(), what
    for key in w:
        if key.startswith("est_"):
            _close(g[key], w[key], SIM_DRAWS / w["trials"], f"{what} {key}")
        elif key.startswith("se_"):
            _close(g[key], w[key], SIM_SE_ABS, f"{what} {key}")
        else:
            assert g[key] == w[key], f"{what} {key}"


def compare(name: str, got: str, want: str) -> None:
    command = name.split("_")[0].split(".")[0]
    if command in ("revise", "report") and name.endswith(".csv"):
        _compare_csv(got, want, {"q_internal": Q_INTERNAL_ABS}, name)
    elif command == "curves":
        _compare_curves(got, want, name)
    elif command == "fit":
        _compare_fit(got, want, name)
    elif command == "simulate":
        _compare_simulate(got, want, name)
    else:
        assert got == want, name


def test_index_lists_every_case():
    index = json.loads(INDEX.read_text(encoding="utf-8"))
    assert {name: entry["argv"] for name, entry in index.items()} == golden_cases()


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_output(name):
    entry = json.loads(INDEX.read_text(encoding="utf-8"))[name]
    code, text = run_case(entry["argv"])
    assert code == entry["exit"], f"{name}: exit code"
    compare(name, text, (GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", FAMILIES)
def test_curves_csv_bytes_match_scalar_formatting(family):
    """Array survival and one row template give the bytes of per-score f"{v:.12g}"."""
    dataset = categorize(parse_matches(DATA))
    written = 0
    for samples in dataset.values():
        try:
            fits = {label: fit(samples[label], parse_family(family)) for label in CaseLabel}
        except _FIT_ERRORS:
            continue
        lines = ["score,bat_first_win,bat_first_lose,bat_second_win,bat_second_lose"]
        for score in range(-1, 1101):
            values = ",".join(f"{survival(fits[label], score):.12g}" for label in CaseLabel)
            lines.append(f"{score},{values}")
        assert _curves_csv(fits, 1100) == "\n".join(lines) + "\n"
        written += 1
    assert written >= 5


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("command", ["curves", "validate"])
def test_no_per_score_evaluation(command, family, monkeypatch):
    """curves and validate evaluate whole score ranges as arrays, not one call per score.

    Every pmf, cdf and survival call of every family passes its scores
    through distributions._score_array, so a 0-d score there is one
    per-score call.
    """
    calls: Counter = Counter()
    real_score_array = distributions._score_array

    def counted_score_array(x):
        if np.ndim(x) == 0:
            calls["scalar"] += 1
        return real_score_array(x)

    monkeypatch.setattr(distributions, "_score_array", counted_score_array)
    code, _ = run_case([command, "--family", family])
    assert code == 0
    assert calls["scalar"] < 100, calls


@pytest.mark.parametrize("family", FAMILIES)
def test_validate_past_the_first_table(family):
    """A quantile cap past several table doublings, and a one-point curve, pass the same checks."""
    code, text = run_case(["validate", "--quantile-cap", "6000", "--curve-max-score", "0", "--family", family])
    assert code == 0
    assert text == (GOLDEN / f"validate_{family}.txt").read_text(encoding="utf-8")


def test_revise_past_the_int64_range():
    """A target beyond int64 reads the settled far tail of the fitted curve."""
    code, text = run_case(["revise", "--venue", "overall", "--target", str(10**20)])
    assert code == 0
    assert text.splitlines()[-1] == "overall,negbin,100000000000000000000,1038,1.000000"


def _update() -> None:
    index = {}
    for name, argv in golden_cases().items():
        code, text = run_case(argv)
        (GOLDEN / name).write_text(text, encoding="utf-8")
        index[name] = {"argv": argv, "exit": code}
    INDEX.write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    _update()
