"""Golden-output parity: every command's output on a small fixed dataset.

tests/golden/matches.csv holds 179 rows at six venues, chosen so that
every branch of the pipeline runs: a venue right at the minimum sample size
(Bangalore), one whose high first-innings wins make most targets
unattainable (Colombo), one too thin to fit at all (Darwin), one whose
losing scores are underdispersed for the count model (Eden), and one whose
count-model fits are flat or hit the dispersion bound (Fremantle), plus a
tie, a no-result and reduced-overs rows. golden_cases() declares each
command, its arguments and its exit code; the other files hold its stdout
(for curves, the files it writes).

Every byte of every golden file must match. Regenerate the files with
``PYTHONPATH=src python tests/test_golden.py --update`` only when an output
change is intended, and name the changed files in CHANGES.md.

The tests after the parity cases use the same data to check that curves
and validate evaluate whole score ranges as arrays, byte for byte as the
per-score calls would.
"""

from __future__ import annotations

import contextlib
import io
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

FAMILIES = ("nb", "normal", "logistic")
CURVE_VENUES = "Auckland,Darwin,Eden,Fremantle"


def golden_cases() -> dict[str, tuple[list[str], int]]:
    """Golden file name -> (command line without --data, exit code)."""
    cases = {
        "summary.csv": (["summary"], 0),
        "report.json": (["report", "--format", "json"], 0),
        # a cap below the fitted tails: pmf-mass and identity checks print FAIL lines
        "validate_cap250_nb.txt": (["validate", "--family", "nb", "--quantile-cap", "250"], 4),
        # generate reads no data; run_case's --data is ignored
        "generate.csv": (["generate", "--num-venues", "2", "--matches", "40", "--seed", "7"], 0),
    }
    for family in FAMILIES:
        flag = ["--family", family]
        cases[f"fit_{family}.json"] = (["fit", *flag], 0)
        cases[f"revise_{family}.csv"] = (["revise", "--venue", "overall", "--target", "330", *flag], 0)
        cases[f"revise_{family}.json"] = (
            ["revise", "--venue", "overall", "--target", "330", "--format", "json", *flag], 0
        )
        # Colombo's first-innings wins make 300 unattainable: a model error
        cases[f"revise_unattainable_{family}.csv"] = (
            ["revise", "--venue", "Colombo", "--target", "300", *flag], 3
        )
        cases[f"report_{family}.csv"] = (["report", *flag], 0)
        cases[f"curves_{family}.txt"] = (
            ["curves", "--venues", CURVE_VENUES, "--curve-max-score", "400", *flag], 0
        )
        cases[f"validate_{family}.txt"] = (["validate", *flag], 0)
        cases[f"simulate_{family}.json"] = (
            ["simulate", "--venue", "overall", "--target", "330", "--trials", "100000", "--seed", "7", *flag],
            0,
        )
    return cases


def read_exact(path: Path) -> str:
    """A file's text with no newline translation, so a stray \\r shows."""
    return path.read_bytes().decode("utf-8")


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
        text = "".join(f"== {path.name}\n{read_exact(path)}" for path in sorted(out_dir.iterdir()))
        return code, text


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_output(name):
    argv, exit_code = golden_cases()[name]
    code, text = run_case(argv)
    assert code == exit_code, f"{name}: exit code"
    assert text == read_exact(GOLDEN / name), name


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
    assert text == read_exact(GOLDEN / f"validate_{family}.txt")


@pytest.mark.parametrize(
    "name",
    [
        "summary.csv",
        "fit_nb.json",
        "revise_nb.csv",
        "report_nb.csv",
        "simulate_nb.json",
        "generate.csv",
        "validate_nb.txt",
        "validate_cap250_nb.txt",
    ],
)
def test_out_holds_the_golden_bytes(name, tmp_path):
    """Every single-output command writes to --out the bytes it would print, and prints nothing."""
    argv, exit_code = golden_cases()[name]
    out = tmp_path / name
    assert run_case([*argv, "--out", str(out)]) == (exit_code, "")
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["summary.csv", "validate_nb.txt"])
def test_out_in_a_missing_directory_exits_2(name, tmp_path, capsys):
    """An unwritable --out is an input error: one error line, nothing on stdout."""
    argv, _ = golden_cases()[name]
    code = main([*argv, "--data", str(DATA), "--out", str(tmp_path / "missing" / name)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: [Errno 2] "), captured.err


def test_revise_past_the_int64_range(capsys):
    """A target beyond int64 reads the settled far tail of the fitted curve.

    That tail is the roundoff of a table that settles at or just below 1,
    not an exact tail: at these fits the bat-first table reaches 1.0, so q
    is 1 and the answer is the cap, with its warning.
    """
    code = main(["revise", "--venue", "overall", "--target", str(10**20), "--data", str(DATA)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "venue,family,actual_target,revised_target,q_internal\n"
        "overall,negbin,100000000000000000000,2000,1.000000\n"
    )
    assert captured.err == "warning: quantile at probability 1 is unbounded; returning cap 2000\n"


def _update() -> None:
    for name, (argv, _) in golden_cases().items():
        (GOLDEN / name).write_bytes(run_case(argv)[1].encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    _update()
