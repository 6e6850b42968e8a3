"""Command-line front end for the whole pipeline.

Commands: summary, fit, curves, revise, report, simulate, generate,
validate. Data goes to stdout (or --out); warnings and diagnostics go to
stderr. Exit codes: 0 success, 2 input or configuration error, 3 model or
regime error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import SETTINGS, AppConfig, LOW_TARGET_WARNING_THRESHOLD, Setting, load_config_file
from .distributions import Family, FittedDist, fit, fitted_to_json, pmf, survival
from .errors import (
    FairchaseError,
    InconsistentSpec,
    InsufficientSample,
    InvalidParams,
    TargetUnattainable,
    UnderdispersedSample,
    ZeroVariance,
)
from .matches import (
    OVERALL_VENUE,
    CaseLabel,
    CategorizedScores,
    MatchRecord,
    categorize,
    parse_matches,
    resolve_venue,
    serialize_matches,
    summarize,
    summary_to_csv,
    summary_to_json,
    venue_names,
)
from .revision import (
    build_model,
    report_to_csv,
    report_to_json,
    revise_target,
    revision_report,
)
from .simulate import SimConfig, check_equalization, default_synthetic_spec, generate_synthetic_dataset

_FIT_ERRORS = (InsufficientSample, UnderdispersedSample, ZeroVariance)
_MODEL_ERRORS = _FIT_ERRORS + (TargetUnattainable, InconsistentSpec, InvalidParams)

#: Scores per pmf evaluation when validate sums a pmf up to the quantile cap.
_PMF_BLOCK = 1 << 16

_CASE_COLUMNS = {
    CaseLabel.BAT_FIRST_WIN: "bat_first_win",
    CaseLabel.BAT_FIRST_LOSE: "bat_first_lose",
    CaseLabel.BAT_SECOND_WIN: "bat_second_win",
    CaseLabel.BAT_SECOND_LOSE: "bat_second_lose",
}

_EXIT_CODE_HELP = (
    "exit codes: 0 success, 2 input or configuration error, "
    "3 model or regime error, 4 validation failure"
)


def _flag_type(setting: Setting) -> Callable[[str], object]:
    """The setting's parser, with its FairchaseError turned into a usage error."""

    def parse(text: str) -> object:
        try:
            return setting.parse(text)
        except FairchaseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    for setting in SETTINGS:
        common.add_argument(
            "--" + setting.key.replace("_", "-"),
            dest=setting.key,
            type=_flag_type(setting),
            metavar=setting.metavar,
            help=setting.help,
        )

    parser = argparse.ArgumentParser(
        prog="fairchase",
        description="Venue-specific run distributions and bias-corrected chase targets for ODI cricket.",
        epilog=_EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser(
        "summary", parents=[common], help="per-venue match counts, win rates, and scoring averages"
    )
    sub.add_parser("fit", parents=[common], help="fit the four case distributions per venue (JSON)")
    sub.add_parser("curves", parents=[common], help="write per-venue survival-curve CSVs to --out")

    revise = sub.add_parser("revise", parents=[common], help="equalized chase target for one venue")
    revise.add_argument("--venue", required=True, help="venue to model")
    revise.add_argument("--target", required=True, type=int, help="actual first-innings target")

    sub.add_parser(
        "report", parents=[common], help="revised targets and bias totals across venues and families"
    )

    simulate = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo check of the equalization identity (JSON)"
    )
    simulate.add_argument("--venue", required=True, help="venue to model")
    simulate.add_argument("--target", required=True, type=int, help="actual first-innings target")
    simulate.add_argument("--trials", type=int, default=100_000, help="simulation trials (default 100000)")

    generate = sub.add_parser(
        "generate", parents=[common], help="write a synthetic match CSV with known parameters"
    )
    generate.add_argument("--num-venues", type=int, default=2, help="synthetic venues (default 2)")
    generate.add_argument(
        "--matches", type=int, default=100, help="decisive matches per venue (default 100)"
    )

    sub.add_parser("validate", parents=[common], help="run the invariant suite against the dataset")
    return parser


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    config = load_config_file(args.config) if args.config else AppConfig()
    flags = {s.field: getattr(args, s.key) for s in SETTINGS if getattr(args, s.key) is not None}
    return replace(config, **flags)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_dataset(config: AppConfig) -> tuple[list[MatchRecord], CategorizedScores]:
    if not config.data_path:
        raise FairchaseError("no input data; pass --data PATH or set data in the config file")
    records = parse_matches(config.data_path)
    return records, categorize(records)


def _selected_venues(dataset: CategorizedScores, config: AppConfig) -> list[str]:
    if config.venues is None:
        return venue_names(dataset)
    resolved = sorted(resolve_venue(dataset, v) for v in config.venues)
    if OVERALL_VENUE in resolved:
        resolved.remove(OVERALL_VENUE)
        resolved.append(OVERALL_VENUE)
    return resolved


def _slug(venue: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in venue.lower()).strip("-") or "venue"


def _cmd_summary(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    rows = summarize(dataset, config.venues)
    text = summary_to_csv(rows) if config.output_format == "csv" else summary_to_json(rows)
    _emit(text, args.out)
    return 0


def _cmd_fit(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    fit_config = config.fit_config()
    entries = []
    for name in _selected_venues(dataset, config):
        for label in CaseLabel:
            try:
                dist = fit(dataset[name][label].scores, config.fit_family, fit_config)
            except _FIT_ERRORS as exc:
                _warn(f"skipping {name}/{_CASE_COLUMNS[label]}: {exc}")
                continue
            entries.append((name, label.value, dist))
    _emit(fitted_to_json(entries), args.out)
    return 0


def _curves_csv(fits: Mapping[CaseLabel, FittedDist], max_score: int) -> str:
    scores = np.arange(-1, max_score + 1)
    columns = [survival(fits[label], scores).tolist() for label in CaseLabel]
    row = "%d" + ",%.12g" * len(columns)
    lines = ["score," + ",".join(_CASE_COLUMNS[label] for label in CaseLabel)]
    lines.extend(row % values for values in zip(scores.tolist(), *columns))
    return "\n".join(lines) + "\n"


def _cmd_curves(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    if not args.out:
        raise FairchaseError("curves writes one CSV per venue; pass --out DIRECTORY")
    names = _selected_venues(dataset, config)
    by_slug: dict[str, str] = {}
    for name in names:
        other = by_slug.setdefault(_slug(name), name)
        if other != name:
            raise FairchaseError(f"venues {other!r} and {name!r} would both write curves_{_slug(name)}.csv")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit_config = config.fit_config()
    for name in names:
        fits = {}
        try:
            for label in CaseLabel:
                fits[label] = fit(dataset[name][label].scores, config.fit_family, fit_config)
        except _FIT_ERRORS as exc:
            _warn(f"skipping venue {name!r}: {exc}")
            continue
        path = out_dir / f"curves_{_slug(name)}.csv"
        path.write_text(_curves_csv(fits, config.curve_max_score), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_revise(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    if args.target < LOW_TARGET_WARNING_THRESHOLD:
        _warn(
            f"target {args.target} is below {LOW_TARGET_WARNING_THRESHOLD}; "
            "the model is meant for tough chases and may be unreliable here"
        )
    model = build_model(dataset, args.venue, config.fit_family, config.fit_config())
    result = revise_target(model, args.target)
    row = {
        "venue": model.venue,
        "family": model.family.value,
        "actual_target": result.actual,
        "revised_target": result.revised,
        "q_internal": result.q_internal,
    }
    if config.output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(row.keys())
        writer.writerow({**row, "q_internal": f"{result.q_internal:.6f}"}.values())
        text = out.getvalue()
    else:
        text = json.dumps(row, indent=2)
    _emit(text, args.out)
    return 0


def _cmd_report(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    names = _selected_venues(dataset, config)
    filtered = {name: dataset[name] for name in names}
    families = tuple(Family) if config.family is None else (config.family,)
    report = revision_report(filtered, families, config.target_grid, config.fit_config())
    text = report_to_csv(report) if config.output_format == "csv" else report_to_json(report)
    _emit(text, args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace, config: AppConfig) -> int:
    _, dataset = _load_dataset(config)
    model = build_model(dataset, args.venue, config.fit_family, config.fit_config())
    result = check_equalization(
        SimConfig(model=model, actual_target=args.target, n_trials=args.trials, seed=config.seed)
    )
    if result.degenerate:
        _warn("an estimate landed on the boundary; its standard error is degenerate")
    _emit(json.dumps(result.to_dict(), indent=2), args.out)
    return 0


def _cmd_generate(args: argparse.Namespace, config: AppConfig) -> int:
    specs = default_synthetic_spec(args.num_venues, args.matches)
    records = generate_synthetic_dataset(specs, config.seed)
    _emit(serialize_matches(records), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace, config: AppConfig) -> int:
    records, dataset = _load_dataset(config)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, ok, detail))

    reparsed = parse_matches(io.StringIO(serialize_matches(records)))
    check("csv round trip preserves records", reparsed == records)

    real_venues = [v for v in venue_names(dataset) if v != OVERALL_VENUE]
    pairing_ok = all(
        dataset[v][CaseLabel.BAT_FIRST_WIN].size == dataset[v][CaseLabel.BAT_SECOND_LOSE].size
        and dataset[v][CaseLabel.BAT_SECOND_WIN].size == dataset[v][CaseLabel.BAT_FIRST_LOSE].size
        for v in venue_names(dataset)
    )
    check("winner and loser sample sizes pair up", pairing_ok)

    expected: Counter = Counter()
    for rec in records:
        if rec.decisive and not rec.reduced_overs:
            expected[(rec.venue.casefold(), rec.outcome.value)] += 1
    counts_ok = all(
        dataset[v][CaseLabel.BAT_FIRST_WIN].size == expected[(v.casefold(), "BatFirstWin")]
        and dataset[v][CaseLabel.BAT_SECOND_WIN].size == expected[(v.casefold(), "BatSecondWin")]
        for v in real_venues
    )
    check("case sample sizes match decisive record counts", counts_ok)

    pct_ok = all(
        abs(row.pct_bat_first_win + row.pct_bat_second_win - 100.0) <= 1e-9
        for row in summarize(dataset)
    )
    check("win percentages sum to 100", pct_ok)

    fit_config = config.fit_config()
    selected = _selected_venues(dataset, config)
    modeled = []
    for name in selected:
        try:
            modeled.append((name, build_model(dataset, name, config.fit_family, fit_config)))
        except _FIT_ERRORS as exc:
            _warn(f"validate: skipping venue {name!r}: {exc}")

    end = config.quantile_cap + 1
    curve = np.arange(config.curve_max_score + 1)
    for name, model in modeled:
        for dist_name, dist in (
            ("bat_first_win", model.dist_bat_first_win),
            ("bat_second_win", model.dist_bat_second_win),
        ):
            # blocks keep memory flat as the cap grows; fsum rounds exactly, so they cannot move the sum
            blocks = (pmf(dist, np.arange(lo, min(lo + _PMF_BLOCK, end))) for lo in range(0, end, _PMF_BLOCK))
            total = math.fsum(v for block in blocks for v in block.tolist())
            check(f"{name}/{dist_name}: pmf sums to 1", abs(total - 1.0) <= 1e-9, f"sum={total:.12f}")
            s = survival(dist, curve)
            check(f"{name}/{dist_name}: survival non-increasing", bool(np.all(s[1:] <= s[:-1] + 1e-12)))

        pairs = []
        for actual in config.target_grid:
            try:
                pairs.append((actual, revise_target(model, actual).revised))
            except TargetUnattainable:
                continue
        actuals, revised = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        second = model.dist_bat_second_win
        gap = np.abs(survival(second, revised) - model.win_ratio * survival(model.dist_bat_first_win, actuals))
        residuals = gap - pmf(second, revised)
        check(f"{name}: equalization identity within one pmf step", bool(np.all(residuals <= 1e-12)))
        check(
            f"{name}: revised target non-decreasing in actual target",
            bool(np.all(revised[:-1] <= revised[1:])),
        )

    failures = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status}: {name}{suffix}")
        failures += 0 if ok else 1
    print(f"validate: {len(checks)} checks, {failures} failures")
    return 4 if failures else 0


_COMMANDS: dict[str, Callable[[argparse.Namespace, AppConfig], int]] = {
    "summary": _cmd_summary,
    "fit": _cmd_fit,
    "curves": _cmd_curves,
    "revise": _cmd_revise,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[args.command](args, config)
    except _MODEL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FairchaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
