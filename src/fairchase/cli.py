"""Command-line front end for the whole pipeline.

Commands: summary, fit, curves, revise, report, simulate, generate,
validate. Data goes to stdout (or --out); warnings and diagnostics go to
stderr. Exit codes: 0 success, 2 input or configuration error, 3 model or
regime error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import SETTINGS, AppConfig, LOW_TARGET_WARNING_THRESHOLD, _int, load_config_file
# pmf is unused here but stays bound: bench/tracing.py patches fairchase.cli.pmf
from .distributions import Family, FittedDist, fit, fitted_to_json, pmf, survival
from .errors import (
    DegenerateQuantileWarning,
    FairchaseError,
    InconsistentSpec,
    InsufficientSample,
    InvalidParams,
    TargetUnattainable,
    UnderdispersedSample,
    ZeroVariance,
)
from .matches import (
    CaseLabel,
    CategorizedScores,
    MatchRecord,
    categorize,
    csv_text,
    parse_matches,
    select_venues,
    serialize_matches,
    summarize,
    summary_to_csv,
    summary_to_json,
)
from .revision import (
    CELL_COLUMNS,
    build_model,
    cell_to_dict,
    cell_to_row,
    equalization_slack,
    pmf_mass,
    report_to_csv,
    report_to_json,
    revise_target,
    revision_report,
    survival_rise,
)
from .simulate import check_equalization, default_synthetic_spec, generate_synthetic_dataset

_FIT_ERRORS = (InsufficientSample, UnderdispersedSample, ZeroVariance)
_MODEL_ERRORS = _FIT_ERRORS + (TargetUnattainable, InconsistentSpec, InvalidParams)

_EXIT_CODE_HELP = (
    "exit codes: 0 success, 2 input or configuration error, "
    "3 model or regime error, 4 validation failure"
)


def _flag_type(parser: Callable[[str], object]) -> Callable[[str], object]:
    """A value parser, with its FairchaseError turned into a usage error."""

    def parse(text: str) -> object:
        try:
            return parser(text)
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
            type=_flag_type(setting.parse),
            metavar=setting.metavar,
            help=setting.help,
        )

    parser = argparse.ArgumentParser(
        prog="fairchase",
        description="Venue-specific run distributions and bias-corrected chase targets for ODI cricket.",
        epilog=_EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, run: Callable[..., tuple[str | None, int]], help: str) -> argparse.ArgumentParser:
        command = sub.add_parser(name, parents=[common], help=help)
        command.set_defaults(run=run)
        return command

    add("summary", _cmd_summary, "per-venue match counts, win rates, and scoring averages")
    add("fit", _cmd_fit, "fit the four case distributions per venue (JSON)")
    add("curves", _cmd_curves, "write per-venue survival-curve CSVs to --out")

    revise = add("revise", _cmd_revise, "equalized chase target for one venue")
    revise.add_argument("--venue", required=True, help="venue to model")
    target = _flag_type(_int("target", 0))
    revise.add_argument("--target", required=True, type=target, help="actual first-innings target")

    add("report", _cmd_report, "revised targets and bias totals across venues and families")

    simulate = add("simulate", _cmd_simulate, "Monte Carlo check of the equalization identity (JSON)")
    simulate.add_argument("--venue", required=True, help="venue to model")
    simulate.add_argument("--target", required=True, type=target, help="actual first-innings target")
    simulate.add_argument("--trials", type=_flag_type(_int("trials", 1)), default=100_000,
                          help="simulation trials (default 100000)")

    generate = add("generate", _cmd_generate, "write a synthetic match CSV with known parameters")
    generate.add_argument("--num-venues", type=_flag_type(_int("num_venues", 1)), default=2,
                          help="synthetic venues (default 2)")
    generate.add_argument("--matches", type=_flag_type(_int("matches", 2)), default=100,
                          help="decisive matches per venue (default 100)")

    add("validate", _cmd_validate, "run the invariant suite against the dataset")
    return parser


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    config = load_config_file(args.config) if args.config else AppConfig()
    flags = {s.key: getattr(args, s.key) for s in SETTINGS if getattr(args, s.key) is not None}
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
    if not config.data:
        raise FairchaseError("no input data; pass --data PATH or set data in the config file")
    records = parse_matches(config.data)
    return records, categorize(records)


def _slug(venue: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in venue.lower()).strip("-") or "venue"


def _cmd_summary(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    _, dataset = _load_dataset(config)
    rows = summarize(dataset, config.venues)
    text = summary_to_csv(rows) if config.format == "csv" else summary_to_json(rows)
    return text, 0


def _cmd_fit(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    _, dataset = _load_dataset(config)
    fit_config = config.fit_config()
    entries = []
    for name in select_venues(dataset, config.venues):
        for label in CaseLabel:
            try:
                dist = fit(dataset[name][label], config.fit_family, fit_config)
            except _FIT_ERRORS as exc:
                _warn(f"skipping {name}/{label.name.lower()}: {exc}")
                continue
            entries.append((name, label.value, dist))
    return fitted_to_json(entries), 0


def _curves_csv(fits: Mapping[CaseLabel, FittedDist], max_score: int) -> str:
    scores = np.arange(-1, max_score + 1)
    columns = [survival(fits[label], scores).tolist() for label in CaseLabel]
    row = "%d" + ",%.12g" * len(columns)
    lines = ["score," + ",".join(label.name.lower() for label in CaseLabel)]
    lines.extend(row % values for values in zip(scores.tolist(), *columns))
    return "\n".join(lines) + "\n"


def _cmd_curves(args: argparse.Namespace, config: AppConfig) -> tuple[None, int]:
    _, dataset = _load_dataset(config)
    if not args.out:
        raise FairchaseError("curves writes one CSV per venue; pass --out DIRECTORY")
    names = select_venues(dataset, config.venues)
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
                fits[label] = fit(dataset[name][label], config.fit_family, fit_config)
        except _FIT_ERRORS as exc:
            _warn(f"skipping venue {name!r}: {exc}")
            continue
        path = out_dir / f"curves_{_slug(name)}.csv"
        path.write_text(_curves_csv(fits, config.curve_max_score), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return None, 0


def _cmd_revise(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    _, dataset = _load_dataset(config)
    if args.target < LOW_TARGET_WARNING_THRESHOLD:
        _warn(
            f"target {args.target} is below {LOW_TARGET_WARNING_THRESHOLD}; "
            "the model is meant for tough chases and may be unreliable here"
        )
    model = build_model(dataset, args.venue, config.fit_family, config.fit_config())
    cell = revise_target(model, args.target)
    columns = CELL_COLUMNS[:-1]  # a revised target's status is always "ok"
    if config.format == "csv":
        return csv_text([columns, cell_to_row(cell)[:-1]]), 0
    values = cell_to_dict(cell)
    return json.dumps({key: values[key] for key in columns}, indent=2), 0


def _cmd_report(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    _, dataset = _load_dataset(config)
    names = select_venues(dataset, config.venues)
    filtered = {name: dataset[name] for name in names}
    families = tuple(Family) if config.family is None else (config.family,)
    report = revision_report(filtered, families, config.target_grid, config.fit_config())
    text = report_to_csv(report) if config.format == "csv" else report_to_json(report)
    return text, 0


def _cmd_simulate(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    _, dataset = _load_dataset(config)
    model = build_model(dataset, args.venue, config.fit_family, config.fit_config())
    result = check_equalization(model, args.target, args.trials, config.seed)
    if result.degenerate:
        _warn("an estimate landed on the boundary; its standard error is degenerate")
    return json.dumps(result.to_dict(), indent=2), 0


def _cmd_generate(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    specs = default_synthetic_spec(args.num_venues, args.matches)
    records = generate_synthetic_dataset(specs, config.seed)
    return serialize_matches(records), 0


def _cmd_validate(args: argparse.Namespace, config: AppConfig) -> tuple[str, int]:
    records, dataset = _load_dataset(config)
    lines: list[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        lines.append(f"ok: {name}" if ok else f"FAIL: {name}" + (f" ({detail})" if detail else ""))

    reparsed = parse_matches(io.StringIO(serialize_matches(records)))
    check("csv round trip preserves records", reparsed == records)

    fit_config = config.fit_config()
    modeled = []
    for name in select_venues(dataset, config.venues):
        try:
            modeled.append((name, build_model(dataset, name, config.fit_family, fit_config)))
        except _FIT_ERRORS as exc:
            _warn(f"validate: skipping venue {name!r}: {exc}")

    for name, model in modeled:
        for dist_name, dist in (
            ("bat_first_win", model.dist_bat_first_win),
            ("bat_second_win", model.dist_bat_second_win),
        ):
            total = pmf_mass(dist, config.quantile_cap)
            check(f"{name}/{dist_name}: pmf sums to 1", abs(total - 1.0) <= 1e-9, f"sum={total:.12f}")
            rise = survival_rise(dist, config.curve_max_score)
            check(f"{name}/{dist_name}: survival non-increasing", rise <= 1e-12)

        results = []
        for actual in config.target_grid:
            try:
                results.append(revise_target(model, actual))
            except TargetUnattainable:
                continue
        check(f"{name}: equalization identity within one pmf step", equalization_slack(model, results) <= 1e-12)
        revised = [r.revised for r in results]
        check(f"{name}: revised target non-decreasing in actual target", revised == sorted(revised))

    failures = sum(line.startswith("FAIL: ") for line in lines)
    lines.append(f"validate: {len(lines)} checks, {failures} failures")
    return "\n".join(lines), 4 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # each cap hit is its own warning line, not Python's once-per-site report
        warnings.simplefilter("always", DegenerateQuantileWarning)
        warnings.showwarning = lambda message, *_: _warn(str(message))
        try:
            text, code = args.run(args, _resolve_config(args))
            if text is not None:
                _emit(text, args.out)
            return code
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
