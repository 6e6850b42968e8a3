"""End-to-end CLI behavior: commands, exit codes, config precedence, and
output stability."""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fairchase
from fairchase import parse_matches, serialize_matches
from fairchase.cli import _build_parser, _resolve_config, main
from fairchase.config import SETTINGS, AppConfig

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = main(["generate", "--num-venues", "2", "--matches", "120", "--seed", "42", "--out", str(path)])
    assert code == 0
    return str(path)


def _renamed_venues(data_csv: str, tmp_path: Path, names: dict[str, str]) -> str:
    """A copy of the data CSV with venues renamed per names."""
    records = [replace(r, venue=names.get(r.venue, r.venue)) for r in parse_matches(data_csv)]
    path = tmp_path / "renamed.csv"
    path.write_text(serialize_matches(records), encoding="utf-8")
    return str(path)


@pytest.fixture
def cli(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestSummary:
    def test_csv_to_stdout(self, cli, data_csv):
        code, out, err = cli("summary", "--data", data_csv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("venue,total_matches,")
        assert lines[-1].startswith("overall,240,")

    def test_json_format(self, cli, data_csv):
        code, out, _ = cli("summary", "--data", data_csv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc[-1]["venue"] == "overall"
        assert doc[-1]["total_matches"] == 240

    def test_venue_filter(self, cli, data_csv):
        code, out, _ = cli("summary", "--data", data_csv, "--venues", "venue02")
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 1 and body[0].startswith("venue02,")

    def test_out_file(self, cli, data_csv, tmp_path):
        target = tmp_path / "summary.csv"
        code, out, _ = cli("summary", "--data", data_csv, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("venue,")

    def test_missing_file_exits_2(self, cli):
        code, _, err = cli("summary", "--data", "no-such-file.csv")
        assert code == 2
        assert "error:" in err

    def test_missing_data_flag_exits_2(self, cli):
        code, _, err = cli("summary")
        assert code == 2
        assert "no input data" in err

    def test_unknown_venue_exits_2(self, cli, data_csv):
        code, _, err = cli("summary", "--data", data_csv, "--venues", "Atlantis")
        assert code == 2
        assert "Atlantis" in err

    def test_byte_identical_reruns(self, cli, data_csv):
        first = cli("summary", "--data", data_csv)
        second = cli("summary", "--data", data_csv)
        assert first == second


class TestFit:
    def test_emits_json_fits(self, cli, data_csv):
        code, out, _ = cli("fit", "--data", data_csv, "--venues", "venue01")
        assert code == 0
        docs = json.loads(out)
        assert {d["case"] for d in docs} == {
            "BatFirstWin",
            "BatFirstLose",
            "BatSecondWin",
            "BatSecondLose",
        }
        assert all(d["family"] == "negbin" for d in docs)
        assert all(not d["degenerate_flag"] for d in docs)

    def test_family_flag(self, cli, data_csv):
        code, out, _ = cli("fit", "--data", data_csv, "--family", "logistic")
        assert code == 0
        docs = json.loads(out)
        assert all(d["family"] == "logistic" for d in docs)
        assert {d["venue"] for d in docs} == {"venue01", "venue02", "overall"}

    def test_small_cases_warned_and_skipped(self, cli, data_csv):
        code, out, err = cli(
            "fit", "--data", data_csv, "--min-sample-size", "60", "--venues", "venue01"
        )
        assert code == 0
        docs = json.loads(out)
        # only the two 66-score cases clear the bar; the 54-score cases are
        # announced on stderr and left out
        assert [d["case"] for d in docs] == ["BatFirstWin", "BatSecondLose"]
        assert "skipping" in err


class TestCurves:
    def test_writes_per_venue_files(self, cli, data_csv, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, err = cli("curves", "--data", data_csv, "--out", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "curves_overall.csv",
            "curves_venue01.csv",
            "curves_venue02.csv",
        ]

    def test_curve_contents(self, cli, data_csv, tmp_path):
        out_dir = tmp_path / "curves"
        cli("curves", "--data", data_csv, "--venues", "venue01", "--out", str(out_dir))
        rows = list(csv.reader((out_dir / "curves_venue01.csv").open()))
        assert rows[0] == [
            "score",
            "bat_first_win",
            "bat_first_lose",
            "bat_second_win",
            "bat_second_lose",
        ]
        assert rows[1][0] == "-1"
        assert all(float(v) == 1.0 for v in rows[1][1:])
        assert rows[-1][0] == "600"
        for col in range(1, 5):
            values = [float(r[col]) for r in rows[1:]]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_missing_out_exits_2(self, cli, data_csv):
        code, _, err = cli("curves", "--data", data_csv)
        assert code == 2
        assert "--out" in err

    def test_curve_max_score_flag(self, cli, data_csv, tmp_path):
        out_dir = tmp_path / "curves"
        cli(
            "curves", "--data", data_csv, "--venues", "venue01",
            "--curve-max-score", "50", "--out", str(out_dir),
        )
        rows = (out_dir / "curves_venue01.csv").read_text().splitlines()
        assert rows[-1].startswith("50,")

    def test_underpowered_venue_warned(self, cli, data_csv, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, err = cli(
            "curves", "--data", data_csv, "--min-sample-size", "1000", "--out", str(out_dir)
        )
        assert code == 0
        assert "skipping venue" in err
        assert not list(out_dir.iterdir())

    def test_slug_collision_exits_2_before_writing(self, cli, data_csv, tmp_path):
        data = _renamed_venues(data_csv, tmp_path, {"venue01": "Eden Park", "venue02": "Eden-Park"})
        out_dir = tmp_path / "curves"
        code, _, err = cli("curves", "--data", data, "--out", str(out_dir))
        assert code == 2
        assert "Eden Park" in err and "Eden-Park" in err
        assert not out_dir.exists() or not list(out_dir.iterdir())


class TestRevise:
    def test_revise_csv(self, cli, data_csv):
        code, out, err = cli("revise", "--data", data_csv, "--venue", "venue01", "--target", "330")
        assert code == 0
        header, row = out.splitlines()
        assert header == "venue,family,actual_target,revised_target,q_internal"
        fields = row.split(",")
        assert fields[0] == "venue01"
        assert fields[1] == "negbin"
        assert fields[2] == "330"
        assert 200 < int(fields[3]) <= 330
        assert err == ""

    def test_revise_csv_quotes_venue(self, cli, data_csv, tmp_path):
        venue = 'Port of Spain, "Queen\'s Park"'
        data = _renamed_venues(data_csv, tmp_path, {"venue01": venue})
        code, out, _ = cli("revise", "--data", data, "--venue", venue, "--target", "330")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(row) == len(header) == 5
        assert row[0] == venue

    def test_revise_json(self, cli, data_csv):
        code, out, _ = cli(
            "revise", "--data", data_csv, "--venue", "venue01", "--target", "330",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["actual_target"] == 330
        assert 0.0 < doc["q_internal"] <= 1.0

    def test_low_target_warns(self, cli, data_csv):
        code, _, err = cli("revise", "--data", data_csv, "--venue", "venue01", "--target", "250")
        assert code == 0
        assert "below 300" in err

    def test_unattainable_exits_3(self, cli, data_csv):
        code, _, err = cli("revise", "--data", data_csv, "--venue", "venue01", "--target", "50")
        assert code == 3
        assert "error:" in err

    def test_insufficient_sample_exits_3(self, cli, data_csv):
        code, _, err = cli(
            "revise", "--data", data_csv, "--venue", "venue01", "--target", "330",
            "--min-sample-size", "1000",
        )
        assert code == 3


class TestReport:
    def test_all_families_by_default(self, cli, data_csv):
        code, out, _ = cli("report", "--data", data_csv)
        assert code == 0
        families = {line.split(",")[1] for line in out.splitlines()[1:] if line and "," in line}
        assert {"negbin", "normal", "logistic"} <= families

    def test_family_flag_restricts(self, cli, data_csv):
        code, out, _ = cli("report", "--data", data_csv, "--family", "nb")
        assert code == 0
        body = [line for line in out.splitlines()[1:] if line and not line.startswith("venue,")]
        assert all(line.split(",")[1] == "negbin" for line in body)

    def test_family_config_key_restricts(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\nfamily = logistic\n")
        code, out, _ = cli("report", "--config", str(cfg))
        assert code == 0
        body = [line for line in out.splitlines()[1:] if line and not line.startswith("venue,")]
        assert body and {line.split(",")[1] for line in body} == {"logistic"}

    def test_target_grid_flag(self, cli, data_csv):
        code, out, _ = cli(
            "report", "--data", data_csv, "--family", "nb", "--target-grid", "310,320"
        )
        assert code == 0
        actuals = {line.split(",")[2] for line in out.splitlines()[1:] if line.count(",") >= 5}
        assert actuals == {"310", "320"}

    def test_json_format(self, cli, data_csv):
        code, out, _ = cli("report", "--data", data_csv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["target_grid"] == [300, 315, 330, 340, 350]
        assert all(cell["status"] == "ok" for cell in doc["targets"])


class TestSimulate:
    def test_deterministic_json(self, cli, data_csv):
        args = (
            "simulate", "--data", data_csv, "--venue", "venue01", "--target", "330",
            "--trials", "20000", "--seed", "7",
        )
        first = cli(*args)
        second = cli(*args)
        assert first == second
        assert first[0] == 0
        doc = json.loads(first[1])
        assert doc["trials"] == 20000
        assert doc["venue"] == "venue01"

    def test_seed_changes_estimates(self, cli, data_csv):
        base = ("simulate", "--data", data_csv, "--venue", "venue01", "--target", "330", "--trials", "5000")
        out_a = json.loads(cli(*base, "--seed", "1")[1])
        out_b = json.loads(cli(*base, "--seed", "2")[1])
        assert out_a != out_b


class TestGenerate:
    def test_output_parses_and_is_reproducible(self, cli, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        cli("generate", "--num-venues", "3", "--matches", "40", "--seed", "5", "--out", str(path_a))
        cli("generate", "--num-venues", "3", "--matches", "40", "--seed", "5", "--out", str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()
        records = parse_matches(path_a)
        assert len(records) == 120
        assert len({r.venue for r in records}) == 3

    def test_output_bytes_pinned(self, cli, tmp_path):
        path = tmp_path / "g.csv"
        cli("generate", "--num-venues", "3", "--matches", "40", "--seed", "5", "--out", str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "150f4eb6f392e2263566d856094dd3b41a4f885305224de5f6920e7a1df7a2cd"

    def test_stdout_default(self, cli):
        code, out, _ = cli("generate", "--num-venues", "1", "--matches", "10", "--seed", "0")
        assert code == 0
        assert out.startswith("match_id,venue,date,")


class TestValidate:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_large_quantile_cap_keeps_memory_bounded(self):
        """A cap of 1e6 prints the default-cap lines, and the process peaks under 50 MB.

        The peak is VmHWM, the child's own high-water mark: getrusage's
        ru_maxrss in a freshly started child also counts the resident set of
        the process that started it, here the test runner.
        """
        golden = ROOT / "tests" / "golden"
        proc = _run_python(
            "-c",
            "import re, sys\n"
            "from fairchase.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1), file=sys.stderr)\n"
            "sys.exit(code)",
            *("validate", "--data", str(golden / "matches.csv"), "--family", "nb"),
            *("--quantile-cap", "1000000"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (golden / "validate_nb.txt").read_text()
        assert int(proc.stderr.splitlines()[-1]) < 50 * 1024

    def test_passes_on_synthetic_data(self, cli, data_csv):
        code, out, _ = cli("validate", "--data", data_csv)
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("ok:") for line in lines[:-1])
        assert lines[-1].endswith("0 failures")

    def test_violation_exits_4(self, cli, data_csv, monkeypatch):
        import fairchase.cli as cli_module

        real = cli_module.serialize_matches
        monkeypatch.setattr(
            cli_module, "serialize_matches", lambda records: real(records[:-1])
        )
        code, out, _ = cli("validate", "--data", data_csv)
        assert code == 4
        assert "FAIL: csv round trip preserves records" in out


class TestConfigFile:
    def test_file_values_used(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\nfamily = logistic\n# comment\n\nseed = 9\n")
        code, out, _ = cli(
            "revise", "--config", str(cfg), "--venue", "venue01", "--target", "330"
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "logistic"

    def test_flags_override_file(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\nfamily = logistic\n")
        code, out, _ = cli(
            "revise", "--config", str(cfg), "--family", "nb", "--venue", "venue01",
            "--target", "330",
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "negbin"

    def test_unknown_key_exits_2(self, cli, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text("familly = nb\n")
        code, _, err = cli("summary", "--config", str(cfg))
        assert code == 2
        assert "familly" in err

    def test_malformed_line_exits_2(self, cli, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text("just some words\n")
        code, _, err = cli("summary", "--config", str(cfg))
        assert code == 2

    def test_grid_from_file(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\ntarget_grid = 320, 340\n")
        code, out, _ = cli("report", "--config", str(cfg), "--family", "nb")
        assert code == 0
        actuals = {line.split(",")[2] for line in out.splitlines()[1:] if line.count(",") >= 5}
        assert actuals == {"320", "340"}


#: config key -> (a value that changes the default, a value that must exit 2)
_SETTING_SAMPLES = {
    "data": ("odi.csv", "no/such/file.csv"),
    "venues": ("venue02,venue01", ","),
    "family": ("logistic", "poisson"),
    "format": ("json", "xml"),
    "seed": ("7", "seven"),
    "target_grid": ("320,340", "300,abc"),
    "min_sample_size": ("12", "1"),
    "quantile_cap": ("1500", "0"),
    "curve_max_score": ("400", "1.5"),
}


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSettingsTable:
    def test_every_setting_has_samples(self):
        assert sorted(s.key for s in SETTINGS) == sorted(_SETTING_SAMPLES)

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
    def test_flag_and_config_key_agree(self, setting, data_csv, tmp_path, capsys):
        good, bad = _SETTING_SAMPLES[setting.key]
        flag = "--" + setting.key.replace("_", "-")
        cfg = tmp_path / "app.cfg"

        cfg.write_text(f"{setting.key} = {good}\n")
        from_file = _resolve_config(_build_parser().parse_args(["summary", "--config", str(cfg)]))
        from_flag = _resolve_config(_build_parser().parse_args(["summary", flag, good]))
        assert from_file == from_flag != AppConfig()

        cfg.write_text(f"data = {data_csv}\n{setting.key} = {bad}\n")
        assert _exit_code(["summary", "--config", str(cfg)]) == 2
        assert _exit_code(["summary", "--data", data_csv, flag, bad]) == 2
        capsys.readouterr()


class TestArgparseBehavior:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_bad_family_value_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["summary", "--family", "poisson"])
        assert exc_info.value.code == 2

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        for command in ("summary", "fit", "curves", "revise", "report", "simulate", "generate", "validate"):
            assert command in out


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports fairchase from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoints:
    def test_cli_import_leaves_scipy_unloaded(self):
        proc = _run_python(
            "-c",
            "import sys, fairchase.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_numpy_random_only_as_numpy_does(self):
        # numpy 1.x imports numpy.random with numpy itself; 2.x loads it on first use
        loaded = "import sys, {}; print('numpy.random' in sys.modules)"
        bare = _run_python("-c", loaded.format("numpy"))
        cli = _run_python("-c", loaded.format("fairchase.cli"))
        assert bare.returncode == 0 and cli.returncode == 0, bare.stderr + cli.stderr
        assert cli.stdout == bare.stdout

    def test_package_version_matches_pyproject(self):
        # a regex, not tomllib, which Python 3.10 lacks
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^\[project\][^\[]*?^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert match and match.group(1) == fairchase.__version__

    def test_module_invocation_runs_the_command(self, data_csv):
        proc = _run_python("-m", "fairchase.cli", "summary", "--data", data_csv)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("venue,total_matches,")
        assert lines[-1].startswith("overall,240,")


class TestBenchBindings:
    """The benchmark's tracer patches names in fairchase's modules; each must exist."""

    def test_traced_bindings_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        bindings = importlib.import_module("tracing").BINDINGS
        for module_name, names in bindings.items():
            module = importlib.import_module(module_name)
            for name in names:
                assert callable(getattr(module, name, None)), f"{module_name}.{name}"

    def test_worker_names_resolve(self):
        cli_module = importlib.import_module("fairchase.cli")
        for name in ("Family", "summary_to_json", "report_to_json"):
            assert hasattr(cli_module, name), name
        assert list(inspect.signature(cli_module.fit).parameters)[1] == "family"


def _collect_option_strings(parser: argparse.ArgumentParser) -> set[str]:
    options: set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options.update(_collect_option_strings(sub))
    options.discard("-h")
    options.discard("--help")
    return options


class TestReadmeParity:
    def test_every_flag_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for option in sorted(_collect_option_strings(_build_parser())):
            assert f"`{option}" in readme, f"flag {option} missing from README"

    def test_every_config_key_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
        for setting in SETTINGS:
            assert f"`{setting.key}`" in section, f"config key {setting.key} missing from README"

    def test_every_command_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for command in ("summary", "fit", "curves", "revise", "report", "simulate", "generate", "validate"):
            assert f"`{command}" in readme or f"fairchase {command}" in readme

    def test_exit_codes_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for snippet in ("0", "2", "3", "4"):
            assert snippet in readme
        assert "exit code" in readme.lower()
