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
from fairchase.config import SETTINGS, AppConfig, parse_venue_list

ROOT = Path(__file__).resolve().parent.parent
CAP_WARNING = "quantile at probability 1 is unbounded; returning cap 2000"


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

    def test_file_not_utf8_exits_2(self, cli, tmp_path):
        data = tmp_path / "matches.csv"
        data.write_bytes(",".join(fairchase.CSV_HEADER).encode() + b"\nm1,Syd\xffney,,250,200,BatFirstWin,false\n")
        code, out, err = cli("summary", "--data", str(data))
        assert (code, out) == (2, "")
        assert err == "error: unreadable CSV: not UTF-8 (invalid start byte)\n"

    def test_byte_order_mark_gives_the_golden_summary(self, cli, tmp_path):
        """A match CSV saved with a leading byte-order mark gives the golden summary."""
        data = tmp_path / "matches.csv"
        data.write_bytes(b"\xef\xbb\xbf" + (ROOT / "tests" / "golden" / "matches.csv").read_bytes())
        code, out, err = cli("summary", "--data", str(data))
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (ROOT / "tests" / "golden" / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ("--format", "csv"),
                "venue,total_matches,pct_bat_first_win,avg_bat_first_win,avg_bat_second_lose,"
                "pct_bat_second_win,avg_bat_second_win,avg_bat_first_lose\n",
            ),
            (("--format", "json"), "[]\n"),
        ],
    )
    def test_empty_dataset_bytes(self, cli, tmp_path, flags, expected):
        """A header-only CSV summarizes to the bare header, or to an empty JSON list."""
        path = tmp_path / "empty.csv"
        path.write_text(",".join(fairchase.CSV_HEADER) + "\n", encoding="utf-8")
        assert cli("summary", "--data", str(path), *flags) == (0, expected, "")

    def test_unknown_venue_exits_2(self, cli, data_csv):
        code, _, err = cli("summary", "--data", data_csv, "--venues", "Atlantis")
        assert code == 2
        assert "Atlantis" in err

    def test_byte_identical_reruns(self, cli, data_csv):
        first = cli("summary", "--data", data_csv)
        second = cli("summary", "--data", data_csv)
        assert first == second


class TestVenueSelection:
    """--venues names each venue once, in venue order, whatever the command."""

    GOLDEN_DATA = str(ROOT / "tests" / "golden" / "matches.csv")

    def test_summary_sorted_with_pooled_last(self, cli):
        venues = "Fremantle,overall,Auckland,auckland"
        code, out, _ = cli("summary", "--data", self.GOLDEN_DATA, "--venues", venues)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["Auckland", "Fremantle", "overall"]

    def test_venue_named_twice_runs_once(self, cli):
        code, out, _ = cli("fit", "--data", self.GOLDEN_DATA, "--venues", "Auckland,auckland")
        assert code == 0 and len(json.loads(out)) == 4
        code, out, _ = cli("validate", "--data", self.GOLDEN_DATA, "--venues", "Auckland,auckland")
        assert code == 0 and out.splitlines()[-1] == "validate: 7 checks, 0 failures"

    COMMA_VENUE = "Port of Spain, QP"

    def _summary_venues(self, out: str) -> list[str]:
        return [row[0] for row in list(csv.reader(io.StringIO(out)))[1:]]

    def test_quoted_flag_item_may_hold_a_comma(self, cli, data_csv, tmp_path):
        data = _renamed_venues(data_csv, tmp_path, {"venue01": self.COMMA_VENUE})
        code, out, err = cli("summary", "--data", data, "--venues", f'"{self.COMMA_VENUE}"')
        assert (code, err) == (0, "")
        assert self._summary_venues(out) == [self.COMMA_VENUE]

    def test_quoted_config_item_may_hold_a_comma(self, cli, data_csv, tmp_path):
        data = _renamed_venues(data_csv, tmp_path, {"venue01": self.COMMA_VENUE})
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f'data = {data}\nvenues = venue02, "{self.COMMA_VENUE}"\n', encoding="utf-8")
        code, out, err = cli("summary", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert self._summary_venues(out) == [self.COMMA_VENUE, "venue02"]

    @pytest.mark.parametrize(
        "text, venues",
        [
            (" a , b,,c ", ("a", "b", "c")),
            ('O"Brien, x', ('O"Brien', "x")),
            ("Auck\rland,Auck\nland", ("Auck\rland", "Auck\nland")),
            ('"a, b", c', ("a, b", "c")),
            ('"say ""hi""",, ""', ('say "hi"',)),
            ('"Auck\nland", "Auck\rland"', ("Auck\nland", "Auck\rland")),
        ],
    )
    def test_venue_list_is_one_csv_record(self, text, venues):
        assert parse_venue_list(text) == venues

    @pytest.mark.parametrize("text", ['"venue01', '"venue01" x', '"a, b" , c', '"a", b\nc'])
    def test_malformed_quoted_flag_exits_2(self, data_csv, capsys, text):
        assert _exit_code(["summary", "--data", data_csv, "--venues", text]) == 2
        assert "error: argument --venues: venues must be one CSV record: " in capsys.readouterr().err

    def test_malformed_quoted_config_value_names_its_line(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f'data = {data_csv}\nvenues = "venue01\n', encoding="utf-8")
        code, out, err = cli("summary", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: config line 2: venues must be one CSV record: unexpected end of data\n"


class TestCarriageReturnVenue:
    """csv quotes only the line terminator's "\\n" (before Python 3.13), so every
    CSV table quotes a row holding a "\\r" whole, and leaves every other row's bytes."""

    VENUE = "Auck\rland"

    @pytest.mark.parametrize(
        "argv",
        [
            ("summary",),
            ("revise", "--venue", "Auckland", "--target", "330", "--family", "nb"),
            ("report", "--family", "nb"),
        ],
        ids=["summary", "revise", "report"],
    )
    def test_row_reads_back_at_full_width(self, cli, tmp_path, argv):
        data = tmp_path / "cr.csv"
        text = Path(TestVenueSelection.GOLDEN_DATA).read_text(encoding="utf-8")
        data.write_bytes(text.replace(",Auckland,", f',"{self.VENUE}",').encode())
        code, before, _ = cli(*argv, "--data", TestVenueSelection.GOLDEN_DATA)
        renamed = [self.VENUE if arg == "Auckland" else arg for arg in argv]
        code_cr, after, err = cli(*renamed, "--data", str(data))
        assert (code, code_cr, err) == (0, 0, "")

        for table in after.split("\n\n"):
            header, *rows = csv.reader(io.StringIO(table, newline=""))
            assert rows and all(len(row) == len(header) for row in rows), table
        expected = [
            ",".join(f'"{field}"' for field in [self.VENUE, *line.split(",")[1:]])
            if line.startswith("Auckland,") else line
            for line in before.split("\n")
        ]
        assert after.split("\n") == expected
        assert expected != before.split("\n")


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

    def test_cap_warning_is_a_cli_warning_line(self, cli):
        """A library warning reaches stderr as one `warning:` line, not Python's report of it."""
        golden = TestVenueSelection.GOLDEN_DATA
        code, out, err = cli(
            "revise", "--data", golden, "--venue", "Auckland", "--family", "normal", "--target", str(10**20)
        )
        assert code == 0
        assert out == (
            "venue,family,actual_target,revised_target,q_internal\n"
            "Auckland,normal,100000000000000000000,2000,1.000000\n"
        )
        assert err == f"warning: {CAP_WARNING}\n"

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
        golden = ROOT / "tests" / "golden"
        cfg.write_text(f"data = {golden / 'matches.csv'}\nfamily = nb\n")
        code, out, err = cli("report", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (golden / "report_nb.csv").read_bytes()

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

    EMPTY_JSON = (
        '{\n  "families": [\n    %s\n  ],\n  "target_grid": [\n    300,\n    315,\n    330,\n'
        '    340,\n    350\n  ],\n  "targets": [],\n  "bias_totals": [],\n  "venue_status": [\n'
        '    {\n      "venue": "",\n      "family": "%s",\n      "status": "empty dataset"\n'
        "    }\n  ]\n}\n"
    )

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ("--format", "json"),
                EMPTY_JSON % ('"negbin",\n    "normal",\n    "logistic"', "negbin"),
            ),
            (("--format", "json", "--family", "logistic"), EMPTY_JSON % ('"logistic"', "logistic")),
            (
                ("--format", "csv"),
                "venue,family,actual_target,revised_target,q_internal,status\n\n"
                "venue,family,bias_total,status\n",
            ),
        ],
    )
    def test_empty_dataset_bytes(self, cli, tmp_path, flags, expected):
        """A header-only CSV reports no cells, no totals and one "empty dataset" status row."""
        path = tmp_path / "empty.csv"
        path.write_text(",".join(fairchase.CSV_HEADER) + "\n", encoding="utf-8")
        assert cli("report", "--data", str(path), *flags) == (0, expected, "")

    def test_target_grid_sorted_and_once(self, cli):
        """A grid listed out of order, or with a target twice, reports each target once, ascending."""
        base = ("report", "--data", TestVenueSelection.GOLDEN_DATA, "--venues", "Auckland")
        code, out, _ = cli(*base, "--family", "nb", "--target-grid", "350,300,350")
        assert code == 0
        assert (code, out) == cli(*base, "--family", "nb", "--target-grid", "300,350")[:2]


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

    def test_estimate_on_the_boundary_warns(self, cli):
        code, out, err = cli(
            "simulate", "--data", TestVenueSelection.GOLDEN_DATA, "--venue", "overall",
            "--target", str(10**20), "--trials", "1000",
        )
        assert code == 0
        assert json.loads(out)["degenerate"] is True
        assert err == (
            "warning: quantile at probability 1 is unbounded; returning cap 2000\n"
            "warning: an estimate landed on the boundary; its standard error is degenerate\n"
        )

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

    GOLDEN_DATA = TestVenueSelection.GOLDEN_DATA

    def test_unsorted_target_grid_passes(self, cli):
        code, out, _ = cli("validate", "--data", self.GOLDEN_DATA, "--venues", "Auckland", "--target-grid", "350,300")
        assert code == 0, out
        assert out.splitlines()[-1] == "validate: 7 checks, 0 failures"

    def test_target_past_the_int64_range_passes(self, cli):
        """Past every fitted tail the equalizing level is 1, so the revised target is the cap, with a warning."""
        code, out, err = cli("validate", "--data", self.GOLDEN_DATA, "--target-grid", f"300,{10**20}")
        assert code == 0, out
        assert out.splitlines()[-1].endswith(" 0 failures")
        assert f"warning: {CAP_WARNING}" in err.splitlines()

    @pytest.mark.parametrize("family", ["normal", "logistic"])
    def test_every_cap_hit_warns(self, cli, family):
        """Six venues hit the cap at the huge target; each prints its own line, not one per process."""
        argv = ("validate", "--data", self.GOLDEN_DATA, "--family", family, "--target-grid", f"300,{10**20}")
        code, out, err = cli(*argv)
        assert code == 0, out
        assert err.splitlines().count(f"warning: {CAP_WARNING}") == 6

    def test_carriage_return_in_quoted_id_passes(self, cli, tmp_path):
        path = tmp_path / "cr.csv"
        text = Path(self.GOLDEN_DATA).read_text(encoding="utf-8")
        path.write_bytes((text + '"g\r999",Auckland,,250,200,BatFirstWin,false\n').encode())
        assert any("\r" in r.match_id for r in parse_matches(path))
        code, out, _ = cli("validate", "--data", str(path))
        assert code == 0, out
        assert out.splitlines()[0] == "ok: csv round trip preserves records"


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

    def test_file_not_utf8_exits_2(self, cli, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_bytes(b"data = x\xff\n")
        code, out, err = cli("summary", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: unreadable config file: not UTF-8 (invalid start byte)\n"

    def test_byte_order_mark_is_skipped(self, cli, tmp_path):
        """A config file saved with a leading byte-order mark reads as the match CSV does."""
        golden = ROOT / "tests" / "golden"
        cfg = tmp_path / "app.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf" + f"data = {golden / 'matches.csv'}\n".encode("utf-8"))
        code, out, err = cli("summary", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (golden / "summary.csv").read_bytes()

    def test_bad_value_names_its_line(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\nseed = abc\n")
        code, _, err = cli("summary", "--config", str(cfg))
        assert code == 2
        assert err == "error: config line 2: seed must be an integer, got 'abc'\n"

    def test_out_of_range_value_names_its_line(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\nseed = -1\n")
        code, _, err = cli("summary", "--config", str(cfg))
        assert code == 2
        assert err == "error: config line 2: seed must be at least 0, got -1\n"

    def test_grid_from_file(self, cli, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\ntarget_grid = 320, 340\n")
        code, out, _ = cli("report", "--config", str(cfg), "--family", "nb")
        assert code == 0
        actuals = {line.split(",")[2] for line in out.splitlines()[1:] if line.count(",") >= 5}
        assert actuals == {"320", "340"}

    def test_grid_sorted_and_once_from_file_and_flag(self, data_csv, tmp_path):
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\ntarget_grid = 340, 320, 340\n")
        parser = _build_parser()
        from_file = _resolve_config(parser.parse_args(["report", "--config", str(cfg)]))
        from_flag = _resolve_config(parser.parse_args(["report", "--target-grid", "340,320,340"]))
        assert from_file.target_grid == from_flag.target_grid == (320, 340)


#: config key -> (a value that changes the default, then values that must exit 2)
_SETTING_SAMPLES = {
    "data": ("odi.csv", "no/such/file.csv"),
    "venues": ("venue02,venue01", ","),
    "family": ("logistic", "poisson"),
    "format": ("json", "xml"),
    "seed": ("7", "seven", "-1"),
    "target_grid": ("320,340", "300,abc", "300,-5"),
    "min_sample_size": ("12", "1"),
    "quantile_cap": ("1500", "0", "10000001"),
    "curve_max_score": ("400", "1.5", "-1", "10000001"),
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
        good, *bad_values = _SETTING_SAMPLES[setting.key]
        flag = "--" + setting.key.replace("_", "-")
        cfg = tmp_path / "app.cfg"

        cfg.write_text(f"{setting.key} = {good}\n")
        from_file = _resolve_config(_build_parser().parse_args(["summary", "--config", str(cfg)]))
        from_flag = _resolve_config(_build_parser().parse_args(["summary", flag, good]))
        assert from_file == from_flag != AppConfig()

        for bad in bad_values:
            cfg.write_text(f"data = {data_csv}\n{setting.key} = {bad}\n")
            assert _exit_code(["summary", "--config", str(cfg)]) == 2, bad
            assert _exit_code(["summary", "--data", data_csv, flag, bad]) == 2, bad
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

    def test_out_of_range_setting_is_a_usage_error(self, capsys):
        assert _exit_code(["summary", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("fairchase summary: error: argument --seed: seed must be at least 0, got -1\n")
        assert _exit_code(["report", "--target-grid", ","]) == 2
        err = capsys.readouterr().err
        assert err.endswith("fairchase report: error: argument --target-grid: target_grid must list at least one target\n")

    @pytest.mark.parametrize("key", ["quantile_cap", "curve_max_score"])
    def test_setting_ceiling_is_the_largest_count_score(self, key, data_csv, tmp_path, capsys):
        # the boundary is only parsed: a command run there allocates arrays of 1e7 scores
        (setting,) = [s for s in SETTINGS if s.key == key]
        assert setting.parse("10000000") == 10_000_000
        flag = "--" + key.replace("_", "-")
        message = f"{key} must be at most 10000000, got 10000001\n"
        assert _exit_code(["summary", "--data", data_csv, flag, "10000001"]) == 2
        assert capsys.readouterr().err.endswith(f"fairchase summary: error: argument {flag}: {message}")
        cfg = tmp_path / "app.cfg"
        cfg.write_text(f"data = {data_csv}\n{key} = 10000001\n")
        assert _exit_code(["summary", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: config line 2: {message}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["revise", "--venue", "venue01", "--target", "-5"],
            ["simulate", "--venue", "venue01", "--target", "330", "--trials", "0"],
            ["generate", "--num-venues", "0"],
            ["generate", "--matches", "1"],
        ],
        ids=lambda argv: argv[-2],
    )
    def test_out_of_range_command_integer_is_a_usage_error(self, argv, data_csv, capsys):
        assert _exit_code([*argv, "--data", data_csv]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: " in err
        assert "below 300" not in err

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
    def test_cli_import_leaves_statistics_and_scipy_unloaded(self):
        proc = _run_python(
            "-c",
            "import sys, fairchase.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('statistics', 'scipy')))",
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

    def test_all_lists_the_public_names_the_root_binds(self):
        public = {
            name
            for name, value in vars(fairchase).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert sorted(fairchase.__all__) == sorted(public)

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

    def test_python_examples_run(self, tmp_path, monkeypatch):
        """Every python block of the README runs, in order in one namespace,
        next to the odi.csv that `fairchase generate --seed 0` writes."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--seed", "0", "--out", "odi.csv"]) == 0
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)

    def test_exit_codes_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for snippet in ("0", "2", "3", "4"):
            assert snippet in readme
        assert "exit code" in readme.lower()
