"""Ingestion, classification, and summary-table behavior."""

from __future__ import annotations

import dataclasses
import datetime as dt
import inspect
import io
import math
import pickle
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairchase import (
    CSV_HEADER,
    CaseLabel,
    DuplicateMatchId,
    EmptyVenue,
    InconsistentOutcome,
    MalformedRow,
    MatchRecord,
    OVERALL_VENUE,
    Outcome,
    UnknownVenue,
    categorize,
    parse_matches,
    resolve_venue,
    round_half_away,
    serialize_matches,
    summarize,
    summary_to_csv,
    summary_to_json,
    venue_names,
)

from conftest import record

HEADER_LINE = ",".join(CSV_HEADER)
GOLDEN_DATA = Path(__file__).resolve().parent / "golden" / "matches.csv"


def parse_text(body: str) -> list[MatchRecord]:
    return parse_matches(io.StringIO(HEADER_LINE + "\n" + body))


#: Each malformed row and the exact message parse_matches gives for it.
MALFORMED_ROWS = {
    "m1,Sydney,,248,200,BatFirstWin": "row 2: expected 7 fields, got 6",
    "m1,Sydney,,24x,200,BatFirstWin,false": "row 2: first_innings_runs must be a non-negative integer, got '24x'",
    "m1,Sydney,,-3,200,BatFirstWin,false": "row 2: first_innings_runs must be a non-negative integer, got '-3'",
    "m1,Sydney,,248,200,HomeWin,false": (
        "row 2: outcome must be one of ['BatFirstWin', 'BatSecondWin', 'Tie', 'NoResult'], got 'HomeWin'"
    ),
    "m1,Sydney,,248,200,BatFirstWin,maybe": "row 2: reduced_overs must be true or false, got 'maybe'",
    "m1,Sydney,01/02/2001,248,200,BatFirstWin,false": "row 2: date must be YYYY-MM-DD or empty, got '01/02/2001'",
    ",Sydney,,248,200,BatFirstWin,false": "row 2: match_id must be non-empty",
    "m1,,,248,200,BatFirstWin,false": "row 2: venue must be non-empty and trimmed, got ''",
    "m1,overall,,248,200,BatFirstWin,false": "row 2: venue name 'overall' is reserved for the pooled entry",
}


#: Each value rule: a row's match_id, venue, runs and outcome, and the error
#: that parse_matches (after "row 2: "), MatchRecord(...) and
#: dataclasses.replace all raise.
VALUE_RULES = [
    pytest.param("", "Sydney", 248, 200, "BatFirstWin", MalformedRow, "match_id must be non-empty", id="empty-id"),
    pytest.param(
        "m1", "", 248, 200, "BatFirstWin", MalformedRow, "venue must be non-empty and trimmed, got ''", id="empty-venue"
    ),
    pytest.param(
        "m1", "OverAll", 248, 200, "BatFirstWin", MalformedRow,
        "venue name 'overall' is reserved for the pooled entry", id="reserved-venue-any-case",
    ),
    pytest.param(
        "m\x001", "Sydney", 248, 200, "BatFirstWin", MalformedRow,
        "match_id and venue must not contain NUL, got 'm\\x001' and 'Sydney'", id="nul-in-id",
    ),
    pytest.param(
        "m1", "Syd\x00ney", 248, 200, "BatFirstWin", MalformedRow,
        "match_id and venue must not contain NUL, got 'm1' and 'Syd\\x00ney'", id="nul-in-venue",
    ),
    pytest.param(
        "m1", "Sydney", 200, 248, "BatFirstWin", InconsistentOutcome,
        "outcome BatFirstWin requires second innings (248) below first (200)", id="bat-first-win-second-on-top",
    ),
    pytest.param(
        "m1", "Sydney", 250, 240, "BatSecondWin", InconsistentOutcome,
        "outcome BatSecondWin requires second innings (240) above first (250)", id="bat-second-win-first-on-top",
    ),
    pytest.param(
        "m1", "Sydney", 250, 240, "Tie", InconsistentOutcome, "tie requires equal scores, got 250 and 240", id="unequal-tie"
    ),
]


class TestParse:
    def test_single_row_maps_fields(self):
        rows = parse_text("m1,Sydney,2001-01-01,248,200,BatFirstWin,false\n")
        assert len(rows) == 1
        rec = rows[0]
        assert rec.match_id == "m1"
        assert rec.venue == "Sydney"
        assert rec.date.isoformat() == "2001-01-01"
        assert rec.first_innings_runs == 248
        assert rec.second_innings_runs == 200
        assert rec.outcome is Outcome.BAT_FIRST_WIN
        assert rec.reduced_overs is False

    def test_header_only_gives_empty_list(self):
        assert parse_text("") == []

    @pytest.mark.parametrize(
        "row, message",
        [
            ("m1,Sydney,,250,240,BatSecondWin,false", "outcome BatSecondWin requires second innings (240) above first (250)"),
            ("m1,Sydney,,200,248,BatFirstWin,false", "outcome BatFirstWin requires second innings (248) below first (200)"),
        ],
        ids=["BatSecondWin", "BatFirstWin"],
    )
    def test_contradictory_outcome_rejected_with_row_number(self, row, message):
        with pytest.raises(InconsistentOutcome) as exc_info:
            parse_text(row + "\n")
        assert exc_info.value.row == 2
        assert str(exc_info.value) == f"row 2: {message}"

    def test_duplicate_match_id_rejected(self):
        body = (
            "m1,Sydney,,248,200,BatFirstWin,false\n"
            "m1,Perth,,230,231,BatSecondWin,false\n"
        )
        with pytest.raises(DuplicateMatchId) as exc_info:
            parse_text(body)
        assert exc_info.value.row == 3
        # a blank line is skipped but still counted
        with pytest.raises(DuplicateMatchId) as exc_info:
            parse_text(body.replace("\n", "\n\n", 1))
        assert str(exc_info.value) == "row 4: match_id 'm1' already seen"

    def test_wrong_header_rejected(self):
        with pytest.raises(MalformedRow):
            parse_matches(io.StringIO("id,venue\nx,y\n"))

    def test_empty_stream_rejected(self):
        with pytest.raises(MalformedRow):
            parse_matches(io.StringIO(""))

    @pytest.mark.parametrize("row", list(MALFORMED_ROWS))
    def test_malformed_rows_rejected(self, row):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(row + "\n")
        assert exc_info.value.row == 2
        assert str(exc_info.value) == MALFORMED_ROWS[row]

    @pytest.mark.parametrize(
        "body, error, message",
        [
            pytest.param(
                "m1,Sydney,01/02/2001,250,240,BatSecondWin,false",
                MalformedRow,
                "row 2: date must be YYYY-MM-DD or empty, got '01/02/2001'",
                id="text-rule-before-outcome",
            ),
            pytest.param(
                ",Sydney,,24x,200,BatFirstWin,false",
                MalformedRow,
                "row 2: first_innings_runs must be a non-negative integer, got '24x'",
                id="text-rule-before-empty-id",
            ),
            pytest.param(
                "m1,Sydney,,248,200,BatFirstWin,false\nm1,Perth,,250,240,BatSecondWin,false",
                InconsistentOutcome,
                "row 3: outcome BatSecondWin requires second innings (240) above first (250)",
                id="row-rule-before-duplicate-id",
            ),
            pytest.param(
                ",,,250,240,BatSecondWin,false",
                MalformedRow,
                "row 2: match_id must be non-empty",
                id="empty-id-before-venue-and-outcome",
            ),
        ],
    )
    def test_first_broken_rule_is_reported(self, body, error, message):
        with pytest.raises(error) as exc_info:
            parse_text(body + "\n")
        assert type(exc_info.value) is error
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "runs",
        [
            "2_50", " 260", "260 ", "+5", "-0", "\u0661\u0662", "\uff12\uff15\uff10", "2\u00b2", "1e3", "", "2\r5",
            pytest.param("9" * 5000, id="more-digits-than-int-converts"),
        ],
    )
    def test_runs_must_be_plain_ascii_digits(self, runs):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(f"m1,Sydney,,{runs},200,BatFirstWin,false\n")
        assert exc_info.value.row == 2

    def test_unknown_outcome_message(self):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text("m1,Sydney,,248,200,HomeWin,false\n")
        assert str(exc_info.value) == (
            "row 2: outcome must be one of ['BatFirstWin', 'BatSecondWin', 'Tie', 'NoResult'], got 'HomeWin'"
        )

    def test_runs_with_leading_zeros_accepted(self):
        assert parse_text("m1,Sydney,,0248,0,BatFirstWin,false\n")[0].first_innings_runs == 248

    @pytest.mark.parametrize(
        "date",
        [
            "20240101",
            "2024-W01-1",
            "2024-001",
            "2024-1-01",
            " 2024-01-01",
            "2024-01-01 ",
            "2024-01-01T00:00",
            "\uff12\uff10\uff12\uff14-01-01",
            "2024-02-30",
            "2024-13-01",
        ],
    )
    def test_date_must_be_yyyy_mm_dd(self, date):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(f"m1,Sydney,{date},248,200,BatFirstWin,false\n")
        assert exc_info.value.row == 2

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=12))
    def test_runs_accepted_exactly_when_ascii_digits(self, text):
        expected_ok = text != "" and all("0" <= c <= "9" for c in text)
        row = ",".join(["m1", "Sydney", "", "1000000", text, "BatFirstWin", "false"])
        try:
            records = parse_matches(io.StringIO(HEADER_LINE + "\n" + row + "\n"))
        except MalformedRow:
            assert not expected_ok
        except InconsistentOutcome:
            assert expected_ok  # parsed, then too high for the outcome
        else:
            assert expected_ok and records[0].second_innings_runs == int(text)

    @settings(max_examples=200, deadline=None)
    @given(day=st.dates(min_value=dt.date(1, 1, 1)))
    def test_every_calendar_date_round_trips(self, day):
        text = f"{day.year:04d}-{day.month:02d}-{day.day:02d}"
        assert parse_text(f"m1,Sydney,{text},248,200,BatFirstWin,false\n")[0].date == day

    def test_tie_with_unequal_scores_rejected(self):
        with pytest.raises(InconsistentOutcome):
            parse_text("m1,Sydney,,250,240,Tie,false\n")

    def test_date_may_be_empty(self):
        rows = parse_text("m1,Sydney,,248,200,BatFirstWin,false\n")
        assert rows[0].date is None

    @pytest.mark.parametrize("match_id, venue", [("m\x001", "Sydney"), ("m1", "Syd\x00ney")], ids=["match_id", "venue"])
    def test_nul_rejected_on_every_python(self, match_id, venue):
        """From 3.11 csv reads a NUL that 3.10 refuses and its writer cannot quote, so the record refuses it."""
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(f"{match_id},{venue},,248,200,BatFirstWin,false\n")
        assert exc_info.value.row == 2
        with pytest.raises(MalformedRow) as exc_info:
            MatchRecord(match_id, venue, None, 248, 200, Outcome.BAT_FIRST_WIN, False)
        assert str(exc_info.value) == f"match_id and venue must not contain NUL, got {match_id!r} and {venue!r}"

    def test_record_built_directly_rejects_negative_runs(self):
        with pytest.raises(MalformedRow, match="^innings runs must be non-negative$"):
            MatchRecord("m1", "Sydney", None, -1, 200, Outcome.BAT_SECOND_WIN, False)

    @pytest.mark.parametrize("match_id, venue, first, second, outcome, error, message", VALUE_RULES)
    def test_parser_and_constructor_equally_strict(self, match_id, venue, first, second, outcome, error, message):
        row = f"{match_id},{venue},,{first},{second},{outcome},false"
        parsed_message = f"row 2: {message}"
        if "\x00" in row and sys.version_info < (3, 11):
            parsed_message = "row 2: unreadable CSV: line contains NUL"  # this csv reader refuses NUL itself
        with pytest.raises(error) as parsed:
            parse_text(row + "\n")
        assert type(parsed.value) is error and str(parsed.value) == parsed_message
        with pytest.raises(error) as built:
            MatchRecord(match_id, venue, None, first, second, Outcome(outcome), False)
        assert type(built.value) is error and str(built.value) == message
        valid = MatchRecord("m0", "Perth", None, 250, 200, Outcome.BAT_FIRST_WIN, False)
        bad = dict(match_id=match_id, venue=venue, first_innings_runs=first, second_innings_runs=second,
                   outcome=Outcome(outcome))
        with pytest.raises(error) as replaced:
            dataclasses.replace(valid, **bad)
        assert type(replaced.value) is error and str(replaced.value) == message

    def test_constructor_takes_the_fields_in_csv_order(self):
        """The hand-written constructor's parameters are the record's fields and the CSV header."""
        fields = [f.name for f in dataclasses.fields(MatchRecord)]
        assert list(inspect.signature(MatchRecord).parameters) == fields == list(CSV_HEADER)

    @pytest.mark.parametrize("source", ["golden", "generated"])
    def test_parsed_records_are_the_constructors_records(self, source, synthetic_records):
        parsed = parse_matches(GOLDEN_DATA if source == "golden" else io.StringIO(serialize_matches(synthetic_records)))
        built = [MatchRecord(*dataclasses.astuple(rec)) for rec in parsed]
        assert parsed == built
        assert [vars(rec) for rec in parsed] == [vars(rec) for rec in built]
        assert [hash(rec) for rec in parsed] == [hash(rec) for rec in built]
        assert pickle.loads(pickle.dumps(parsed)) == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed[0].venue = "Perth"
        with pytest.raises(MalformedRow, match="^venue name 'overall' is reserved for the pooled entry$"):
            dataclasses.replace(parsed[0], venue="overall")

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(
                HEADER_LINE.encode() + b"\nm1,Syd\xffney,,250,200,BatFirstWin,false\n",
                "unreadable CSV: not UTF-8 (invalid start byte)",
                id="not-utf-8",
            ),
        ],
    )
    def test_undecodable_file_is_a_malformed_row(self, tmp_path, data, message):
        """The text layer decodes ahead of the reader, so a decode error carries no row."""
        path = tmp_path / "matches.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedRow) as exc_info:
            parse_matches(path)
        assert str(exc_info.value) == message

    def test_byte_order_mark_accepted(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark."""
        path = tmp_path / "matches.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOLDEN_DATA.read_bytes())
        assert parse_matches(path) == parse_matches(GOLDEN_DATA)

    def test_path_accepted(self, tmp_path):
        path = tmp_path / "matches.csv"
        path.write_text(HEADER_LINE + "\nm1,Sydney,,248,200,BatFirstWin,false\n")
        assert len(parse_matches(path)) == 1


class TestCategorize:
    def test_single_decisive_match(self):
        rows = parse_text("m1,Sydney,,248,200,BatFirstWin,false\n")
        dataset = categorize(rows)
        samples = dataset["Sydney"]
        assert samples[CaseLabel.BAT_FIRST_WIN] == (248,)
        assert samples[CaseLabel.BAT_SECOND_LOSE] == (200,)
        assert samples[CaseLabel.BAT_SECOND_WIN] == ()
        assert samples[CaseLabel.BAT_FIRST_LOSE] == ()

    def test_tie_contributes_nothing(self):
        rows = parse_text("m1,Sydney,,240,240,Tie,false\n")
        samples = categorize(rows)["Sydney"]
        assert all(samples[label] == () for label in CaseLabel)

    def test_reduced_overs_excluded(self, tiny_records):
        dataset = categorize(tiny_records)
        assert 300 not in dataset["Beta"][CaseLabel.BAT_FIRST_WIN]

    def test_exclusions_and_pooling(self, tiny_records):
        dataset = categorize(tiny_records)
        assert venue_names(dataset) == ["Alpha", "Beta", OVERALL_VENUE]
        overall = dataset[OVERALL_VENUE]
        assert overall[CaseLabel.BAT_FIRST_WIN] == (180, 250)
        assert overall[CaseLabel.BAT_SECOND_WIN] == (221, 261)
        assert overall[CaseLabel.BAT_SECOND_LOSE] == (150, 200)
        assert overall[CaseLabel.BAT_FIRST_LOSE] == (220, 260)

    def test_two_scores_per_decisive_match(self, tiny_records):
        dataset = categorize(tiny_records)
        decisive = sum(
            1
            for r in tiny_records
            if r.outcome in (Outcome.BAT_FIRST_WIN, Outcome.BAT_SECOND_WIN) and not r.reduced_overs
        )
        overall = dataset[OVERALL_VENUE]
        assert sum(len(overall[label]) for label in CaseLabel) == 2 * decisive

    def test_venue_merge_is_case_insensitive(self):
        rows = parse_text(
            "m1,sydney,,248,200,BatFirstWin,false\nm2,Sydney,,230,231,BatSecondWin,false\n"
        )
        dataset = categorize(rows)
        names = venue_names(dataset)
        assert names == ["Sydney", OVERALL_VENUE]
        assert dataset["Sydney"][CaseLabel.BAT_FIRST_WIN] == (248,)
        assert dataset["Sydney"][CaseLabel.BAT_SECOND_WIN] == (231,)

    def test_empty_input_has_no_overall(self):
        assert categorize([]) == {}

    def test_resolve_venue(self, tiny_records):
        dataset = categorize(tiny_records)
        assert resolve_venue(dataset, "ALPHA") == "Alpha"
        with pytest.raises(UnknownVenue):
            resolve_venue(dataset, "Gamma")


outcome_strategy = st.sampled_from(list(Outcome))


@st.composite
def match_records(draw, index: int):
    outcome = draw(outcome_strategy)
    venue = draw(st.sampled_from(["Alpha", "alpha", "ALPHA", "Beta", "beta", "Gamma"]))
    reduced = draw(st.booleans())
    first = draw(st.integers(min_value=1, max_value=400))
    if outcome is Outcome.BAT_FIRST_WIN:
        second = draw(st.integers(min_value=0, max_value=first - 1))
    elif outcome is Outcome.BAT_SECOND_WIN:
        second = draw(st.integers(min_value=first + 1, max_value=first + 100))
    elif outcome is Outcome.TIE:
        second = first
    else:
        second = draw(st.integers(min_value=0, max_value=400))
    return MatchRecord(
        match_id=f"m{index}",
        venue=venue,
        date=None,
        first_innings_runs=first,
        second_innings_runs=second,
        outcome=outcome,
        reduced_overs=reduced,
    )


@st.composite
def record_lists(draw):
    size = draw(st.integers(min_value=0, max_value=30))
    return [draw(match_records(i)) for i in range(size)]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_serialize_parse_round_trip(self, records):
        assert parse_matches(io.StringIO(serialize_matches(records))) == records

    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_round_trip_quotes_carriage_returns(self, records):
        """csv quotes only the line terminator's "\\n", so a "\\r" row is written quoted, and no other byte moves."""
        text = serialize_matches(records)
        cr = MatchRecord("m\r999", "Port\rElizabeth", None, 250, 200, Outcome.BAT_FIRST_WIN, False)
        written = serialize_matches([*records, cr])
        assert written.startswith(text)
        assert parse_matches(io.StringIO(written)) == [*records, cr]

    @settings(max_examples=60, deadline=None)
    @given(record_lists(), st.randoms())
    def test_categorize_permutation_invariant(self, records, rng):
        """Same venues in the same order, each under its lexicographically least spelling."""
        shuffled = list(records)
        rng.shuffle(shuffled)
        dataset = categorize(records)
        assert list(categorize(shuffled).items()) == list(dataset.items())
        spellings: dict[str, str] = {}
        for rec in records:
            key = rec.venue.casefold()
            spellings[key] = min(spellings.get(key, rec.venue), rec.venue)
        assert [v for v in dataset if v != OVERALL_VENUE] == sorted(spellings.values())

    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_samples_are_sorted_int_tuples(self, records):
        for samples in categorize(records).values():
            assert list(samples) == list(CaseLabel)
            for scores in samples.values():
                assert type(scores) is tuple and all(type(x) is int for x in scores)
                assert list(scores) == sorted(scores)

    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_win_percentage_identity(self, records):
        dataset = categorize(records)
        for row in summarize(dataset):
            samples = dataset[row.venue]
            n_first = len(samples[CaseLabel.BAT_FIRST_WIN])
            n_second = len(samples[CaseLabel.BAT_SECOND_WIN])
            assert row.total_matches == n_first + n_second
            assert row.pct_bat_first_win == 100.0 * n_first / row.total_matches
            assert row.pct_bat_first_win + row.pct_bat_second_win == pytest.approx(
                100.0, abs=1e-9
            )

    @settings(max_examples=60, deadline=None)
    @given(record_lists())
    def test_case_sizes_pair_and_count_decisive_records(self, records):
        """Each decisive full-length match gives one winner's and one loser's score, under its venue's casefold."""
        dataset = categorize(records)
        wins: dict[tuple[str, Outcome], int] = {}
        for rec in records:
            if rec.outcome in (Outcome.BAT_FIRST_WIN, Outcome.BAT_SECOND_WIN) and not rec.reduced_overs:
                for venue in (rec.venue.casefold(), OVERALL_VENUE):
                    wins[venue, rec.outcome] = wins.get((venue, rec.outcome), 0) + 1
        for venue, samples in dataset.items():
            sizes = {label: len(scores) for label, scores in samples.items()}
            assert sizes[CaseLabel.BAT_FIRST_WIN] == sizes[CaseLabel.BAT_SECOND_LOSE]
            assert sizes[CaseLabel.BAT_SECOND_WIN] == sizes[CaseLabel.BAT_FIRST_LOSE]
            assert sizes[CaseLabel.BAT_FIRST_WIN] == wins.get((venue.casefold(), Outcome.BAT_FIRST_WIN), 0)
            assert sizes[CaseLabel.BAT_SECOND_WIN] == wins.get((venue.casefold(), Outcome.BAT_SECOND_WIN), 0)


class TestSummarize:
    def test_single_match_venue(self):
        rows = parse_text("m1,Sydney,,248,200,BatFirstWin,false\n")
        summary = summarize(categorize(rows))
        sydney = next(r for r in summary if r.venue == "Sydney")
        assert sydney.total_matches == 1
        assert sydney.pct_bat_first_win == 100.0
        assert sydney.avg_bat_first_win == 248.0
        assert sydney.avg_bat_second_lose == 200.0
        assert math.isnan(sydney.avg_bat_second_win)

    def test_overall_row_is_last(self, tiny_records):
        summary = summarize(categorize(tiny_records))
        assert [r.venue for r in summary] == ["Alpha", "Beta", OVERALL_VENUE]

    def test_requested_empty_venue_raises(self):
        rows = parse_text("m1,Sydney,,240,240,Tie,false\n")
        dataset = categorize(rows)
        with pytest.raises(EmptyVenue):
            summarize(dataset, venues=["Sydney"])

    def test_unrequested_empty_venue_skipped(self):
        body = "m1,Sydney,,240,240,Tie,false\nm2,Perth,,250,200,BatFirstWin,false\n"
        summary = summarize(categorize(parse_text(body)))
        assert [r.venue for r in summary] == ["Perth", OVERALL_VENUE]

    def test_venue_filter(self, tiny_records):
        summary = summarize(categorize(tiny_records), venues=["beta"])
        assert [r.venue for r in summary] == ["Beta"]

    def test_csv_display_rounding(self, tiny_records):
        text = summary_to_csv(summarize(categorize(tiny_records)))
        lines = text.splitlines()
        assert lines[0] == (
            "venue,total_matches,pct_bat_first_win,avg_bat_first_win,"
            "avg_bat_second_lose,pct_bat_second_win,avg_bat_second_win,"
            "avg_bat_first_lose"
        )
        # Alpha: 1 of 2 decisive won batting first; averages are singletons.
        assert lines[1] == "Alpha,2,50.0,250,200,50.0,221,220"

    def test_json_mirrors_csv_values(self, tiny_records):
        import json

        doc = json.loads(summary_to_json(summarize(categorize(tiny_records))))
        alpha = doc[0]
        assert alpha["venue"] == "Alpha"
        assert alpha["pct_bat_first_win"] == 50.0
        assert alpha["avg_bat_first_win"] == 250

    def test_empty_average_serializes_blank(self):
        rows = parse_text("m1,Sydney,,248,200,BatFirstWin,false\n")
        text = summary_to_csv(summarize(categorize(rows), venues=["Sydney"]))
        assert text.splitlines()[1] == "Sydney,1,100.0,248,200,0.0,,"


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (1.5, 2), (2.5, 3), (2.4, 2), (-0.5, -1), (-1.5, -2), (200.0, 200)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected

    def test_one_decimal(self):
        # 59.25 is exactly representable, so the half case is genuine
        assert round_half_away(59.25, 1) == 59.3
        assert round_half_away(59.1499, 1) == 59.1
