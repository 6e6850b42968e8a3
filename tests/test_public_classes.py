"""The 13 frozen public classes as the README documents them: equality,
hashing, repr and a pickle round trip for each, `asdict` on each params
class and `dataclasses.replace` on a `MatchRecord`; fields that can be
neither assigned nor deleted; and each constructor's signature, whose
parameters are the fields, with their types and defaults.

Each case builds one instance twice and names a second instance that must
compare unequal to it. The reprs are today's, character for character, so a
change to how any class is built shows here first.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import inspect
import pickle

import pytest

from fairchase import (
    CaseLabel,
    Family,
    FitConfig,
    FittedDist,
    LogisticParams,
    MatchRecord,
    NegBinParams,
    NormalParams,
    Outcome,
    RevisionModel,
    RevisionReport,
    SimResult,
    SummaryRow,
    SyntheticVenueSpec,
    TargetCell,
    cdf,
)
from fairchase.config import AppConfig

NB = "FittedDist(params=NegBinParams(n=8.0, p=0.04), sample_size=0, log_likelihood=0.0, degenerate=False)"
CELL = "TargetCell(venue='Perth', family=<Family.NEGBIN: 'negbin'>, actual=330, revised=312, q_internal=0.8125, status='ok')"


def _cell() -> TargetCell:
    return TargetCell("Perth", Family.NEGBIN, 330, 312, 0.8125, "ok")


def _record(match_id: str = "m1") -> MatchRecord:
    return MatchRecord(match_id, "Perth", dt.date(2019, 1, 5), 250, 200, Outcome.BAT_FIRST_WIN, False)


def _spec(bat_first_wins: int) -> SyntheticVenueSpec:
    return SyntheticVenueSpec("venue01", bat_first_wins, 18, {label: FittedDist.negbin(8.0, 0.04) for label in CaseLabel})


#: class name -> (a factory, an unequal instance, the factory's repr)
CASES = {
    "AppConfig": (
        lambda: AppConfig(data="odi.csv", venues=("Perth",), family=Family.NORMAL, target_grid=(300, 330)),
        AppConfig(),
        "AppConfig(data='odi.csv', venues=('Perth',), family=<Family.NORMAL: 'normal'>, target_grid=(300, 330), "
        "min_sample_size=10, quantile_cap=2000, format='csv', seed=0, curve_max_score=600)",
    ),
    "FitConfig": (lambda: FitConfig(12, 1500), FitConfig(), "FitConfig(min_sample_size=12, quantile_cap=1500)"),
    "NegBinParams": (lambda: NegBinParams(8.0, 0.04), NegBinParams(8.0, 0.05), "NegBinParams(n=8.0, p=0.04)"),
    "NormalParams": (lambda: NormalParams(200.0, 30.0), LogisticParams(200.0, 30.0), "NormalParams(mu=200.0, sigma=30.0)"),
    "LogisticParams": (lambda: LogisticParams(200.0, 18.0), NormalParams(200.0, 18.0), "LogisticParams(mu=200.0, s=18.0)"),
    "FittedDist": (
        lambda: FittedDist(NegBinParams(8.0, 0.04), 120, -650.5, True),
        FittedDist.negbin(8.0, 0.04),
        "FittedDist(params=NegBinParams(n=8.0, p=0.04), sample_size=120, log_likelihood=-650.5, degenerate=True)",
    ),
    "MatchRecord": (
        _record,
        _record("m2"),
        "MatchRecord(match_id='m1', venue='Perth', date=datetime.date(2019, 1, 5), first_innings_runs=250, "
        "second_innings_runs=200, outcome=<Outcome.BAT_FIRST_WIN: 'BatFirstWin'>, reduced_overs=False)",
    ),
    "SummaryRow": (
        lambda: SummaryRow("Perth", 40, 55.0, 250.5, 200.25, 45.0, 240.0, 230.5),
        SummaryRow("overall", 40, 55.0, 250.5, 200.25, 45.0, 240.0, 230.5),
        "SummaryRow(venue='Perth', total_matches=40, pct_bat_first_win=55.0, avg_bat_first_win=250.5, "
        "avg_bat_second_lose=200.25, pct_bat_second_win=45.0, avg_bat_second_win=240.0, avg_bat_first_lose=230.5)",
    ),
    "RevisionModel": (
        lambda: RevisionModel("Perth", 1.25, FittedDist.negbin(8.0, 0.04), FittedDist.negbin(8.0, 0.04), 2000),
        RevisionModel("Perth", 1.25, FittedDist.negbin(8.0, 0.04), FittedDist.negbin(8.0, 0.04), 1500),
        f"RevisionModel(venue='Perth', win_ratio=1.25, dist_bat_first_win={NB}, dist_bat_second_win={NB}, quantile_cap=2000)",
    ),
    "TargetCell": (_cell, TargetCell("Perth", Family.NEGBIN, 330, None, None, "unattainable"), CELL),
    "RevisionReport": (
        lambda: RevisionReport((Family.NEGBIN,), (330,), (_cell(),)),
        RevisionReport((Family.NEGBIN,), (330,), ()),
        f"RevisionReport(families=(<Family.NEGBIN: 'negbin'>,), target_grid=(330,), cells=({CELL},))",
    ),
    "SimResult": (
        lambda: SimResult("Perth", 330, 312, 1.25, 0.4, 0.001, 0.5, 0.002, 100000),
        SimResult("Perth", 330, 312, 1.25, 0.4, 0.001, 0.5, 0.002, 10),
        "SimResult(venue='Perth', actual_target=330, revised_target=312, win_ratio=1.25, est_first_exceed=0.4, "
        "se_first_exceed=0.001, est_second_exceed=0.5, se_second_exceed=0.002, trials=100000)",
    ),
    "SyntheticVenueSpec": (
        lambda: _spec(20),
        _spec(21),
        "SyntheticVenueSpec(venue='venue01', bat_first_wins=20, bat_second_wins=18, case_dists={"
        + ", ".join(f"{label!r}: {NB}" for label in CaseLabel)
        + "})",
    ),
}

#: The params classes' asdict, which fitted_to_dict writes as a fit's "params".
AS_DICT = {
    "NegBinParams": {"n": 8.0, "p": 0.04},
    "NormalParams": {"mu": 200.0, "sigma": 30.0},
    "LogisticParams": {"mu": 200.0, "s": 18.0},
}


@pytest.mark.parametrize("name", CASES)
def test_public_class_contract(name):
    make, other, text = CASES[name]
    one, two = make(), make()
    assert type(one).__name__ == name and one is not two
    assert one == two and not one != two and one != other and not one == other
    assert repr(one) == text
    copy = pickle.loads(pickle.dumps(one))
    assert type(copy) is type(one) and copy == one and repr(copy) == text
    if name == "SyntheticVenueSpec":  # its case_dists is a dict
        with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
            hash(one)
    else:
        assert hash(one) == hash(two) == hash(copy) and {one, two, copy} == {one}
    if name in AS_DICT:
        assert dataclasses.asdict(one) == AS_DICT[name]
    if name == "MatchRecord":
        moved = dataclasses.replace(one, venue="Sydney", reduced_overs=True)
        assert moved == MatchRecord("m1", "Sydney", dt.date(2019, 1, 5), 250, 200, Outcome.BAT_FIRST_WIN, True)


#: Each constructor's signature, as dataclass(frozen=True) generated it. The
#: parameters are the fields.
SIGNATURES = {
    "AppConfig": "(data: 'str | None' = None, venues: 'tuple[str, ...] | None' = None, family: 'Family | None' = None, "
    "target_grid: 'tuple[int, ...]' = (300, 315, 330, 340, 350), min_sample_size: 'int' = 10, "
    "quantile_cap: 'int' = 2000, format: 'str' = 'csv', seed: 'int' = 0, curve_max_score: 'int' = 600) -> None",
    "FitConfig": "(min_sample_size: 'int' = 10, quantile_cap: 'int' = 2000) -> None",
    "NegBinParams": "(n: 'float', p: 'float') -> None",
    "NormalParams": "(mu: 'float', sigma: 'float') -> None",
    "LogisticParams": "(mu: 'float', s: 'float') -> None",
    "FittedDist": "(params: 'Params', sample_size: 'int' = 0, log_likelihood: 'float' = 0.0, "
    "degenerate: 'bool' = False) -> None",
    "MatchRecord": "(match_id: 'str', venue: 'str', date: 'dt.date | None', first_innings_runs: 'int', "
    "second_innings_runs: 'int', outcome: 'Outcome', reduced_overs: 'bool') -> None",
    "SummaryRow": "(venue: 'str', total_matches: 'int', pct_bat_first_win: 'float', avg_bat_first_win: 'float', "
    "avg_bat_second_lose: 'float', pct_bat_second_win: 'float', avg_bat_second_win: 'float', "
    "avg_bat_first_lose: 'float') -> None",
    "RevisionModel": "(venue: 'str', win_ratio: 'float', dist_bat_first_win: 'FittedDist', "
    "dist_bat_second_win: 'FittedDist', quantile_cap: 'int') -> None",
    "TargetCell": "(venue: 'str', family: 'Family', actual: 'int', revised: 'int | None', q_internal: 'float | None', "
    "status: 'str') -> None",
    "RevisionReport": "(families: 'tuple[Family, ...]', target_grid: 'tuple[int, ...]', "
    "cells: 'tuple[TargetCell, ...]') -> None",
    "SimResult": "(venue: 'str', actual_target: 'int', revised_target: 'int', win_ratio: 'float', "
    "est_first_exceed: 'float', se_first_exceed: 'float', est_second_exceed: 'float', se_second_exceed: 'float', "
    "trials: 'int') -> None",
    "SyntheticVenueSpec": "(venue: 'str', bat_first_wins: 'int', bat_second_wins: 'int', "
    "case_dists: 'Mapping[CaseLabel, FittedDist]') -> None",
}

#: Each class's dataclass fields as (name, type, default); M marks a field without a default.
M = dataclasses.MISSING
FIELDS = {
    "AppConfig": (
        ("data", "str | None", None), ("venues", "tuple[str, ...] | None", None), ("family", "Family | None", None),
        ("target_grid", "tuple[int, ...]", (300, 315, 330, 340, 350)), ("min_sample_size", "int", 10),
        ("quantile_cap", "int", 2000), ("format", "str", "csv"), ("seed", "int", 0), ("curve_max_score", "int", 600),
    ),
    "FitConfig": (("min_sample_size", "int", 10), ("quantile_cap", "int", 2000)),
    "NegBinParams": (("n", "float", M), ("p", "float", M)),
    "NormalParams": (("mu", "float", M), ("sigma", "float", M)),
    "LogisticParams": (("mu", "float", M), ("s", "float", M)),
    "FittedDist": (
        ("params", "Params", M), ("sample_size", "int", 0), ("log_likelihood", "float", 0.0), ("degenerate", "bool", False),
    ),
    "MatchRecord": (
        ("match_id", "str", M), ("venue", "str", M), ("date", "dt.date | None", M), ("first_innings_runs", "int", M),
        ("second_innings_runs", "int", M), ("outcome", "Outcome", M), ("reduced_overs", "bool", M),
    ),
    "SummaryRow": (
        ("venue", "str", M), ("total_matches", "int", M), ("pct_bat_first_win", "float", M),
        ("avg_bat_first_win", "float", M), ("avg_bat_second_lose", "float", M), ("pct_bat_second_win", "float", M),
        ("avg_bat_second_win", "float", M), ("avg_bat_first_lose", "float", M),
    ),
    "RevisionModel": (
        ("venue", "str", M), ("win_ratio", "float", M), ("dist_bat_first_win", "FittedDist", M),
        ("dist_bat_second_win", "FittedDist", M), ("quantile_cap", "int", M),
    ),
    "TargetCell": (
        ("venue", "str", M), ("family", "Family", M), ("actual", "int", M), ("revised", "int | None", M),
        ("q_internal", "float | None", M), ("status", "str", M),
    ),
    "RevisionReport": (
        ("families", "tuple[Family, ...]", M), ("target_grid", "tuple[int, ...]", M),
        ("cells", "tuple[TargetCell, ...]", M),
    ),
    "SimResult": (
        ("venue", "str", M), ("actual_target", "int", M), ("revised_target", "int", M), ("win_ratio", "float", M),
        ("est_first_exceed", "float", M), ("se_first_exceed", "float", M), ("est_second_exceed", "float", M),
        ("se_second_exceed", "float", M), ("trials", "int", M),
    ),
    "SyntheticVenueSpec": (
        ("venue", "str", M), ("bat_first_wins", "int", M), ("bat_second_wins", "int", M),
        ("case_dists", "Mapping[CaseLabel, FittedDist]", M),
    ),
}

#: The classes without a docstring, whose __doc__ is their name and signature.
GENERATED_DOCS = ("NormalParams", "LogisticParams", "MatchRecord", "RevisionReport")

METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    one = CASES[name][0]()
    before = repr(one)
    for field in dataclasses.fields(one):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field.name}'$"):
            setattr(one, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field.name}'$"):
            delattr(one, field.name)
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        one.extra = 1
    assert repr(one) == before and not hasattr(one, "extra")


@pytest.mark.parametrize("name", CASES)
def test_fields_signature_and_doc(name):
    cls = type(CASES[name][0]())
    signature = inspect.signature(cls)
    assert str(signature) == SIGNATURES[name]
    assert tuple(f.name for f in dataclasses.fields(cls)) == tuple(signature.parameters) == cls.__match_args__
    assert tuple((f.name, f.type, f.default) for f in dataclasses.fields(cls)) == FIELDS[name]
    if name in GENERATED_DOCS:
        assert cls.__doc__ == name + SIGNATURES[name].removesuffix(" -> None")
    else:
        assert cls.__doc__ and not cls.__doc__.startswith(f"{name}(")


@pytest.mark.parametrize("name", CASES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    one = CASES[name][0]()
    values = tuple(getattr(one, f.name) for f in dataclasses.fields(one))
    if name == "SyntheticVenueSpec":
        with pytest.raises(TypeError, match="^unhashable type: 'dict'$"):
            hash(values)
    else:
        assert hash(one) == hash(values)


@pytest.mark.parametrize("name", CASES)
def test_no_method_is_generated_at_import(name):
    """No method of the class is compiled from a string as the package is imported."""
    cls = type(CASES[name][0]())
    codes = {m: getattr(getattr(cls, m), "__code__", None) for m in METHODS}
    assert [m for m, code in codes.items() if code is not None and code.co_filename == "<string>"] == []


def test_a_filled_table_leaves_the_params_value_alone():
    """The negbin table cached on NegBinParams is kept outside its fields."""
    grown, fresh = NegBinParams(8.0, 0.04), NegBinParams(8.0, 0.04)
    cdf(FittedDist(grown), 3000)
    assert "_nb_cache" in vars(grown) and "_nb_cache" not in vars(fresh)
    assert grown == fresh and hash(grown) == hash(fresh) == hash((8.0, 0.04))
    assert repr(grown) == repr(fresh) == "NegBinParams(n=8.0, p=0.04)"
    assert dataclasses.asdict(grown) == dataclasses.asdict(fresh) == {"n": 8.0, "p": 0.04}


@pytest.mark.parametrize("name", CASES)
def test_a_subclass_instance_keeps_its_fields_frozen(name):
    """On an instance of a plain subclass, a name that is not a field can be
    set and deleted; a field still raises FrozenInstanceError."""
    one = CASES[name][0]()
    fields = dataclasses.fields(one)
    sub = type(f"Sub{name}", (type(one),), {})(*(getattr(one, f.name) for f in fields))
    sub.extra = 1
    assert sub.extra == 1 and repr(sub) == f"Sub{repr(one)}"
    del sub.extra
    assert not hasattr(sub, "extra")
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field.name}'$"):
            setattr(sub, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field.name}'$"):
            delattr(sub, field.name)
