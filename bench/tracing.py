"""Spans recorded from outside the program, and the self times derived from them.

The tracer replaces the module-level bindings through which fairchase's
modules call each other (``fairchase.cli.fit``, ``fairchase.revision.quantile``
and so on) with wrappers that open and close a span. Nothing under ``src/``
changes. Spans live in flat arrays while the run lasts, so a million calls
cost tens of megabytes, and are written as JSON lines when the run ends:
``[name, start, end, parent, ok, count]`` with parent -1 at the top.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: module -> binding -> span name. Each binding is wrapped separately, so a
#: call is seen at whichever module boundary it crosses.
BINDINGS = {
    "fairchase.cli": {
        "parse_matches": "matches.parse",
        "categorize": "matches.categorize",
        "summarize": "matches.summarize",
        "serialize_matches": "matches.serialize",
        "fit": "distributions.fit",
        "survival": "distributions.survival",
        "pmf": "distributions.pmf",
        "build_model": "revision.build_model",
        "revise_target": "revision.revise_target",
        "revision_report": "revision.report",
        "check_equalization": "simulate.check_equalization",
        "generate_synthetic_dataset": "simulate.generate",
    },
    "fairchase.revision": {
        "fit": "distributions.fit",
        "quantile": "distributions.quantile",
        "survival": "distributions.survival",
        "build_model": "revision.build_model",
        "revise_target": "revision.revise_target",
    },
    "fairchase.simulate": {"revise_target": "revision.revise_target"},
}


def _fit_family(args, kwargs) -> str:
    family = args[1] if len(args) > 1 else kwargs["family"]
    return family.value


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._ok = array("b")
        self._count = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._name)
        self._name.append(ident)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._ok.append(0)
        self._count.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int, ok: bool, count: int = 0) -> None:
        self._end[index] = time.perf_counter()
        self._ok[index] = ok
        self._count[index] = count
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; parse spans also count the records returned."""
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index, False)
            raise
        self._close(index, True, len(result) if name == "matches.parse" else 0)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = f"{name}.{_fit_family(args, kwargs)}" if name == "distributions.fit" else name
            return self.call(span, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, bindings in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr, name in bindings.items():
                setattr(module, attr, self._wrap(name, getattr(module, attr)))

    def write(self, path: Path) -> None:
        names = self._names
        lines = [
            f'["{names[n]}",{s!r},{e!r},{p},{o},{c}]\n'
            for n, s, e, p, o, c in zip(
                self._name, self._start, self._end, self._parent, self._ok, self._count
            )
        ]
        path.write_text("".join(lines), encoding="utf-8")


class LayerTotals:
    """Self time, calls, successes and item counts per span name, summed over span files."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ok: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)

    def add_file(self, path: Path) -> None:
        text = path.read_text(encoding="utf-8").strip()
        spans = json.loads("[" + text.replace("\n", ",") + "]") if text else []
        covered = [0.0] * len(spans)
        for name, start, end, parent, ok, count in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent, ok, count), child in zip(spans, covered):
            self.self_s[name] += end - start - child
            self.calls[name] += 1
            self.ok[name] += ok
            self.count[name] += count
