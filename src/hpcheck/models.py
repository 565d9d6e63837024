"""Bundled stop-before-obstacle models and the eight-row result suite.

The `.hpmodel` files under `data/` are the source of truth; this module
loads them.  The tests rebuild their key formulas from raw constructors
(tests/golden.py) to assert the files say what they are supposed to say.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .model import Model
from .parser import parse_model
from .semantics import parse_script

MODEL_IDS = ("m2", "m3", "m4")

_cache = {}


def _data_text(filename: str) -> str:
    return resources.files("hpcheck.data").joinpath(filename).read_text()


def builtin(model_id: str) -> Model:
    """Load a bundled model by id (m2, m3 or m4)."""
    if model_id not in MODEL_IDS:
        raise KeyError(f"unknown builtin model {model_id!r}")
    if model_id not in _cache:
        _cache[model_id] = parse_model(_data_text(f"{model_id}.hpmodel"),
                                       name=model_id)
    return _cache[model_id]


def fig2_script() -> list:
    """The bundled two-iteration walkthrough script for m2."""
    return parse_script(_data_text("fig2.script"))


@dataclass(frozen=True)
class SuiteRow:
    model_id: str
    invariant: str
    conjuncts: tuple
    expected: str  # 'Yes' | 'No'
    reason: str


def table2_suite() -> list:
    rows = json.loads(_data_text("suite_table2.json"))["rows"]
    return [SuiteRow(r["model"], r["invariant"], tuple(r["conjuncts"]),
                     r["expected"], r["reason"]) for r in rows]
