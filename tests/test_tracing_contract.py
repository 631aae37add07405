"""The benchmark's tracer wraps functions by (module, attribute): each must
stay importable there, and callers must keep calling through it, or only
the traced benchmark run would notice."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from bipgirth import frontier, lemmas
from oracles import count_calls

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_wrapped_attributes_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"bipgirth.{module}.{attr}" for module, attr, *_ in tracing.WRAPPED
               if not hasattr(importlib.import_module(f"bipgirth.{module}"), attr)]
    assert tracing.WRAPPED and missing == []


@pytest.mark.parametrize("k, resolution", [(2, 2), (4, 7), (1, 30)])
def test_region_grid_classifies_through_the_module(k, resolution):
    # frontier.points_classified counts the calls to frontier.classify
    with count_calls(frontier, "classify") as calls:
        points = list(frontier.region_grid(k, resolution))
    assert calls[0] == len(points) == (resolution + 1) ** 2


@pytest.mark.parametrize("count, seed", [(1, 0), (40, 20260823)])
def test_newineq_stress_calls_through_the_module(count, seed):
    # lemmas.oracle_calls counts the calls to lemmas.newineq_min_oracle, and
    # the lemmas.bound span wraps lemmas.newineq_bound
    with count_calls(lemmas, "newineq_min_oracle") as oracle, \
            count_calls(lemmas, "newineq_bound") as bound:
        lemmas.newineq_stress("abc", count, seed)
    assert oracle[0] == bound[0] == 3 * count
