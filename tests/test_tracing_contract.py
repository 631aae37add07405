"""The benchmark's tracer wraps functions by (module, attribute): each must
stay importable there, and callers must keep calling through it, or only
the traced benchmark run would notice.  Likewise the benchmark's fact
checks must accept what the fact scan reports."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bipgirth import cli, frontier, lemmas, search
from oracles import count_calls, whole_draw_search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # a dataclass looks it up
    spec.loader.exec_module(module)
    return module


def test_workload_checks_accept_one_pass(monkeypatch, tmp_path):
    # every benchmark operation is a fixed CLI argv or library call; one
    # that a change breaks would fail only in the benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setitem(sys.modules, "checks", _load_perfbench(monkeypatch, "checks"))
    workloads = _load_perfbench(monkeypatch, "workloads")
    modules = {name: importlib.import_module(f"bipgirth.{name}") for name in
               ("cli", "io", "digraph", "constructions", "search", "lemmas",
                "frontier", "audit")}
    failed = []
    for name, setup in workloads.SETUPS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in setup(modules, 1, str(workdir)).ops:
            reason = op.check(op.call())
            if reason is not None:
                failed.append(f"{name}: {op.name}: {reason}")
    assert failed == []


def test_wrapped_attributes_exist(monkeypatch):
    tracing = _load_perfbench(monkeypatch, "tracing")
    missing = [f"bipgirth.{module}.{attr}" for module, attr, *_ in tracing.WRAPPED
               if not hasattr(importlib.import_module(f"bipgirth.{module}"), attr)]
    assert tracing.WRAPPED and missing == []


def test_fact_checks_accept_the_scan(monkeypatch, capsys):
    # the traced lemma_lab run checks each fact's grid size; a scan that
    # miscounts its grid would fail only there
    checks = _load_perfbench(monkeypatch, "checks")
    reports = [lemmas.fact_scan(fid) for fid in lemmas.all_fact_ids()]
    assert checks.check_fact_points(
        [(r.fact_id, r.points_checked, r.grid_step) for r in reports]) is None
    assert cli.main(["lemmas", "--all"]) == 0
    assert checks.check_facts(capsys.readouterr().out) is None


@pytest.mark.parametrize("k", [2, 4])
def test_region_check_accepts_the_csv(monkeypatch, k):
    # the lemma_lab workload checks each region CSV row against its own
    # classifier; a CSV it would call incorrect fails here first
    checks = _load_perfbench(monkeypatch, "checks")
    statuses = checks.region_statuses(k, 100)
    assert checks.check_region(frontier.region_csv(k, 100), k, 100, statuses) is None


@pytest.mark.parametrize("k, resolution", [(2, 2), (4, 7), (1, 30)])
def test_region_grid_classifies_through_the_module(monkeypatch, k, resolution):
    # frontier.points_classified counts the calls to frontier.classify: one
    # per point yielded, made with that point's k, alpha and beta
    calls, classify = [], frontier.classify

    def recorded(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(frontier, "classify", recorded)
    points = list(frontier.region_grid(k, resolution))
    assert len(points) == (resolution + 1) ** 2
    assert calls == [(k, a, b) for a, b, _ in points]


@pytest.mark.parametrize("count, seed", [(1, 0), (40, 20260823)])
def test_newineq_stress_calls_through_the_module(count, seed):
    # lemmas.oracle_calls counts the calls to lemmas.newineq_min_oracle, and
    # the lemmas.bound and lemmas.instance spans wrap lemmas.newineq_bound
    # and lemmas.random_newineq_instance
    with count_calls(lemmas, "newineq_min_oracle") as oracle, \
            count_calls(lemmas, "newineq_bound") as bound, \
            count_calls(lemmas, "random_newineq_instance") as drawn:
        lemmas.newineq_stress("abc", count, seed)
    assert oracle[0] == bound[0] == drawn[0] == 3 * count


@pytest.mark.parametrize("cfg, seed", [
    ((3, 3, 1, Fraction(1, 3), Fraction(1, 3)), 5),
    ((16, 16, 3, Fraction(1, 8), Fraction(1, 16)), 0),
    ((30, 30, 3, Fraction(1, 5), Fraction(1, 5)), 1),
])
def test_randomized_search_calls_through_the_module(cfg, seed):
    # constructions.random_compliant_* and digraph.girth_* time the calls
    # to search.random_compliant and search.girth: one each per sample
    # that has no 2-cycle
    config = search.SearchConfig(*cfg, mode="randomized", seed=seed, node_limit=150)
    with count_calls(search, "random_compliant") as drawn, \
            count_calls(search, "girth") as girths:
        search.find_counterexample(config)
    assert drawn[0] == girths[0] == whole_draw_search(config)[3]
