"""Tests for the invariant check catalog and its fault injection."""

import json

import pytest

import forestcalc.verify
from forestcalc import partitions, powers
from forestcalc.category import CategoryTable, enumerate_en
from forestcalc.envelope import canonical_json
from forestcalc.verify import (
    BUDGETS,
    CHECKS,
    CheckResult,
    broken_square_demo,
    check_composition_closure,
    results_payload,
    run_checks,
)

CHECK_NAMES = [
    "partition-lattice-counts",
    "meet-join-lattice-laws",
    "image-partition-closure",
    "strictness-triple",
    "goodness-double-criterion",
    "badness-hereditary",
    "badness-pushforward",
    "tspace-wedge-ranks",
    "tspace-model-agreement",
    "tree-map-functoriality",
    "nice-filtration",
    "composition-closure",
    "aut-order-formula",
    "iso-class-count",
    "fat-reconstruction",
    "coend-euler-additivity",
    "cube-pushout-controls",
    "kernel-vs-dense-snf",
    "power-diagonal-routes",
]


# every check's details at the quick level, instance counts included
QUICK_DETAILS = {
    "partition-lattice-counts": {"supports": 4},
    "meet-join-lattice-laws": {"support": 4, "pairs": 225},
    "image-partition-closure": {"instances": 1196},
    "strictness-triple": {"instances": 1196},
    "goodness-double-criterion": {"instances": 254},
    "badness-hereditary": {"instances": 129},
    "badness-pushforward": {"instances": 5570},
    "tspace-wedge-ranks": {"instances": 11},
    "tspace-model-agreement": {"instances": 7},
    "tree-map-functoriality": {"instances": 400, "truncated": True},
    "nice-filtration": {"levels": {1: True, 2: True}},
    "composition-closure": {"n": 2},
    "aut-order-formula": {"instances": 11},
    "iso-class-count": {"n": 1},
    "fat-reconstruction": {"n": 1, "models": ["two points"]},
    "coend-euler-additivity": {"cases": 1},
    "cube-pushout-controls": {"cases": 3},
    "kernel-vs-dense-snf": {"matrices": 5},
    "power-diagonal-routes": {"instances": 9},
}


def test_catalog_names_and_order_frozen():
    assert [name for name, _ in CHECKS] == CHECK_NAMES


def test_budgets_shape():
    assert set(BUDGETS) == {"quick", "exhaustive"}
    for level in BUDGETS.values():
        assert set(level) == {"support", "tree_support", "n", "table_n"}
    for key in BUDGETS["quick"]:
        assert BUDGETS["exhaustive"][key] >= BUDGETS["quick"][key]


def test_quick_level_all_pass():
    results = run_checks("quick")
    assert [r.name for r in results] == CHECK_NAMES
    failing = [r.name for r in results if not r.passed]
    assert failing == []
    for r in results:
        assert r.counterexample is None


def test_quick_level_computes_each_image_once_per_map(monkeypatch):
    # the checks ask for 23,788 image partitions; each map keeps its own,
    # so only a map's first request for a partition runs the merge kernel
    computed = 0
    compute = partitions._image

    def counted(f, p):
        nonlocal computed
        computed += 1
        return compute(f, p)

    monkeypatch.setattr(partitions, "_image", counted)
    results = run_checks("quick")
    assert {r.name: r.details for r in results} == QUICK_DETAILS
    assert computed == 7076


def test_quick_level_reads_few_coincidence_partitions(monkeypatch):
    # a sub-diagonal is read off the cells' coordinates, and the layer
    # reports build no power pairs, so only the bad cells of the
    # power-diagonal routes and the fat reconstruction read coincidence
    # partitions: 331, where the sweeps and power pairs made 3,068
    calls = []
    read = powers.coincidence_partition

    def counted(cell):
        calls.append(cell)
        return read(cell)

    monkeypatch.setattr(powers, "coincidence_partition", counted)
    results = run_checks("quick")
    assert all(r.passed for r in results)
    assert len(calls) == 331


def test_fault_injection_trips_exactly_one_check():
    results = run_checks("quick", inject_fault=True)
    failing = [r for r in results if not r.passed]
    assert [r.name for r in failing] == ["strictness-triple"]
    assert failing[0].counterexample is not None
    assert "morphism" in failing[0].counterexample


def test_composition_closure_check_fails_on_a_hom_set_not_closed(monkeypatch):
    # E2 with one arrow of (2,2) -> (3) dropped
    def broken_table(n):
        table = enumerate_en(n)
        if n != 2:
            return table
        homs = dict(table.homs)
        homs[(1, 0)] = homs[(1, 0)][1:]
        return CategoryTable(table.n, table.objects, table.strata, table.groups, homs)

    monkeypatch.setattr(forestcalc.verify, "enumerate_en", broken_table)
    passed, details, counterexample = check_composition_closure(BUDGETS["quick"], {})
    assert passed is False
    assert details == {"n": 2}
    assert "not listed" in counterexample["witness"]


def test_composition_closure_check_lets_programming_errors_raise(monkeypatch):
    def no_table(n):
        table = enumerate_en(n)
        return CategoryTable(table.n, table.objects, table.strata, table.groups, {})

    monkeypatch.setattr(forestcalc.verify, "enumerate_en", no_table)
    with pytest.raises(KeyError):
        check_composition_closure(BUDGETS["quick"], {})


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("paranoid")


def test_results_payload_shape():
    results = [
        CheckResult(name="a", passed=True, details={"k": 1}),
        CheckResult(name="b", passed=False, counterexample={"x": 0}),
    ]
    payload = results_payload(results, "quick")
    assert payload["level"] == "quick"
    assert payload["passed"] is False
    assert payload["checks"][0] == {"name": "a", "passed": True, "details": {"k": 1}}
    assert payload["checks"][1]["counterexample"] == {"x": 0}
    # payload must serialize canonically
    json.loads(canonical_json(payload))


def test_quick_run_deterministic():
    one = results_payload(run_checks("quick"), "quick")
    two = results_payload(run_checks("quick"), "quick")
    assert canonical_json(one) == canonical_json(two)


def test_broken_square_detected():
    acyclic, result = broken_square_demo()
    assert not acyclic
    assert result.group(1).rank == 1
    assert result.euler() == -1
