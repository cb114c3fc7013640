"""Tests for the glued layer spaces: induced maps, coends, strata, reports."""

import json

import pytest

from forestcalc.category import enumerate_en
from forestcalc.errors import CapExceededError, ValidationError
from forestcalc.homology import HomologyGroup, betti_numbers, homology
from forestcalc.layers import (
    COEND_N_CAP,
    coend,
    coend_over_filtration,
    derivative_report,
    power_quotient_map,
    stratum,
    t_space_map,
)
from forestcalc.partitions import SetMap, compose, indiscrete, make_partition
from forestcalc.powers import power_pair
from forestcalc.simplicial import (
    compose_simplicial,
    identity_simplicial,
    model_circle,
    model_points,
    same_object,
    t_space,
)


def en2():
    return enumerate_en(2, include_homs=True)


# --- induced tree space maps -------------------------------------------------


def test_t_space_map_identity():
    lam = indiscrete(3)
    ident = t_space_map(SetMap(3, 3, (0, 1, 2)), lam, lam)
    expected = identity_simplicial(t_space(lam))
    assert ident.mapping == expected.mapping


def test_t_space_maps_validate_across_e2():
    table = en2()
    for (i, j), maps in table.homs.items():
        for f in maps:
            tm = t_space_map(f, table.objects[i], table.objects[j])
            tm.validate()


def test_t_space_map_functorial():
    table = en2()
    checked = 0
    for i in range(2):
        for j in range(2):
            for f in table.hom(i, j)[:6]:
                for k in range(2):
                    for g in table.hom(j, k)[:6]:
                        src, mid, tgt = (
                            table.objects[i],
                            table.objects[j],
                            table.objects[k],
                        )
                        one = t_space_map(compose(g, f), src, tgt)
                        two = compose_simplicial(
                            t_space_map(g, mid, tgt), t_space_map(f, src, mid)
                        )
                        assert one.mapping == two.mapping
                        checked += 1
    assert checked > 50


def test_power_quotient_map_is_contravariant():
    table = en2()
    src, tgt = table.objects[1], table.objects[0]  # (2,2) -> (3,)
    f = table.hom(1, 0)[0]
    pairs = {
        0: power_pair(model_points(2), tgt),
        1: power_pair(model_points(2), src),
    }
    pm = power_quotient_map(f, pairs[1], pairs[0])
    pm.validate()
    assert same_object(pm.source, pairs[0].quotient)
    assert same_object(pm.target, pairs[1].quotient)


# --- coends --------------------------------------------------------------------


def test_coend_of_points_yields_circles():
    # k labeled points, first layer: one circle per unordered pair
    for k, circles in ((2, 1), (3, 3), (4, 6)):
        assembly = coend(model_points(k), 1)
        assert betti_numbers(assembly.total) == {1: circles}, k


def test_coend_single_point_collapses():
    assembly = coend(model_points(1), 1)
    assert homology(assembly.total).is_acyclic()


def test_coend_two_points_second_layer_collapses():
    assembly = coend(model_points(2), 2)
    assert homology(assembly.total).is_acyclic()


def test_coend_three_points_second_layer():
    assembly = coend(model_points(3), 2)
    res = homology(assembly.total)
    assert res.group(2) == HomologyGroup(2, ())
    assert res.euler() == 2
    assert set(assembly.pieces) == {0, 1}


def test_coend_circle_first_layer_has_torsion():
    assembly = coend(model_circle(pointed=True), 1)
    assert assembly.total.cell_count() == {0: 1, 1: 1, 2: 4, 3: 3}
    res = homology(assembly.total)
    assert res.group(1).is_zero()
    assert res.group(2) == HomologyGroup(0, (2,))
    assert res.group(3).is_zero()


def test_coend_gluing_log_two_points():
    assembly = coend(model_points(2), 1)
    assert assembly.gluing_log == {0: 0, 1: 1}


def test_coend_cap():
    assert COEND_N_CAP == 2
    with pytest.raises(CapExceededError):
        coend(model_points(2), 3)


# --- filtration stages ------------------------------------------------------------


def test_filtration_stage_zero_is_point():
    stage = coend_over_filtration(model_points(2), 1, 0)
    assert homology(stage).is_acyclic()


def test_filtration_full_stage_matches_coend():
    M = model_points(3)
    # the layer report takes the full coend as its last filtration stage
    assert same_object(coend_over_filtration(M, 2, 2), coend(M, 2).total)


def test_filtration_stage_one_euler():
    # only the single-block object contributes at stage one
    M = model_points(3)
    stage = coend_over_filtration(M, 2, 1)
    assert homology(stage).euler() == 2


# --- strata -------------------------------------------------------------------------


def test_stratum_matches_coend_in_first_layer():
    for k in (2, 3):
        M = model_points(k)
        res = stratum(M, 1, 1, indiscrete(2))
        assert res.free
        assert res.group_order == 2
        assert betti_numbers(res.space) == betti_numbers(coend(M, 1).total)


def test_stratum_triple_block_is_free():
    res = stratum(model_points(3), 2, 1, indiscrete(3))
    assert res.free
    assert res.group_order == 6
    assert res.orbit_defects == []
    assert betti_numbers(res.space) == {2: 2}


def test_stratum_two_pairs():
    res = stratum(model_points(3), 2, 2, make_partition(4, [[0, 1], [2, 3]]))
    assert res.free
    assert res.group_order == 8


def test_stratum_validates_position():
    with pytest.raises(ValidationError):
        stratum(model_points(2), 1, 1, indiscrete(3))  # excess 2, not 1
    with pytest.raises(ValidationError):
        stratum(model_points(2), 2, 2, indiscrete(3))  # one component, not two


# --- reports -------------------------------------------------------------------------


def test_report_first_layer_schema():
    M = model_points(3)
    report = derivative_report(M, 1)
    assert report["schema"] == "layer-report/1"
    assert report["n"] == 1
    assert report["coefficients"] == "Z"
    assert report["model"] == {"cells": {"0": 3}, "pointed": False}
    assert report["coend"]["groups"] == {"1": {"rank": 3, "torsion": []}}
    assert report["euler_additivity"]["passed"] is True
    assert report["degree_support"]["passed"] is True
    assert report["layer_support_sizes"]["expected"] == [2, 2]
    assert list(report["strata"]) == ["2"]
    assert report["strata"]["2"]["free_action"] is True
    assert report["strata"]["2"]["group_order"] == 2


def test_report_second_layer_three_points():
    report = derivative_report(model_points(3), 2)
    assert set(report["strata"]) == {"3", "2-2"}
    assert report["coend"]["euler"] == 2
    steps = report["euler_additivity"]["steps"]
    assert [s["stage_euler"] for s in steps] == [2, 2]
    assert report["euler_additivity"]["passed"] is True
    assert report["layer_support_sizes"]["observed"] == [3, 4]


def test_report_deterministic():
    M = model_points(3)
    one = json.dumps(derivative_report(M, 1), sort_keys=True)
    two = json.dumps(derivative_report(M, 1), sort_keys=True)
    assert one == two


def test_report_mod_two_coefficients():
    report = derivative_report(model_points(3), 1, coefficients="F2")
    assert report["coefficients"] == "F2"
    assert report["coend"]["groups"] == {"1": {"rank": 3, "torsion": []}}
