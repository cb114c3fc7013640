"""Tests for powers of a model and their diagonal subobjects."""

import pytest

from forestcalc.errors import SupportMismatchError, ValidationError
from forestcalc.fusion import bad_diagonals, is_good
from forestcalc.homology import homology
from forestcalc.partitions import (
    SetMap,
    all_partitions,
    indiscrete,
    make_partition,
)
from forestcalc.powers import (
    bad_diagonal_cells,
    coincidence_partition,
    fat_diagonal_cells,
    induced_power_map,
    power_pair,
    sub_diagonal_cells,
)
from forestcalc.simplicial import (
    model_interval,
    model_points,
    power,
    subobject,
    surj_identity,
)

from helpers import betti_numbers


# --- oracle: diagonals by sweeping every partition ---------------------------


def swept_bad_cells(power_obj, lam):
    out = set()
    for delta in bad_diagonals(lam):
        out |= sub_diagonal_cells(power_obj, delta)
    return out


def swept_fat_cells(power_obj, m):
    out = set()
    for delta in all_partitions(m):
        if delta.components < m:
            out |= sub_diagonal_cells(power_obj, delta)
    return out


# --- coincidence partitions ----------------------------------------------------


def test_coincidence_partition_examples():
    cell = (("a", (0,)), ("a", (0,)), ("b", (0,)))
    assert coincidence_partition(cell) == make_partition(3, [[0, 1], [2]])
    cell = (("a", (0,)), ("b", (0,)), ("c", (0,)))
    assert coincidence_partition(cell).components == 3


def test_sub_diagonal_count():
    p = power(model_points(3), 2)
    cells = sub_diagonal_cells(p, indiscrete(2))
    assert len(cells) == 3
    assert sub_diagonal_cells(p, make_partition(2, [[0], [1]])) == set(p.all_cells())


def test_sub_diagonal_support_mismatch():
    p = power(model_points(2), 2)
    with pytest.raises(SupportMismatchError):
        sub_diagonal_cells(p, indiscrete(3))


# --- fat diagonal ----------------------------------------------------------------


def test_fat_cell_counts_two_points():
    p2 = power(model_points(2), 2)
    assert len(fat_diagonal_cells(p2)) == 2
    assert len(list(p2.all_cells())) == 4
    p3 = power(model_points(2), 3)
    assert len(fat_diagonal_cells(p3)) == 8
    assert len(list(p3.all_cells())) == 8


def test_fat_cell_counts_three_points():
    p3 = power(model_points(3), 3)
    assert len(fat_diagonal_cells(p3)) == 21
    assert len(list(p3.all_cells())) == 27
    p4 = power(model_points(3), 4)
    assert len(fat_diagonal_cells(p4)) == 81
    assert len(list(p4.all_cells())) == 81


def test_fat_cells_match_sweep():
    for model in (model_points(2), model_interval()):
        for m in (2, 3):
            p = power(model, m)
            assert fat_diagonal_cells(p) == swept_fat_cells(p, m)


# --- bad diagonals: heredity shortcut vs full sweep ---------------------------------


def test_bad_cells_match_sweep():
    for model in (model_points(2), model_points(3), model_interval()):
        for m in (2, 3):
            p = power(model, m)
            for lam in all_partitions(m):
                assert bad_diagonal_cells(p, lam) == swept_bad_cells(p, lam), lam


def test_bad_cells_are_good_test_per_cell():
    p = power(model_interval(), 3)
    lam = indiscrete(3)
    bad = bad_diagonal_cells(p, lam)
    for cell in p.all_cells():
        k = coincidence_partition(cell)
        assert (cell in bad) == (not is_good(k, lam))


# --- power pairs --------------------------------------------------------------------


def test_power_pair_two_points():
    pair = power_pair(model_points(2), indiscrete(2))
    assert len(pair.bad_cells) == 2
    assert betti_numbers(pair.quotient) == {0: 2}


def test_power_pair_interval_diagonal_contractible():
    pair = power_pair(model_interval(), indiscrete(2))
    # the bad diagonal here is the diagonal interval: 2 vertices, 1 edge
    assert len(pair.bad_cells) == 3
    assert homology(subobject(pair.power, pair.bad_cells), reduced=True).is_acyclic()
    assert homology(pair.quotient).is_acyclic()


def test_power_pair_discrete_has_no_bad_cells():
    lam = make_partition(2, [[0], [1]])
    pair = power_pair(model_points(2), lam)
    assert pair.bad_cells == frozenset()
    # collapsing nothing still adds a basepoint
    assert len(pair.quotient.cells_of_dim(0)) == 5


# --- induced maps ---------------------------------------------------------------------


def test_induced_power_map_contravariant():
    model = model_points(2)
    f = SetMap(3, 2, (0, 0, 1))
    src = power(model, 2)
    tgt = power(model, 3)
    pm = induced_power_map(f, src, tgt)
    pm.validate()
    cell = (("p0", (0,)), ("p1", (0,)))
    moved, _ = pm.cell_image(cell)
    assert moved == (("p0", (0,)), ("p0", (0,)), ("p1", (0,)))


def test_induced_power_map_needs_surjection():
    model = model_points(2)
    f = SetMap(2, 3, (0, 1))
    with pytest.raises(ValidationError):
        induced_power_map(f, power(model, 3), power(model, 2))


def test_induced_power_map_support_mismatch():
    model = model_points(2)
    f = SetMap(3, 2, (0, 0, 1))
    with pytest.raises(SupportMismatchError):
        induced_power_map(f, power(model, 3), power(model, 2))


def test_coordinate_permutation_is_cell_bijection():
    p = power(model_interval(), 2)
    swap = induced_power_map(SetMap(2, 2, (1, 0)), p, p)
    swap.validate()
    # every cell goes to a nondegenerate cell, bijectively
    for cell in p.all_cells():
        assert swap.cell_image(cell)[1] == surj_identity(p.dim_of[cell])
    moved = {cell: swap.cell_image(cell)[0] for cell in p.all_cells()}
    assert set(moved.values()) == set(p.all_cells())
    # applying the swap twice is the identity
    for cell in p.all_cells():
        assert moved[moved[cell]] == cell
