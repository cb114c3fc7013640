"""Tests for the skeletal category tables of irreducible partitions."""

import dataclasses
import itertools

import pytest

from forestcalc.category import (
    CategoryTable,
    _group_order,
    aut_order_formula,
    automorphism_group,
    canonical_object,
    enumerate_en,
    shapes_of_excess,
    strict_fusions,
    verify_nice_filtration,
)
from forestcalc.errors import CapExceededError, ValidationError
from forestcalc.partitions import SetMap, all_partitions, image_partition, make_partition

from helpers import brute_force_fusions, compose, filtration


# --- oracles ---------------------------------------------------------------


def aut_order_brute(p):
    """Count support permutations fixing the partition, one by one."""
    m = p.support_size
    count = 0
    for perm in itertools.permutations(range(m)):
        f = SetMap(m, m, perm)
        if image_partition(f, p) == p:
            count += 1
    return count


# integer partition counts p(1)..p(5)
PARTITION_COUNTS = [1, 2, 3, 5, 7]


# --- shapes and objects ----------------------------------------------------


def test_shapes_of_excess_small():
    assert shapes_of_excess(1) == [(2,)]
    assert shapes_of_excess(2) == [(3,), (2, 2)]
    assert shapes_of_excess(3) == [(4,), (3, 2), (2, 2, 2)]


def test_shape_invariants():
    for n in range(1, 6):
        shapes = shapes_of_excess(n)
        for s in shapes:
            assert all(size >= 2 for size in s)
            assert sum(size - 1 for size in s) == n
            assert tuple(sorted(s, reverse=True)) == s
        assert len(set(shapes)) == len(shapes)


def test_object_count_is_integer_partition_count():
    for n, expected in enumerate(PARTITION_COUNTS, start=1):
        assert len(shapes_of_excess(n)) == expected


def test_canonical_object_roundtrip():
    for n in range(1, 5):
        for s in shapes_of_excess(n):
            p = canonical_object(s)
            assert p.shape() == s
            assert p.support_size == sum(s)
            assert p.excess == n
            assert p.is_irreducible()


def test_support_sizes_span_expected_range():
    for n in range(1, 5):
        table = enumerate_en(n, include_homs=False)
        sizes = sorted(p.support_size for p in table.objects)
        assert sizes[0] == n + 1
        assert sizes[-1] == 2 * n


# --- strict fusion enumeration ---------------------------------------------


def test_strict_fusions_match_brute_force():
    pairs = []
    for n in (1, 2, 3):
        objects = enumerate_en(n, include_homs=False).objects
        pairs += itertools.product(objects, repeat=2)
    # partitions with singleton blocks too: a singleton block has weight 0
    # and can land anywhere, and the search relies on the excess budgets
    # alone to make every class spanned
    small = [p for m in range(5) for p in all_partitions(m)]
    pairs += [(p, q) for p in small for q in small if p.excess == q.excess]
    for src, tgt in pairs:
        fast = strict_fusions(src, tgt)
        slow = brute_force_fusions(src, tgt)
        assert fast == slow, f"{src} -> {tgt}"


def test_fusions_between_different_excess_empty():
    a = canonical_object((3,))
    b = canonical_object((2,))
    assert strict_fusions(a, b) == ()


def test_hom_sets_sorted_and_distinct():
    table = enumerate_en(2)
    for maps in table.homs.values():
        assert list(maps) == sorted(maps)
        assert len(set(maps)) == len(maps)
        assert all(type(x) is int for f in maps for x in f)


# --- frozen tables ----------------------------------------------------------


def test_e2_table_frozen():
    table = enumerate_en(2)
    assert [p.shape() for p in table.objects] == [(3,), (2, 2)]
    assert table.strata == (1, 2)
    assert [g.order for g in table.groups] == [6, 8]
    assert table.hom_size_matrix() == [[6, 0], [24, 8]]
    patterns = [
        [table.glue_pattern_count(i, j) for j in range(2)] for i in range(2)
    ]
    assert patterns == [[1, 0], [4, 1]]


def test_e4_hom_counts_frozen():
    table = enumerate_en(4)
    assert table.hom_size_matrix() == [
        [120, 0, 0, 0, 0],
        [1080, 72, 0, 0, 0],
        [960, 0, 48, 0, 0],
        [7200, 288, 576, 48, 0],
        [48000, 3456, 6144, 1152, 384],
    ]


def test_diagonal_hom_sets_are_automorphisms():
    # endomorphisms of an object are exactly its automorphisms
    for n in (1, 2, 3):
        table = enumerate_en(n)
        for i, p in enumerate(table.objects):
            endos = table.hom(i, i)
            assert len(endos) == table.groups[i].order
            m = p.support_size
            for f in endos:
                assert SetMap(m, m, f).is_bijective()


# --- automorphism groups ----------------------------------------------------


def test_aut_order_matches_brute_force():
    for n in (1, 2, 3):
        for s in shapes_of_excess(n):
            p = canonical_object(s)
            group = automorphism_group(p)
            assert group.order == aut_order_brute(p)
            assert group.order == aut_order_formula(p)


def test_aut_order_formula_larger_shapes():
    # (size!)^mult * mult! per size class, spot checks
    assert aut_order_formula(canonical_object((5,))) == 120
    assert aut_order_formula(canonical_object((3, 3))) == 72
    assert aut_order_formula(canonical_object((2, 2, 2, 2))) == 384
    assert aut_order_formula(canonical_object((4, 3, 3, 2))) == 24 * 36 * 2 * 2


def test_aut_generators_preserve_partition():
    p = canonical_object((3, 2, 2))
    group = automorphism_group(p)
    m = p.support_size
    for g in group.generators:
        assert image_partition(SetMap(m, m, g), p) == p


# --- table structure ---------------------------------------------------------


def test_table_validates():
    for n in (1, 2, 3):
        assert enumerate_en(n).validate() is True


def test_table_validation_rejects_a_reducible_object():
    p = make_partition(3, [[0, 1], [2]])
    table = CategoryTable(
        n=1, objects=(p,), strata=(2,), groups=(automorphism_group(p),), homs=None
    )
    with pytest.raises(ValidationError, match="singleton"):
        table.validate()


def test_composition_closure():
    # every composable pair is checked
    for n in (1, 2, 3):
        table = enumerate_en(n)
        nobj = range(len(table.objects))
        pairs = sum(
            len(table.hom(i, j)) * len(table.hom(j, k))
            for i in nobj
            for j in nobj
            for k in nobj
        )
        assert table.check_composition_closure() == pairs > 0


def test_composition_closure_rejects_a_hom_set_not_closed():
    # drop the smallest map f of E2 (2,2) -> (3): the composite of f
    # then the identity of (3) is f again, and no longer listed
    table = enumerate_en(2)
    homs = dict(table.homs)
    dropped = homs[(1, 0)][0]
    homs[(1, 0)] = homs[(1, 0)][1:]
    broken = dataclasses.replace(table, homs=homs)
    with pytest.raises(ValidationError, match="not listed") as err:
        broken.check_composition_closure()
    assert f"composite {dropped} of " in str(err.value)


def test_identity_present():
    table = enumerate_en(2)
    for i, p in enumerate(table.objects):
        ident = tuple(range(p.support_size))
        assert SetMap(p.support_size, p.support_size, ident).is_identity()
        assert ident in table.hom(i, i)


def test_glue_patterns_by_independent_orbit_count():
    # recount the orbits of every hom set at n <= 3 under the target's
    # automorphisms, found as the support permutations keeping its blocks
    counts = {}
    for n in (1, 2, 3):
        table = enumerate_en(n)
        for j, tgt in enumerate(table.objects):
            m = tgt.support_size
            auts = [
                SetMap(m, m, perm)
                for perm in itertools.permutations(range(m))
                if image_partition(SetMap(m, m, perm), tgt) == tgt
            ]
            for i, src in enumerate(table.objects):
                seen = set()
                orbits = 0
                for f in table.hom(i, j):
                    if f in seen:
                        continue
                    orbits += 1
                    for g in auts:
                        seen.add(compose(g, SetMap(src.support_size, m, f)).values)
                counts[(n, i, j)] = orbits
                assert table.glue_pattern_count(i, j) == orbits, (n, i, j)
    # E2 (2,2) -> (3): 24 fusions in 4 orbits
    assert counts[(2, 1, 0)] == 4


def test_glue_patterns_reject_a_hom_set_not_closed():
    # drop one map of the 24 in E2 (2,2) -> (3): some automorphism of
    # the target carries a listed map onto it
    table = enumerate_en(2)
    homs = dict(table.homs)
    homs[(1, 0)] = homs[(1, 0)][1:]
    broken = dataclasses.replace(table, homs=homs)
    with pytest.raises(ValidationError):
        broken.glue_pattern_count(1, 0)
    with pytest.raises(ValidationError, match="not listed"):
        broken.generating_arrows(1, 0)


# --- generating arrows ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generating_arrows_generate_each_hom_set(n):
    # close the generating arrows of hom(i, j) under pre-composition with
    # those of hom(i, i) and post-composition with those of hom(j, j)
    table = enumerate_en(n, include_homs=True)
    nobj = len(table.objects)
    for i in range(nobj):
        pre = table.generating_arrows(i, i)
        for j in range(nobj):
            post = table.generating_arrows(j, j)
            reached = set(table.generating_arrows(i, j))
            frontier = list(reached)
            while frontier:
                v = frontier.pop()
                for gf in [tuple(g[x] for x in v) for g in post] + [
                    tuple(v[x] for x in g) for g in pre
                ]:
                    if gf not in reached:
                        reached.add(gf)
                        frontier.append(gf)
            assert reached == set(table.hom(i, j)), (i, j)


@pytest.mark.parametrize("n, arrows, generating", [(1, 2, 1), (2, 38, 5), (3, 1140, 12)])
def test_generating_arrow_counts(n, arrows, generating):
    table = enumerate_en(n, include_homs=True)
    pairs = list(itertools.product(range(len(table.objects)), repeat=2))
    assert sum(len(table.hom(i, j)) for i, j in pairs) == arrows
    assert sum(len(table.generating_arrows(i, j)) for i, j in pairs) == generating


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_generating_arrows_are_irredundant(n):
    # each kept generator is needed: the others generate a proper subgroup
    table = enumerate_en(n, include_homs=True)
    for i, group in enumerate(table.groups):
        gens = table.generating_arrows(i, i)
        assert set(gens) <= set(group.generators)
        assert _group_order(group.degree, gens) == group.order
        for g in gens:
            rest = [h for h in gens if h != g]
            assert _group_order(group.degree, rest) < group.order, (i, g)


def test_generating_arrows_are_smallest_of_their_orbits():
    # (2,2) -> (3) in E2: the 24 fusions form one orbit under both groups
    table = enumerate_en(2)
    assert table.generating_arrows(1, 0) == (table.hom(1, 0)[0],)
    assert table.generating_arrows(0, 1) == ()


def test_generating_arrows_reject_generators_that_do_not_generate():
    table = enumerate_en(2)
    for i in range(2):
        groups = list(table.groups)
        groups[i] = dataclasses.replace(groups[i], generators=groups[i].generators[:-1])
        broken = dataclasses.replace(table, groups=tuple(groups))
        with pytest.raises(ValidationError, match="generate"):
            broken.generating_arrows(i, i)
    # an automorphism missing from the hom set
    homs = dict(table.homs)
    homs[(1, 1)] = homs[(1, 1)][:-1]
    with pytest.raises(ValidationError):
        dataclasses.replace(table, homs=homs).generating_arrows(1, 1)


# --- filtration ---------------------------------------------------------------


def test_filtration_subcategory():
    table = enumerate_en(2)
    low = filtration(table, 1)
    assert [p.shape() for p in low.objects] == [(3,)]
    assert low.hom_size_matrix() == [[6]]
    full = filtration(table, 2)
    assert len(full.objects) == 2
    with pytest.raises(ValidationError):
        filtration(table, 0)
    with pytest.raises(ValidationError):
        filtration(table, 3)


def test_nice_filtration_passes():
    for n in (1, 2, 3):
        cert = verify_nice_filtration(enumerate_en(n))
        assert cert["passed"] is True


def test_nice_filtration_reports_bad_map():
    # hand-build a table with a morphism into a deeper stratum
    table = enumerate_en(2)
    broken = CategoryTable(
        n=2,
        objects=table.objects,
        strata=table.strata,
        groups=table.groups,
        homs={
            (0, 0): table.hom(0, 0),
            (0, 1): ((0, 1, 2),),
            (1, 0): table.hom(1, 0),
            (1, 1): table.hom(1, 1),
        },
    )
    cert = verify_nice_filtration(broken)
    assert cert["passed"] is False
    assert cert["reason"] == "morphism into a deeper stratum"


# --- caps and materialization -------------------------------------------------


def test_enumerate_en_validation():
    with pytest.raises(ValidationError):
        enumerate_en(0)
    with pytest.raises(CapExceededError):
        enumerate_en(6)


def test_large_n_skips_homs_by_default():
    table = enumerate_en(5)
    assert table.homs is None
    assert len(table.objects) == 7
    with pytest.raises(ValidationError):
        table.hom(0, 0)
    with pytest.raises(ValidationError, match="not materialized"):
        table.check_composition_closure()


def test_to_json_shape():
    data = enumerate_en(2).to_json()
    assert data["n"] == 2
    assert data["hom_counts"] == [[6, 0], [24, 8]]
    assert data["glue_pattern_counts"] == [[1, 0], [4, 1]]
    assert "0->0" in data["homs"]
