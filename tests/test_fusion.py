import itertools

import pytest

from forestcalc.errors import CapExceededError, NotAFusionError, ValidationError
from forestcalc.fusion import (
    PartitionMorphism,
    bad_diagonals,
    decompose_elementary,
    glue_map,
    goodness_via_graph,
    is_good,
    is_strict_fusion,
    strictness_via_h1,
)
from forestcalc.partitions import (
    POSET_SUPPORT_CAP,
    SetMap,
    all_partitions,
    image_partition,
    make_partition,
    meet,
)

from helpers import compose, discrete, goodness_via_graph_forest_only, indiscrete


def surjections(m, mp):
    for values in itertools.product(range(mp), repeat=m):
        if len(set(values)) == mp:
            yield SetMap(m, mp, values)


def compose_morphisms(g, f):
    """g after f, on the shared middle object."""
    assert f.target == g.source
    return PartitionMorphism(f.source, g.target, compose(g.map, f.map))


def all_fusions(m, mp):
    for f in surjections(m, mp):
        for src in all_partitions(m):
            yield PartitionMorphism(src, image_partition(f, src), f)


# --- morphism plumbing -------------------------------------------------------


def test_morphism_validates_image():
    f = SetMap(3, 2, (0, 0, 1))
    src = make_partition(3, [[0, 1], [2]])
    with pytest.raises(ValidationError):
        # image is discrete, the indiscrete target does not refine it
        PartitionMorphism(src, indiscrete(2), f)


def test_identity_is_strict():
    p = make_partition(4, [[0, 1], [2, 3]])
    assert is_strict_fusion(PartitionMorphism(p, p, SetMap(4, 4, (0, 1, 2, 3))))


def test_non_fusion_raises():
    m = PartitionMorphism(indiscrete(2), discrete(2), SetMap(2, 2, (0, 1)))
    assert not m.is_fusion()
    with pytest.raises(NotAFusionError):
        is_strict_fusion(m)


def test_glue_map_shape():
    g = glue_map(4, 1, 3)
    assert g.source_size == 4 and g.target_size == 3
    assert g(3) == g(1)
    assert g.is_surjective()


# --- strictness, three routes ----------------------------------------------


def test_strictness_excess_examples():
    # gluing across blocks preserves excess
    f = SetMap(4, 3, (0, 1, 2, 0))
    src = make_partition(4, [[0, 1], [2, 3]])
    m = PartitionMorphism(src, image_partition(f, src), f)
    assert is_strict_fusion(m)
    # gluing inside one block drops it
    g = SetMap(4, 3, (0, 1, 2, 2))
    m2 = PartitionMorphism(src, image_partition(g, src), g)
    assert not is_strict_fusion(m2)


def test_strictness_triple_agreement_exhaustive():
    """All three characterizations agree on every fusion with support <= 4."""
    count = 0
    for m in range(2, 5):
        for mp in range(1, m + 1):
            for morphism in all_fusions(m, mp):
                by_excess = is_strict_fusion(morphism)
                by_det = strictness_via_h1(morphism)
                steps = decompose_elementary(morphism)
                by_steps = all(
                    s.is_isomorphism()
                    or s.target.components == s.source.components - 1
                    for s in steps
                )
                assert by_excess == by_det == by_steps, str(morphism)
                count += 1
    assert count == 1196


def test_decompose_recomposes():
    f = SetMap(5, 2, (0, 0, 1, 1, 0))
    src = discrete(5)
    m = PartitionMorphism(src, image_partition(f, src), f)
    steps = decompose_elementary(m)
    total = steps[0]
    for step in steps[1:]:
        total = compose_morphisms(step, total)
    assert total.map.values == m.map.values
    assert total.source == m.source and total.target == m.target


def test_decompose_mixed_example():
    # one strict step and one collapsing step
    f = SetMap(4, 2, (0, 0, 1, 0))
    src = make_partition(4, [[0, 1], [2], [3]])
    m = PartitionMorphism(src, image_partition(f, src), f)
    steps = decompose_elementary(m)
    strict_flags = [
        s.target.components == s.source.components - 1
        for s in steps
        if not s.is_isomorphism()
    ]
    assert True in strict_flags and False in strict_flags


# --- goodness ----------------------------------------------------------------


def test_goodness_discrete_always_good():
    for m in range(2, 6):
        for lam in all_partitions(m):
            assert is_good(discrete(m), lam)


def test_goodness_frozen_counts():
    # counted by hand: for (0 1)(2 3) the good ones are the discrete
    # partition and the four cross pairs, the other 10 are bad
    lam3 = make_partition(3, [[0, 1, 2]])
    assert len(bad_diagonals(lam3)) == 4
    lam22 = make_partition(4, [[0, 1], [2, 3]])
    assert len(bad_diagonals(lam22)) == 10


def test_bad_diagonals_cap_is_a_cap_error():
    with pytest.raises(CapExceededError, match="exceeds cap"):
        bad_diagonals(indiscrete(POSET_SUPPORT_CAP + 1))


def test_goodness_routes_agree_exhaustive():
    for m in range(2, 6):
        parts = list(all_partitions(m))
        for lam in parts:
            for delta in parts:
                a = is_good(delta, lam)
                assert a == goodness_via_graph(delta, lam)
                assert a == goodness_via_graph_forest_only(delta, lam)


def test_badness_descends_to_coarser():
    parts = list(all_partitions(4))
    for lam in parts:
        for delta in parts:
            if is_good(delta, lam):
                continue
            for coarser in parts:
                if delta.refines(coarser):
                    assert not is_good(coarser, lam), (
                        str(lam),
                        str(delta),
                        str(coarser),
                    )


def test_badness_pushes_forward_along_strict_fusions():
    for m in range(2, 5):
        for mp in range(1, m + 1):
            for morphism in all_fusions(m, mp):
                if not is_strict_fusion(morphism):
                    continue
                lam, lam2, f = morphism.source, morphism.target, morphism.map
                for delta in all_partitions(m):
                    if not is_good(delta, lam):
                        assert not is_good(image_partition(f, delta), lam2)


def test_goodness_meet_formula_consistency():
    lam = make_partition(4, [[0, 1], [2, 3]])
    delta = make_partition(4, [[0, 2], [1], [3]])
    # c(delta)=3, meet has one block, 3 - 1 == excess 2
    assert meet(lam, delta) == indiscrete(4)
    assert is_good(delta, lam)
