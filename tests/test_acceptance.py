"""Release gate: the headline numbers and exhaustive agreements.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints
one pass/fail line each.  Stated time budgets are asserted too.
"""

import itertools
import json
import math
import time

from forestcalc.category import (
    enumerate_en,
    verify_essentially_cofibrant,
    verify_nice_filtration,
)
from forestcalc.cli import main
from forestcalc.fusion import (
    PartitionMorphism,
    decompose_elementary,
    goodness_via_graph,
    is_good,
    is_strict_fusion,
    strictness_via_h1,
)
from forestcalc.homology import cover_acyclicity, homology
from forestcalc.layers import coend, derivative_report, stratum
from forestcalc.partitions import (
    SetMap,
    all_partitions,
    canonicalize,
    image_partition,
)
from forestcalc.simplicial import (
    model_circle,
    model_interval,
    model_points,
    t_space,
    t_space_suspension_model,
)
from forestcalc.verify import broken_square_demo

from helpers import indiscrete, stratum_homology


def surjections(m, mp):
    for values in itertools.product(range(mp), repeat=m):
        if len(set(values)) == mp:
            yield SetMap(m, mp, values)


def live_groups(result):
    return {
        k: (g.rank, g.torsion) for k, g in result.groups.items() if not g.is_zero()
    }


def test_c01_second_excess_table_exact():
    started = time.monotonic()
    table = enumerate_en(2, include_homs=True)
    assert len(table.objects) == 2
    assert sorted(g.order for g in table.groups) == [6, 8]
    # four gluing patterns from the two-pairs object onto the triple,
    # twenty-four concrete maps, none in the other direction
    shapes = [p.shape() for p in table.objects]
    i_pairs = shapes.index((2, 2))
    i_triple = shapes.index((3,))
    assert table.glue_pattern_count(i_pairs, i_triple) == 4
    assert len(table.hom(i_pairs, i_triple)) == 24
    assert len(table.hom(i_triple, i_pairs)) == 0
    assert time.monotonic() - started < 1.0


def test_c02_iso_class_counts_match_partition_numbers():
    started = time.monotonic()
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7}
    skeletal = {n: len(enumerate_en(n, include_homs=False).objects) for n in expected}
    assert skeletal == expected
    # non-skeletal cross-check: every irreducible partition up to
    # support ten, classes collected by canonical form
    brute = {}
    for m in range(2, 11):
        for p in all_partitions(m):
            if not p.is_irreducible():
                continue
            n = p.excess
            if n in expected:
                brute.setdefault(n, set()).add(canonicalize(p).blocks)
    assert {n: len(s) for n, s in brute.items()} == expected
    # the classes themselves agree, not just the counts
    for n in expected:
        skeletal_forms = {
            canonicalize(p).blocks for p in enumerate_en(n, include_homs=False).objects
        }
        assert skeletal_forms == brute[n]
    assert time.monotonic() - started < 60.0


def test_c03_tree_space_wedge_ranks():
    started = time.monotonic()
    # single-block spaces: rank (n-1)! concentrated in degree n-1
    for n in range(2, 6):
        res = homology(t_space(indiscrete(n)))
        assert live_groups(res) == {n - 1: (math.factorial(n - 1), ())}
    # every partition with support up to six
    for m in range(1, 7):
        for lam in all_partitions(m):
            rank = math.prod(math.factorial(len(b) - 1) for b in lam.blocks)
            res = homology(t_space(lam))
            assert live_groups(res) == {lam.excess: (rank, ())}, lam
    assert time.monotonic() - started < 120.0


def test_c04_quotient_vs_suspension_models():
    for m in range(1, 6):
        for lam in all_partitions(m):
            if lam.excess == 0:
                continue  # the suspension description needs a fused pair
            a = homology(t_space(lam))
            b = homology(t_space_suspension_model(lam))
            assert live_groups(a) == live_groups(b), lam


def test_c05_strictness_triple_exhaustive():
    started = time.monotonic()
    checked = 0
    for m in range(1, 6):
        for mp in range(1, m + 1):
            for f in surjections(m, mp):
                for src in all_partitions(m):
                    mor = PartitionMorphism(src, image_partition(f, src), f)
                    by_excess = is_strict_fusion(mor)
                    by_h1 = strictness_via_h1(mor)
                    steps = decompose_elementary(mor)
                    by_steps = all(
                        s.target.components == s.source.components - 1
                        or s.map.is_bijective()
                        for s in steps
                    )
                    assert by_excess == by_h1 == by_steps, mor
                    checked += 1
    assert checked == 29329
    assert time.monotonic() - started < 60.0


def test_c06_goodness_double_criterion_and_badness():
    # both characterizations, all pairs on supports up to five
    for m in range(1, 6):
        partitions = list(all_partitions(m))
        for lam in partitions:
            for delta in partitions:
                assert is_good(delta, lam) == goodness_via_graph(delta, lam)
    # heredity: anything coarser than a bad partition stays bad
    for m in range(1, 5):
        partitions = list(all_partitions(m))
        for lam in partitions:
            for delta in partitions:
                if is_good(delta, lam):
                    continue
                for gamma in partitions:
                    if delta.refines(gamma):
                        assert not is_good(gamma, lam), (lam, delta, gamma)
    # pushforward: strict fusions carry bad diagonals to bad diagonals
    for m in range(1, 5):
        for mp in range(1, m + 1):
            for f in surjections(m, mp):
                for lam in all_partitions(m):
                    mor = PartitionMorphism(lam, image_partition(f, lam), f)
                    if not is_strict_fusion(mor):
                        continue
                    for delta in all_partitions(m):
                        if is_good(delta, lam):
                            continue
                        pushed = image_partition(f, delta)
                        assert not is_good(pushed, mor.target), (lam, delta, f)


def test_c07_nice_filtration_certificates():
    for n in (1, 2, 3, 4):
        cert = verify_nice_filtration(enumerate_en(n, include_homs=True))
        assert cert["passed"] is True, cert


def test_c08_fat_diagonal_reconstruction():
    models = {
        "two points": model_points(2),
        "three points": model_points(3),
        "circle": model_circle(),
    }
    for n in (1, 2):
        for label, model in models.items():
            report = verify_essentially_cofibrant(n, model)
            assert report["passed"] is True, (n, label, report)


def test_c09_layer_pipeline():
    started = time.monotonic()
    # two points, first layer: one circle, via both routes
    asm = coend(model_points(2), 1)
    assert live_groups(homology(asm.total)) == {1: (1, ())}
    st = stratum(asm, indiscrete(2))
    assert st.free
    assert live_groups(stratum_homology(st)) == {1: (1, ())}
    # three points: six ordered off-diagonal pairs over the swap, three circles
    asm3 = coend(model_points(3), 1)
    assert live_groups(homology(asm3.total)) == {1: (3, ())}
    st3 = stratum(asm3, indiscrete(2))
    assert live_groups(stratum_homology(st3)) == {1: (3, ())}
    # layer-by-layer euler bookkeeping for every computed model
    for model in (model_points(2), model_points(3), model_circle()):
        for n in (1, 2):
            report = derivative_report(model, n)
            assert report["euler_additivity"]["passed"] is True, (model, n)
            assert report["degree_support"]["passed"] is True, (model, n)
    assert time.monotonic() - started < 300.0


def test_c10_cube_checker_controls():
    ok, _ = cover_acyclicity(model_interval(), [["v0", "v1", "e"], ["v0"]])
    assert ok
    ok, _ = cover_acyclicity(model_circle(), [["v", "e"], ["v"]])
    assert ok
    acyclic, result = broken_square_demo()
    assert not acyclic
    assert result.group(1).rank == 1


def test_c11_verify_determinism(capsys):
    started = time.monotonic()
    code_a = main(["verify", "--level", "quick"])
    out_a = capsys.readouterr().out
    first_run = time.monotonic() - started
    code_b = main(["verify", "--level", "quick"])
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)["payload"]
    assert payload["passed"] is True
    assert first_run < 30.0
