import itertools

import pytest
from hypothesis import given, strategies as st

from forestcalc.errors import SupportMismatchError, ValidationError
from forestcalc.partitions import (
    SetMap,
    UnionFind,
    all_partitions,
    canonicalize,
    image_partition,
    join,
    make_partition,
    meet,
    refinement_poset,
)
from helpers import discrete, indiscrete


# --- independent oracles ----------------------------------------------------


def bell_numbers(limit):
    """Bell triangle, no partition code involved."""
    out = [1]
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def closure_oracle(m, pairs):
    """Reachability by repeated squaring of the relation matrix."""
    reach = [[i == j for j in range(m)] for i in range(m)]
    for x, y in pairs:
        reach[x][y] = reach[y][x] = True
    for k in range(m):
        for i in range(m):
            if reach[i][k]:
                for j in range(m):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def partitions_by_rgs(m):
    """Partitions of {0..m-1} from restricted growth strings."""
    found = []
    for values in itertools.product(range(m), repeat=m):
        ok = values[0] == 0
        top = 0
        for v in values[1:]:
            if v > top + 1:
                ok = False
                break
            top = max(top, v)
        if not ok:
            continue
        blocks = {}
        for x, v in enumerate(values):
            blocks.setdefault(v, []).append(x)
        found.append(tuple(tuple(b) for _, b in sorted(blocks.items())))
    return set(found)


def partitions_strategy(max_support=5):
    def build(draw):
        m = draw(st.integers(min_value=1, max_value=max_support))
        labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        blocks = {}
        for x, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(x)
        return make_partition(m, list(blocks.values()))

    return st.composite(build)()


# --- construction and validation -------------------------------------------


def test_make_partition_sorts_blocks():
    p = make_partition(4, [[3, 2], [0, 1]])
    assert p.blocks == ((0, 1), (2, 3))
    assert str(p) == "(0 1)(2 3)"


def test_make_partition_rejects_overlap():
    with pytest.raises(ValidationError):
        make_partition(3, [[0, 1], [1, 2]])


def test_make_partition_rejects_gaps():
    with pytest.raises(ValidationError):
        make_partition(3, [[0, 1]])


def test_components_and_excess():
    p = make_partition(5, [[0, 1, 2], [3, 4]])
    assert p.components == 2
    assert p.excess == 3
    assert p.shape() == (3, 2)
    assert p.is_irreducible()
    assert not make_partition(3, [[0, 1], [2]]).is_irreducible()


def test_partition_counts_match_bell():
    bells = bell_numbers(6)
    for m in range(1, 7):
        assert sum(1 for _ in all_partitions(m)) == bells[m]


def test_all_partitions_match_rgs_oracle():
    for m in range(1, 6):
        ours = {p.blocks for p in all_partitions(m)}
        assert ours == partitions_by_rgs(m)


# --- refinement order -------------------------------------------------------


def test_refines_basics():
    fine = make_partition(4, [[0], [1], [2, 3]])
    coarse = make_partition(4, [[0, 1], [2, 3]])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert discrete(4).refines(coarse)
    assert coarse.refines(indiscrete(4))


def test_refines_direction_pinned():
    # discrete refines everything, everything refines indiscrete
    for p in all_partitions(4):
        assert p.refines(p)
        assert discrete(4).refines(p)
        assert p.refines(indiscrete(4))


def test_support_mismatch_raises():
    with pytest.raises(SupportMismatchError):
        make_partition(2, [[0, 1]]).refines(make_partition(3, [[0, 1, 2]]))


# --- meet, join -------------------------------------------------------------


def test_meet_join_small_example():
    p = make_partition(4, [[0, 1], [2, 3]])
    q = make_partition(4, [[0, 2], [1, 3]])
    assert meet(p, q) == indiscrete(4)
    assert join(p, q) == discrete(4)


@given(partitions_strategy(), partitions_strategy())
def test_meet_join_lattice_laws(p, q):
    if p.support_size != q.support_size:
        return
    assert meet(p, q) == meet(q, p)
    assert join(p, q) == join(q, p)
    assert join(p, meet(p, q)) == p
    assert meet(p, join(p, q)) == p


@given(partitions_strategy())
def test_meet_join_idempotent(p):
    assert meet(p, p) == p
    assert join(p, p) == p


def test_meet_is_finest_common_coarsening():
    for p, q in itertools.product(list(all_partitions(4)), repeat=2):
        m = meet(p, q)
        assert p.refines(m) and q.refines(m)
        for candidate in all_partitions(4):
            if p.refines(candidate) and q.refines(candidate):
                assert m.refines(candidate)


# --- maps and images --------------------------------------------------------


def test_setmap_basics():
    f = SetMap(3, 2, (0, 1, 1))
    assert f(2) == 1
    assert f.is_surjective()
    assert not f.is_bijective()


def test_image_partition_example():
    f = SetMap(4, 3, (0, 0, 1, 2))
    p = make_partition(4, [[0, 3], [1, 2]])
    # blocks {0,3} -> {0,2}, {1,2} -> {0,1}; they share 0 so everything joins
    assert image_partition(f, p) == indiscrete(3)


def test_image_partition_against_closure_oracle():
    for m, mp in ((3, 2), (4, 3), (4, 2)):
        maps = [
            SetMap(m, mp, values)
            for values in itertools.product(range(mp), repeat=m)
            if len(set(values)) == mp
        ]
        for f in maps:
            for p in all_partitions(m):
                pairs = []
                for block in p.blocks:
                    for x, y in itertools.combinations(block, 2):
                        pairs.append((f(x), f(y)))
                reach = closure_oracle(mp, pairs)
                img = image_partition(f, p)
                where = img.block_of()
                for x in range(mp):
                    for y in range(mp):
                        assert reach[x][y] == (where[x] == where[y])


# --- canonical forms --------------------------------------------------------


def test_canonicalize_is_shape_stable():
    p = make_partition(5, [[0, 4], [1, 2, 3]])
    q = make_partition(5, [[0, 1, 2], [3, 4]])
    assert canonicalize(p) == canonicalize(q)


# --- refinement posets ------------------------------------------------------


def test_refinement_poset_of_indiscrete_is_whole_lattice():
    poset = refinement_poset(indiscrete(4))
    assert len(poset) == bell_numbers(4)[4]
    assert poset.elements[poset.min_index] == indiscrete(4)
    assert poset.elements[poset.max_index] == discrete(4)


def test_refinement_poset_factors_over_blocks():
    lam = make_partition(5, [[0, 1, 2], [3, 4]])
    poset = refinement_poset(lam)
    # refinements factor blockwise: Bell(3) * Bell(2)
    assert len(poset) == 5 * 2


def test_strictly_above_is_proper_refinement():
    # brute force over all pairs: the blockwise successors are exactly
    # the proper refinements, ascending, for every shape of support <= 6
    shapes = {canonicalize(p) for m in range(7) for p in all_partitions(m)}
    for lam in shapes:
        poset = refinement_poset(lam)
        elements = poset.elements
        assert elements[poset.min_index] == lam
        assert elements[poset.max_index] == discrete(lam.support_size)
        for i, p in enumerate(elements):
            expected = [j for j, q in enumerate(elements) if j != i and q.refines(p)]
            assert list(poset.strictly_above(i)) == expected, (lam, p)


def test_refinement_poset_cap():
    from forestcalc.errors import CapExceededError

    with pytest.raises(CapExceededError):
        refinement_poset(indiscrete(10))


# --- union-find ---------------------------------------------------------------


def test_union_find_on_tuples_and_unseen_elements():
    uf = UnionFind([(0, "a"), (1, "b")])
    assert (2, "c") not in uf
    assert uf.find((2, "c")) == (2, "c")  # joins as a singleton
    assert (2, "c") in uf
    assert uf.union((0, "a"), (2, "c"))
    assert not uf.union((2, "c"), (0, "a"))
    assert uf.find((0, "a")) == uf.find((2, "c")) != uf.find((1, "b"))


def test_union_find_classes_in_first_seen_order():
    uf = UnionFind(["d", "c", "b", "a"])
    uf.union("a", "c")
    uf.union("b", "d")
    uf.union("e", "a")  # e is new: it is seen last
    assert uf.classes() == [["d", "b"], ["c", "a", "e"]]


def test_union_find_blocks_sorted_by_minimum():
    uf = UnionFind(range(6))
    uf.union(5, 1)
    uf.union(4, 0)
    uf.union(3, 5)
    assert uf.blocks() == ((0, 4), (1, 3, 5), (2,))


def test_union_find_keys_equal_but_distinct():
    # fresh tuples and ints above 256 are new objects on every build; find
    # returns the key object stored first, and roots map to themselves
    def key(i):
        return tuple([int(str(1000 + i)), "x"])

    assert key(0) == key(0) and key(0) is not key(0)
    assert int(str(1000)) is not int(str(1000))
    stored = [key(i) for i in range(6)]
    uf = UnionFind(stored)
    assert uf.union(key(0), key(1))
    assert uf.union(key(2), key(3))
    assert uf.union(key(1), key(3))
    assert not uf.union(key(3), key(0))
    root = uf.find(key(2))
    assert any(root is k for k in stored)
    for i in range(4):
        assert uf.find(key(i)) is root
    assert uf.find(key(5)) is stored[5]
    assert uf.classes() == [stored[:4], [stored[4]], [stored[5]]]
    # every value is a stored key object; exactly the roots map to themselves
    keys = {id(k) for k in uf.parent}
    assert all(id(v) in keys for v in uf.parent.values())
    roots = [k for k, v in uf.parent.items() if v is k]
    assert len(roots) == 3 and roots[0] is root


def test_union_find_flattens_a_long_chain():
    # each union puts the old root under the new element: 0 -> 1 -> ... -> n
    n = 300
    uf = UnionFind()
    for i in range(1, n + 1):
        assert uf.union(int(str(1000 + i)), int(str(1000 + i - 1)))
    top = next(k for k in uf.parent if k == 1000 + n)
    assert uf.find(int(str(1000))) is top
    assert all(parent is top for parent in uf.parent.values())
    assert len(uf.classes()) == 1
