"""Tests for the glued layer spaces: induced maps, coends, strata, reports."""

import functools
import importlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from forestcalc import layers
from forestcalc.category import aut_order_formula, enumerate_en
from forestcalc.errors import CapExceededError, ValidationError
from forestcalc.fusion import is_good
from forestcalc.homology import (
    HomologyGroup,
    HomologyResult,
    chain_complex,
    homology,
    homology_of_complex,
)
from forestcalc.layers import (
    COEND_N_CAP,
    CoendAssembly,
    _coend_pieces,
    _glue,
    coend,
    coend_over_filtration,
    derivative_report,
    latching_coend,
    latching_counts,
    layer_census,
    power_quotient_map,
    stratum,
    t_space_map,
)
from forestcalc.partitions import SetMap, make_partition, meet
from forestcalc.powers import PowerPair, coincidence_partition, power_pair
from forestcalc.simplicial import (
    BASEPOINT,
    SimplicialMap,
    SimplicialObject,
    compose_simplicial,
    model_circle,
    model_interval,
    model_points,
    model_wedge_of_circles,
    power,
    product_map,
    quotient,
    same_object,
    smash,
    surj_compose,
    surj_identity,
    t_space,
    _surjection_tuples,
)

from helpers import (
    assert_same_reduction,
    automorphism_relations,
    betti_numbers,
    compose,
    filtration,
    glue_cell_by_cell,
    identity_simplicial,
    indiscrete,
    kept_face_sums_reference,
    orbit_stratum,
    product_map_reference,
    route_a_coend,
    smash_via_product,
    stratum_homology,
    surj_degeneracy,
    surjections,
    unreduced_groups,
)

def en2():
    return enumerate_en(2, include_homs=True)


def arrow(table, i, j, values):
    """An arrow of hom(i, j), stored as a value tuple, as a SetMap."""
    return SetMap(table.objects[i].support_size, table.objects[j].support_size, values)


MODELS = {
    "points2": lambda: model_points(2),
    "points3": lambda: model_points(3),
    "circle": model_circle,
    "interval": model_interval,
    "wedge2": lambda: model_wedge_of_circles(2),
}


@functools.lru_cache(maxsize=None)
def assembled(name, n):
    """The coend assembly of a named model, shared between tests."""
    return coend(MODELS[name](), n)


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
            tm = t_space_map(arrow(table, i, j, f), table.objects[i], table.objects[j])
            tm.validate()


def test_t_space_map_functorial():
    table = en2()
    checked = 0
    for i in range(2):
        for j in range(2):
            for f in table.hom(i, j)[:6]:
                f = arrow(table, i, j, f)
                for k in range(2):
                    for g in table.hom(j, k)[:6]:
                        g = arrow(table, j, k, g)
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
    f = arrow(table, 1, 0, table.hom(1, 0)[0])
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


# --- the colimit against an all-simplices oracle ---------------------------------


def _all_simplices(obj, k):
    for p in range(k + 1):
        for cell in obj.cells_of_dim(p):
            for alpha in surjections(k, p):
                yield (cell, alpha)


def glue_all_simplices(pieces, relations):
    """The colimit taken over every simplex, degenerate ones included:
    union-find on all k-simplices of the pieces along a(s) ~ b(s) for all
    k-simplices s of each mixing piece, then normal forms bottom-up."""
    top = max(p.dimension for p in pieces.values())
    finds = []
    glue_counts = {}
    for k in range(top + 1):
        parent = {}
        for i, piece in pieces.items():
            for ref in _all_simplices(piece, k):
                parent[(i, ref)] = (i, ref)

        def find(x, parent=parent):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merges = 0
        bases = [(i, (pieces[i].basepoint, (0,) * (k + 1))) for i in pieces]
        for other in bases[1:]:
            ra, rb = find(bases[0]), find(other)
            if ra != rb:
                parent[rb] = ra
                merges += 1
        for i, j, w, a, b in relations:
            for ref in _all_simplices(w, k):
                ra, rb = find((i, a.ref_image(ref))), find((j, b.ref_image(ref)))
                if ra != rb:
                    parent[rb] = ra
                    merges += 1
        finds.append((parent, find))
        glue_counts[k] = merges
    normal = [{} for _ in range(top + 1)]
    cells = {}
    faces = {}
    for k in range(top + 1):
        parent, find = finds[k]
        # a class is named after its earliest cell: lowest piece, then cell order
        order = {
            (i, cell): (i, t)
            for i, piece in pieces.items()
            for t, cell in enumerate(piece.cells_of_dim(k))
        }
        members = {}
        for node in parent:
            members.setdefault(find(node), []).append(node)
        for root, group in members.items():
            degenerate = None
            for i, (cell, alpha) in group:
                if alpha != surj_identity(pieces[i].dim_of[cell]):
                    degenerate = (i, cell, alpha)
                    break
            if degenerate is None:
                name = min(((i, cell) for (i, (cell, _)) in group), key=order.get)
                normal[k][root] = (name, surj_identity(k))
                cells.setdefault(k, []).append(name)
                if k > 0:
                    i, cell = name
                    _, sub_find = finds[k - 1]
                    faces[name] = tuple(
                        normal[k - 1][sub_find((i, pieces[i].face(cell, t)))]
                        for t in range(k + 1)
                    )
            else:
                i, cell, alpha = degenerate
                drop = next(t for t in range(len(alpha) - 1) if alpha[t] == alpha[t + 1])
                lower_ref = (cell, alpha[: drop + 1] + alpha[drop + 2:])
                _, sub_find = finds[k - 1]
                lname, lword = normal[k - 1][sub_find((i, lower_ref))]
                normal[k][root] = (lname, surj_degeneracy(lword, drop))
    _, find0 = finds[0]
    bp_name = normal[0][find0((0, (pieces[0].basepoint, (0,))))][0]
    return SimplicialObject(cells, faces, basepoint=bp_name), glue_counts


@pytest.mark.parametrize(
    "model, n",
    [
        (lambda: model_points(2), 1),
        (lambda: model_points(2), 2),
        (lambda: model_points(3), 2),
        (model_circle, 1),
        (model_interval, 1),
        (lambda: model_wedge_of_circles(2), 1),
    ],
    ids=["points2-n1", "points2-n2", "points3-n2", "circle-n1", "interval-n1", "wedge2-n1"],
)
def test_glue_matches_all_simplices_colimit(model, n):
    table = enumerate_en(n, include_homs=True)
    pieces, relations, automorphisms = _coend_pieces(model(), table)
    total, gluing = _glue(pieces, relations, automorphisms)
    oracle_total, oracle_gluing = glue_all_simplices(
        pieces, relations + automorphism_relations(pieces, automorphisms)
    )
    assert same_object(total, oracle_total)
    assert gluing == oracle_gluing


REDUCTION_CASES = [(name, n) for name in ("circle", "interval", "wedge2") for n in (1, 2)]


@pytest.mark.parametrize(
    "name, n", REDUCTION_CASES, ids=[f"{c}-n{n}" for c, n in REDUCTION_CASES]
)
def test_reduction_matches_reference_on_coend_and_strata(name, n):
    # the flat-array reducer against the dict reference, on every stage of
    # the coend and every stratum
    assembly = assembled(name, n)
    for i in range(1, n + 1):
        assert_same_reduction(chain_complex(assembly.stages[i]))
    for lam in assembly.table.objects:
        assert_same_reduction(stratum(assembly, lam).complex)


SMASH_CASES = [(name, n) for name in ("points3", "circle", "interval", "wedge2") for n in (1, 2)]


@pytest.mark.parametrize("name, n", SMASH_CASES, ids=[f"{c}-n{n}" for c, n in SMASH_CASES])
def test_smash_matches_product_over_wedge(name, n):
    # the factors of piece i (i == j) and of the mixing piece of each
    # generating arrow i -> j: the power quotient of j and the tree space of i
    M = MODELS[name]()
    table = enumerate_en(n, include_homs=True)
    quotients = [power_pair(M, lam).quotient for lam in table.objects]
    trees = [t_space(lam) for lam in table.objects]
    factors = [
        (quotients[j], trees[i])
        for i in range(len(trees))
        for j in range(len(trees))
        if i == j or table.generating_arrows(i, j)
    ]
    assert len(factors) == (1 if n == 1 else 3)
    for a, b in factors:
        built, oracle = smash(a, b), smash_via_product(a, b)
        assert built.cells == oracle.cells
        # built computes its faces on lookup: same_object reads each by subscript
        assert same_object(built, oracle)
        assert built.basepoint == oracle.basepoint


def all_arrow_relations(M, table):
    """The pieces, glued along one relation for every arrow of every hom
    set rather than along the generating arrows only."""
    pairs = {i: power_pair(M, lam) for i, lam in enumerate(table.objects)}
    pieces = {
        i: smash(pairs[i].quotient, t_space(lam)) for i, lam in enumerate(table.objects)
    }
    trees = {}
    relations = []
    for i, lam in enumerate(table.objects):
        for j, lam_j in enumerate(table.objects):
            w = pieces[i] if i == j else smash(pairs[j].quotient, t_space(lam))
            for f in table.hom(i, j):
                f = arrow(table, i, j, f)
                pw = power_quotient_map(f, pairs[i], pairs[j])
                tw = t_space_map(f, lam, lam_j, trees)
                a = product_map([pw, None], w, pieces[i])
                b = product_map([None, tw], w, pieces[j])
                relations.append((i, j, w, a, b))
    return pieces, relations


@pytest.mark.parametrize(
    "model, n",
    [
        (lambda: model_points(2), 1),
        (lambda: model_points(2), 2),
        (lambda: model_points(3), 2),
        (model_circle, 1),
        (model_circle, 2),
        (model_interval, 1),
        (lambda: model_wedge_of_circles(2), 1),
    ],
    ids=[
        "points2-n1",
        "points2-n2",
        "points3-n2",
        "circle-n1",
        "circle-n2",
        "interval-n1",
        "wedge2-n1",
    ],
)
def test_generating_arrows_glue_like_all_arrows(model, n):
    M = model()
    table = enumerate_en(n, include_homs=True)
    pieces, relations, automorphisms = _coend_pieces(M, table)
    total, gluing = _glue(pieces, relations, automorphisms)
    oracle_pieces, oracle_relations = all_arrow_relations(M, table)
    assert len(relations + automorphism_relations(pieces, automorphisms)) < len(oracle_relations)
    oracle_total, oracle_gluing = _glue(oracle_pieces, oracle_relations)
    assert same_object(total, oracle_total)
    assert gluing == oracle_gluing


ORBIT_CASES = [(name, n) for name in ("circle", "interval", "points3", "wedge2") for n in (1, 2)]


@pytest.mark.parametrize("name, n", ORBIT_CASES, ids=[f"{c}-n{n}" for c, n in ORBIT_CASES])
def test_glue_matches_cell_by_cell_oracle(name, n):
    # production divides each piece by its automorphisms as orbits of
    # factor-cell pairs; the oracle applies every generating arrow,
    # automorphisms included, to each cell through product_map
    pieces, relations, automorphisms = _coend_pieces(
        MODELS[name](), enumerate_en(n, include_homs=True)
    )
    total, gluing = _glue(pieces, relations, automorphisms)
    oracle_total, oracle_gluing = glue_cell_by_cell(
        pieces, relations + automorphism_relations(pieces, automorphisms)
    )
    assert same_object(total, oracle_total)
    assert gluing == oracle_gluing


def _corrupted(m, send):
    """m with its first cell of positive dimension sent by send(cell, k)
    instead, k the cell's dimension."""
    cell = next(c for c in m.source.all_cells() if m.source.dim_of[c] > 0)
    k = m.source.dim_of[cell]
    return SimplicialMap(m.source, m.target, {**m.mapping, cell: send(cell, k)})


@pytest.mark.parametrize("factor", [0, 1], ids=["power", "tree"])
@pytest.mark.parametrize("image", ["degenerate", "basepoint"])
def test_glue_rejects_an_automorphism_that_is_not_an_isomorphism(factor, image):
    # a generator whose factor map sends a cell to a degenerate simplex
    # or to the basepoint would glue that piece's cells short of their
    # orbits; it is an error naming the object
    pieces, relations, automorphisms = _coend_pieces(
        model_circle(), enumerate_en(2, include_homs=True)
    )
    maps = list(automorphisms[1][0])

    def send(cell, k):
        if image == "basepoint":
            return (BASEPOINT, (0,) * (k + 1))
        # the cell's first face, degenerated back to dimension k
        face, gamma = maps[factor].source.face(cell, 0)
        return (face, surj_compose(gamma, (0,) + tuple(range(k))))

    maps[factor] = _corrupted(maps[factor], send)
    automorphisms[1] = [tuple(maps)] + automorphisms[1][1:]
    with pytest.raises(ValidationError, match="automorphism of object 1 is not an isomorphism"):
        _glue(pieces, relations, automorphisms)


def test_stratum_rejects_an_automorphism_that_is_not_an_isomorphism(monkeypatch):
    assembly = assembled("circle", 1)
    arrow_maps = layers._arrow_maps

    def corrupting(*args):
        (pw, tw), *rest = arrow_maps(*args)
        return [(_corrupted(pw, lambda cell, k: (BASEPOINT, (0,) * (k + 1))), tw)] + rest

    monkeypatch.setattr(layers, "_arrow_maps", corrupting)
    with pytest.raises(ValidationError, match=r"automorphism of \(0 1\) is not"):
        stratum(assembly, indiscrete(2))


@pytest.mark.parametrize(
    "model, n",
    [(lambda: model_points(2), 2), (model_circle, 1)],
    ids=["points2-n2", "circle-n1"],
)
def test_relation_maps_are_simplicial(model, n):
    # the relations of the non-iso arrows, and those the automorphism
    # generators give as product maps of each piece to itself; each
    # generator's factor maps are simplicial bijections on cells, with
    # identity words
    table = enumerate_en(n, include_homs=True)
    pieces, relations, automorphisms = _coend_pieces(model(), table)
    assert len(relations) == n - 1
    assert all(automorphisms[i] for i in pieces)
    for i, j, w, a, b in relations + automorphism_relations(pieces, automorphisms):
        assert a.source is w and a.target is pieces[i]
        assert b.source is w and b.target is pieces[j]
        a.validate()
        b.validate()
    for i, generators in automorphisms.items():
        for pw, tw in generators:
            assert (pw.source, tw.source) == pieces[i].faces.factors
            for m in (pw, tw):
                assert m.target is m.source
                m.validate()
                images = [m.mapping[c] for c in m.source.all_cells()]
                assert all(word == surj_identity(len(word) - 1) for _, word in images)
                assert {c for c, _ in images} == set(m.source.dim_of)
                assert len(images) == len(m.source.dim_of)


@pytest.mark.parametrize(
    "model, n",
    [
        (model_circle, 1),
        (model_circle, 2),
        (model_interval, 1),
        (model_interval, 2),
        (lambda: model_wedge_of_circles(2), 1),
        (lambda: model_wedge_of_circles(2), 2),
        (lambda: model_points(3), 2),
    ],
    ids=["circle-n1", "circle-n2", "interval-n1", "interval-n2", "wedge2-n1", "wedge2-n2", "points3-n2"],
)
def test_relation_images_match_stored_reference(model, n):
    # each relation map computes its images on lookup; they are the ones
    # the stored loop gives, and a second full read gives them again
    pieces, relations, automorphisms = _coend_pieces(model(), enumerate_en(n, include_homs=True))
    assert len(relations) == n - 1
    for _, _, w, a, b in relations + automorphism_relations(pieces, automorphisms):
        for m in (a, b):
            images = dict(m.mapping)
            assert images == product_map_reference(m.mapping.maps, w, m.target)
            assert dict(m.mapping) == images


def test_coend_in_small_memory():
    # the relation maps keep no image table: under tracemalloc the
    # circle's coend at n = 2 peaked at 8.9 MB with an image table stored
    # for each of the ten maps of its five relations, and reads 4.7 MB;
    # the pieces with their relations held 6.6 MB, now 1.7 MB
    tracemalloc.start()
    try:
        assembly = coend(model_circle(), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembly.total.cell_count()
    assert peak < 6_000_000
    tracemalloc.start()
    try:
        pieces, relations, automorphisms = _coend_pieces(
            model_circle(), enumerate_en(2, include_homs=True)
        )
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # one non-iso arrow and two generators for each of the two objects
    assert len(relations) == 1
    assert [len(automorphisms[i]) for i in pieces] == [2, 2]
    assert held < 3_000_000


def test_product_map_identity_factor_as_none():
    # the relation of f: (2,2) -> (3,) for the circle at n = 2, with the
    # identity factor given as None and as an explicit identity map
    table = en2()
    f = arrow(table, 1, 0, table.hom(1, 0)[0])
    src, tgt = table.objects[1], table.objects[0]
    pairs = {k: power_pair(model_circle(), table.objects[k]) for k in (0, 1)}
    w = smash(pairs[0].quotient, t_space(src))
    pw = power_quotient_map(f, pairs[1], pairs[0])
    piece = smash(pairs[1].quotient, t_space(src))
    a = product_map([pw, None], w, piece)
    assert a.mapping == product_map([pw, identity_simplicial(t_space(src))], w, piece).mapping
    tw = t_space_map(f, src, tgt)
    piece = smash(pairs[0].quotient, t_space(tgt))
    b = product_map([None, tw], w, piece)
    assert b.mapping == product_map([identity_simplicial(pairs[0].quotient), tw], w, piece).mapping


def test_glue_matches_all_simplices_colimit_with_degenerate_images():
    # the relation maps of the coends above send every cell to a
    # nondegenerate one; here an edge of a triangle collapses onto a
    # vertex of another piece, so classes take degenerate normal forms
    # and the triangle keeps a degenerate face
    vert, edge = (0,), (0, 1)  # identity words in dimensions 0 and 1
    point = SimplicialObject({0: ["*", "v"]}, {}, basepoint="*")
    triangle = SimplicialObject(
        {0: ["*", "x", "y", "z"], 1: ["xy", "xz", "yz"], 2: ["t"]},
        {
            "xy": (("y", vert), ("x", vert)),
            "xz": (("z", vert), ("x", vert)),
            "yz": (("z", vert), ("y", vert)),
            "t": (("yz", edge), ("xz", edge), ("xy", edge)),
        },
        basepoint="*",
    )
    w = SimplicialObject(
        {0: ["p", "q", "r"], 1: ["f", "g"]},
        {"f": (("q", vert), ("p", vert)), "g": (("r", vert), ("r", vert))},
    )
    a = SimplicialMap(
        w, point, {"p": ("v", vert), "q": ("v", vert), "r": ("v", vert),
                   "f": ("v", (0, 0)), "g": ("v", (0, 0))}
    )
    b = SimplicialMap(
        w, triangle, {"p": ("x", vert), "q": ("y", vert), "r": ("x", vert),
                      "f": ("xy", edge), "g": ("x", (0, 0))}
    )
    pieces = {0: point, 1: triangle}
    relations = [(0, 1, w, a, b)]
    total, gluing = _glue(pieces, relations)
    oracle_total, oracle_gluing = glue_all_simplices(pieces, relations)
    assert same_object(total, oracle_total)
    assert gluing == oracle_gluing
    assert total.cell_count() == {0: 3, 1: 2, 2: 1}
    assert total.faces[(1, "t")][2] == ((0, "v"), (0, 0))


def _loop(vertices, edge):
    faces = {edge: (("*", (0,)), ("*", (0,)))}
    return SimplicialObject({0: vertices, 1: [edge]}, faces, basepoint="*")


@pytest.mark.parametrize("through_a_cell", [False, True], ids=["direct", "via-e0"])
def test_glue_rejects_two_normal_forms_in_one_class(through_a_cell):
    # on_v sends the loop e to the degenerate simplex on v but e's vertex
    # to *, so it is not simplicial; gluing it against the degenerate
    # simplex on *, directly or through the loop e0, puts both normal
    # forms in one class
    piece = _loop(["*", "v"], "e0")
    w = _loop(["*"], "e")

    def sending_e_to(ref):
        return SimplicialMap(w, piece, {"*": ("*", (0,)), "e": ref})

    on_base = sending_e_to(("*", (0, 0)))
    on_v = sending_e_to(("v", (0, 0)))
    on_e0 = sending_e_to(("e0", (0, 1)))
    if through_a_cell:
        relations = [(0, 0, w, on_e0, on_base), (0, 0, w, on_e0, on_v)]
    else:
        relations = [(0, 0, w, on_base, on_v)]
    with pytest.raises(ValidationError, match="not simplicial"):
        _glue({0: piece}, relations)


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


def test_filtration_stage_out_of_range():
    with pytest.raises(ValidationError):
        coend_over_filtration(model_points(2), 1, 2)
    with pytest.raises(ValidationError):
        coend_over_filtration(model_points(2), 1, -1)


STAGE_CASES = [
    (name, n) for name in ("points2", "points3", "circle", "interval") for n in (1, 2)
] + [("wedge2", 1)]


@pytest.mark.parametrize(
    "name, n", STAGE_CASES, ids=[f"{c}-n{n}" for c, n in STAGE_CASES]
)
def test_stages_match_filtration_rebuild(name, n):
    # oracle: each stage built from scratch over the filtered table
    assembly = assembled(name, n)
    assert homology(assembly.stages[0]).is_acyclic()
    for i in range(1, n + 1):
        pieces, relations, automorphisms = _coend_pieces(
            MODELS[name](), filtration(assembly.table, i)
        )
        rebuilt, _ = _glue(pieces, relations, automorphisms)
        assert same_object(assembly.stages[i], rebuilt), i


@pytest.mark.parametrize("name", list(MODELS))
def test_stage_one_is_the_glued_filtration_at_n2(name):
    # stage 1 is cut out of the one glued space; gluing the pieces of the
    # filtered table on their own gives the same cells, names, order and
    # faces (wedge2 at n = 2 is left out of STAGE_CASES)
    assembly = assembled(name, 2)
    pieces, relations, automorphisms = _coend_pieces(
        MODELS[name](), filtration(assembly.table, 1)
    )
    rebuilt, _ = _glue(pieces, relations, automorphisms)
    assert same_object(assembly.stages[1], rebuilt)


def test_coend_glues_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return glue(*args)

    glue = layers._glue
    monkeypatch.setattr(layers, "_glue", counting)
    assembly = coend(model_circle(), 2)
    # once, over both pieces
    assert calls == [2]
    assert set(assembly.stages) == {0, 1, 2}


# --- strata -------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def strata_inputs(name, n):
    """What `stratum` reads of a coend assembly, without the gluing: the
    table, the power pairs and the tree spaces."""
    M = MODELS[name]()
    table = enumerate_en(n)
    return CoendAssembly(
        n=n,
        stages={},
        pieces={},
        pairs={i: power_pair(M, lam) for i, lam in enumerate(table.objects)},
        trees={},
        gluing_log={},
        table=table,
    )


def live(result):
    return {k: (g.rank, g.torsion) for k, g in result.groups.items() if not g.is_zero()}


def test_stratum_matches_coend_in_first_layer():
    for name in ("points2", "points3"):
        assembly = assembled(name, 1)
        res = stratum(assembly, indiscrete(2))
        assert res.free
        assert res.group_order == 2
        assert live(stratum_homology(res)) == live(homology(assembly.total))


def test_stratum_triple_block_is_free():
    res = stratum(assembled("points3", 2), indiscrete(3))
    assert res.free
    assert res.group_order == 6
    assert live(stratum_homology(res)) == {2: (2, ())}


def test_stratum_two_pairs():
    res = stratum(assembled("points3", 2), make_partition(4, [[0, 1], [2, 3]]))
    assert res.free
    assert res.group_order == 8


def test_stratum_validates_position():
    # only the objects of the assembly's table have a piece
    assembly = assembled("points2", 1)
    with pytest.raises(ValidationError):
        stratum(assembly, indiscrete(3))  # excess 2, not 1
    with pytest.raises(ValidationError):
        # isomorphic to the object (0 1)(2 3) but not canonical
        stratum(assembled("points2", 2), make_partition(4, [[0, 2], [1, 3]]))


def test_stratum_checks_bad_inside_fat():
    # a bad cell off the fat diagonal would make the stratum no longer a
    # quotient of the piece
    assembly = coend(model_points(2), 1)
    pair = assembly.pairs[0]
    off_fat = next(c for c in pair.power.all_cells() if c[0] != c[1])
    assembly.pairs[0] = PowerPair(
        lam=pair.lam,
        power=pair.power,
        bad_cells=pair.bad_cells | {off_fat},
        quotient=pair.quotient,
    )
    with pytest.raises(ValidationError, match="fat"):
        stratum(assembly, indiscrete(2))


STRATUM_CASES = [
    (name, n) for name in ("points3", "circle", "interval") for n in (1, 2)
]


@pytest.mark.parametrize(
    "name, n", STRATUM_CASES, ids=[f"{c}-n{n}" for c, n in STRATUM_CASES]
)
def test_stratum_matches_scratch_build(name, n):
    # oracle: the orbit quotient of the simplicial smash, built without
    # the coend; the homology agrees over Z and every field when the
    # action is free, and over Q otherwise
    assembly = assembled(name, n)
    for lam in assembly.table.objects:
        res = stratum(assembly, lam)
        assert res.complex.validate()  # the boundary squares to zero
        oracle = orbit_stratum(MODELS[name](), lam)
        assert res.free == oracle.free, lam
        for coefficients in ("Z", "F2", "F3") if res.free else ("Q",):
            ours = stratum_homology(res, coefficients).groups_json()
            theirs = homology(oracle.space, coefficients).groups_json()
            assert ours == theirs, (lam, coefficients)


def assert_universal_coefficients(cx, label):
    """rank_Fp H_k = rank H_k + #p-torsion(H_k) + #p-torsion(H_{k-1}) for
    p = 2 and 3, the Z side from the kernel and the F_p side from the
    reference mod-p elimination of the same complex: read off one divisor
    chain, the two sides would agree by algebra alone."""
    integral = homology_of_complex(cx)
    zero = HomologyGroup(0, ())
    for p in (2, 3):
        mod_p = unreduced_groups(cx, f"F{p}")

        def torsion(k):
            return sum(1 for d in integral.get(k, zero).torsion if d % p == 0)

        for k in set(mod_p) | set(integral) | {k + 1 for k in integral}:
            expected = integral.get(k, zero).rank + torsion(k) + torsion(k - 1)
            assert mod_p.get(k, zero).rank == expected, (label, p, k)


UCT_CASES = [(name, n) for name in MODELS for n in (1, 2)]


@pytest.mark.parametrize("name, n", UCT_CASES, ids=[f"{c}-n{n}" for c, n in UCT_CASES])
def test_strata_obey_universal_coefficients(name, n):
    assembly = strata_inputs(name, n)
    for lam in assembly.table.objects:
        res = stratum(assembly, lam)
        assert res.free, lam
        assert_universal_coefficients(res.complex, lam)


@pytest.mark.parametrize("name, n", UCT_CASES, ids=[f"{c}-n{n}" for c, n in UCT_CASES])
def test_strata_read_tree_faces_as_the_ref_route_does(monkeypatch, name, n):
    # the tree space's faces, read straight from its chains, give the
    # complex that reading every face as a ref gives
    homology_module = importlib.import_module("forestcalc.homology")
    assembly = strata_inputs(name, n)
    for lam in assembly.table.objects:
        ours = stratum(assembly, lam).complex
        with monkeypatch.context() as m:
            m.setattr(homology_module, "_kept_face_sums", kept_face_sums_reference)
            theirs = stratum(assembly, lam).complex
        assert ours.ranks == theirs.ranks, (name, lam)
        assert (ours.start, ours.face, ours.coef) == (theirs.start, theirs.face, theirs.coef)


# wedge2 at n = 2 is left out: its glue alone takes about 9 s
COEND_UCT_CASES = [case for case in UCT_CASES if case != ("wedge2", 2)]


@pytest.mark.parametrize(
    "name, n", COEND_UCT_CASES, ids=[f"{c}-n{n}" for c, n in COEND_UCT_CASES]
)
def test_coend_obeys_universal_coefficients(name, n):
    total = assembled(name, n).total
    assert_universal_coefficients(chain_complex(total), (name, n))


@pytest.mark.parametrize(
    "n, ranks",
    [
        (1, [0, 0, 1, 3, 6, 10]),
        (2, [0, 0, 0, 2, 11, 35]),
        (3, [0, 0, 0, 0, 6, 50, 225]),
        (4, [0, 0, 0, 0, 0, 24, 274]),
    ],
    ids=["n1", "n2", "n3", "n4"],
)
def test_point_layers_have_closed_form(n, ranks):
    # the layer of points:k has free reduced homology in degree n only, of
    # rank sum over lam of (k)_{|lam|} prod_b (|b| - 1)! / |Aut lam|; the
    # simplicial coend is capped at n = 2, so above it only the latching
    # route is checked
    objects = enumerate_en(n, include_homs=False).objects
    for k, rank in enumerate(ranks):
        formula = sum(
            Fraction(
                math.perm(k, lam.support_size)
                * math.prod(math.factorial(len(b) - 1) for b in lam.blocks),
                aut_order_formula(lam),
            )
            for lam in objects
        )
        assert formula == rank, k
        expected = {n: HomologyGroup(rank, ())} if rank else {}
        routes = [homology_of_complex(latching_coend(model_points(k), n).total, "Z")]
        if n <= COEND_N_CAP:
            routes.append(homology(coend(model_points(k), n).total).groups)
        for groups in routes:
            assert {d: g for d, g in groups.items() if not g.is_zero()} == expected, k


COFIBER_CASES = [(name, n) for name in ("points2", "circle", "interval") for n in (1, 2)]


@pytest.mark.parametrize(
    "name, n", COFIBER_CASES, ids=[f"{c}-n{n}" for c, n in COFIBER_CASES]
)
def test_stage_cofibers_are_the_strata(name, n):
    # H~(stage_i / stage_{i-1}) is the homology of the stratum of level i
    # over Z, at n <= 2 one object per level; stage 0 is the point, which
    # stage 1 holds as its basepoint
    assembly = assembled(name, n)
    table = assembly.table
    for i in range(1, n + 1):
        stage = assembly.stages[i]
        below = assembly.stages[i - 1]
        if i == 1:
            below_cells = {stage.basepoint}
        else:
            below_cells = set(below.dim_of)
            assert below.basepoint == stage.basepoint
            for c, k in below.dim_of.items():
                assert stage.dim_of.get(c) == k, (i, c)
                if k:
                    assert stage.faces[c] == below.faces[c], (i, c)
        (lam,) = [lam for idx, lam in enumerate(table.objects) if table.strata[idx] == i]
        cofiber = homology(quotient(stage, below_cells))
        assert live(cofiber) == live(stratum_homology(stratum(assembly, lam))), i


# --- the layer from latching-free cells and top cycles ---------------------------------


ROUTE_CASES = [(name, n) for name in ("circle", "interval", "points3", "wedge2") for n in (1, 2)]


@functools.lru_cache(maxsize=None)
def latching(name, n):
    """The latching coend of a named model, shared between tests."""
    return latching_coend(MODELS[name](), n)


def groups_json(cx, coefficients):
    return HomologyResult(coefficients, True, homology_of_complex(cx, coefficients)).groups_json()


@pytest.mark.parametrize("name, n", ROUTE_CASES, ids=[f"{c}-n{n}" for c, n in ROUTE_CASES])
def test_latching_coend_matches_the_simplicial_coend(name, n):
    # route B, and route A with whole tree spaces, against the homology
    # of the glued space and of each stratum, over Z, F2 and F3
    layer = latching(name, n)
    route_a, route_a_strata = route_a_coend(MODELS[name](), n)
    assert layer.total.validate() and route_a.validate()
    total = assembled(name, n).total
    inputs = strata_inputs(name, n)
    for coefficients in ("Z", "F2", "F3"):
        expected = homology(total, coefficients).groups_json()
        assert groups_json(layer.total, coefficients) == expected, coefficients
        assert groups_json(route_a, coefficients) == expected, coefficients
        for idx, lam in enumerate(layer.table.objects):
            assert layer.strata[idx].validate()
            expected = stratum_homology(stratum(inputs, lam), coefficients).groups_json()
            assert groups_json(layer.strata[idx], coefficients) == expected, (lam, coefficients)
            assert groups_json(route_a_strata[idx], coefficients) == expected, (lam, coefficients)


@pytest.mark.parametrize("name, n", ROUTE_CASES, ids=[f"{c}-n{n}" for c, n in ROUTE_CASES])
def test_latching_generators_follow_the_closed_form(name, n):
    # sum over lam of |N_lam,d| prod_b (|b| - 1)! / |Aut lam| generators
    # in degree d + n, with |N_lam,d| counted on the power, where it must
    # equal the closed form
    M = MODELS[name]()
    expected = Counter()
    for lam in enumerate_en(n).objects:
        p = power(M, lam.support_size)
        distinct = Counter(p.dim_of[c] for c in p.all_cells() if len(set(c)) == len(c))
        assert distinct == latching_counts(M, lam.support_size), lam
        order = aut_order_formula(lam)
        words = math.prod(math.factorial(len(b) - 1) for b in lam.blocks)
        for d, count in distinct.items():
            assert count % order == 0, (lam, d)
            expected[d + n] += count // order * words
    assert latching(name, n).total.ranks == expected


def test_latching_coend_matches_route_a_above_the_coend_cap():
    # at n = 3 the simplicial coend is capped, so route A, with whole tree
    # spaces, is the oracle for the total and for each stratum
    layer = latching_coend(model_circle(), 3)
    route_a, route_a_strata = route_a_coend(model_circle(), 3)
    for coefficients in ("Z", "F2"):
        assert groups_json(layer.total, coefficients) == groups_json(route_a, coefficients)
        for idx, cx in layer.strata.items():
            assert groups_json(cx, coefficients) == groups_json(route_a_strata[idx], coefficients)
    groups = homology_of_complex(layer.total, "Z")
    live = {d: g for d, g in groups.items() if not g.is_zero()}
    assert live == {7: HomologyGroup(0, (6,)), 8: HomologyGroup(1, (2, 2)), 9: HomologyGroup(1, ())}


FACE_CASES = [("circle", n) for n in (1, 2, 3)] + [("wedge2", n) for n in (1, 2)]


@pytest.mark.parametrize("name, n", FACE_CASES, ids=[f"{c}-n{n}" for c, n in FACE_CASES])
def test_faces_land_as_the_public_partition_api_says(monkeypatch, name, n):
    # every face the latching route rewrites, against its coincidence
    # partition kappa, is_good, and the blocks of meet(lam, kappa) read as
    # sets of simplex indices: largest first, then increasingly
    calls = []
    rewrite = layers._orbit_of_face

    def recording(face, lam, shapes):
        calls.append((face, lam, rewrite(face, lam, shapes)))
        return calls[-1][2]

    monkeypatch.setattr(layers, "_orbit_of_face", recording)
    latching_coend(MODELS[name](), n)
    assert calls
    objects = enumerate_en(n, include_homs=False).objects
    for face, lam, orbit in calls:
        kappa = coincidence_partition(face)
        if not is_good(kappa, lam):
            assert orbit is None, (face, lam)
            continue
        blocks = sorted(
            (sorted({face[t] for t in block}) for block in meet(lam, kappa).blocks),
            key=lambda b: (-len(b), b),
        )
        rep = tuple(x for b in blocks for x in b)
        (mu,) = [i for i, obj in enumerate(objects) if obj.shape() == tuple(map(len, blocks))]
        assert orbit == (mu, rep, tuple(rep.index(x) for x in face)), (face, lam)


CENSUS_CASES = [(name, n) for name in MODELS for n in (1, 2)]


@pytest.mark.parametrize("name, n", CENSUS_CASES, ids=[f"{c}-n{n}" for c, n in CENSUS_CASES])
def test_census_matches_the_simplicial_coend(name, n):
    census = layer_census(MODELS[name](), n)
    assembly = assembled(name, n)
    total = assembly.total
    assert census.gluing == assembly.gluing_log
    assert census.coend_cells == total.cell_count()
    dims = [k for c, k in total.dim_of.items() if c != total.basepoint]
    # a glued space of the basepoint alone reads 0 for both
    assert (census.cell_dim_low, census.cell_dim_high) == (min(dims, default=0), max(dims, default=0))
    assert census.stage_euler == {
        i: sum((-1) ** k * c for k, c in stage.cell_count().items()) - 1
        for i, stage in assembly.stages.items()
    }


def product_size(factors, coordinate_cells):
    """(top dimension, cells of each coordinate per dimension, cells) of
    a product, counted by `_surjection_tuples` on its factors."""
    tuples = _surjection_tuples(factors, coordinate_cells)
    per_dim = [Counter(f.dim_of[c] for c in cs) for f, cs in zip(factors, coordinate_cells)]
    cells = sum(math.prod(k[d] for k, d in zip(per_dim, dims)) * len(t) for dims, t in tuples.items())
    return sum(f.dimension for f in factors), per_dim, cells


def simplicial_coend_products(M, n):
    """The size of each product that `coend` builds, in the order it
    builds them, counted on the real factors: the powers, the pieces,
    and the mixing piece of each hom set between distinct objects."""
    table = enumerate_en(n)
    objects = table.objects
    sizes = [product_size([M] * lam.support_size, [list(M.all_cells())] * lam.support_size) for lam in objects]
    factors = [(power_pair(M, lam).quotient, t_space(lam)) for lam in objects]
    off = [[[c for c in f.all_cells() if c != f.basepoint] for f in pair] for pair in factors]
    sizes += [product_size(pair, cells) for pair, cells in zip(factors, off)]
    for i in range(len(objects)):
        for j in range(len(objects)):
            if j != i and table.hom(i, j):
                sizes.append(
                    product_size((factors[j][0], factors[i][1]), (off[j][0], off[i][1]))
                )
    return sizes


PREFLIGHT_MODELS = {f"points{k}": functools.partial(model_points, k) for k in range(2, 9)}
PREFLIGHT_MODELS.update(circle=model_circle, interval=model_interval, wedge2=MODELS["wedge2"])
PREFLIGHT_CASES = [(name, n) for name in PREFLIGHT_MODELS for n in (1, 2)]


@pytest.mark.parametrize("name, n", PREFLIGHT_CASES, ids=[f"{c}-n{n}" for c, n in PREFLIGHT_CASES])
def test_census_checks_each_product_of_the_simplicial_coend(monkeypatch, name, n):
    # the census counts, from cells per dimension alone, every product
    # the simplicial coend builds, in its order, so it raises that
    # coend's first cap error; its closed-form counts match those
    # enumerated on the real factors
    checked = []
    check = layers.check_product_counts

    def recording(top, per_dim):
        cells = check(top, per_dim)
        checked.append((top, per_dim, sum(cells.values())))
        return cells

    monkeypatch.setattr(layers, "check_product_counts", recording)
    M = PREFLIGHT_MODELS[name]()
    layer_census(M, n)
    assert checked == simplicial_coend_products(M, n)


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
