"""Tests for chain complexes, Smith forms, homology, and cofiber cubes."""

import itertools
import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestcalc.errors import ValidationError
from forestcalc.homology import (
    HomologyGroup,
    betti_numbers,
    chain_complex,
    chain_map_of,
    cover_acyclicity,
    cover_cube,
    diagonal_of,
    homology,
    homology_of_complex,
    integer_divisors,
    labeled_chains,
    mapping_cone,
    parse_coefficients,
    rank_mod_p,
    smith_normal_form,
    total_cofiber,
)
from forestcalc.kernel import IMPLEMENTATION, normalize_divisor_chain
from forestcalc.partitions import indiscrete
from forestcalc.simplicial import (
    SimplicialObject,
    identity_simplicial,
    model_circle,
    model_interval,
    model_points,
    power,
    surj_identity,
    t_space,
)


# --- oracles -----------------------------------------------------------------


def sympy_divisors(matrix):
    """Invariant factors via an established implementation."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as snf

    d = snf(sympy.Matrix(matrix))
    out = []
    for i in range(min(d.rows, d.cols)):
        v = abs(int(d[i, i]))
        if v:
            out.append(v)
    return out


def complex_from_triangles(triangles):
    """Ordered complex on string vertex labels from its triangle list."""
    verts = sorted({v for t in triangles for v in t})
    edges = sorted({tuple(sorted((a, b))) for t in triangles for a, b in itertools.combinations(t, 2)})
    tris = sorted(tuple(sorted(t)) for t in triangles)
    cells = {0: list(verts), 1: edges, 2: tris}
    faces = {}
    for e in edges:
        faces[e] = ((e[1], (0,)), (e[0], (0,)))
    for t in tris:
        faces[t] = (
            ((t[1], t[2]), (0, 1)),
            ((t[0], t[2]), (0, 1)),
            ((t[0], t[1]), (0, 1)),
        )
    obj = SimplicialObject(cells, faces)
    obj.validate()
    return obj


# six-vertex projective plane, triangles by vertex label
PROJECTIVE_PLANE = [
    "123", "124", "135", "146", "156",
    "236", "245", "256", "345", "346",
]


def matrix_entries(matrix):
    return [
        (i, j, v)
        for i, row in enumerate(matrix)
        for j, v in enumerate(row)
        if v
    ]


def mat_mult(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(n)
    )


SNF_BATTERY = [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0]],
    [[2, 0], [0, 3]],
    [[6, 10, 15]],
    [[2], [4], [6]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[12, 8], [20, 14]],
]


# --- Smith normal form ----------------------------------------------------------


def test_snf_frozen_example():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(m)
    assert diagonal_of(d) == [2, 2, 156]
    assert mat_mult(mat_mult(u, m), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)


def test_snf_battery_properties():
    for m in SNF_BATTERY:
        d, u, v = smith_normal_form(m)
        assert mat_mult(mat_mult(u, m), v) == d
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        diag = diagonal_of(d)
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i, row in enumerate(d):
            for j, val in enumerate(row):
                if i != j:
                    assert val == 0


def test_snf_matches_reference_implementation():
    for m in SNF_BATTERY:
        d, _, _ = smith_normal_form(m)
        assert [x for x in diagonal_of(d) if x] == sympy_divisors(m)


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_snf_random_matches_reference(m):
    d, u, v = smith_normal_form(m)
    assert [x for x in diagonal_of(d) if x] == sympy_divisors(m)
    assert mat_mult(mat_mult(u, m), v) == d


def test_sparse_divisors_agree_with_dense():
    for m in SNF_BATTERY:
        es = matrix_entries(m)
        divs = integer_divisors(es, len(m), len(m[0]))
        assert divs == sympy_divisors(m)


def test_sparse_divisors_on_tree_boundary():
    # a boundary matrix from an actual computation, both routes
    cx = chain_complex(t_space(indiscrete(4)))
    k = max(cx.degrees())
    es = cx.boundary(k)
    nrows, ncols = cx.ranks.get(k - 1, 0), cx.ranks.get(k, 0)
    dense = [[0] * ncols for _ in range(nrows)]
    for i, j, v in es:
        dense[i][j] += v
    d, _, _ = smith_normal_form(dense)
    assert integer_divisors(es, nrows, ncols) == [x for x in diagonal_of(d) if x]


def test_kernel_implementation_label():
    assert IMPLEMENTATION == "python"


def closure_divisor_chain(values):
    """The pairwise gcd/lcm closure over every entry, units included."""
    d = [abs(v) for v in values if v]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = math.gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return d


@given(
    st.lists(
        st.one_of(st.sampled_from([1, -1]), st.integers(min_value=-36, max_value=36)),
        max_size=14,
    )
)
def test_divisor_chain_matches_full_closure(values):
    assert normalize_divisor_chain(values) == closure_divisor_chain(values)


def test_unit_divisor_chain_is_linear():
    values = [1, -1] * 25_000
    start = time.perf_counter()
    assert normalize_divisor_chain(values) == [1] * 50_000
    assert time.perf_counter() - start < 1.0


# --- mod p ranks ------------------------------------------------------------------


def test_rank_mod_p_drops_on_torsion():
    es = [(0, 0, 2)]
    assert rank_mod_p(es, 1, 1, 2) == 0
    assert rank_mod_p(es, 1, 1, 3) == 1
    assert len(integer_divisors(es, 1, 1)) == 1


def test_rank_mod_p_matches_rational_generically():
    for m in SNF_BATTERY:
        es = matrix_entries(m)
        rational = len(integer_divisors(es, len(m), len(m[0])))
        # any prime not dividing the torsion gives the rational rank
        assert rank_mod_p(es, len(m), len(m[0]), 101) == rational


def test_parse_coefficients():
    assert parse_coefficients("Z") == ("Z", None)
    assert parse_coefficients("Q") == ("Q", None)
    assert parse_coefficients("F2") == ("F", 2)
    assert parse_coefficients("F13") == ("F", 13)
    for bad in ("F4", "F1", "Fx", "R", ""):
        with pytest.raises(ValidationError):
            parse_coefficients(bad)


# --- homology of standard spaces ----------------------------------------------------


def test_two_points_reduced_and_not():
    pts = model_points(2)
    assert betti_numbers(pts, reduced=True) == {0: 1}
    assert betti_numbers(pts, reduced=False) == {0: 2}


def test_interval_contractible():
    assert homology(model_interval()).is_acyclic()


def test_circle():
    assert betti_numbers(model_circle()) == {1: 1}


def test_projective_plane_by_coefficients():
    rp2 = complex_from_triangles(PROJECTIVE_PLANE)
    assert rp2.cell_count() == {0: 6, 1: 15, 2: 10}
    over_z = homology(rp2)
    assert over_z.group(0).is_zero()
    assert over_z.group(1) == HomologyGroup(0, (2,))
    assert over_z.group(2).is_zero()
    assert betti_numbers(rp2, coefficients="F2") == {1: 1, 2: 1}
    assert betti_numbers(rp2, coefficients="F3") == {}
    assert betti_numbers(rp2, coefficients="Q") == {}


def test_torus_with_torsion_free_h1():
    torus = power(model_circle(), 2)
    res = homology(torus)
    assert res.group(1) == HomologyGroup(2, ())
    assert res.group(2) == HomologyGroup(1, ())
    assert res.euler() == -1  # reduced euler of the torus


def test_chain_complex_boundary_squares_to_zero():
    for obj in (
        power(model_circle(), 2),
        t_space(indiscrete(3)),
        complex_from_triangles(PROJECTIVE_PLANE),
    ):
        assert chain_complex(obj).validate() is True
        # labeled chains share the boundary routine; same absolute homology
        assert homology_of_complex(
            labeled_chains(obj).to_chain_complex()
        ) == homology_of_complex(chain_complex(obj, reduced=False))


def test_homology_result_json():
    result = homology(model_circle())
    data = result.to_json()
    assert data["coefficients"] == "Z"
    assert data["groups"]["1"] == {"rank": 1, "torsion": []}
    assert "0" not in data["groups"]  # zero groups are left out
    assert data["euler"] == -1
    assert result.groups_json() == {"groups": data["groups"], "euler": -1}


# --- mapping cones and cubes -----------------------------------------------------------


def test_cone_of_identity_acyclic():
    for obj in (model_circle(), complex_from_triangles(PROJECTIVE_PLANE)):
        cx = labeled_chains(obj)
        ident = chain_map_of(identity_simplicial(obj))
        cone = mapping_cone(cx, cx, ident)
        groups, _ = homology_of_complex(cone.to_chain_complex())
        assert all(g.is_zero() for g in groups.values())


def test_chain_map_kills_degenerate_images():
    from forestcalc.simplicial import SimplicialMap

    circ = model_circle()
    pt = model_points(1)
    crush = SimplicialMap(circ, pt, {"v": ("p0", (0,)), "e": ("p0", (0, 0))})
    crush.validate()
    fmap = chain_map_of(crush)
    assert fmap["v"] == {"p0": 1}
    assert fmap["e"] == {}


def test_cover_acyclicity_interval():
    obj = model_interval()
    ok, _ = cover_acyclicity(obj, [["v0", "e", "v1"], ["v0", "v1"]])
    assert ok
    ok, _ = cover_acyclicity(obj, [["v0", "e", "v1"]])
    assert ok


def test_cover_acyclicity_circle_two_covers():
    obj = model_circle()
    ok, _ = cover_acyclicity(obj, [["v", "e"], ["v"]])
    assert ok


def test_cover_cube_shape():
    obj = model_interval()
    objs, maps = cover_cube(obj, [["v0", "e", "v1"], ["v0", "v1"]])
    assert len(objs) == 4
    assert len(maps) == 4
    full = frozenset({0, 1})
    assert objs[full] is obj
    corner = objs[frozenset()]
    assert sorted(corner.dim_of) == ["v0", "v1"]


def test_cover_must_reach_every_cell():
    with pytest.raises(ValidationError):
        cover_cube(model_interval(), [["v0", "v1"]])


def test_total_cofiber_of_identity_square():
    # constant square: every corner the same object, identity maps
    obj = model_circle()
    ident = identity_simplicial(obj)
    objs = {
        frozenset(): obj,
        frozenset({0}): obj,
        frozenset({1}): obj,
        frozenset({0, 1}): obj,
    }
    maps = {
        (frozenset(), frozenset({0})): ident,
        (frozenset(), frozenset({1})): ident,
        (frozenset({0}), frozenset({0, 1})): ident,
        (frozenset({1}), frozenset({0, 1})): ident,
    }
    cx = total_cofiber(objs, maps, [0, 1])
    groups, _ = homology_of_complex(cx)
    assert all(g.is_zero() for g in groups.values())
