"""Tests for chain complexes, Smith forms, homology, and cofiber cubes."""

import functools
import importlib
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestcalc.errors import CapExceededError, ValidationError
from forestcalc.homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    chain_complex,
    cover_acyclicity,
    cover_cube,
    cube_cofiber,
    diagonal_of,
    homology,
    homology_of_complex,
    parse_coefficients,
    rank_mod_p,
    reduce_complex,
    smith_normal_form,
    suspension_homology,
)
from forestcalc.kernel import (
    IMPLEMENTATION,
    normalize_divisor_chain,
    sparse_elementary_divisors,
)
from forestcalc.layers import coend, derivative_report, stratum
from forestcalc.partitions import all_partitions, make_partition
from forestcalc.simplicial import (
    ChainFaces,
    SimplicialObject,
    model_circle,
    model_from_json,
    model_interval,
    model_points,
    model_wedge_of_circles,
    power,
    subobject,
    surj_identity,
    t_space,
    t_space_suspension_model,
)
from forestcalc.verify import CUBE_DEMOS

from helpers import (
    assert_same_reduction,
    betti_numbers,
    complex_from_triples,
    indiscrete,
    kept_face_sums_reference,
    unreduced_groups,
)

# the package exports a function named homology, which hides the module
homology_module = importlib.import_module("forestcalc.homology")


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
        divs = sparse_elementary_divisors(es, len(m), len(m[0]))
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
    assert sparse_elementary_divisors(es, nrows, ncols) == [x for x in diagonal_of(d) if x]


def test_kernel_implementation_label():
    assert IMPLEMENTATION == "python"


def test_dense_matrix_divisors_in_small_memory():
    rng = random.Random(3)
    m = [[rng.randint(-20, 20) for _ in range(20)] for _ in range(20)]
    tracemalloc.start()
    try:
        divs = sparse_elementary_divisors(matrix_entries(m), 20, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert divs == sympy_divisors(m)
    assert peak < 5_000_000


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=12))
    ncols = draw(st.integers(min_value=1, max_value=12))
    row = st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@given(integer_matrices())
def test_sparse_divisors_are_a_chain_matching_mod_p_ranks(m):
    es, nrows, ncols = matrix_entries(m), len(m), len(m[0])
    divs = sparse_elementary_divisors(es, nrows, ncols)
    assert all(d > 0 for d in divs)
    assert all(b % a == 0 for a, b in zip(divs, divs[1:]))
    # over F_p the rank counts the divisors that p does not kill
    for p in (2, 3, 5, 7):
        assert rank_mod_p(es, nrows, ncols, p) == sum(1 for d in divs if d % p)


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
    assert len(sparse_elementary_divisors(es, 1, 1)) == 1


def test_rank_mod_p_matches_rational_generically():
    for m in SNF_BATTERY:
        es = matrix_entries(m)
        rational = len(sparse_elementary_divisors(es, len(m), len(m[0])))
        # any prime not dividing the torsion gives the rational rank
        assert rank_mod_p(es, len(m), len(m[0]), 101) == rational


def test_parse_coefficients():
    assert parse_coefficients("Z") == ("Z", None)
    assert parse_coefficients("Q") == ("Q", None)
    assert parse_coefficients("F2") == ("F", 2)
    assert parse_coefficients("F13") == ("F", 13)
    assert parse_coefficients("F2147483647") == ("F", 2**31 - 1)
    for bad in ("F4", "F1", "Fx", "R", "", "F+3", "F03", "F\u0663", "F 3", "F2147483659"):
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


@pytest.mark.parametrize(
    "ranks, runs, message",
    [
        ({0: 1, 1: 1}, [{}, {0: 0}], "explicit zero entry in degree 1"),
        # the face of a 1-cell numbered among the 1-cells
        ({0: 1, 1: 2}, [{}, {0: 1}, {1: 1}], "boundary entry out of range in degree 1"),
        ({0: 1, 1: 1, 2: 1}, [{}, {0: 1}, {1: 1}], "boundary squared nonzero from degree 2"),
    ],
    ids=["zero", "own-degree", "squared"],
)
def test_validate_reads_the_runs(ranks, runs, message):
    with pytest.raises(ValidationError, match=message):
        ChainComplex(ranks=ranks, runs=runs).validate()


def test_homology_result_json():
    result = homology(model_circle())
    data = result.to_json()
    assert data["coefficients"] == "Z"
    assert data["groups"]["1"] == {"rank": 1, "torsion": []}
    assert "0" not in data["groups"]  # zero groups are left out
    assert data["euler"] == -1
    assert result.groups_json() == {"groups": data["groups"], "euler": -1}


# --- total cofibers of cubes ----------------------------------------------------------


def constant_cube(obj, d):
    """Every corner of the d-cube is obj itself."""
    return {
        frozenset(U): obj for r in range(d + 1) for U in itertools.combinations(range(d), r)
    }


def broken_square():
    """The corners of verify.broken_square_demo: the corner at the empty
    set is empty, not the intersection {v0} of the two covers."""
    seg = model_interval()
    return {
        frozenset(): subobject(seg, []),
        frozenset({0}): subobject(seg, ["v0", "v1", "e"]),
        frozenset({1}): subobject(seg, ["v0"]),
        frozenset({0, 1}): seg,
    }


def test_cone_of_identity_acyclic():
    # the one-direction cube is the mapping cone of the identity
    for obj in (model_circle(), complex_from_triangles(PROJECTIVE_PLANE)):
        groups = homology_of_complex(cube_cofiber(constant_cube(obj, 1)))
        assert all(g.is_zero() for g in groups.values())


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
    objs = cover_cube(obj, [["v0", "e", "v1"], ["v0", "v1"]])
    assert len(objs) == 4
    full = frozenset({0, 1})
    assert objs[full] is obj
    corner = objs[frozenset()]
    assert sorted(corner.dim_of) == ["v0", "v1"]


def test_cover_must_reach_every_cell():
    with pytest.raises(ValidationError):
        cover_cube(model_interval(), [["v0", "v1"]])


def test_total_cofiber_of_identity_square():
    # constant square: every corner the same object, identity maps
    groups = homology_of_complex(cube_cofiber(constant_cube(model_circle(), 2)))
    assert all(g.is_zero() for g in groups.values())


CUBES = {
    "interval": lambda: cover_cube(model_interval(), [["v0", "v1", "e"], ["v0"]]),
    "circle": lambda: cover_cube(model_circle(), [["v", "e"], ["v"]]),
    "negative": broken_square,
    "wedge3-3cover": lambda: cover_cube(
        model_wedge_of_circles(3), [["v", "e0"], ["v", "e1"], ["v", "e2"]]
    ),
}


def test_cube_cofiber_numbering_of_the_broken_square():
    # generators by degree, then corner, then each corner's own order
    cx = cube_cofiber(broken_square())
    assert dict(cx.ranks) == {0: 2, 1: 4, 2: 1}
    assert cx.entries == {
        1: [(0, 0, 1), (1, 1, 1), (0, 2, 1), (1, 3, 1), (0, 3, -1)],
        2: [(1, 0, -1), (0, 0, 1), (3, 0, 1)],
    }


@pytest.mark.parametrize("case", sorted(set(CUBES) - {"negative"}))
def test_cover_cube_counts_its_generators(monkeypatch, case):
    # the count made before any corner is built is the sum of the
    # corners' sizes: a cap one below it refuses the cube, one at it not
    corners = CUBES[case]()
    total = sum(len(obj.dim_of) for obj in corners.values())
    monkeypatch.setattr(homology_module, "CUBE_GENERATOR_CAP", total)
    assert CUBES[case]().keys() == corners.keys()
    monkeypatch.setattr(homology_module, "CUBE_GENERATOR_CAP", total - 1)
    message = f"cube has {total} generators, exceeds cap {total - 1}"
    with pytest.raises(CapExceededError, match=message):
        CUBES[case]()


@pytest.mark.parametrize("case", sorted(CUBES))
@pytest.mark.parametrize("coefficients", ("Z", "F2", "F3"))
def test_cube_cofiber_groups(case, coefficients):
    cx = cube_cofiber(CUBES[case]())
    assert cx.validate() is True
    groups = homology_of_complex(cx, coefficients)
    result = HomologyResult(coefficients, False, groups)
    if case == "negative":
        assert result.groups_json() == {"groups": {"1": {"rank": 1, "torsion": []}}, "euler": -1}
    else:
        assert result.is_acyclic()


def test_cube_corner_must_be_a_subobject():
    seg = model_interval()
    flipped = SimplicialObject(
        {0: ["v0", "v1"], 1: ["e"]}, {"e": (("v0", (0,)), ("v1", (0,)))}
    )
    with pytest.raises(ValidationError, match="not a subobject"):
        cube_cofiber({frozenset(): flipped, frozenset({0}): seg})
    with pytest.raises(ValidationError, match="not a subobject"):
        cube_cofiber({frozenset(): seg, frozenset({0}): model_points(2)})


# --- reduction along unit pairs against the unreduced route ----------------------------


COEFFICIENTS = ("Z", "Q", "F2", "F3")


def assert_reduction_exact(cx):
    for coefficients in COEFFICIENTS:
        groups = homology_of_complex(cx, coefficients)
        assert groups == unreduced_groups(cx, coefficients), coefficients


def complex_from_facets(facets):
    """Ordered simplicial complex generated by vertex sets, cells named
    by their sorted vertex tuples."""
    simplices = {
        face
        for facet in facets
        for r in range(1, len(facet) + 1)
        for face in itertools.combinations(sorted(facet), r)
    }
    cells, faces = {}, {}
    for t in sorted(simplices):
        k = len(t) - 1
        cells.setdefault(k, []).append(t)
        if k:
            ident = surj_identity(k - 1)
            faces[t] = tuple((t[:i] + t[i + 1:], ident) for i in range(k + 1))
    return SimplicialObject(cells, faces)


@functools.lru_cache(maxsize=None)
def circle_n2_complexes():
    """The coend of the circle at n = 2 and its two strata."""
    assembly = coend(model_circle(), 2)
    return {
        "coend": chain_complex(assembly.total),
        "(0 1 2)": stratum(assembly, indiscrete(3)).complex,
        "(0 1)(2 3)": stratum(assembly, make_partition(4, [[0, 1], [2, 3]])).complex,
    }


def tree_space_shapes():
    shapes = {}
    for m in range(1, 7):
        for lam in all_partitions(m):
            shapes.setdefault(tuple(sorted(len(b) for b in lam.blocks)), lam)
    return list(shapes.values())


@pytest.mark.parametrize("lam", tree_space_shapes(), ids=str)
def test_reduction_exact_on_tree_spaces(lam):
    assert_reduction_exact(chain_complex(t_space(lam)))


@pytest.mark.parametrize("name", ["coend", "(0 1 2)", "(0 1)(2 3)"])
def test_reduction_exact_on_circle_coend_and_strata(name):
    cx = circle_n2_complexes()[name]
    assert_reduction_exact(cx)
    groups = homology_of_complex(cx)
    if name == "coend":
        assert groups[5].torsion == (2,)
    if name == "(0 1 2)":
        assert groups[4].torsion == (3,)
    if name == "(0 1)(2 3)":
        assert groups[5] == HomologyGroup(1, (2,))


def test_reduction_exact_on_wedge_coend():
    cx = chain_complex(coend(model_wedge_of_circles(2), 1).total)
    assert_reduction_exact(cx)
    assert homology_of_complex(cx)[2] == HomologyGroup(0, (2, 2))


def test_reduction_keeps_a_lone_entry_of_two():
    cx = complex_from_triples(ranks={0: 1, 1: 1}, entries={1: [(0, 0, 2)]})
    assert_reduction_exact(cx)
    assert reduce_complex(cx).ranks == {0: 1, 1: 1}
    assert homology_of_complex(cx)[0] == HomologyGroup(0, (2,))


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    ),
    st.booleans(),
)
def test_reduction_exact_on_random_complexes(facets, reduced):
    assert_reduction_exact(chain_complex(complex_from_facets(facets), reduced=reduced))


# --- the flat-array reducer against the dict reference ------------------------------


TREE_SPACE_MODELS = [(t_space, lam) for lam in tree_space_shapes()] + [
    (t_space_suspension_model, lam) for lam in tree_space_shapes() if lam.excess
]


@pytest.mark.parametrize(
    "build, lam",
    TREE_SPACE_MODELS,
    ids=[f"{build.__name__}-{lam}" for build, lam in TREE_SPACE_MODELS],
)
def test_reduction_matches_reference_on_tree_spaces(build, lam):
    assert_same_reduction(chain_complex(build(lam)))


# --- faces read from the chains against the ref route --------------------------


@pytest.mark.parametrize("lam", tree_space_shapes(), ids=str)
def test_chain_faces_read_from_chains_match_the_ref_route(monkeypatch, lam):
    # the tree space, and the chain space that the suspension model
    # suspends, whose last face does not collapse; both reduced and not
    spaces = [t_space(lam)]
    if lam.excess:
        spaces.append(t_space_suspension_model(lam))
    looked_up = []
    missing = ChainFaces.__missing__

    def recording(self, chain):
        looked_up.append(chain)
        return missing(self, chain)

    for obj in spaces:
        assert lam.excess == 0 or isinstance(obj.faces, ChainFaces)
        for reduced in (True, False):
            with monkeypatch.context() as m:
                m.setattr(ChainFaces, "__missing__", recording)
                ours = chain_complex(obj, reduced=reduced)
            # production looks up no face of a chain of three or more
            assert all(len(chain) == 2 for chain in looked_up), lam
            with monkeypatch.context() as m:
                m.setattr(homology_module, "_kept_face_sums", kept_face_sums_reference)
                theirs = chain_complex(obj, reduced=reduced)
            assert ours.ranks == theirs.ranks, (lam, reduced)
            assert (ours.start, ours.face, ours.coef) == (theirs.start, theirs.face, theirs.coef)


@pytest.mark.parametrize("case", sorted(CUBE_DEMOS))
def test_reduction_matches_reference_on_cube_demos(monkeypatch, case):
    complexes = []

    def recording(cx):
        complexes.append(cx)
        return reduce_complex(cx)

    monkeypatch.setattr(homology_module, "reduce_complex", recording)
    CUBE_DEMOS[case][0]()
    assert complexes
    for cx in complexes:
        assert_same_reduction(cx)


HAND_MADE = {
    # (0, 0) given three times sums to 1; (1, 1) cancels to 0 and is dropped
    "repeats": complex_from_triples(
        ranks={0: 2, 1: 3},
        entries={1: [(0, 0, 1), (1, 0, -1), (0, 0, 1), (1, 1, 2), (0, 0, -1), (1, 1, -2), (0, 2, 1)]},
    ),
    # (0, 0) cancels and comes back, behind (1, 0) in its column's order
    "cancel-and-return": complex_from_triples(
        ranks={0: 2, 1: 2, 2: 1},
        entries={
            1: [(0, 0, 1), (0, 0, -1), (1, 0, 1), (0, 0, -1), (0, 1, 1), (1, 1, -1)],
            2: [(0, 0, 1), (1, 0, -1)],
        },
    ),
    # explicit zeros, alone and beside a repeat
    "zeros": complex_from_triples(
        ranks={0: 2, 1: 2},
        entries={1: [(0, 0, 0), (1, 0, 1), (0, 1, 3), (0, 1, -3), (1, 1, 0)]},
    ),
    "lone-two": complex_from_triples(ranks={0: 1, 1: 1}, entries={1: [(0, 0, 2)]}),
    # requeueing the cofaces of a removed pair in another order leaves
    # another residual here
    "requeue-order": complex_from_triples(
        ranks={0: 2, 1: 3, 2: 1, 3: 2},
        entries={
            1: [(0, 0, -1), (1, 0, -1), (0, 1, 1), (1, 1, 2), (1, 2, -1)],
            2: [(1, 0, 2), (2, 0, 2)],
            3: [],
        },
    ),
}


def test_hand_made_triples_lay_out_summed_runs():
    # repeats summed, a zero sum dropped, and each generator's faces in
    # the order they were first given: (0, 0) of "cancel-and-return"
    # comes back behind (1, 0)
    laid_out = {
        "repeats": ([0, 0, 0, 2, 2, 3], [0, 1, 0], [1, -1, 1]),
        "cancel-and-return": ([0, 0, 0, 2, 4, 6], [1, 0, 0, 1, 2, 3], [1, -1, 1, -1, 1, -1]),
        "zeros": ([0, 0, 0, 1, 1], [1], [1]),
        "lone-two": ([0, 0, 1], [0], [2]),
    }
    for name, runs in laid_out.items():
        cx = HAND_MADE[name]
        assert (cx.start, cx.face, cx.coef) == runs, name


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_reduction_matches_reference_on_hand_made_complexes(name):
    assert_same_reduction(HAND_MADE[name])


def test_reduction_sums_repeated_entries():
    # the repeats sum to d(e0) = v0 - v1, d(e1) = 0 and d(e2) = v0: the
    # pairs (v1, e0) and (v0, e2) leave the cycle e1 alone
    small = assert_same_reduction(HAND_MADE["repeats"])
    assert small.ranks == {0: 0, 1: 1} and small.entries == {1: []}
    assert homology_of_complex(HAND_MADE["repeats"])[1] == HomologyGroup(1, ())
    assert assert_same_reduction(HAND_MADE["lone-two"]).entries == {1: [(0, 0, 2)]}


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=-2, max_value=2),
        ),
        max_size=30,
    ),
)
def test_reduction_matches_reference_on_random_matrices(ranks, raw):
    # any matrices, d squared or not, with repeats and zeros: pairing reads
    # the entries alone
    ranks = dict(enumerate(ranks))
    entries = {}
    for k, i, j, v in raw:
        if i < ranks.get(k - 1, 0) and j < ranks.get(k, 0):
            entries.setdefault(k, []).append((i, j, v))
    assert_same_reduction(complex_from_triples(ranks=ranks, entries=entries))


def test_tree_space_homology_in_small_memory():
    # T6 keeps no face tuple and no dict per generator, and its boundary
    # is laid out once, in flat lists: under tracemalloc the whole
    # computation peaked at 14.4 MB with face tuples and dicts, 5.2 MB
    # with boundary triples, and reads 4.4 MB
    tracemalloc.start()
    try:
        space = t_space(indiscrete(6))
        result = homology(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.groups[5] == HomologyGroup(120, ())
    assert peak < 6_000_000
    # faces were computed on lookup, none kept
    assert dict.__len__(space.faces) == 0


def test_suspension_model_homology_in_small_memory():
    # the suspension model of (0 1 2 3 4 5), 63,945 cells, is read from
    # the chain space it suspends: under tracemalloc the whole
    # computation peaked at 110.9 MB with the smash product's face
    # table, at 36.7 MB with the smash's faces computed on lookup, and
    # peaks at 4.2 MB with no smash built
    tracemalloc.start()
    try:
        space = t_space_suspension_model(indiscrete(6))
        cells, result = suspension_homology(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(cells.values()) == 63_945
    assert result.groups[5] == HomologyGroup(120, ())
    assert peak < 45_000_000
    assert dict.__len__(space.faces) == 0


@pytest.fixture
def elimination_calls(monkeypatch):
    """(elimination, rows, cols) of every call of either elimination,
    wherever a module binds it."""
    calls = []
    for name in ("sparse_elementary_divisors", "rank_mod_p"):
        original = getattr(homology_module, name)

        def counting(entries, nrows, ncols, *rest, _name=name, _original=original):
            calls.append((_name, nrows, ncols))
            return _original(entries, nrows, ncols, *rest)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("forestcalc") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_tree_space_homology_never_eliminates(elimination_calls):
    # T6 pairs off all but its 5! top-degree homology generators
    cx = chain_complex(t_space(indiscrete(6)))
    assert {k: r for k, r in reduce_complex(cx).ranks.items() if r} == {5: 120}
    for coefficients in ("Z", "F2"):
        groups = homology_of_complex(cx, coefficients)
        assert groups[5] == HomologyGroup(120, ())
    assert elimination_calls == []


@pytest.mark.parametrize("coefficients", ["Z", "F2"])
def test_circle_layer_eliminates_little(elimination_calls, coefficients):
    # the traffic the kernel is sized for: the circle's n = 2 layer is ten
    # generators of latching-free cells and top cycles, and the strata are
    # its two diagonal blocks; coreduction pairs none of them off, since
    # the boundaries carry the 2- and 3-torsion, and over every ring they
    # go to the one kernel: the whole layer's two boundaries, then the
    # stratum of (0 1 2)'s and that of (0 1)(2 3)'s
    report = derivative_report(model_circle(), 2, coefficients=coefficients)
    assert report["euler_additivity"]["passed"]
    assert elimination_calls == [
        ("sparse_elementary_divisors", rows, cols)
        for rows, cols in [(2, 5), (5, 3), (2, 2), (3, 3)]
    ]


def relabeled(M, ids):
    """M as a JSON model that lists its cells in M's order, renamed to ids."""
    fresh = dict(zip(M.all_cells(), ids))
    cells = []
    for c in M.all_cells():
        item = {"id": fresh[c], "dim": M.dim_of[c]}
        if M.dim_of[c]:
            item["faces"] = [fresh[f] for f, _ in M.faces[c]]
        cells.append(item)
    return model_from_json({"cells": cells})


@pytest.mark.parametrize(
    "model, n",
    [(model_circle, 2), (lambda: model_wedge_of_circles(2), 1)],
    ids=["circle-n2", "wedge2-n1"],
)
def test_elimination_traffic_ignores_cell_names(elimination_calls, model, n):
    # cells keep the order a model lists them in, so fresh names in the
    # same order leave the residual boundaries, and the kernel calls, as they are
    M = model()
    derivative_report(M, n)
    expected = list(elimination_calls)
    for seed in range(1, 5):
        rng = random.Random(seed)
        ids = [f"c{x:012x}" for x in rng.sample(range(1 << 48), len(M.dim_of))]
        elimination_calls.clear()
        derivative_report(relabeled(M, ids), n)
        assert elimination_calls == expected, seed


@pytest.mark.parametrize(
    "broken",
    [
        # an extra cycle: the Euler characteristic moves
        lambda cx: complex_from_triples(ranks={**cx.ranks, 1: cx.ranks[1] + 1}, entries=cx.entries),
        # boundary squared nonzero
        lambda cx: complex_from_triples(
            ranks={0: 1, 1: 1, 2: 1}, entries={1: [(0, 0, 1)], 2: [(0, 0, 1)]}
        ),
    ],
    ids=["euler", "boundary-squared"],
)
def test_debug_checks_the_reduction(monkeypatch, broken):
    cx = chain_complex(complex_from_triangles(PROJECTIVE_PLANE))
    monkeypatch.setattr(homology_module, "reduce_complex", broken)
    monkeypatch.delenv("FORESTCALC_DEBUG", raising=False)
    homology_of_complex(cx)
    monkeypatch.setenv("FORESTCALC_DEBUG", "1")
    with pytest.raises(ValidationError):
        homology_of_complex(cx)
