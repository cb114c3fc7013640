"""Tests for simplicial objects: surjection algebra, products, quotients,
group actions, tree spaces, and the JSON model format."""

import itertools
import math
import random
import time
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forestcalc import simplicial
from forestcalc.errors import CapExceededError, ValidationError
from forestcalc.homology import HomologyGroup, chain_complex, homology, suspension_homology
from forestcalc.kernel import sparse_elementary_divisors
from forestcalc.partitions import (
    all_partitions,
    canonicalize,
    make_partition,
    refinement_poset,
)
from forestcalc.simplicial import (
    BASEPOINT,
    PRODUCT_DIM_CAP,
    JointNormalizer,
    SimplicialMap,
    SimplicialObject,
    check_product_counts,
    compose_simplicial,
    model_circle,
    model_from_json,
    model_interval,
    model_points,
    model_wedge_of_circles,
    nerve,
    point_object,
    power,
    product,
    product_counts,
    product_map,
    quotient,
    same_object,
    smash,
    subobject,
    surj_compose,
    surj_face,
    surj_identity,
    surj_zero,
    T_SPACE_TOP_CELL_CAP,
    t_space,
    t_space_suspension_model,
    t_space_top_cells,
    top_cycles,
)

from helpers import (
    PermutationAction,
    betti_numbers,
    discrete,
    identity_simplicial,
    indiscrete,
    joint_normalize,
    product_map_reference,
    quotient_by_group,
    surj_degeneracy,
    surjections,
    suspension_via_nerve,
    t_space_via_nerve,
)


def shapes_of_support(m):
    """Weakly decreasing block-size tuples summing to m."""

    def rec(total, most):
        if total == 0:
            yield ()
            return
        for first in range(min(total, most), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    return list(rec(m, m))


def blocks_from_shape(shape):
    out, at = [], 0
    for size in shape:
        out.append(list(range(at, at + size)))
        at += size
    return out


# --- monotone surjections ----------------------------------------------------


def test_surjection_count():
    # choosing the p jump positions among k slots
    for k in range(6):
        for p in range(k + 1):
            assert len(list(surjections(k, p))) == math.comb(k, p)


def test_surjections_are_monotone_surjective():
    for alpha in surjections(4, 2):
        assert alpha[0] == 0 and alpha[-1] == 2
        assert all(b - a in (0, 1) for a, b in zip(alpha, alpha[1:]))


@given(st.integers(min_value=0, max_value=3), st.data())
def test_surj_compose_associative(p, data):
    k = data.draw(st.integers(min_value=p, max_value=p + 2))
    j = data.draw(st.integers(min_value=k, max_value=k + 2))
    a = data.draw(st.sampled_from(list(surjections(k, p))))
    b = data.draw(st.sampled_from(list(surjections(j, k))))
    ident = surj_identity(p)
    assert surj_compose(ident, a) == a
    assert surj_compose(a, surj_identity(k)) == a
    assert len(surj_compose(a, b)) == j + 1


def test_face_after_degeneracy_cancels():
    for alpha in surjections(3, 2):
        for i in range(3):
            widened = surj_degeneracy(alpha, i)
            j, beta = surj_face(widened, i)
            assert j is None and beta == alpha
            j, beta = surj_face(widened, i + 1)
            assert j is None and beta == alpha


def test_surj_face_factors_through_coface():
    # dropping a uniquely attained value must record the coface index
    j, beta = surj_face((0, 1, 2), 1)
    assert j == 1 and beta == (0, 1)
    j, beta = surj_face((0, 0, 1), 0)
    assert j is None and beta == (0, 1)


# --- nerves -------------------------------------------------------------------


def test_nerve_of_partition_poset_three():
    poset = refinement_poset(indiscrete(3))
    n = nerve(poset)
    assert n.cell_count() == {0: 5, 1: 7, 2: 3}
    n.validate()


def test_t_space_is_nerve_modulo_boundary_chains():
    # oracle: the full nerve with every chain missing an end collapsed
    shapes = {canonicalize(p) for m in range(7) for p in all_partitions(m)}
    assert discrete(6) in shapes
    for lam in shapes:
        poset = refinement_poset(lam)
        mn, mx = poset.min_index, poset.max_index
        full = nerve(poset)
        boundary = [c for c in full.all_cells() if not (mn in c and mx in c)]
        assert same_object(t_space(lam), quotient(full, boundary)), lam


# --- products and powers -------------------------------------------------------


def test_square_cell_count():
    sq = product([model_interval(), model_interval()])
    assert sq.cell_count() == {0: 4, 1: 5, 2: 2}
    sq.validate()


def test_torus_from_power_of_circle():
    torus = power(model_circle(), 2)
    assert torus.cell_count() == {0: 1, 1: 3, 2: 2}
    b = betti_numbers(torus)
    assert b == {1: 2, 2: 1}


def test_product_dim_cap():
    with pytest.raises(CapExceededError):
        product([model_circle()] * (PRODUCT_DIM_CAP + 1))


def test_product_needs_factor():
    with pytest.raises(ValidationError):
        product([])


def enumerated_product_counts(per_dim):
    """d -> the d-cells of a product whose coordinate j ranges over
    per_dim[j][p] cells of each dimension p, counted on the jointly
    nondegenerate surjection tuples that the builders enumerate."""
    out = Counter()
    for dims in itertools.product(*per_dim):
        for alphas in simplicial._joint_surjection_tuples(dims):
            out[len(alphas[0]) - 1] += math.prod(n[d] for n, d in zip(per_dim, dims))
    return {d: c for d, c in sorted(out.items()) if c}


def random_per_dim(rng):
    """Cells per dimension of 1 to 4 factors of total dimension at most
    the product dimension cap, some of them empty or 0-dimensional."""
    per_dim, room = [], PRODUCT_DIM_CAP
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.1:
            counts = {}
        elif kind < 0.3:
            counts = {0: rng.randint(0, 4)}
        else:
            top = rng.randint(0, min(room, 3))
            counts = {p: rng.randint(0, 3) for p in range(top + 1) if rng.random() < 0.8}
        room -= max(counts, default=0)
        per_dim.append(counts)
    return per_dim


def test_product_counts_match_the_enumeration():
    # the closed form counts what the builders enumerate, for 1 to 4
    # factors, empty and 0-dimensional ones included
    rng = random.Random(41)
    cases = [random_per_dim(rng) for _ in range(300)]
    cases += [[{}], [{0: 3}], [{0: 2}, {}], [{0: 2}, {0: 3}, {1: 1}], [{1: 1}, {2: 2}, {0: 1, 3: 1}]]
    for per_dim in cases:
        assert product_counts(per_dim) == enumerated_product_counts(per_dim), per_dim
    assert product_counts([model_interval().cell_count()] * 2) == {0: 4, 1: 5, 2: 2}


def test_product_caps_hold_at_the_enumerated_thresholds(monkeypatch):
    # a product passes at exactly the cell cap, with its cells per
    # dimension returned, and exits one cell above it; the dimension cap
    # is checked first
    rng = random.Random(43)
    for _ in range(60):
        per_dim = random_per_dim(rng)
        cells = enumerated_product_counts(per_dim)
        total = sum(cells.values())
        monkeypatch.setattr(simplicial, "PRODUCT_CELL_CAP", total)
        assert check_product_counts(PRODUCT_DIM_CAP, per_dim) == cells
        monkeypatch.setattr(simplicial, "PRODUCT_CELL_CAP", total - 1)
        with pytest.raises(CapExceededError) as err:
            check_product_counts(PRODUCT_DIM_CAP, per_dim)
        assert str(err.value) == f"product has {total} cells, exceeds cap {total - 1}"
        with pytest.raises(CapExceededError) as err:
            check_product_counts(PRODUCT_DIM_CAP + 1, per_dim)
        assert str(err.value) == f"product dimension {PRODUCT_DIM_CAP + 1} exceeds cap {PRODUCT_DIM_CAP}"


def test_joint_normalize_strips_shared_degeneracies():
    refs = (("c", (0, 0, 1)), ("d", (0, 0, 1)))
    stripped, tau = joint_normalize(refs)
    assert stripped == (("c", (0, 1)), ("d", (0, 1)))
    assert tau == (0, 0, 1)
    refs = (("c", (0, 0, 1)), ("d", (0, 1, 1)))
    stripped, tau = joint_normalize(refs)
    assert stripped == refs
    assert tau == (0, 1, 2)


def strip(refs):
    """The joint normal form by a plain strip of the shared positions."""
    k1 = len(refs[0][1])
    keep = [0] + [t for t in range(1, k1) if any(a[t - 1] != a[t] for _, a in refs)]
    tau = [0]
    for t in range(1, k1):
        tau.append(tau[-1] + (t in keep))
    return tuple((c, tuple(a[t] for t in keep)) for c, a in refs), tuple(tau)


def test_joint_normalize_matches_stripping_every_shared_position():
    # the shortcut for a coordinate with an identity word against a
    # plain strip of the shared positions, on all pairs of words up to [3]
    checked = 0
    for k in range(4):
        words = [a for p in range(k + 1) for a in surjections(k, p)]
        for a in words:
            for b in words:
                refs = (("c", a), ("d", b))
                assert joint_normalize(refs) == strip(refs), refs
                checked += 1
    assert checked == 1 + 4 + 16 + 64


def test_one_normalizer_reused_agrees_with_fresh_ones():
    # one normalizer serves every pair and triple of words up to [3], as
    # product and product_map reuse theirs; the second round reads memos
    normalize = JointNormalizer()
    checked = 0
    for _ in range(2):
        for k in range(4):
            words = [a for p in range(k + 1) for a in surjections(k, p)]
            for a in words:
                for b in words:
                    for refs in ([("c", a), ("d", b)], [("c", a), ("d", b), ("e", a)]):
                        expected = strip(refs)
                        assert joint_normalize(refs) == expected, refs
                        assert normalize(refs) == expected, refs
                        checked += 1
    assert checked == 2 * 2 * (1 + 4 + 16 + 64)
    assert normalize.masks  # the memo is filled, and lives on the instance


# --- quotients and smash --------------------------------------------------------


def test_quotient_interval_ends_gives_circle():
    circ = quotient(model_interval(), ["v0", "v1"])
    assert betti_numbers(circ) == {1: 1}
    assert circ.basepoint is not None


def test_quotient_requires_face_closure():
    with pytest.raises(ValidationError):
        quotient(model_interval(), ["e"])


def test_quotient_of_empty_set_adds_basepoint():
    q = quotient(model_points(2), [])
    assert len(q.cells_of_dim(0)) == 3
    assert betti_numbers(q) == {0: 2}


def test_quotient_refuses_reserved_basepoint_name():
    # the fresh basepoint is named "*", so an object with a cell of that
    # name is refused, whether or not "*" is its basepoint
    for basepoint in (None, "*"):
        interval = SimplicialObject(
            {0: ["*", "v"], 1: ["e"]},
            {"e": (("v", (0,)), ("*", (0,)))},
            basepoint=basepoint,
        )
        with pytest.raises(ValidationError, match="reserved"):
            quotient(interval, ["v"])


def test_subobject_requires_face_closure():
    with pytest.raises(ValidationError):
        subobject(model_interval(), ["e", "v0"])


def test_smash_of_circles_is_sphere():
    s1 = model_circle(pointed=True)
    sphere = smash(s1, s1)
    assert betti_numbers(sphere) == {2: 1}


def test_smash_with_point_collapses():
    s1 = model_circle(pointed=True)
    out = smash(s1, point_object())
    assert homology(out).is_acyclic()


def test_smash_needs_basepoints():
    with pytest.raises(ValidationError):
        smash(model_circle(), model_circle(pointed=True))


# --- group actions ---------------------------------------------------------------


def test_action_swap_of_wedge_circles():
    w = model_wedge_of_circles(2, pointed=True)
    g = {"v": "v", "e0": "e1", "e1": "e0"}
    action = PermutationAction(w, (g,))
    sizes = action.orbit_sizes()
    assert sorted(sizes.values()) == [1, 2]
    q = quotient_by_group(action)
    assert betti_numbers(q) == {1: 1}


def test_action_rejects_basepoint_motion():
    pts = SimplicialObject({0: ["a", "b"]}, {}, basepoint="a")
    with pytest.raises(ValidationError):
        PermutationAction(pts, ({"a": "b", "b": "a"},))


def test_action_rejects_face_incompatibility():
    obj = model_interval()
    # swapping the vertices but fixing the edge breaks its face table
    g = {"v0": "v1", "v1": "v0", "e": "e"}
    with pytest.raises(ValidationError):
        PermutationAction(obj, (g,))


def test_action_rejects_partial_generator():
    obj = model_points(2)
    with pytest.raises(ValidationError):
        PermutationAction(obj, ({"p0": "p1"},))


# --- simplicial maps ---------------------------------------------------------------


def test_identity_map_validates_and_composes():
    obj = product([model_interval(), model_interval()])
    ident = identity_simplicial(obj)
    ident.validate()
    again = compose_simplicial(ident, ident)
    assert again.mapping == ident.mapping


def test_same_object_structural():
    a = model_circle()
    b = model_circle()
    assert a is not b
    assert same_object(a, b)
    assert not same_object(a, model_interval())


def test_compose_rejects_mismatch():
    f = identity_simplicial(model_circle())
    g = identity_simplicial(model_interval())
    with pytest.raises(ValidationError):
        compose_simplicial(g, f)


def test_product_map_renormalizes_and_collapses():
    # on a product, a factor that collapses an edge adds shared degeneracies
    interval = model_interval()
    squash = SimplicialMap(
        interval, interval, {"v0": ("v0", (0,)), "v1": ("v0", (0,)), "e": ("v0", (0, 0))}
    )
    square = product([interval, interval])
    m = product_map([squash, None], square, square)
    m.validate()
    assert m.cell_image(square.cells_of_dim(2)[0])[1] in ((0, 0, 1), (0, 1, 1))
    assert dict(m.mapping) == product_map_reference([squash, None], square, square)
    # on a smash, an image in the collapsed wedge goes to the basepoint
    circle = model_circle(pointed=True)
    torus = smash(circle, circle)
    constant = SimplicialMap(circle, circle, {"v": ("v", (0,)), "e": ("v", (0, 0))})
    m = product_map([constant, None], torus, torus)
    m.validate()
    assert m.mapping == {c: (BASEPOINT, surj_zero(torus.dim_of[c])) for c in torus.dim_of}
    assert dict(m.mapping) == product_map_reference([constant, None], torus, torus)
    assert product_map([None, None], torus, torus).mapping == identity_simplicial(torus).mapping


def test_product_map_computes_images_on_lookup():
    # the images are computed on each lookup: the table lists the
    # source's cells, a second full read gives the same images as the
    # first, and a cell outside the source is a KeyError
    interval = model_interval()
    squash = SimplicialMap(
        interval, interval, {"v0": ("v0", (0,)), "v1": ("v0", (0,)), "e": ("v0", (0, 0))}
    )
    square = product([interval, interval])
    images = product_map([None, squash], square, square).mapping
    assert len(images) == len(square.dim_of)
    assert list(images) == list(square.all_cells())
    first = dict(images.items())
    assert first == product_map_reference([None, squash], square, square)
    assert dict(images.items()) == first
    assert "e" not in images and images.get("e") is None
    with pytest.raises(KeyError):
        images["e"]


def test_map_validation_reads_each_image_once():
    interval = model_interval()
    squash = SimplicialMap(
        interval, interval, {"v0": ("v0", (0,)), "v1": ("v0", (0,)), "e": ("v0", (0, 0))}
    )
    square = product([interval, interval])
    images = product_map([squash, None], square, square).mapping
    reads = Counter()

    class CountingImages(Mapping):
        def __getitem__(self, cell):
            reads[cell] += 1
            return images[cell]

        def __iter__(self):
            return iter(images)

        def __len__(self):
            return len(images)

    assert SimplicialMap(square, square, CountingImages()).validate()
    assert reads == dict.fromkeys(square.dim_of, 1)


def test_map_validation_catches_bad_word():
    obj = model_interval()
    bad = SimplicialMap(obj, obj, {
        "v0": ("v0", (0,)),
        "v1": ("v1", (0,)),
        "e": ("v0", (0,)),  # word length wrong for a 1-cell
    })
    with pytest.raises(ValidationError):
        bad.validate()


# --- tree spaces ---------------------------------------------------------------------


def test_t_space_of_discrete_is_two_points():
    t = t_space(make_partition(2, [[0], [1]]))
    assert betti_numbers(t) == {0: 1}


def test_t_space_of_triple_block():
    t = t_space(indiscrete(3))
    assert betti_numbers(t) == {2: 2}


def test_t_space_wedge_rank_formula():
    # H~(T_lam) is free of rank the product over blocks of (size - 1)!, in
    # the excess degree, over Z, F2 and F3: every shape of support <= 6 in
    # the quotient model and every shape of positive excess in the
    # suspension model
    models = (
        (t_space, homology),
        (t_space_suspension_model, lambda q, coefficients: suspension_homology(q, coefficients)[1]),
    )
    for build, read in models:
        for m in range(1, 7):
            for shape in shapes_of_support(m):
                lam = make_partition(m, blocks_from_shape(shape))
                if build is t_space_suspension_model and lam.excess == 0:
                    continue
                rank = math.prod(math.factorial(s - 1) for s in shape)
                space = build(lam)
                for coefficients in ("Z", "F2", "F3"):
                    groups = read(space, coefficients).groups
                    live = {k: g for k, g in groups.items() if not g.is_zero()}
                    expected = {lam.excess: HomologyGroup(rank, ())}
                    assert live == expected, (build.__name__, shape, coefficients)


def test_suspension_model_agrees():
    for blocks in ([[0, 1]], [[0, 1, 2]], [[0, 1], [2, 3]], [[0, 1, 2], [3, 4]]):
        lam = make_partition(sum(len(b) for b in blocks), blocks)
        a = homology(t_space(lam))
        _, b = suspension_homology(t_space_suspension_model(lam))
        assert {k: (g.rank, g.torsion) for k, g in a.groups.items() if not g.is_zero()} == {
            k: (g.rank, g.torsion) for k, g in b.groups.items() if not g.is_zero()
        }


def positive_excess_shapes():
    """Every shape of positive excess and support <= 6, smallest first."""
    shapes = {canonicalize(p) for m in range(7) for p in all_partitions(m)}
    return sorted((lam for lam in shapes if lam.excess), key=lambda lam: (lam.support_size, lam.blocks))


def test_suspension_model_matches_nerve_oracle():
    # the cells and homology read from the chain space Q against those of
    # S^1 smash Q built by definition (`suspension_via_nerve`): every
    # shape of positive excess and support <= 6 over Z, and up to support
    # 5 over F2 and F3 too
    for lam in positive_excess_shapes():
        oracle = suspension_via_nerve(lam)
        q = t_space_suspension_model(lam)
        for coefficients in ("Z", "F2", "F3") if lam.support_size <= 5 else ("Z",):
            cells, result = suspension_homology(q, coefficients)
            assert cells == oracle.cell_count(), lam
            assert result.to_json() == homology(oracle, coefficients).to_json(), (lam, coefficients)


def degenerate_face_object():
    """A 2-cell f whose first face is the degenerate edge on a vertex v
    off the basepoint."""
    return SimplicialObject(
        {0: [BASEPOINT, "v"], 1: ["a"], 2: ["f"]},
        {"a": (("v", (0,)), (BASEPOINT, (0,))), "f": (("v", (0, 0)), ("a", (0, 1)), ("a", (0, 1)))},
        basepoint=BASEPOINT,
    )


def test_smash_normalizes_degenerate_faces():
    # faces of the smash of the circle with a cell whose first face is
    # degenerate repeat twice in the second coordinate and are
    # normalized as in a product
    x = degenerate_face_object()
    assert x.validate()
    for obj in (x, model_circle(pointed=True), smash(model_circle(pointed=True), x)):
        built = smash(model_circle(pointed=True), obj)
        shifted = {k + 1: r for k, r in betti_numbers(obj).items()}
        assert betti_numbers(built) == shifted
    sx = smash(model_circle(pointed=True), x)
    faces = [f for c in sx.cells[3] for f in sx.faces[c]]
    assert any(tau != surj_identity(2) for _, tau in faces)


def test_t_space_faces_on_lookup_match_nerve_route():
    # every shape of support <= 5: the chains through both ends of the
    # refinement poset, with faces computed on lookup, against the nerve
    # with the chains that miss an end collapsed, every face stored
    for m in range(6):
        for shape in shapes_of_support(m):
            lam = make_partition(m, blocks_from_shape(shape))
            space = t_space(lam)
            assert same_object(space, t_space_via_nerve(lam)), shape
            assert dict.__len__(space.faces) == 0


def test_suspension_model_needs_excess():
    with pytest.raises(ValidationError):
        t_space_suspension_model(make_partition(2, [[0], [1]]))


def test_t_space_cap():
    with pytest.raises(CapExceededError):
        t_space(indiscrete(10))


def test_t_space_top_cells_match_cell_count():
    shapes = [s for m in range(1, 7) for s in shapes_of_support(m)] + [(5, 2), (4, 3)]
    for shape in shapes:
        lam = make_partition(sum(shape), blocks_from_shape(shape))
        t = t_space(lam)
        top = [c for c in t.cells[t.dimension] if c != t.basepoint]
        assert t_space_top_cells(lam) == len(top), shape
    assert t_space_top_cells(indiscrete(6)) == 2_700
    assert t_space_top_cells(indiscrete(7)) == T_SPACE_TOP_CELL_CAP == 56_700
    assert t_space_top_cells(indiscrete(8)) == 1_587_600


def test_t_space_size_cap_before_any_work(monkeypatch):
    import forestcalc.simplicial as simplicial_module

    def no_poset(lam):
        raise AssertionError("poset built for a rejected tree space")

    monkeypatch.setattr(simplicial_module, "refinement_poset", no_poset)
    for build in (t_space, t_space_suspension_model):
        with pytest.raises(CapExceededError, match="1587600 top cells"):
            build(indiscrete(8))


def test_suspension_size_cap_before_any_work(monkeypatch):
    import forestcalc.simplicial as simplicial_module

    class Built(Exception):
        pass

    def no_poset(lam):
        raise Built

    monkeypatch.setattr(simplicial_module, "refinement_poset", no_poset)
    # every shape up to support 6 passes the cap and reaches the poset
    shapes = {canonicalize(p) for m in range(7) for p in all_partitions(m)}
    for lam in shapes:
        if lam.excess > 0:
            with pytest.raises(Built):
                t_space_suspension_model(lam)
    with pytest.raises(CapExceededError, match="340200 top cells, exceeds cap 13500"):
        t_space_suspension_model(indiscrete(7))


# --- top cycles of tree spaces ------------------------------------------------------


def shapes_with_excess(m):
    """One partition of each shape on m points with positive excess,
    singleton blocks included."""
    return sorted({canonicalize(p) for p in all_partitions(m) if p.excess > 0}, key=str)


def test_top_cycles_are_a_basis_of_the_top_homology():
    # every shape of support <= 6: prod_b (|b| - 1)! cycles, the rank of
    # the top homology; each is a cycle of the chain complex; their
    # matrix on the top cells has only unit elementary divisors, so they
    # span the top cycles over Z; and each reads as its own unit vector
    # through the dual chains
    shapes = [lam for m in range(2, 7) for lam in shapes_with_excess(m)]
    assert len(shapes) == 23
    for lam in shapes:
        cycles, e = top_cycles(lam), lam.excess
        space = t_space(lam)
        top = space.cells[e]
        column = {chain: j for j, chain in enumerate(top)}
        boundary = {}
        for i, j, v in chain_complex(space).boundary(e):
            boundary.setdefault(j, []).append((i, v))
        count = math.prod(math.factorial(len(b) - 1) for b in lam.blocks)
        assert len(cycles.words) == count == homology(space).group(e).rank, lam
        entries = []
        for w in range(count):
            rho = cycles.cycle(w)
            faces = Counter()
            for chain, sign in rho.items():
                for i, v in boundary.get(column[chain], ()):
                    faces[i] += sign * v
            assert not any(faces.values()), (lam, w)
            assert cycles.coordinates(rho.items()) == {w: 1}, (lam, w)
            entries += [(column[chain], w, sign) for chain, sign in rho.items()]
        assert sparse_elementary_divisors(entries, len(top), count) == [1] * count, lam


def test_top_cycles_pair_with_their_dual_chains_at_support_7():
    # the count and the pairing, for the 14 shapes of support 7; each
    # chain is read off the masks of its cuts, so this stays fast (48 s
    # when each chain was built whole)
    start = time.monotonic()
    shapes = shapes_with_excess(7)
    assert len(shapes) == 14
    for lam in shapes:
        cycles = top_cycles(lam)
        assert len(cycles.words) == math.prod(math.factorial(len(b) - 1) for b in lam.blocks)
        for w in range(len(cycles.words)):
            assert cycles.coordinates(cycles.cycle(w).items()) == {w: 1}, (lam, w)
    assert time.monotonic() - start < 2.0


def test_top_cycle_coordinates_read_a_combination():
    # a combination of the basis reads back its coefficients, and the
    # chains off the dual chains do not matter to the reading
    lam = make_partition(5, [[0, 1, 2], [3, 4]])
    cycles = top_cycles(lam)
    assert cycles.words == (((0, 1, 2), (3, 4)), ((0, 2, 1), (3, 4)))
    terms = [(chain, 3 * s) for chain, s in cycles.cycle(0).items()]
    terms += [(chain, -2 * s) for chain, s in cycles.cycle(1).items()]
    assert cycles.coordinates(terms) == {0: 3, 1: -2}
    assert cycles.coordinates(terms + terms) == {0: 6, 1: -4}


# --- JSON models -----------------------------------------------------------------------


def test_model_from_json_square():
    data = {
        "cells": [
            {"id": "a", "dim": 0},
            {"id": "b", "dim": 0},
            {"id": "c", "dim": 0},
            {"id": "ab", "dim": 1, "faces": ["b", "a"]},
            {"id": "bc", "dim": 1, "faces": ["c", "b"]},
            {"id": "ac", "dim": 1, "faces": ["c", "a"]},
            {"id": "abc", "dim": 2, "faces": ["bc", "ac", "ab"]},
        ]
    }
    obj = model_from_json(data)
    assert obj.cell_count() == {0: 3, 1: 3, 2: 1}
    assert homology(obj).is_acyclic()


def test_model_from_json_errors():
    with pytest.raises(ValidationError):
        model_from_json({"nope": []})
    # a dict under "cells" iterates as bare strings, not cell records
    with pytest.raises(ValidationError):
        model_from_json({"cells": {"0": ["p", "q"]}})
    with pytest.raises(ValidationError):
        model_from_json({"cells": [{"id": "a"}]})
    with pytest.raises(ValidationError):
        model_from_json({"cells": [{"id": "a", "dim": -1}]})
    with pytest.raises(ValidationError):
        model_from_json({"cells": [{"id": "a", "dim": "0"}]})
    with pytest.raises(ValidationError):
        model_from_json({"cells": [{"id": "a", "dim": 0}, {"id": "a", "dim": 0}]})
    with pytest.raises(ValidationError):
        model_from_json({"cells": [{"id": "a", "dim": 0, "faces": ["a"]}]})
    with pytest.raises(ValidationError):
        model_from_json(
            {"cells": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1, "faces": ["a"]}]}
        )
    with pytest.raises(ValidationError):
        model_from_json(
            {
                "cells": [
                    {"id": "a", "dim": 0},
                    {"id": "e", "dim": 1, "faces": ["a", "missing"]},
                ]
            }
        )


def test_cell_name_collision_rejected():
    with pytest.raises(ValidationError):
        SimplicialObject({0: ["x"], 1: ["x"]}, {"x": (("x", (0,)), ("x", (0,)))})


def test_validate_catches_broken_identities():
    # a 2-cell whose faces do not satisfy the simplicial identities
    cells = {0: ["a", "b"], 1: ["e", "f"], 2: ["t"]}
    faces = {
        "e": (("b", (0,)), ("a", (0,))),
        "f": (("a", (0,)), ("b", (0,))),
        "t": (("e", (0, 1)), ("e", (0, 1)), ("f", (0, 1))),
    }
    obj = SimplicialObject(cells, faces)
    with pytest.raises(ValidationError):
        obj.validate()
