"""Layer assembly: powers glued with tree spaces over the fusion category.

The coend is the colimit of simplicial sets that glues each piece along
both actions of every morphism.  The relations of a set of arrows that
generates the category under composition already fix it, so only the
generating arrows of the table are applied: a minimal set of
automorphism generators of each object and one arrow per double coset
of automorphisms in each other hom set
(`CategoryTable.generating_arrows`).  Both actions are functorial, so
the relation of a composite follows from those of its factors.

An automorphism acts on both factors of its object's piece by
isomorphisms, cell to cell with identity words, so it glues the piece's
cells with the same words along the orbits of their pairs of factor
cells.  These orbits are found once per object, by one union-find over
the pairs of non-basepoint factor cells (`_aut_orbits`); the stratum of
an object takes the same orbits on the pairs off the fat diagonal.  The
colimit is then computed from the orbits' representative cells alone,
one dimension at a time: the relations of the other generating arrows
are applied to the cells of their mixing pieces, and a degenerate image
stands for its Eilenberg-Zilber normal form, fixed in a lower
dimension.  Because both actions are simplicial, the identifications
of degenerate simplices follow from these.  The colimit reads the faces
of a piece's cell only when the cell becomes a glued representative,
and never the faces of a mixing piece; `smash` computes each face on
lookup, so no other face is computed.  The relation maps compute each
image when the colimit looks it up, once per cell of the mixing piece,
and keep none (`product_map`).

The pieces and relations are built once per coend, and glued once.
Filtration stage i is the subobject of the glued cells of the objects
with at most i components, a prefix of the table: essential cofibrancy
makes each stage map injective, so gluing those pieces alone would give
the same cells, named and ordered alike.  The stratum of an object is
computed at chain level, as the automorphism coinvariants of the chains
of (power / fat diagonal) tensored with those of the tree space.  This is
exact: the shuffle and Alexander-Whitney maps and the Eilenberg-Zilber
homotopy are natural and keep the wedge, so they pass to coinvariants.
"""

import itertools
from collections import Counter
from math import comb

from .category import enumerate_en
from .errors import CapExceededError, ValidationError
from .homology import (
    HomologyResult,
    homology,
    homology_of_complex,
    tensor_chain_complex,
)
from .partitions import SetMap, UnionFind, image_partition, refinement_poset
from .powers import fat_diagonal_cells, induced_power_map, power_pair
from .simplicial import (
    BASEPOINT,
    SimplicialObject,
    check_product_size,
    descend_to_quotients,
    point_object,
    product_map,
    smash,
    subobject,
    surj_compose,
    surj_identity,
    t_space,
)

COEND_N_CAP = 2  # raise only once n = 3 is measured to fit in memory


# ---------------------------------------------------------------------------
# induced maps on tree spaces and power quotients


def _tree(trees, lam):
    """The refinement poset and tree space of lam, from the caller's dict
    partition -> (poset, tree space); a missing entry is built and kept."""
    if lam not in trees:
        trees[lam] = (refinement_poset(lam), t_space(lam))
    return trees[lam]


def t_space_map(f, lam, lam_target, trees=None):
    """Map of tree spaces induced by a strict fusion.

    Chains of refinements map elementwise through the image partition;
    repeats collapse into degeneracy words, and boundary chains land in
    the boundary, so only the cells of the source quotient are mapped.
    A caller that maps many fusions passes one `trees` dict (see `_tree`)
    so that each poset and tree space is built once.
    """
    if trees is None:
        trees = {}
    pos, src = _tree(trees, lam)
    pos2, tgt = _tree(trees, lam_target)
    mapping = {}
    for chain in src.all_cells():
        if chain == BASEPOINT:
            continue
        images = [pos2.index[image_partition(f, pos.elements[i])] for i in chain]
        strict = [images[0]]
        tau = [0]
        for prev, cur in zip(images, images[1:]):
            if cur != prev:
                strict.append(cur)
                tau.append(tau[-1] + 1)
            else:
                tau.append(tau[-1])
        mapping[chain] = (tuple(strict), tuple(tau))
    return descend_to_quotients(mapping, src, tgt)


def power_quotient_map(f, pair_source, pair_target):
    """For f from the source partition to the target one, the wrong-way
    map (target power quotient) -> (source power quotient).

    Well-defined because strict fusions carry bad diagonals into bad
    diagonals.
    """
    raw = induced_power_map(f, pair_target.power, pair_source.power)
    return descend_to_quotients(raw.mapping, pair_target.quotient, pair_source.quotient)


# ---------------------------------------------------------------------------
# the coend


class CoendAssembly:
    __slots__ = ("n", "stages", "pieces", "pairs", "trees", "gluing_log", "table")

    def __init__(self, n, stages, pieces, pairs, trees, gluing_log, table):
        self.n = n
        self.stages = stages  # i -> filtration stage i, a subobject of the total; 0 is the point
        self.pieces = pieces  # object index -> pointed piece
        self.pairs = pairs  # object index -> power pair
        self.trees = trees  # partition -> (refinement poset, tree space)
        self.gluing_log = gluing_log  # dimension -> number of identifications (stage n)
        self.table = table

    @property
    def total(self):
        return self.stages[self.n]


def _arrow_maps(table, i, j, pairs, trees):
    """The factor maps (pw, tw) of each generating arrow f: lam_i -> lam_j:
    pw the wrong-way map of power quotients, tw the map of tree spaces.
    pairs holds the power pairs by object index; trees is as in `_tree`."""
    lam, lam_j = table.objects[i], table.objects[j]
    maps = []
    for values in table.generating_arrows(i, j):
        f = SetMap(lam.support_size, lam_j.support_size, values)
        maps.append(
            (power_quotient_map(f, pairs[i], pairs[j]), t_space_map(f, lam, lam_j, trees))
        )
    return maps


def _aut_orbits(xs, ys, generators, what):
    """The orbits of the pairs (x, y) in xs x ys under (pw x, y) ~ (x, tw y)
    for each generator (pw, tw) of a group acting on both factors, as a
    dict sending each pair to the first pair of its orbit in
    `itertools.product` order.

    These are the orbits of the diagonal action (x, y) -> (pw_g^-1 x,
    tw_g y).  xs and ys are invariant sets of cells of the maps' sources:
    a generator must send each cell of xs (of ys) to a cell of xs (of ys)
    with the identity word, or the relation would not be one of pairs;
    anything else raises ValidationError naming what.
    """
    pairs = list(itertools.product(xs, ys))
    orbits = UnionFind(pairs)
    factors = ((xs, set(xs)), (ys, set(ys)))
    for generator in generators:
        px, ty = (
            _cell_images(m, cells, kept, what)
            for m, (cells, kept) in zip(generator, factors)
        )
        for x, y in pairs:
            orbits.union((px[x], y), (x, ty[y]))
    first = {}
    return {p: first.setdefault(id(orbits.find(p)), p) for p in pairs}


def _cell_images(m, cells, kept, what):
    """cell -> image cell of the map m on cells, each image a cell of the
    set kept with the identity word."""
    images = {}
    for c in cells:
        image, word = m.mapping[c]
        if image not in kept or word[-1] != len(word) - 1:
            raise ValidationError(
                f"an automorphism of {what} is not an isomorphism: it sends "
                f"{c!r} to {(image, word)!r}"
            )
        images[c] = image
    return images


def _coend_pieces(M, table, pairs=None, trees=None):
    """The pieces of the coend, the relations that glue them, and the
    automorphism generators that each piece is divided by.

    Piece i is the power quotient of object i smashed with its tree
    space.  Its automorphisms are given as a list, automorphisms[i], of
    the factor maps (pw, tw) of the generators of Aut(lam_i): each acts
    on both factors by isomorphisms, and `_glue` divides the piece by
    them as orbits of factor-cell pairs.  An arrow f: lam_i -> lam_j with
    i != j gives the relation (i, j, w, a, b) on the mixing piece w =
    (power quotient of lam_j) smashed with (tree space of lam_i), with
    a: w -> piece i and b: w -> piece j.  A caller that keeps the power
    pairs (by object index) and the tree spaces (see `_tree`) passes the
    dicts to fill.

    Every power is counted against the product caps before the first is
    built.  The pieces and mixing pieces compute their faces on lookup:
    `_glue` reads only the faces of its glued representatives, and the
    relation maps read only cells.  They compute each image on lookup
    and keep none, so a relation holds its two factor maps, not a table
    over the cells of w.

    Only the generating arrows are applied.  For f = g' f0 g with g,
    g' automorphisms, functoriality of both actions chains
    (pw_g pw_f0 pw_g' q, t) ~ (pw_f0 pw_g' q, tw_g t)
    ~ (pw_g' q, tw_f0 tw_g t) ~ (q, tw_g' tw_f0 tw_g t), which is the
    relation of f; a product of generators of a group chains the same way.
    """
    pairs = {} if pairs is None else pairs
    trees = {} if trees is None else trees
    for lam in table.objects:
        check_product_size([M] * lam.support_size)
    pieces = {}
    for i, lam in enumerate(table.objects):
        pairs[i] = power_pair(M, lam)
        pieces[i] = smash(pairs[i].quotient, _tree(trees, lam)[1])
    relations = []
    automorphisms = {}
    for i, lam in enumerate(table.objects):
        tree = trees[lam][1]
        automorphisms[i] = _arrow_maps(table, i, i, pairs, trees)
        for j in range(len(table.objects)):
            maps = _arrow_maps(table, i, j, pairs, trees) if j != i else ()
            if not maps:
                continue
            w = smash(pairs[j].quotient, tree)
            for pw, tw in maps:
                a = product_map([pw, None], w, pieces[i])
                b = product_map([None, tw], w, pieces[j])
                relations.append((i, j, w, a, b))
    return pieces, relations, automorphisms


def _glue(pieces, relations, automorphisms=None):
    """Colimit of the pieces along a(w) ~ b(w), with shared basepoints,
    each piece i divided by the generators in automorphisms[i].

    A generator's factor maps (pw, tw) send cells to cells with identity
    words, so (pw q, t) ~ (q, tw t) sends a piece cell ((x, alpha),
    (y, beta)) to the cell with the same words on another pair: its
    classes are the orbits of the pairs (x, y) of non-basepoint factor
    cells (`_aut_orbits`), the same for every word pair.  They are found
    once per piece, and a cell of the piece stands for the cell of its
    orbit's first pair, which comes first in the piece's cell order.
    A relation passed with i == j is glued cell by cell, like any other.

    Then, in each dimension k, union-find runs over those representative
    k-cells (i, cell) of the pieces.  A degenerate image enters as its
    normal form (glued cell, word), which a lower dimension fixed; a
    class that holds one takes it, any other class becomes a glued cell
    named after its first member: lowest piece first, then the piece's
    cell order.  Only such a representative's faces are read from its
    piece, and only cells are read from a mixing piece.
    gluing counts, per dimension k, the identifications the colimit makes
    among all k-simplices: the pieces have sum over q of n_q * C(k, q) of
    them, the glued space the same sum over its own q-cells.
    """
    moved = {}  # piece -> pair -> its orbit's first pair, for each pair not first
    for i, generators in (automorphisms or {}).items():
        if not generators:
            continue
        pw, tw = generators[0]
        xs = [c for c in pw.source.all_cells() if c != pw.source.basepoint]
        ys = [c for c in tw.source.all_cells() if c != tw.source.basepoint]
        first = _aut_orbits(xs, ys, generators, f"object {i}")
        moved[i] = {p: r for p, r in first.items() if r is not p}

    def rep(i, cell):
        orbit = moved.get(i)
        if orbit is None or cell == pieces[i].basepoint:
            return cell
        (x, alpha), (y, beta) = cell
        r = orbit.get((x, y))
        return cell if r is None else ((r[0], alpha), (r[1], beta))

    top = max(p.dimension for p in pieces.values())
    normal = {}  # (piece, representative cell) -> normal form in the glued space
    cells = {}
    faces = {}

    def form(i, ref):
        cell, alpha = ref
        name, beta = normal[(i, rep(i, cell))]
        return name, surj_compose(beta, alpha)

    gluing = {}
    for k in range(top + 1):
        uf = UnionFind(
            (i, cell)
            for i, piece in pieces.items()
            for cell in piece.cells_of_dim(k)
            if rep(i, cell) is cell
        )

        def node(i, ref):
            # a degenerate simplex is the node (None, its normal form)
            cell, alpha = ref
            return (i, rep(i, cell)) if alpha[-1] == k else (None, form(i, ref))

        if k == 0:
            # wedge convention: one shared basepoint
            for i in pieces:
                uf.union((0, pieces[0].basepoint), (i, pieces[i].basepoint))
        for i, j, w, a, b in relations:
            for cell in w.cells_of_dim(k):
                uf.union(node(i, a.mapping[cell]), node(j, b.mapping[cell]))
        for group in uf.classes():
            forms = [nf for i, nf in group if i is None]
            if len(forms) > 1:
                raise ValidationError(
                    "gluing maps are not simplicial: one class holds the normal "
                    f"forms {forms[0]!r} and {forms[1]!r}"
                )
            group = [x for x in group if x[0] is not None]
            if forms:
                nf = forms[0]
            else:
                name = group[0]
                nf = (name, surj_identity(k))
                cells.setdefault(k, []).append(name)
                if k > 0:
                    i, cell = name
                    faces[name] = tuple(
                        form(i, pieces[i].face(cell, t)) for t in range(k + 1)
                    )
            for x in group:
                normal[x] = nf
        gluing[k] = sum(
            n_q * comb(k, q)
            for piece in pieces.values()
            for q, n_q in piece.cell_count().items()
        ) - sum(len(names) * comb(k, q) for q, names in cells.items())
    bp_name = normal[(0, pieces[0].basepoint)][0]
    return SimplicialObject(cells, faces, basepoint=bp_name), gluing


def coend(M, n):
    """The glued space of all power quotients smashed with tree spaces,
    with its filtration stages.

    Identifications run along both actions of every strict fusion,
    automorphisms included; basepoints are shared.  Stage i holds the
    glued cells named after a piece of an object with at most i
    components.  The objects come in increasing order of components and
    a glued cell is named after its first member, lowest piece first, so
    these are the cells that gluing those pieces alone would give.
    """
    if n > COEND_N_CAP:
        raise CapExceededError(f"coend for n={n} exceeds cap {COEND_N_CAP}")
    table = enumerate_en(n)
    pairs, trees = {}, {}
    pieces, relations, automorphisms = _coend_pieces(M, table, pairs, trees)
    total, gluing = _glue(pieces, relations, automorphisms)
    stages = {0: point_object()}
    for i in range(1, n):
        keep = [c for c in total.dim_of if table.strata[c[0]] <= i]
        stages[i] = subobject(total, keep, basepoint=total.basepoint)
    stages[n] = total
    return CoendAssembly(
        n=n,
        stages=stages,
        pieces=pieces,
        pairs=pairs,
        trees=trees,
        gluing_log=gluing,
        table=table,
    )


def coend_over_filtration(M, n, i):
    """Coend restricted to objects with at most i components; i = 0
    degenerates to the basepoint."""
    if not 0 <= i <= n:
        raise ValidationError(f"filtration index {i} out of range 0..{n}")
    return coend(M, n).stages[i]


# ---------------------------------------------------------------------------
# strata


class StratumResult:
    __slots__ = ("lam", "complex", "free", "group_order")

    def __init__(self, lam, complex, free, group_order):
        self.lam = lam
        self.complex = complex  # reduced chains of the stratum
        self.free = free
        self.group_order = group_order


def stratum(assembly, lam):
    """Reduced chains of (power / fat diagonal) smashed with the tree
    space, modulo the partition's automorphisms, with a freeness flag.

    lam is an object of the assembly's table.  Its piece is (power / bad
    diagonal) smashed with the tree space, and the bad diagonal lies in
    the fat one, so the stratum is a quotient of the piece.  Its chains
    are the coinvariants of the generators q (x) t, with q a cell of the
    power off the fat diagonal and t a cell of the tree space other than
    the basepoint.  Both factors carry the left relabeling action:
    coordinates read through the inverse permutation, refinements pushed
    forward.  Each sends cells to cells without signs, so the
    coinvariant classes are the orbits of the generators: those of the
    coend's pieces (`_aut_orbits`), restricted to the power cells off
    the fat diagonal, an invariant set of cells of the power quotient.
    The stabilizer of q (x) t is stab(q) & stab(t), so the action is
    free exactly when every orbit has as many members as the group.
    """
    table = assembly.table
    if lam not in table.objects:
        raise ValidationError(f"{lam} is not an object of the table for n={table.n}")
    idx = table.objects.index(lam)
    pair = assembly.pairs[idx]
    fat = fat_diagonal_cells(pair.power)
    if not pair.bad_cells <= fat:
        raise ValidationError("bad diagonal is not contained in the fat diagonal")
    tree = _tree(assembly.trees, lam)[1]
    first = _aut_orbits(
        [q for q in pair.power.all_cells() if q not in fat],
        [t for t in tree.all_cells() if t != BASEPOINT],
        _arrow_maps(table, idx, idx, assembly.pairs, assembly.trees),
        str(lam),
    )
    group = table.groups[idx]
    orbit_sizes = Counter(first.values()).values()
    return StratumResult(
        lam=lam,
        complex=tensor_chain_complex(pair.power, tree, fat, {BASEPOINT}, first),
        free=all(size == group.order for size in orbit_sizes),
        group_order=group.order,
    )


# ---------------------------------------------------------------------------
# the report


def derivative_report(M, n, coefficients="Z", emit_cells=False):
    """Everything the layer computation determines, as plain JSON data.

    No raw cell names appear, so relabeling the model leaves the report
    unchanged.  One coend assembly gives every filtration stage and the
    power pairs and tree spaces the strata are built from.
    """
    assembly = coend(M, n)
    table = assembly.table
    coend_homology = homology(assembly.total, coefficients=coefficients, reduced=True)
    report = {
        "schema": "layer-report/1",
        "n": n,
        "coefficients": coefficients,
        "model": {
            "cells": {str(k): v for k, v in M.cell_count().items()},
            "pointed": M.basepoint is not None,
        },
        "coend": coend_homology.groups_json(),
        "gluing": {str(k): v for k, v in sorted(assembly.gluing_log.items())},
    }
    if emit_cells:
        report["coend_cells"] = {
            str(k): v for k, v in assembly.total.cell_count().items()
        }
    strata = {}
    # reduced Euler characteristic, read off the cell counts
    stage_eulers = {
        i: sum((-1) ** k * n_k for k, n_k in stage.cell_count().items()) - 1
        for i, stage in assembly.stages.items()
    }
    additivity = []
    for i in range(1, n + 1):
        stratum_sum = 0
        for idx, lam in enumerate(table.objects):
            if table.strata[idx] != i:
                continue
            res = stratum(assembly, lam)
            label = "-".join(str(s) for s in lam.shape())
            # a power cell off the fat diagonal has pairwise distinct
            # coordinates, so only the identity fixes it
            if not res.free:
                raise ValidationError(f"automorphisms of stratum {label} do not act freely")
            groups = homology_of_complex(res.complex, coefficients)
            entry = {
                "support": lam.support_size,
                "free_action": res.free,
                "group_order": res.group_order,
                "homology": HomologyResult(coefficients, True, groups).groups_json(),
                "model": coefficients,
            }
            strata[label] = entry
            stratum_sum += entry["homology"]["euler"]
        additivity.append(
            {
                "i": i,
                "stage_euler": stage_eulers[i],
                "previous_euler": stage_eulers[i - 1],
                "strata_euler_sum": stratum_sum,
                "passed": stage_eulers[i] - stage_eulers[i - 1] == stratum_sum,
            }
        )
    report["strata"] = strata
    report["euler_additivity"] = {
        "steps": additivity,
        "passed": all(step["passed"] for step in additivity),
    }
    # reduced homology must live between the extreme cell dimensions
    dims = [
        k
        for k, names in assembly.total.cells.items()
        for c in names
        if c != assembly.total.basepoint
    ]
    live = [k for k, g in coend_homology.groups.items() if not g.is_zero()]
    low = min(dims) if dims else 0
    high = max(dims) if dims else 0
    report["degree_support"] = {
        "cell_dim_low": low,
        "cell_dim_high": high,
        "observed": sorted(live),
        "passed": all(low <= k <= high for k in live),
    }
    report["layer_support_sizes"] = {
        "expected": [n + 1, 2 * n],
        "observed": sorted({lam.support_size for lam in table.objects}),
    }
    report["notes"] = {
        "pair_model": (
            "computed from the smashed quotient model; agreement with the "
            "pair description is a modeling assumption for reduced homology"
        ),
    }
    return report
