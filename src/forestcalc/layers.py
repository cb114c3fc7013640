"""Layer assembly: powers glued with tree spaces over the fusion category.

The coend is the colimit of simplicial sets that glues each piece along
both actions of every morphism.  The relations of a set of arrows that
generates the category under composition already fix it, so only the
generating arrows of the table are applied: a minimal set of
automorphism generators of each object and one arrow per double coset
of automorphisms in each other hom set
(`CategoryTable.generating_arrows`).  Both actions are functorial, so
the relation of a composite follows from those of its factors.  The
colimit is computed from nondegenerate cells alone, one dimension at a
time: the relations are applied to the cells of each mixing piece, and
a degenerate image stands for its Eilenberg-Zilber normal form, fixed
in a lower dimension.  Because both actions are simplicial, the
identifications of degenerate simplices follow from these.  The colimit
reads the faces of a piece's cell only when the cell becomes a glued
representative, and never the faces of a mixing piece, so each piece
computes its faces on lookup (`lazy_smash`).

The pieces and relations are built once per coend.  Filtration stage i
glues the pieces of the objects with at most i components, a prefix of
the table, along the relations among them.  The stratum of an object is
computed at chain level, as the automorphism coinvariants of the chains
of (power / fat diagonal) tensored with those of the tree space.  This is
exact: the shuffle and Alexander-Whitney maps and the Eilenberg-Zilber
homotopy are natural and keep the wedge, so they pass to coinvariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .category import enumerate_en
from .errors import CapExceededError, ValidationError
from .homology import (
    ChainComplex,
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
    lazy_smash,
    point_object,
    product_map,
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


@dataclass
class CoendAssembly:
    n: int
    stages: dict  # i -> filtration stage i, glued; stage 0 is the point
    pieces: dict  # object index -> pointed piece
    pairs: dict  # object index -> power pair
    trees: dict  # partition -> (refinement poset, tree space)
    gluing_log: dict  # dimension -> number of identifications (stage n)
    table: object

    @property
    def total(self):
        return self.stages[self.n]


def _coend_pieces(M, table, pairs=None, trees=None):
    """The pieces of the coend and the relations that glue them.

    Piece i is the power quotient of object i smashed with its tree
    space.  An arrow f: lam_i -> lam_j gives the relation (i, j, w, a, b)
    on the mixing piece w = (power quotient of lam_j) smashed with (tree
    space of lam_i), with a: w -> piece i and b: w -> piece j.  A caller
    that keeps the power pairs (by object index) and the tree spaces (see
    `_tree`) passes the dicts to fill.

    Every power is counted against the product caps before the first is
    built.  The pieces and mixing pieces compute their faces on lookup:
    `_glue` reads only the faces of its glued representatives, and the
    relation maps read only cells.

    Only the generating arrows get a relation.  For f = g' f0 g with g,
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
        pieces[i] = lazy_smash(pairs[i].quotient, _tree(trees, lam)[1])
    relations = []
    for i, lam in enumerate(table.objects):
        tree = trees[lam][1]
        for j, lam_j in enumerate(table.objects):
            arrows = table.generating_arrows(i, j)
            if not arrows:
                continue
            if i == j:
                w = pieces[i]
            else:
                w = lazy_smash(pairs[j].quotient, tree)
            for values in arrows:
                f = SetMap(lam.support_size, lam_j.support_size, values)
                pw = power_quotient_map(f, pairs[i], pairs[j])
                tw = t_space_map(f, lam, lam_j, trees)
                a = product_map([pw, None], w, pieces[i])
                b = product_map([None, tw], w, pieces[j])
                relations.append((i, j, w, a, b))
    return pieces, relations


def _glue(pieces, relations):
    """Colimit of the pieces along a(w) ~ b(w), with shared basepoints.

    In each dimension k, union-find runs over the nondegenerate k-cells
    (i, cell) of the pieces.  A degenerate image enters as its normal
    form (glued cell, word), which a lower dimension fixed; a class that
    holds one takes it, any other class becomes a glued cell named after
    its first member: lowest piece first, then the piece's cell order.
    Only such a representative's faces are read from its piece, and only
    cells are read from a mixing piece.
    gluing counts, per dimension k, the identifications the colimit makes
    among all k-simplices: the pieces have sum over q of n_q * C(k, q) of
    them, the glued space the same sum over its own q-cells.
    """
    top = max(p.dimension for p in pieces.values())
    normal = {}  # (piece, cell) -> normal form in the glued space
    cells = {}
    faces = {}

    def form(i, ref):
        cell, alpha = ref
        name, beta = normal[(i, cell)]
        return name, surj_compose(beta, alpha)

    gluing = {}
    for k in range(top + 1):
        uf = UnionFind(
            (i, cell) for i, piece in pieces.items() for cell in piece.cells_of_dim(k)
        )

        def node(i, ref):
            # a degenerate simplex is the node (None, its normal form)
            cell, alpha = ref
            return (i, cell) if alpha[-1] == k else (None, form(i, ref))

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
    automorphisms included; basepoints are shared.  Stage i glues the
    pieces of the objects with at most i components along the relations
    between them.  The objects come in increasing order of components,
    so these pieces are a prefix and keep their indices.
    """
    if n > COEND_N_CAP:
        raise CapExceededError(f"coend for n={n} exceeds cap {COEND_N_CAP}")
    table = enumerate_en(n)
    pairs, trees = {}, {}
    pieces, relations = _coend_pieces(M, table, pairs, trees)
    stages = {0: point_object()}
    for i in range(1, n + 1):
        kept = {k: piece for k, piece in pieces.items() if table.strata[k] <= i}
        stages[i], gluing = _glue(
            kept, [r for r in relations if r[0] in kept and r[1] in kept]
        )
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


@dataclass
class StratumResult:
    lam: object
    complex: ChainComplex  # reduced chains of the stratum
    free: bool
    group_order: int


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
    coinvariant classes are the orbits of the generators.  The
    stabilizer of q (x) t is stab(q) & stab(t), so the action is free
    exactly when every orbit has as many members as the group.
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
    generators = [
        (q, t)
        for q in pair.power.all_cells()
        if q not in fat
        for t in tree.all_cells()
        if t != BASEPOINT
    ]
    orbits = UnionFind(generators)
    m = lam.support_size
    group = table.groups[idx]
    for g in table.generating_arrows(idx, idx):
        gmap = SetMap(m, m, g)
        pmap = induced_power_map(gmap.inverse(), pair.power, pair.power).mapping
        tmap = t_space_map(gmap, lam, lam, assembly.trees).mapping
        for q, t in generators:
            orbits.union((q, t), (pmap[q][0], tmap[t][0]))
    class_of = {x: orbits.find(x) for x in generators}
    return StratumResult(
        lam=lam,
        complex=tensor_chain_complex(pair.power, tree, fat, {BASEPOINT}, class_of),
        free=all(len(orbit) == group.order for orbit in orbits.classes()),
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
