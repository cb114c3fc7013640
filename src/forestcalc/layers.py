"""Layer assembly: powers glued with tree spaces over the fusion category.

The coend is the colimit of simplicial sets that glues each piece along
both actions of every morphism.  It is computed from nondegenerate cells
alone, one dimension at a time: the relations are applied to the cells
of each mixing piece, and a degenerate image stands for its
Eilenberg-Zilber normal form, fixed in a lower dimension.  Because both
actions are simplicial, the identifications of degenerate simplices
follow from these.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .category import automorphism_group, enumerate_en, filtration
from .errors import CapExceededError, ValidationError
from .homology import chain_complex, homology
from .partitions import SetMap, UnionFind, image_partition, refinement_poset
from .powers import (
    coordinate_permutation_cellmap,
    fat_diagonal_cells,
    induced_power_map,
    power_pair,
)
from .simplicial import (
    BASEPOINT,
    PermutationAction,
    SimplicialObject,
    descend_to_quotients,
    identity_simplicial,
    point_object,
    power,
    product_map,
    quotient,
    quotient_by_group,
    smash,
    sort_key,
    surj_compose,
    surj_identity,
    t_space,
)

COEND_N_CAP = 2  # n = 3 must be asked for explicitly


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
    total: SimplicialObject
    pieces: dict  # object index -> pointed piece
    gluing_log: dict  # dimension -> number of identifications
    table: object


def _coend_pieces(M, table):
    """The pieces of the coend and the relations that glue them.

    Piece i is the power quotient of object i smashed with its tree
    space.  An arrow f: lam_i -> lam_j gives the relation (i, j, w, a, b)
    on the mixing piece w = (power quotient of lam_j) smashed with (tree
    space of lam_i), with a: w -> piece i and b: w -> piece j.
    """
    pairs = {}
    trees = {}
    pieces = {}
    for i, lam in enumerate(table.objects):
        pairs[i] = power_pair(M, lam)
        pieces[i] = smash(pairs[i].quotient, _tree(trees, lam)[1])
    relations = []
    for i, lam in enumerate(table.objects):
        tree = trees[lam][1]
        ident_t = identity_simplicial(tree)
        for j, lam_j in enumerate(table.objects):
            homset = table.hom(i, j)
            if not homset:
                continue
            if i == j:
                w = pieces[i]
            else:
                w = smash(pairs[j].quotient, tree)
            ident_p = identity_simplicial(pairs[j].quotient)
            for f in homset:
                pw = power_quotient_map(f, pairs[i], pairs[j])
                tw = t_space_map(f, lam, lam_j, trees)
                a = descend_to_quotients(product_map([pw, ident_t], w), w, pieces[i])
                b = descend_to_quotients(product_map([ident_p, tw], w), w, pieces[j])
                relations.append((i, j, w, a, b))
    return pieces, relations


def _glue(pieces, relations):
    """Colimit of the pieces along a(w) ~ b(w), with shared basepoints.

    In each dimension k, union-find runs over the nondegenerate k-cells
    (i, cell) of the pieces.  A degenerate image enters as its normal
    form (glued cell, word), which a lower dimension fixed; a class that
    holds one takes it, any other class becomes a glued cell named after
    its smallest member.  gluing counts, per dimension k, the
    identifications the colimit makes among all k-simplices: the pieces
    have sum over q of n_q * C(k, q) of them, the glued space the same
    sum over its own q-cells.
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
                name = min(group, key=sort_key)
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


def _coend_over(M, table):
    """Colimit of the pieces of a category table; the workhorse."""
    if not table.objects:
        return point_object(), {}, {}
    pieces, relations = _coend_pieces(M, table)
    total, gluing = _glue(pieces, relations)
    return total, pieces, gluing


def coend(M, n, allow_large=False):
    """The glued space of all power quotients smashed with tree spaces.

    Identifications run along both actions of every strict fusion,
    automorphisms included; basepoints are shared.
    """
    if n > COEND_N_CAP and not allow_large:
        raise CapExceededError(
            f"coend for n={n} exceeds the default cap {COEND_N_CAP}; pass allow_large"
        )
    table = enumerate_en(n, include_homs=True)
    total, pieces, glue = _coend_over(M, table)
    return CoendAssembly(n=n, total=total, pieces=pieces, gluing_log=glue, table=table)


def coend_over_filtration(M, n, i):
    """Coend restricted to objects with at most i components; i = 0
    degenerates to the basepoint."""
    if i == 0:
        return point_object()
    table = filtration(enumerate_en(n, include_homs=True), i)
    total, _, _ = _coend_over(M, table)
    return total


# ---------------------------------------------------------------------------
# strata


@dataclass
class StratumResult:
    lam: object
    space: SimplicialObject  # the orbit quotient
    pre_quotient: SimplicialObject
    free: bool
    group_order: int
    orbit_defects: list


def stratum(M, n, i, lam):
    """(power / fat diagonal, smashed with the tree space) modulo the
    partition's automorphisms, with a freeness certificate.

    Both factors carry the left relabeling action: coordinates read
    through the inverse permutation, refinements pushed forward.
    """
    if lam.components != i or lam.excess != n:
        raise ValidationError("partition does not sit in the requested stratum")
    m = lam.support_size
    big = power(M, m)
    fat = fat_diagonal_cells(big)
    collapsed = quotient(big, fat)
    trees = {}
    tree = _tree(trees, lam)[1]
    smashed = smash(collapsed, tree)
    group = automorphism_group(lam)
    generators = []
    for g in group.generators:
        gmap = SetMap(m, m, g)
        perm_cells = coordinate_permutation_cellmap(big, gmap.inverse().values)
        tmap = t_space_map(gmap, lam, lam, trees)
        gen = {BASEPOINT: BASEPOINT}
        for cell in smashed.all_cells():
            if cell == BASEPOINT:
                continue
            (pcell, pword), (tcell, tword) = cell
            new_p = perm_cells[pcell] if pcell != BASEPOINT else BASEPOINT
            new_t = tmap.mapping[tcell][0] if tcell != BASEPOINT else BASEPOINT
            gen[cell] = ((new_p, pword), (new_t, tword))
        generators.append(gen)
    action = PermutationAction(smashed, tuple(generators))
    sizes = action.orbit_sizes()
    base = action.orbit_of[smashed.basepoint]
    defects = [
        {"orbit": repr(rep), "size": sizes[rep]}
        for rep in sorted(sizes, key=sort_key)
        if rep != base and sizes[rep] != group.order
    ]
    return StratumResult(
        lam=lam,
        space=quotient_by_group(action),
        pre_quotient=smashed,
        free=not defects,
        group_order=group.order,
        orbit_defects=defects,
    )


# ---------------------------------------------------------------------------
# the report


def _reduced_euler(obj):
    cx = chain_complex(obj, reduced=True)
    return sum((-1) ** k * r for k, r in cx.ranks.items() if k >= 0) - (
        1 if -1 in cx.ranks else 0
    )


def derivative_report(M, n, coefficients="Z", allow_large=False, emit_cells=False):
    """Everything the layer computation determines, as plain JSON data.

    No raw cell names appear, so relabeling the model leaves the report
    unchanged.  The full coend is filtration stage n, so it is built once.
    """
    assembly = coend(M, n, allow_large=allow_large)
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
    stage_eulers = {0: 0}
    additivity = []
    for i in range(1, n + 1):
        if i == n:
            stage = assembly.total
        else:
            stage = coend_over_filtration(M, n, i)
        stage_eulers[i] = _reduced_euler(stage)
        stratum_sum = 0
        for idx, lam in enumerate(table.objects):
            if table.strata[idx] != i:
                continue
            res = stratum(M, n, i, lam)
            label = "-".join(str(s) for s in lam.shape())
            entry = {
                "support": lam.support_size,
                "free_action": res.free,
                "group_order": res.group_order,
            }
            if res.free:
                entry["homology"] = homology(
                    res.space, coefficients=coefficients, reduced=True
                ).groups_json()
                entry["model"] = coefficients
            else:
                entry["homology"] = homology(
                    res.space, coefficients="Q", reduced=True
                ).groups_json()
                entry["model"] = "rational, invariants model"
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
