"""Layer assembly: powers glued with tree spaces over the fusion category.

The coend is computed as an honest colimit of simplicial sets: in each
dimension the simplices of all pieces are identified along both actions
of every morphism, then nondegenerate cells and their face words are
recovered bottom-up from normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import automorphism_group, enumerate_en, filtration
from .errors import CapExceededError, ValidationError
from .homology import chain_complex, homology
from .partitions import SetMap, image_partition, refinement_poset
from .powers import (
    coordinate_permutation_cellmap,
    fat_diagonal_cells,
    induced_power_map,
    power_pair,
)
from .simplicial import (
    BASEPOINT,
    PRODUCT_DIM_CAP,
    PermutationAction,
    SimplicialObject,
    descend_to_quotients,
    identity_simplicial,
    point_object,
    power,
    product,
    product_map,
    quotient,
    quotient_by_group,
    smash,
    sort_key,
    surj_degeneracy,
    surj_identity,
    t_space,
)

COEND_N_CAP = 2  # n = 3 must be asked for explicitly


# ---------------------------------------------------------------------------
# induced maps on tree spaces and power quotients


def t_space_map(f, lam, lam_target):
    """Map of tree spaces induced by a strict fusion.

    Chains of refinements map elementwise through the image partition;
    repeats collapse into degeneracy words, and boundary chains land in
    the boundary, so only the cells of the source quotient are mapped.
    """
    pos = refinement_poset(lam)
    pos2 = refinement_poset(lam_target)
    src = t_space(lam)
    tgt = t_space(lam_target)
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


def _coend_over(M, table, dim_cap):
    """Colimit of the pieces of a category table; the workhorse."""
    nobj = len(table.objects)
    if nobj == 0:
        return point_object(), {}, {}
    pairs = {}
    trees = {}
    pieces = {}
    for i, lam in enumerate(table.objects):
        pairs[i] = power_pair(M, lam, dim_cap=dim_cap)
        trees[i] = t_space(lam)
        pieces[i] = smash(pairs[i].quotient, trees[i], dim_cap=dim_cap)
    # relation maps per arrow f: lam_i -> lam_j, through the mixing piece
    # W_f = (power quotient of lam_j) smashed with (tree space of lam_i)
    relations = []
    for i in range(nobj):
        ident_t = identity_simplicial(trees[i])
        for j in range(nobj):
            homset = table.hom(i, j)
            if not homset:
                continue
            w_prod = product([pairs[j].quotient, trees[i]], dim_cap=dim_cap)
            w = smash(pairs[j].quotient, trees[i], dim_cap=dim_cap)
            ident_p = identity_simplicial(pairs[j].quotient)
            for f in homset:
                pw = power_quotient_map(f, pairs[i], pairs[j])
                tw = t_space_map(f, table.objects[i], table.objects[j])
                a = descend_to_quotients(product_map([pw, ident_t], w_prod), w, pieces[i])
                b = descend_to_quotients(product_map([ident_p, tw], w_prod), w, pieces[j])
                relations.append((i, j, w, a, b))
    top = max(p.dimension for p in pieces.values())
    # dimensionwise colimit of all simplices
    finds = []
    glue_counts = {}
    for k in range(top + 1):
        parent = {}
        for i, piece in pieces.items():
            for ref in piece.simplices_of_dim(k):
                parent[(i, ref)] = (i, ref)

        def find(x, parent=parent):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merges = 0
        # wedge convention: one shared basepoint
        bases = [(i, (pieces[i].basepoint, (0,) * (k + 1))) for i in pieces]
        for other in bases[1:]:
            ra, rb = find(bases[0]), find(other)
            if ra != rb:
                parent[rb] = ra
                merges += 1
        for i, j, w, a, b in relations:
            for ref in w.simplices_of_dim(k):
                na = (i, a.ref_image(ref))
                nb = (j, b.ref_image(ref))
                ra, rb = find(na), find(nb)
                if ra != rb:
                    parent[rb] = ra
                    merges += 1
        finds.append((parent, find))
        glue_counts[k] = merges
    # normal forms bottom-up: a degenerate class inherits the form of the
    # simplex below its repeated word entry, a nondegenerate class becomes
    # a cell named after its smallest member
    normal = [{} for _ in range(top + 1)]
    cells = {}
    faces = {}
    for k in range(top + 1):
        parent, find = finds[k]
        members = {}
        for node in parent:
            members.setdefault(find(node), []).append(node)
        for root, group in sorted(members.items(), key=lambda kv: sort_key(kv[0])):
            degenerate = None
            for (i, (cell, alpha)) in group:
                if alpha != surj_identity(pieces[i].dim_of[cell]):
                    degenerate = (i, cell, alpha)
                    break
            if degenerate is None:
                name = min(((i, cell) for (i, (cell, _)) in group), key=sort_key)
                normal[k][root] = (name, surj_identity(k))
                cells.setdefault(k, []).append(name)
                if k > 0:
                    i, cell = name
                    _, sub_find = finds[k - 1]
                    fs = []
                    for t in range(k + 1):
                        fref = pieces[i].face(cell, t)
                        fs.append(normal[k - 1][sub_find((i, fref))])
                    faces[name] = tuple(fs)
            else:
                i, cell, alpha = degenerate
                drop = next(
                    t for t in range(len(alpha) - 1) if alpha[t] == alpha[t + 1]
                )
                lower_ref = (cell, alpha[: drop + 1] + alpha[drop + 2:])
                _, sub_find = finds[k - 1]
                lname, lword = normal[k - 1][sub_find((i, lower_ref))]
                normal[k][root] = (lname, surj_degeneracy(lword, drop))
    _, find0 = finds[0]
    bp_name = normal[0][find0((0, (pieces[0].basepoint, (0,))))][0]
    total = SimplicialObject(cells, faces, basepoint=bp_name)
    return total, pieces, glue_counts


def coend(M, n, dim_cap=PRODUCT_DIM_CAP, allow_large=False):
    """The glued space of all power quotients smashed with tree spaces.

    Identifications run along both actions of every strict fusion,
    automorphisms included; basepoints are shared.
    """
    if n > COEND_N_CAP and not allow_large:
        raise CapExceededError(
            f"coend for n={n} exceeds the default cap {COEND_N_CAP}; pass allow_large"
        )
    table = enumerate_en(n, include_homs=True)
    total, pieces, glue = _coend_over(M, table, dim_cap)
    return CoendAssembly(n=n, total=total, pieces=pieces, gluing_log=glue, table=table)


def coend_over_filtration(M, n, i, dim_cap=PRODUCT_DIM_CAP):
    """Coend restricted to objects with at most i components; i = 0
    degenerates to the basepoint."""
    if i == 0:
        return point_object()
    table = filtration(enumerate_en(n, include_homs=True), i)
    total, _, _ = _coend_over(M, table, dim_cap)
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


def _invert_perm(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def stratum(M, n, i, lam, dim_cap=PRODUCT_DIM_CAP):
    """(power / fat diagonal, smashed with the tree space) modulo the
    partition's automorphisms, with a freeness certificate.

    Both factors carry the left relabeling action: coordinates read
    through the inverse permutation, refinements pushed forward.
    """
    if lam.components != i or lam.excess != n:
        raise ValidationError("partition does not sit in the requested stratum")
    m = lam.support_size
    big = power(M, m, dim_cap=dim_cap)
    fat = fat_diagonal_cells(big)
    collapsed = quotient(big, fat)
    tree = t_space(lam)
    smashed = smash(collapsed, tree, dim_cap=dim_cap)
    group = automorphism_group(lam)
    generators = []
    for g in group.generators:
        perm_cells = coordinate_permutation_cellmap(big, _invert_perm(g))
        tmap = t_space_map(SetMap(m, m, g), lam, lam)
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
    orbit_of = action.orbits()
    defects = []
    for rep, size in sorted(sizes.items(), key=lambda kv: sort_key(kv[0])):
        if rep == orbit_of[smashed.basepoint]:
            continue
        if size != group.order:
            defects.append({"orbit": repr(rep), "size": size})
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


def derivative_report(
    M, n, coefficients="Z", dim_cap=PRODUCT_DIM_CAP, allow_large=False, emit_cells=False
):
    """Everything the layer computation determines, as plain JSON data.

    No raw cell names appear, so relabeling the model leaves the report
    unchanged.  The full coend is filtration stage n, so it is built once.
    """
    assembly = coend(M, n, dim_cap=dim_cap, allow_large=allow_large)
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
            stage = coend_over_filtration(M, n, i, dim_cap=dim_cap)
        stage_eulers[i] = _reduced_euler(stage)
        stratum_sum = 0
        for idx, lam in enumerate(table.objects):
            if table.strata[idx] != i:
                continue
            res = stratum(M, n, i, lam, dim_cap=dim_cap)
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
