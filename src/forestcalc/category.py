"""The category of irreducible partitions of a fixed excess.

Objects are canonical representatives, one per isomorphism class
(block-size multisets), morphisms are strict fusions stored as value
tuples, like the automorphism generators.  Morphism enumeration is one
backtracking search: it places each source block injectively inside a
target class with excess budget left, never closing a cycle among the
block images; that is exactly strictness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import CapExceededError, ValidationError
from .fusion import PartitionMorphism
from .partitions import SetMap, UnionFind, make_partition

EN_CAP = 5
HOM_MATERIALIZE_CAP = 4  # full hom sets above this get impractically large


def shapes_of_excess(n):
    """Block-size tuples of irreducible partitions with the given excess,
    weakly decreasing; one per isomorphism class."""
    # each block of size s contributes s - 1 to the excess
    shapes = [tuple(p + 1 for p in pat) for pat in _integer_partitions(n, n)]
    return sorted(shapes, key=lambda s: (sum(s), s))


def _integer_partitions(total, most):
    """Weakly decreasing tuples of positive parts at most `most` summing
    to total, largest first part first."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, most), 0, -1):
        for rest in _integer_partitions(total - first, first):
            yield (first,) + rest


def canonical_object(shape):
    """The canonical partition with consecutive blocks of the given sizes."""
    blocks = []
    at = 0
    for size in shape:
        blocks.append(range(at, at + size))
        at += size
    return make_partition(at, blocks)


# ---------------------------------------------------------------------------
# morphism enumeration


def strict_fusions(source, target):
    """All strict fusions from source to target, as sorted value tuples.

    A fusion is strict exactly when each block maps injectively and the
    block images form a spanning hypertree in every target class.
    """
    if source.excess != target.excess:
        return ()
    out = []
    _place_blocks(
        source.blocks,
        0,
        target.blocks,
        [len(c) - 1 for c in target.blocks],
        list(range(target.support_size)),
        [0] * source.support_size,
        out,
    )
    out.sort()
    return tuple(out)


def _place_blocks(blocks, b, classes, budgets, parent, values, out):
    """Backtracking step of `strict_fusions`: maps blocks[b] onto points
    of one class with budget left for its |block| - 1 merges, lying in
    distinct trees of the forest `parent` over the target points, links
    those trees, recurses on the next block, and unlinks them again.
    Each complete map in `values` is appended to out.

    The budgets start at |class| - 1 and sum to the blocks' total
    weight, because the excesses agree; so a complete map has spent every
    budget, and |class| - 1 acyclic merges span each class.
    """
    if b == len(blocks):
        out.append(tuple(values))
        return
    block = blocks[b]
    weight = len(block) - 1
    for c, cls in enumerate(classes):
        if budgets[c] < weight:
            continue
        budgets[c] -= weight
        for image in itertools.permutations(cls, len(block)):
            roots = []
            for y in image:
                while parent[y] != y:
                    y = parent[y]
                roots.append(y)
            if len(set(roots)) < len(roots):
                continue
            for r in roots[1:]:
                parent[r] = roots[0]
            for x, y in zip(block, image):
                values[x] = y
            _place_blocks(blocks, b + 1, classes, budgets, parent, values, out)
            for r in roots[1:]:
                parent[r] = r
        budgets[c] += weight


# ---------------------------------------------------------------------------
# automorphism groups


@dataclass(frozen=True)
class GroupPresentation:
    """A permutation group on the support, with its exact order."""

    degree: int
    generators: tuple  # tuple of value tuples
    order: int

    def to_json(self):
        return {
            "degree": self.degree,
            "generators": [list(g) for g in self.generators],
            "order": self.order,
        }


def _perm_compose(a, b):
    # apply b first, then a
    return tuple(a[b[i]] for i in range(len(a)))


def _group_order(degree, generators):
    """Orbit-stabilizer, recursing on the first moved point."""
    gens = [g for g in generators if any(g[i] != i for i in range(degree))]
    if not gens:
        return 1
    point = min(i for g in gens for i in range(degree) if g[i] != i)
    orbit = {point: tuple(range(degree))}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        witness = orbit[x]
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit[y] = _perm_compose(g, witness)
                frontier.append(y)
    stab = set()
    for x, witness in orbit.items():
        for g in gens:
            y = g[x]
            rep = orbit[y]
            inv = [0] * degree
            for i, v in enumerate(rep):
                inv[v] = i
            stab.add(_perm_compose(tuple(inv), _perm_compose(g, witness)))
    return len(orbit) * _group_order(degree, tuple(stab))


def automorphism_group(p):
    """Support permutations preserving the partition.

    Generators: a transposition inside every block of size >= 2 plus a
    cyclic shuffle inside larger blocks, and swaps of adjacent
    equal-size blocks.
    """
    m = p.support_size
    gens = []
    for block in p.blocks:
        if len(block) >= 2:
            values = list(range(m))
            values[block[0]], values[block[1]] = values[block[1]], values[block[0]]
            gens.append(tuple(values))
        if len(block) >= 3:
            values = list(range(m))
            for i in range(len(block)):
                values[block[i]] = block[(i + 1) % len(block)]
            gens.append(tuple(values))
    for b1, b2 in zip(p.blocks, p.blocks[1:]):
        if len(b1) == len(b2):
            values = list(range(m))
            for x, y in zip(b1, b2):
                values[x], values[y] = y, x
            gens.append(tuple(values))
    order = _group_order(m, tuple(gens))
    return GroupPresentation(degree=m, generators=tuple(gens), order=order)


def aut_order_formula(p):
    """Closed form: product over sizes of (size!)^mult * mult!."""
    from math import factorial

    mult = {}
    for block in p.blocks:
        mult[len(block)] = mult.get(len(block), 0) + 1
    order = 1
    for size, k in mult.items():
        order *= factorial(size) ** k * factorial(k)
    return order


# ---------------------------------------------------------------------------
# the category table


@dataclass
class CategoryTable:
    """Skeletal table: canonical objects, strata, hom sets, groups.

    homs may be None when materializing them was skipped (large n);
    every accessor that needs them raises then.
    """

    n: int
    objects: tuple
    strata: tuple  # per object: its block count i
    groups: tuple  # per object: GroupPresentation
    homs: dict | None  # (i, j) -> sorted tuple of value tuples

    def hom(self, i, j):
        if self.homs is None:
            raise ValidationError("hom sets were not materialized for this table")
        return self.homs[(i, j)]

    def glue_pattern_count(self, i, j):
        """Orbits of hom(i, j) under post-composition with target
        automorphisms; the classical way these morphisms get counted.

        Every listed arrow is onto, since a fusion onto a partition with
        no singleton block leaves no target point unhit, so Aut(j) acts
        freely and each orbit has |Aut(j)| arrows.  A hom set whose size
        is not a multiple of that order is not closed under the action.
        """
        size, order = len(self.hom(i, j)), self.groups[j].order
        if size % order:
            raise ValidationError(
                f"hom({i}, {j}) has {size} arrows, not a multiple of "
                f"|Aut({j})| = {order}"
            )
        return size // order

    def generating_arrows(self, i, j):
        """Arrows of hom(i, j) that generate it under composition with
        automorphisms: when i == j, the generators of Aut(i) less each one
        that the generators kept so far already generate, else the
        smallest arrow of each orbit under Aut(j) x Aut(i).

        Every arrow is g' f0 g with f0 listed here and g, g' products of
        the listed automorphism generators, so a functor's colimit is
        fixed by the relations of these arrows alone.  Raises when the
        generators of Aut(i) do not generate all of hom(i, i), or when a
        composite is not listed; either would under-glue silently.
        """
        if i != j:
            maps = self.hom(i, j)
            uf = UnionFind(maps)
            for v in maps:
                composites = [tuple(g[x] for x in v) for g in self.groups[j].generators]
                composites += [tuple(v[x] for x in g) for g in self.groups[i].generators]
                for gf in composites:
                    if gf not in uf:
                        raise ValidationError(
                            f"composite {gf} of {v} with an automorphism is not "
                            f"listed in hom({i}, {j})"
                        )
                    uf.union(v, gf)
            # orbits list arrows in hom order, so each starts with its smallest
            return tuple(orbit[0] for orbit in uf.classes())
        group = self.groups[i]
        listed = set(self.hom(i, i))
        for g in group.generators:
            if g not in listed:
                raise ValidationError(
                    f"automorphism generator {g} is not listed in hom({i}, {i})"
                )
        generated = _group_order(group.degree, group.generators)
        if generated != len(listed):
            raise ValidationError(
                f"the generators of Aut({i}) generate {generated} of the "
                f"{len(listed)} arrows of hom({i}, {i})"
            )
        kept = list(group.generators)
        for g in group.generators:
            rest = [h for h in kept if h is not g]
            if _group_order(group.degree, rest) == generated:
                kept = rest
        return tuple(kept)

    def validate(self):
        """Checks the objects, and every listed arrow as a fusion."""
        for i, p in enumerate(self.objects):
            if not p.is_irreducible():
                raise ValidationError(f"object {p} has a singleton block")
            if p.excess != self.n:
                raise ValidationError(f"object {p} has wrong excess")
            if self.strata[i] != p.components:
                raise ValidationError(f"stratum index wrong at {p}")
        if self.homs is None:
            return True
        for (i, j), maps in self.homs.items():
            src, tgt = self.objects[i], self.objects[j]
            for f in maps:
                arrow = SetMap(src.support_size, tgt.support_size, f)
                if not PartitionMorphism(src, tgt, arrow).is_fusion():
                    raise ValidationError(f"listed map {f} is not a fusion")
        for i, p in enumerate(self.objects):
            if tuple(range(p.support_size)) not in self.homs[(i, i)]:
                raise ValidationError(f"identity missing at object {i}")
        return True

    def check_composition_closure(self):
        """Compose every composable pair and look it up; returns the
        number of compositions checked.  g after f is itemgetter(*f)(g), a
        tuple because every object has support at least 2."""
        checked = 0
        nobj = range(len(self.objects))
        lookup = {(i, k): frozenset(self.hom(i, k)) for i in nobj for k in nobj}
        for i in nobj:
            for j in nobj:
                first = self.hom(i, j)
                if not first:
                    continue
                for k in nobj:
                    second = self.hom(j, k)
                    if not second:
                        continue
                    allowed = lookup[(i, k)]
                    for f in first:
                        if not allowed.issuperset(map(itemgetter(*f), second)):
                            for g in second:
                                gf = tuple(g[x] for x in f)
                                if gf not in allowed:
                                    raise ValidationError(
                                        f"composite {gf} of {f} then {g} is not listed"
                                    )
                    checked += len(first) * len(second)
        return checked

    def hom_size_matrix(self):
        nobj = len(self.objects)
        return [
            [len(self.hom(i, j)) for j in range(nobj)] for i in range(nobj)
        ]

    def to_json(self):
        data = {
            "n": self.n,
            "objects": [p.to_json() for p in self.objects],
            "strata": list(self.strata),
            "automorphisms": [g.to_json() for g in self.groups],
        }
        if self.homs is not None:
            data["homs"] = {
                f"{i}->{j}": list(maps)
                for (i, j), maps in sorted(self.homs.items())
            }
            data["hom_counts"] = self.hom_size_matrix()
            data["glue_pattern_counts"] = [
                [self.glue_pattern_count(i, j) for j in range(len(self.objects))]
                for i in range(len(self.objects))
            ]
        return data


def enumerate_en(n, include_homs=True):
    """The table for excess n: canonical objects and all strict fusions.

    Hom sets are materialized when include_homs is true and n is at most
    HOM_MATERIALIZE_CAP, above which their total size gets impractical;
    objects, strata and automorphism groups are always present.
    """
    if n < 1:
        raise ValidationError("excess must be at least 1")
    if n > EN_CAP:
        raise CapExceededError(f"n={n} exceeds cap {EN_CAP}")
    objects = tuple(canonical_object(s) for s in shapes_of_excess(n))
    strata = tuple(p.components for p in objects)
    groups = tuple(automorphism_group(p) for p in objects)
    homs = None
    if include_homs and n <= HOM_MATERIALIZE_CAP:
        homs = {}
        for i, src in enumerate(objects):
            for j, tgt in enumerate(objects):
                homs[(i, j)] = strict_fusions(src, tgt)
    return CategoryTable(n=n, objects=objects, strata=strata, groups=groups, homs=homs)


def verify_nice_filtration(table):
    """Stratum discipline: nothing maps from fewer components into
    more, and within a stratum every morphism is an isomorphism.

    Returns a certificate dict; violations are reported, not raised.
    """
    for i in range(len(table.objects)):
        for j in range(len(table.objects)):
            maps = table.hom(i, j)
            if table.strata[j] > table.strata[i] and maps:
                return {
                    "passed": False,
                    "reason": "morphism into a deeper stratum",
                    "source": str(table.objects[i]),
                    "target": str(table.objects[j]),
                    "map": list(maps[0]),
                }
            if table.strata[j] == table.strata[i]:
                m = table.objects[j].support_size
                for f in maps:
                    if not len(f) == len(set(f)) == m:
                        return {
                            "passed": False,
                            "reason": "non-isomorphism within a stratum",
                            "source": str(table.objects[i]),
                            "target": str(table.objects[j]),
                            "map": list(f),
                        }
    return {"passed": True, "strata": sorted(set(table.strata))}


# ---------------------------------------------------------------------------
# essential cofibrancy


def verify_essentially_cofibrant(n, model):
    """Checks that lower-stratum images glued with the bad diagonal
    cover the fat diagonal bijectively, stratum by stratum.

    For each object: the colimit of powers over arrows into lower
    strata, pushed out along its overlap with the bad diagonal, must
    map one-to-one onto the fat diagonal of the full power; the
    automorphisms must act freely off the fat diagonal.
    """
    from .powers import (
        bad_diagonal_cells,
        coincidence_partition,
        fat_diagonal_cells,
        induced_power_map,
    )
    from .simplicial import power

    if n > 3:
        raise CapExceededError("cofibrancy check is capped at excess 3")
    table = enumerate_en(n)
    powers = {}

    def power_of(m):
        if m not in powers:
            powers[m] = power(model, m)
        return powers[m]

    sizes = [p.support_size for p in table.objects]
    strata_reports = []
    for idx, lam in enumerate(table.objects):
        m = lam.support_size
        big = power_of(m)
        fat = fat_diagonal_cells(big)
        bad = bad_diagonal_cells(big, lam)
        lower = [j for j in range(len(table.objects)) if table.strata[j] < table.strata[idx]]
        arrows = []
        for j in lower:
            for f in table.hom(idx, j):
                arrows.append((j, f))
        arrow_id = {(j, f): a for a, (j, f) in enumerate(arrows)}
        # disjoint simplices of the lower powers, glued over commuting triangles
        uf = UnionFind(
            (a, cell)
            for a, (j, _) in enumerate(arrows)
            for cell in power_of(sizes[j]).all_cells()
        )
        for a, (j, f) in enumerate(arrows):
            pj = power_of(sizes[j])
            for k in lower:
                pk = power_of(sizes[k])
                for g in table.hom(j, k):
                    b = arrow_id[(k, tuple(g[x] for x in f))]
                    gmap = induced_power_map(SetMap(sizes[j], sizes[k], g), pk, pj)
                    for cell in pk.all_cells():
                        image_ref = gmap.cell_image(cell)
                        uf.union((a, image_ref[0]), (b, cell))
        # image of each class inside the big power
        image_of_class = {}
        conflict = None
        for a, (j, f) in enumerate(arrows):
            pj = power_of(sizes[j])
            fmap = induced_power_map(SetMap(m, sizes[j], f), pj, big)
            for cell in pj.all_cells():
                root = uf.find((a, cell))
                img = fmap.cell_image(cell)[0]
                if root in image_of_class and image_of_class[root] != img:
                    conflict = (root, image_of_class[root], img)
                image_of_class[root] = img
        off_bad = {}
        double = None
        for root, img in image_of_class.items():
            if img in bad:
                continue
            if img in off_bad:
                double = img
            off_bad[img] = root
        covered = set(off_bad) | bad
        report = {
            "object": str(lam),
            "stratum": table.strata[idx],
            "arrows": len(arrows),
            "colimit_classes": len(uf.classes()),
            "fat_cells": len(fat),
            "bad_cells": len(bad),
            "glued_cells": len(covered),
            "passed": covered == fat and double is None and conflict is None,
        }
        if conflict is not None:
            report["conflict"] = "a colimit class maps to two different cells"
        if double is not None:
            report["overlap_cell"] = repr(double)
        if covered != fat:
            sample = sorted(covered.symmetric_difference(fat), key=repr)[:2]
            report["mismatch_sample"] = [repr(c) for c in sample]
        # freeness of the automorphisms off the fat diagonal
        group = table.groups[idx]
        stuck = None
        for cell in big.all_cells():
            if cell in fat:
                continue
            for g in group.generators:
                moved = tuple(cell[g[t]] for t in range(m))
                if moved == cell:
                    k_part = coincidence_partition(cell)
                    stuck = (repr(cell), list(g), str(k_part))
                    break
            if stuck:
                break
        report["free_off_fat"] = stuck is None
        if stuck:
            report["fixed_cell"] = stuck
        strata_reports.append(report)
    return {
        "n": n,
        "passed": all(r["passed"] and r["free_off_fat"] for r in strata_reports),
        "strata": strata_reports,
    }
