"""Routes and small constructions that only the tests use.

The simplicial orbit route builds a stratum as a space: the power with
its fat diagonal collapsed, smashed with the tree space, with the
automorphisms of the partition acting on the cells of the smash and
the cellwise orbit quotient taken.  It is the reference that the
chain-level `layers.stratum` is checked against.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from forestcalc.category import automorphism_group
from forestcalc.errors import ValidationError
from forestcalc.homology import HomologyResult, homology, homology_of_complex
from forestcalc.layers import t_space_map
from forestcalc.fusion import pushout_graph
from forestcalc.partitions import SetMap, UnionFind, image_partition
from forestcalc.powers import fat_diagonal_cells, induced_power_map
from forestcalc.simplicial import (
    SimplicialMap,
    SimplicialObject,
    descend_to_quotients,
    power,
    product_map,
    quotient,
    smash,
    sort_key,
    surj_identity,
    t_space,
)


# --- small constructions --------------------------------------------------------


def betti_numbers(obj, coefficients="Z", reduced=True):
    """The nonzero ranks of the homology of obj, by degree."""
    res = homology(obj, coefficients=coefficients, reduced=reduced)
    return {k: g.rank for k, g in res.groups.items() if not g.is_zero()}


def stratum_homology(res, coefficients="Z"):
    """The homology of a stratum's chain complex."""
    groups, _ = homology_of_complex(res.complex, coefficients)
    return HomologyResult(coefficients, True, groups)


def identity_simplicial(obj):
    mapping = {c: (c, surj_identity(obj.dim_of[c])) for c in obj.dim_of}
    return SimplicialMap(obj, obj, mapping)


def surj_degeneracy(alpha, i):
    """alpha composed with the i-th codegeneracy (duplicate entry i)."""
    return alpha[: i + 1] + (alpha[i],) + alpha[i + 1:]


def compose(g, f):
    """The set map g after f."""
    return SetMap(f.source_size, g.target_size, tuple(g.values[v] for v in f.values))


# --- oracles for fusions and goodness ---------------------------------------------


def brute_force_fusions(source, target):
    """Every map filtered by image partition, in sorted order; oracle for
    small supports."""
    m, mp = source.support_size, target.support_size
    out = []
    for values in itertools.product(range(mp), repeat=m):
        if image_partition(SetMap(m, mp, values), source) == target:
            if source.excess == target.excess:
                out.append(values)
    return tuple(out)


def goodness_via_graph_forest_only(delta, lam):
    """The weaker reading of the graph criterion: every component of the
    pushout graph is a tree.  The tests compare it with the full reading,
    whose component count condition turns out to be automatic."""
    return pushout_graph(delta, lam).first_betti() == 0


# --- group actions on cells ------------------------------------------------------


@dataclass(frozen=True)
class PermutationAction:
    """Generators of a finite group acting on the cells of an object.

    Each generator is a dict sending every cell to a cell of the same
    dimension; the action must commute with faces and fix the
    basepoint when there is one.
    """

    space: SimplicialObject
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if set(g.keys()) != set(self.space.dim_of.keys()):
                raise ValidationError("generator must be defined on every cell")
            if set(g.values()) != set(g.keys()):
                raise ValidationError("generator is not a bijection on cells")
            for c, d in g.items():
                if self.space.dim_of[c] != self.space.dim_of[d]:
                    raise ValidationError("generator does not preserve dimension")
            for c in g:
                k = self.space.dim_of[c]
                if k == 0:
                    continue
                for i in range(k + 1):
                    tcell, alpha = self.space.faces[c][i]
                    if (g[tcell], alpha) != self.space.faces[g[c]][i]:
                        raise ValidationError(
                            f"generator does not commute with face {i} of {c!r}"
                        )
            basepoint = self.space.basepoint
            if basepoint is not None and g[basepoint] != basepoint:
                raise ValidationError("generator moves the basepoint")

    @cached_property
    def orbit_of(self):
        """Each cell's orbit, as its smallest member."""
        uf = UnionFind(self.space.dim_of)
        for g in self.generators:
            for c, d in g.items():
                uf.union(c, d)
        out = {}
        for members in uf.classes():
            canon = min(members, key=sort_key)
            for c in members:
                out[c] = canon
        return out

    def orbit_sizes(self):
        return Counter(self.orbit_of.values())


def quotient_by_group(action):
    """Cellwise orbit object of a simplicial group action."""
    obj = action.space
    orbit_of = action.orbit_of
    reps = sorted(set(orbit_of.values()), key=sort_key)
    cells = {}
    for r in reps:
        cells.setdefault(obj.dim_of[r], []).append(r)
    faces = {
        r: tuple((orbit_of[tcell], alpha) for tcell, alpha in obj.faces[r])
        for r in reps
        if obj.dim_of[r] > 0
    }
    bp = orbit_of[obj.basepoint] if obj.basepoint is not None else None
    return SimplicialObject(cells, faces, basepoint=bp)


# --- the orbit route to a stratum ---------------------------------------------------


@dataclass
class OrbitStratum:
    space: SimplicialObject  # the orbit quotient of the smash
    free: bool


def orbit_stratum(M, lam):
    """The stratum of lam as a space, built without the coend: the smash
    (power / fat diagonal) ^ tree space and its orbit quotient under the
    automorphisms of lam, with coordinates read through the inverse
    permutation and refinements pushed forward."""
    m = lam.support_size
    big = power(M, m)
    collapsed = quotient(big, fat_diagonal_cells(big))
    smashed = smash(collapsed, t_space(lam))
    group = automorphism_group(lam)
    generators = []
    for g in group.generators:
        gmap = SetMap(m, m, g)
        pmap = descend_to_quotients(
            induced_power_map(gmap.inverse(), big, big).mapping, collapsed, collapsed
        )
        tmap = t_space_map(gmap, lam, lam)
        gen = product_map([pmap, tmap], smashed, smashed).mapping
        generators.append({c: ref[0] for c, ref in gen.items()})
    action = PermutationAction(smashed, tuple(generators))
    base = action.orbit_of[smashed.basepoint]
    free = all(
        size == group.order
        for rep, size in action.orbit_sizes().items()
        if rep != base
    )
    return OrbitStratum(space=quotient_by_group(action), free=free)
