"""Morphisms of partitions: fusions, strictness tests, and good diagonals.

A morphism (s, p) -> (s', q) is a set map f: s -> s' whose image
partition f(p) is coarsened by q, i.e. f(p) <= q.  It is a fusion when
f(p) = q exactly, and a refinement when f is the identity.
"""

from .errors import NotAFusionError, SupportMismatchError, ValidationError
from .kernel import sparse_elementary_divisors
from .partitions import (
    Frozen,
    SetMap,
    UnionFind,
    all_partitions,
    check_support_cap,
    image_partition,
    meet,
)


class PartitionMorphism(Frozen):
    """A morphism source -> target carried by a set map.  Frozen."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, map):
        if map.source_size != source.support_size:
            raise SupportMismatchError(
                f"map source {map.source_size} != partition support {source.support_size}"
            )
        if map.target_size != target.support_size:
            raise SupportMismatchError(
                f"map target {map.target_size} != partition support {target.support_size}"
            )
        if not image_partition(map, source).leq(target):
            raise ValidationError(
                "not a morphism: target does not refine the image partition"
            )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", map)

    def __str__(self):
        return f"{self.source} -> {self.target} via {list(self.map.values)}"

    @property
    def image(self):
        return image_partition(self.map, self.source)

    def is_fusion(self):
        return self.image == self.target

    def is_isomorphism(self):
        return self.map.is_bijective() and self.is_fusion()


def is_strict_fusion(m):
    """Excess-preservation test.  Raises NotAFusionError on non-fusions."""
    if not m.is_fusion():
        raise NotAFusionError(f"not a fusion: {m}")
    return m.source.excess == m.target.excess


def glue_map(m, x, y):
    """Elementary map {0..m-1} -> {0..m-2} sending y onto x (x < y)."""
    if not 0 <= x < y < m:
        raise ValidationError(f"need 0 <= x < y < {m}, got {x}, {y}")
    values = []
    for z in range(m):
        if z == y:
            values.append(x)
        elif z > y:
            values.append(z - 1)
        else:
            values.append(z)
    return SetMap(m, m - 1, tuple(values))


def decompose_elementary(m):
    """Write a fusion as elementary gluing steps.

    Returns a list of morphisms whose composite equals m.  All but
    possibly the last are elementary; when the map is not surjective or
    ends in a nontrivial relabeling, the list ends with one injective
    step (always a strict fusion).  The identity decomposes as [].
    """
    if not m.is_fusion():
        raise NotAFusionError(f"not a fusion: {m}")
    factors = []
    current = m.source
    remaining = m.map
    while True:
        pair = None
        values = remaining.values
        seen = {}
        for z, v in enumerate(values):
            if v in seen:
                pair = (seen[v], z)
                break
            seen[v] = z
        if pair is None:
            break
        x, y = pair
        e = glue_map(remaining.source_size, x, y)
        nxt = image_partition(e, current)
        factors.append(PartitionMorphism(current, nxt, e))
        # the remaining map descends along e because f(x) == f(y)
        new_values = [0] * (remaining.source_size - 1)
        for z, v in enumerate(values):
            new_values[e.values[z]] = v
        current = nxt
        remaining = SetMap(len(new_values), remaining.target_size, tuple(new_values))
    if not remaining.is_identity():
        factors.append(PartitionMorphism(current, m.target, remaining))
    return factors


def strictness_via_h1(m):
    """Strictness of a fusion via first homology of collapsed cylinders.

    The collapsed cylinder of a partition is a wedge of circles, one per
    unit of excess; the fusion is strict iff the induced integer matrix
    on cycle bases is square with determinant of absolute value 1.
    """
    if not m.is_fusion():
        raise NotAFusionError(f"not a fusion: {m}")
    src, tgt, f = m.source, m.target, m.map.values
    where_s = src.block_of()
    where_t = tgt.block_of()
    first_s = [b[0] for b in src.blocks]
    first_t = [b[0] for b in tgt.blocks]
    # cycle basis: one generator per non-first support element
    cols = [x for x in range(src.support_size) if x != first_s[where_s[x]]]
    row_of = {}
    for y in range(tgt.support_size):
        if y != first_t[where_t[y]]:
            row_of[y] = len(row_of)
    if len(cols) != len(row_of):
        return False
    entries = []
    for j, x in enumerate(cols):
        plus = f[x]
        minus = f[first_s[where_s[x]]]
        if plus in row_of:
            entries.append((row_of[plus], j, 1))
        if minus in row_of:
            entries.append((row_of[minus], j, -1))
    n = len(cols)
    # |det| = 1 exactly when all n elementary divisors are units
    return sparse_elementary_divisors(entries, n, n) == [1] * n


def is_good(delta, lam):
    """Excess criterion: delta is good relative to lam.

    Good means the induced fusion of lam onto the components of delta is
    strict, which happens exactly when
    excess(lam) == components(delta) - components(meet(lam, delta)).
    """
    if delta.support_size != lam.support_size:
        raise SupportMismatchError("goodness needs a common support")
    return lam.excess == delta.components - meet(lam, delta).components


def goodness_via_graph(delta, lam):
    """Graph criterion: the pushout graph, bipartite on the blocks of lam
    and of delta with one edge per element, is a forest with one
    component per block of meet(lam, delta).

    One union-find pass over the edges: a union that finds both ends
    already joined closes a cycle.
    """
    if delta.support_size != lam.support_size:
        raise SupportMismatchError("goodness needs a common support")
    cl = lam.components
    where_l, where_d = lam.block_of(), delta.block_of()
    uf = UnionFind(range(cl + delta.components))
    if not all(uf.union(where_l[x], cl + where_d[x]) for x in range(lam.support_size)):
        return False
    return len(uf.classes()) == meet(lam, delta).components


def bad_diagonals(lam):
    """All partitions of the support of lam that are bad relative to it."""
    check_support_cap(lam.support_size)
    out = [d for d in all_partitions(lam.support_size) if not is_good(d, lam)]
    out.sort(key=lambda d: d.blocks)
    return out
