"""Morphisms of partitions: fusions, strictness tests, and good diagonals.

A morphism (s, p) -> (s', q) is a set map f: s -> s' whose image
partition f(p) is coarsened by q, i.e. f(p) <= q.  It is a fusion when
f(p) = q exactly, and a refinement when f is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, NotAFusionError, SupportMismatchError, ValidationError
from .partitions import (
    POSET_SUPPORT_CAP,
    Partition,
    SetMap,
    UnionFind,
    all_partitions,
    image_partition,
    meet,
)


@dataclass(frozen=True)
class PartitionMorphism:
    source: Partition
    target: Partition
    map: SetMap

    def __post_init__(self):
        if self.map.source_size != self.source.support_size:
            raise SupportMismatchError(
                f"map source {self.map.source_size} != partition support {self.source.support_size}"
            )
        if self.map.target_size != self.target.support_size:
            raise SupportMismatchError(
                f"map target {self.map.target_size} != partition support {self.target.support_size}"
            )
        if not image_partition(self.map, self.source).leq(self.target):
            raise ValidationError(
                "not a morphism: target does not refine the image partition"
            )

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


@dataclass(frozen=True)
class Multigraph:
    """A finite multigraph on vertices {0..num_vertices-1}.

    Edges are an ordered tuple of (u, v) pairs; loops and parallel
    edges are allowed.
    """

    num_vertices: int
    edges: tuple

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValidationError(f"edge ({u}, {v}) outside vertex range")

    def component_count(self):
        uf = UnionFind(range(self.num_vertices))
        for u, v in self.edges:
            uf.union(u, v)
        return len(uf.classes())

    def first_betti(self):
        return len(self.edges) - self.num_vertices + self.component_count()


def _int_det(rows):
    """Exact determinant of a small square integer matrix."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                ratio = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= ratio * a[col][c]
    assert det.denominator == 1
    return int(det)


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
    n = len(cols)
    mat = [[0] * n for _ in range(n)]
    for j, x in enumerate(cols):
        plus = f[x]
        minus = f[first_s[where_s[x]]]
        if plus in row_of:
            mat[row_of[plus]][j] += 1
        if minus in row_of:
            mat[row_of[minus]][j] -= 1
    return abs(_int_det(mat)) == 1


def is_good(delta, lam):
    """Excess criterion: delta is good relative to lam.

    Good means the induced fusion of lam onto the components of delta is
    strict, which happens exactly when
    excess(lam) == components(delta) - components(meet(lam, delta)).
    """
    if delta.support_size != lam.support_size:
        raise SupportMismatchError("goodness needs a common support")
    return lam.excess == delta.components - meet(lam, delta).components


def pushout_graph(delta, lam):
    """Bipartite graph on blocks of lam and delta, one edge per element."""
    cl = lam.components
    where_l = lam.block_of()
    where_d = delta.block_of()
    edges = tuple(
        (where_l[x], cl + where_d[x]) for x in range(lam.support_size)
    )
    return Multigraph(cl + delta.components, edges)


def goodness_via_graph(delta, lam):
    """Graph criterion: the pushout graph is a forest with one component
    per block of meet(lam, delta)."""
    if delta.support_size != lam.support_size:
        raise SupportMismatchError("goodness needs a common support")
    g = pushout_graph(delta, lam)
    return g.first_betti() == 0 and g.component_count() == meet(lam, delta).components


def goodness_via_graph_forest_only(delta, lam):
    """The weaker reading: every component of the pushout graph is a tree.

    Kept separate so the two readings can be compared; the component
    count condition turns out to be automatic.
    """
    if delta.support_size != lam.support_size:
        raise SupportMismatchError("goodness needs a common support")
    return pushout_graph(delta, lam).first_betti() == 0


def bad_diagonals(lam):
    """All partitions of the support of lam that are bad relative to it."""
    if lam.support_size > POSET_SUPPORT_CAP:
        raise CapExceededError(
            f"support {lam.support_size} exceeds cap {POSET_SUPPORT_CAP}"
        )
    out = [d for d in all_partitions(lam.support_size) if not is_good(d, lam)]
    out.sort(key=lambda d: d.blocks)
    return out
