"""Set partitions of {0..m-1}, set maps, and refinement posets.

The order convention throughout: p <= q iff q refines p, so the
one-block partition is the minimum and the all-singletons partition is
the maximum of every refinement poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceededError, SupportMismatchError, ValidationError

POSET_SUPPORT_CAP = 9


class UnionFind:
    """Disjoint sets of hashable elements with path compression.  An
    element not seen before joins as a singleton class."""

    def __init__(self, elements=()):
        self.parent = {}
        for x in elements:
            self.find(x)

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def __contains__(self, x):
        return x in self.parent

    def union(self, x, y):
        """Merge the sets containing x and y. Returns False if already joined."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True

    def classes(self):
        """Current classes as lists; members and classes in first-seen order."""
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())

    def blocks(self):
        """Current classes as a tuple of sorted tuples, ordered by minimum."""
        return tuple(sorted(tuple(sorted(g)) for g in self.classes()))


@dataclass(frozen=True)
class Partition:
    """A partition of the support {0..support_size-1} into disjoint blocks.

    Blocks are stored canonically: each block sorted, blocks ordered by
    their minimum element, and together they cover the support exactly.
    """

    support_size: int
    blocks: tuple

    def __post_init__(self):
        seen = [False] * self.support_size
        prev_min = -1
        for block in self.blocks:
            if not block:
                raise ValidationError("empty block")
            if list(block) != sorted(block):
                raise ValidationError(f"block {block} is not sorted")
            if block[0] <= prev_min:
                raise ValidationError("blocks are not ordered by minimum")
            prev_min = block[0]
            for x in block:
                if not 0 <= x < self.support_size:
                    raise ValidationError(
                        f"element {x} outside support of size {self.support_size}"
                    )
                if seen[x]:
                    raise ValidationError(f"element {x} appears in two blocks")
                seen[x] = True
        for x, hit in enumerate(seen):
            if not hit:
                raise ValidationError(f"element {x} missing from every block")

    def __str__(self):
        return "".join("(" + " ".join(str(x) for x in b) + ")" for b in self.blocks)

    @property
    def components(self):
        return len(self.blocks)

    @property
    def excess(self):
        return self.support_size - len(self.blocks)

    def is_irreducible(self):
        """True when no block is a singleton."""
        return all(len(b) >= 2 for b in self.blocks)

    def block_of(self):
        """List mapping each support element to its block index."""
        out = [0] * self.support_size
        for i, block in enumerate(self.blocks):
            for x in block:
                out[x] = i
        return out

    def shape(self):
        """Block sizes in weakly decreasing order."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def refines(self, other):
        """True when every block of self lies inside a block of other."""
        if other.support_size != self.support_size:
            raise SupportMismatchError(
                f"supports {self.support_size} and {other.support_size} differ"
            )
        where = other.block_of()
        return all(
            all(where[x] == where[block[0]] for x in block) for block in self.blocks
        )

    def leq(self, other):
        """self <= other iff other refines self (coarser is smaller)."""
        return other.refines(self)

    def to_json(self):
        return {"support": self.support_size, "blocks": [list(b) for b in self.blocks]}


def make_partition(support_size, blocks):
    """Build a Partition from any iterable of iterables, canonicalizing order."""
    if support_size < 0:
        raise ValidationError("support size must be nonnegative")
    cleaned = []
    for block in blocks:
        raw = list(block)
        items = sorted(set(raw))
        if len(items) != len(raw):
            dup = min(x for x in raw if raw.count(x) > 1)
            raise ValidationError(f"element {dup} repeated inside a block")
        cleaned.append(tuple(items))
    cleaned.sort(key=lambda b: b[0] if b else -1)
    return Partition(support_size, tuple(cleaned))


def from_block_of(block_of):
    """Partition from an element -> class-label list (labels arbitrary)."""
    groups = {}
    for x, label in enumerate(block_of):
        groups.setdefault(label, []).append(x)
    blocks = tuple(tuple(g) for g in sorted(groups.values()))
    return Partition(len(block_of), blocks)


def indiscrete(m):
    if m == 0:
        return Partition(0, ())
    return Partition(m, (tuple(range(m)),))


def discrete(m):
    return Partition(m, tuple((x,) for x in range(m)))


def all_partitions(m):
    """All partitions of {0..m-1} in restricted-growth-string order."""
    if m == 0:
        yield Partition(0, ())
        return
    rgs = [0] * m

    def rec(i, maxlabel):
        if i == m:
            yield from_block_of(rgs)
            return
        for label in range(maxlabel + 2):
            rgs[i] = label
            yield from rec(i + 1, max(maxlabel, label))

    yield from rec(1, 0)


def partitions_of_block(block):
    """All partitions of a fixed sorted tuple of elements, as block tuples."""
    m = len(block)
    out = []
    for p in all_partitions(m):
        out.append(tuple(tuple(block[x] for x in b) for b in p.blocks))
    return out


@dataclass(frozen=True)
class SetMap:
    """A map {0..source_size-1} -> {0..target_size-1} stored by its values."""

    source_size: int
    target_size: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.source_size:
            raise ValidationError(
                f"expected {self.source_size} values, got {len(self.values)}"
            )
        for x, v in enumerate(self.values):
            if not 0 <= v < self.target_size:
                raise ValidationError(f"value {v} at {x} outside target of size {self.target_size}")

    def __call__(self, x):
        return self.values[x]

    def is_identity(self):
        return self.source_size == self.target_size and self.values == tuple(
            range(self.source_size)
        )

    def is_surjective(self):
        return len(set(self.values)) == self.target_size

    def is_bijective(self):
        return self.source_size == self.target_size and self.is_surjective()

    def inverse(self):
        if not self.is_bijective():
            raise ValidationError("only bijections invert")
        inv = [0] * self.source_size
        for x, v in enumerate(self.values):
            inv[v] = x
        return SetMap(self.target_size, self.source_size, tuple(inv))


def image_partition(f, p):
    """The equivalence relation on the target generated by the image of p.

    Elements outside the image of f become singleton blocks.
    """
    if p.support_size != f.source_size:
        raise SupportMismatchError(
            f"partition support {p.support_size} != map source {f.source_size}"
        )
    uf = UnionFind(range(f.target_size))
    for block in p.blocks:
        first = f.values[block[0]]
        for x in block[1:]:
            uf.union(first, f.values[x])
    return Partition(f.target_size, uf.blocks())


def meet(p, q):
    """Finest common coarsening: transitive closure of the union relation."""
    if p.support_size != q.support_size:
        raise SupportMismatchError("meet needs equal supports")
    uf = UnionFind(range(p.support_size))
    for block in itertools.chain(p.blocks, q.blocks):
        for x in block[1:]:
            uf.union(block[0], x)
    return Partition(p.support_size, uf.blocks())


def join(p, q):
    """Coarsest common refinement: blockwise intersections."""
    if p.support_size != q.support_size:
        raise SupportMismatchError("join needs equal supports")
    where_p = p.block_of()
    where_q = q.block_of()
    return from_block_of([(where_p[x], where_q[x]) for x in range(p.support_size)])


def canonicalize(p):
    """Canonical representative of the isomorphism class of p.

    Blocks get weakly decreasing sizes and consecutive labels, so two
    partitions are isomorphic iff their canonical forms are equal.
    """
    sizes = sorted((len(b) for b in p.blocks), reverse=True)
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(tuple(range(start, start + s)))
        start += s
    return Partition(p.support_size, tuple(blocks))


class PosetTable:
    """A finite poset of partitions with a precomputed order relation.

    leq(i, j) means elements[j] refines elements[i].  Rows of the order
    relation are stored as bitmasks.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        n = len(self.elements)
        rows = []
        for i, p in enumerate(self.elements):
            row = 0
            for j, q in enumerate(self.elements):
                if q.refines(p):
                    row |= 1 << j
            rows.append(row)
        self.rows = tuple(rows)
        self.index = {p: i for i, p in enumerate(self.elements)}
        if len(self.index) != n:
            raise ValidationError("duplicate poset elements")

    def __len__(self):
        return len(self.elements)

    def leq(self, i, j):
        return (self.rows[i] >> j) & 1 == 1

    def strictly_above(self, i):
        """Indices j with elements[i] < elements[j], ascending."""
        mask = self.rows[i] & ~(1 << i)
        out = []
        j = 0
        while mask:
            if mask & 1:
                out.append(j)
            mask >>= 1
            j += 1
        return out

    @property
    def min_index(self):
        full = (1 << len(self.elements)) - 1
        for i, row in enumerate(self.rows):
            if row == full:
                return i
        raise ValidationError("poset has no minimum")

    @property
    def max_index(self):
        for i in range(len(self.elements)):
            above = sum(1 for row in self.rows if (row >> i) & 1)
            if above == len(self.elements):
                return i
        raise ValidationError("poset has no maximum")

    def restrict(self, keep_indices):
        """Subposet on the given element indices."""
        return PosetTable([self.elements[i] for i in keep_indices])


def refinement_poset(p):
    """The poset of refinements of p, minimum p and maximum discrete.

    Elements are produced as products of per-block partitions.  The
    support cap guards against Bell-number blowup.
    """
    if p.support_size > POSET_SUPPORT_CAP:
        raise CapExceededError(
            f"support {p.support_size} exceeds cap {POSET_SUPPORT_CAP}"
        )
    per_block = [partitions_of_block(b) for b in p.blocks]
    elements = []
    for combo in itertools.product(*per_block):
        blocks = [blk for part in combo for blk in part]
        blocks.sort(key=lambda b: b[0])
        elements.append(Partition(p.support_size, tuple(blocks)))
    elements.sort(key=lambda q: q.blocks)
    table = PosetTable(elements)
    # min/max sanity: the construction guarantees both exist
    assert table.elements[table.min_index] == p
    return table
