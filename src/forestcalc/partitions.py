"""Set partitions of {0..m-1}, set maps, and refinement posets.

The order convention throughout: p <= q iff q refines p, so the
one-block partition is the minimum and the all-singletons partition is
the maximum of every refinement poset.
"""

import itertools
from collections import Counter

from .errors import CapExceededError, SupportMismatchError, ValidationError

POSET_SUPPORT_CAP = 9


class UnionFind:
    """Disjoint sets of hashable elements with path compression.  An
    element not seen before joins as a singleton class.

    Every value of `parent` is a key object, and a root maps to its own
    key object.  So a root is recognized by identity, `parent[r] is r`,
    and each step of `find` hashes one element; tuples do not cache
    their hash, and the elements can be deeply nested tuples.
    """

    def __init__(self, elements=()):
        self.parent = {}
        for x in elements:
            self.parent.setdefault(x, x)

    def find(self, x):
        """The root of x's class, as the key object stored for it."""
        parent = self.parent
        root = parent.setdefault(x, x)
        if root is x:
            return x  # a root passed as its own key object, or a new element
        up = parent[root]
        if up is root:
            return root
        path = [x]
        while up is not root:
            path.append(root)
            root, up = up, parent[up]
        for y in path:
            parent[y] = root
        return root

    def __contains__(self, x):
        return x in self.parent

    def union(self, x, y):
        """Merge the sets containing x and y. Returns False if already joined."""
        rx, ry = self.find(x), self.find(y)
        if rx is ry:
            return False
        self.parent[ry] = rx
        return True

    def classes(self):
        """Current classes as lists; members and classes in first-seen order."""
        groups = {}  # id of the root -> members; roots are unique objects
        for x in self.parent:
            groups.setdefault(id(self.find(x)), []).append(x)
        return list(groups.values())


class Frozen:
    """Base of the immutable records: each `__init__` sets its slots
    through `object.__setattr__`, and afterwards every assignment or
    deletion raises AttributeError naming the record's class."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name}")


class Partition(Frozen):
    """A partition of the support {0..support_size-1} into disjoint blocks.

    Blocks are stored canonically: each block sorted, blocks ordered by
    their minimum element, and together they cover the support exactly.
    Frozen: equal fields give equal, equally hashed partitions.
    """

    __slots__ = ("support_size", "blocks")

    def __init__(self, support_size, blocks):
        seen = [False] * support_size
        prev_min = -1
        for block in blocks:
            if not block:
                raise ValidationError("empty block")
            if list(block) != sorted(block):
                raise ValidationError(f"block {block} is not sorted")
            for x in block:
                if not 0 <= x < support_size:
                    raise ValidationError(f"element {x} outside support of size {support_size}")
                if seen[x]:
                    raise ValidationError(f"element {x} appears in two blocks")
                seen[x] = True
            # a repeated element is named before the order of minima
            if block[0] <= prev_min:
                raise ValidationError("blocks are not ordered by minimum")
            prev_min = block[0]
        for x, hit in enumerate(seen):
            if not hit:
                raise ValidationError(f"element {x} missing from every block")
        object.__setattr__(self, "support_size", support_size)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other):
        if other.__class__ is not Partition:
            return NotImplemented
        return self.support_size == other.support_size and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.support_size, self.blocks))

    def __repr__(self):
        return f"Partition(support_size={self.support_size!r}, blocks={self.blocks!r})"

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
        if other is self:
            return True  # a fusion checked against its own image partition
        where = other.block_of()
        return all(all(where[x] == where[b[0]] for x in b) for b in self.blocks)

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
            dup = min(x for x, c in Counter(raw).items() if c > 1)
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


def all_partitions(m):
    """All partitions of {0..m-1} in restricted-growth-string order."""
    for blocks in _set_partitions(tuple(range(m))):
        yield Partition(m, blocks)


def _set_partitions(elements):
    """All partitions of a sorted tuple, as block tuples with blocks
    ordered by minimum, in restricted-growth-string order: the last
    element's label varies fastest, through the blocks of a partition
    of the other elements and then a block of its own."""
    if not elements:
        yield ()
        return
    last = elements[-1:]
    for part in _set_partitions(elements[:-1]):
        for j, b in enumerate(part):
            yield part[:j] + (b + last,) + part[j + 1:]
        yield part + (last,)


def check_support_cap(m):
    """Rejects a support whose partitions are too many to list: their
    number, the Bell number of m, grows faster than exponentially."""
    if m > POSET_SUPPORT_CAP:
        raise CapExceededError(f"support {m} exceeds cap {POSET_SUPPORT_CAP}")


class SetMap(Frozen):
    """A map {0..source_size-1} -> {0..target_size-1} stored by its
    values.  Frozen.

    `images` holds the image partitions computed so far, keyed by the
    source partition's blocks; `image_partition` fills it, so the cache
    lives and dies with its map.
    """

    __slots__ = ("source_size", "target_size", "values", "images")

    def __init__(self, source_size, target_size, values):
        if len(values) != source_size:
            raise ValidationError(f"expected {source_size} values, got {len(values)}")
        for x, v in enumerate(values):
            if not 0 <= v < target_size:
                raise ValidationError(f"value {v} at {x} outside target of size {target_size}")
        object.__setattr__(self, "source_size", source_size)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "images", {})

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


def _merged_blocks(size, blocks, values):
    """Canonical blocks of the equivalence relation on {0..size-1} that
    joins values[x] and values[y] whenever x and y share one of blocks.

    Each union keeps the smaller root, so parent[x] <= x throughout and
    every class's root is its minimum.  One ascending pass then finds
    each root from its parent's and lists the classes in canonical
    order, with no sorting.
    """
    parent = list(range(size))
    for block in blocks:
        a = values[block[0]]
        while parent[a] != a:
            a = parent[a]
        for x in block[1:]:
            b = values[x]
            while parent[b] != b:
                b = parent[b]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
                a = b
    classes = {}
    for x in range(size):
        root = parent[parent[x]]
        parent[x] = root
        if root == x:
            classes[x] = [x]
        else:
            classes[root].append(x)
    return tuple(tuple(c) for c in classes.values())


def image_partition(f, p):
    """The equivalence relation on the target generated by the image of p.

    Elements outside the image of f become singleton blocks.  The result
    is kept in f.images, so a map computes each image once.
    """
    if p.support_size != f.source_size:
        raise SupportMismatchError(
            f"partition support {p.support_size} != map source {f.source_size}"
        )
    image = f.images.get(p.blocks)
    if image is None:
        image = f.images[p.blocks] = _image(f, p)
    return image


def _image(f, p):
    """image_partition(f, p), computed afresh by the merge kernel."""
    return Partition(f.target_size, _merged_blocks(f.target_size, p.blocks, f.values))


def meet(p, q):
    """Finest common coarsening: transitive closure of the union relation."""
    if p.support_size != q.support_size:
        raise SupportMismatchError("meet needs equal supports")
    n = p.support_size
    return Partition(n, _merged_blocks(n, itertools.chain(p.blocks, q.blocks), range(n)))


def join(p, q):
    """Coarsest common refinement: blockwise intersections."""
    if p.support_size != q.support_size:
        raise SupportMismatchError("join needs equal supports")
    where_p = p.block_of()
    where_q = q.block_of()
    return from_block_of([(where_p[x], where_q[x]) for x in range(p.support_size)])


def canonical_object(shape):
    """The canonical partition with consecutive blocks of the given sizes."""
    blocks = []
    at = 0
    for size in shape:
        blocks.append(tuple(range(at, at + size)))
        at += size
    return Partition(at, tuple(blocks))


def canonicalize(p):
    """Canonical representative of the isomorphism class of p.

    Blocks get weakly decreasing sizes and consecutive labels, so two
    partitions are isomorphic iff their canonical forms are equal.
    """
    return canonical_object(p.shape())


class PosetTable:
    """A finite set of partitions of one support, closed under
    refinement, ordered by refinement.

    Each element's strict successors, its proper refinements, are
    generated blockwise: a refinement of q partitions each block of q,
    so they are the products of the partitions of q's blocks.  Closure
    under refinement puts every one of them among the elements.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        self.index = {p: i for i, p in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValidationError("duplicate poset elements")
        at = {p.blocks: i for i, p in enumerate(self.elements)}
        above = []
        for i, q in enumerate(self.elements):
            succ = sorted(at[blocks] for blocks in _refinements(q.blocks))
            succ.remove(i)  # keeping every block whole gives q itself
            above.append(tuple(succ))
        self.above = tuple(above)
        counts = [p.components for p in self.elements]
        self.min_index = counts.index(min(counts))
        self.max_index = counts.index(max(counts))

    def __len__(self):
        return len(self.elements)

    def strictly_above(self, i):
        """Indices j with elements[i] < elements[j], ascending."""
        return self.above[i]


def refinement_poset(p):
    """The poset of refinements of p, minimum p and maximum discrete.

    Elements are produced as products of per-block partitions.  The
    support cap guards against Bell-number blowup.
    """
    check_support_cap(p.support_size)
    refinements = sorted(_refinements(p.blocks))
    return PosetTable(Partition(p.support_size, blocks) for blocks in refinements)


def _refinements(blocks):
    """The refinements of the partition with these blocks, as block tuples."""
    for combo in itertools.product(*map(_set_partitions, blocks)):
        # sorting disjoint blocks as tuples orders them by minimum
        yield tuple(sorted(blk for part in combo for blk in part))
