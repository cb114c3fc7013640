"""Routes and small constructions that only the tests use.

The simplicial orbit route builds a stratum as a space: the power with
its fat diagonal collapsed, smashed with the tree space, with the
automorphisms of the partition acting on the cells of the smash and
the cellwise orbit quotient taken.  It is the reference that the
chain-level `layers.stratum` is checked against.  The unreduced route
reads homology off a complex's raw boundary matrices, over F_p by the
reference mod-p elimination, not off the kernel's divisors.  The
reference reducer removes unit pairs through dicts, where production
uses flat arrays, the nerve route to a tree space stores every face
that production computes on lookup, and the reference product map
stores every image that production computes on lookup.  The cell-by-cell
colimit glues each piece along its automorphisms one cell at a time,
where production glues orbits of factor-cell pairs.  The reference face
sums read every face of a cell as a ref from its face table, where
production reads the faces of a space of chains straight from each chain.
The reference image partition and meet merge through a union-find and
sort the classes, where production keeps each class's minimum as its
root and lists the blocks in one ascending pass.  The reference
sub-diagonal sweep reads each cell's coincidence partition, where
production compares the cell's coordinates across each block.  Route A
builds the layer from latching-free cells and whole tree spaces, with
the package's powers and tree space maps, where production takes the
top cycles of each tree space and reads faces off its own simplex
tables.
"""

import itertools
from collections import Counter, deque
from math import comb
from dataclasses import dataclass
from functools import cached_property

from forestcalc.category import CategoryTable, automorphism_group, enumerate_en
from forestcalc.errors import ValidationError
from forestcalc.homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    homology,
    homology_of_complex,
    parse_coefficients,
    rank_mod_p,
    reduce_complex,
)
from forestcalc.kernel import sparse_elementary_divisors
from forestcalc.layers import t_space_map
from forestcalc.partitions import (
    Partition,
    SetMap,
    UnionFind,
    image_partition,
    refinement_poset,
)
from forestcalc import simplicial
from forestcalc.fusion import is_good
from forestcalc.powers import coincidence_partition, fat_diagonal_cells, induced_power_map
from forestcalc.simplicial import (
    BASEPOINT,
    JointNormalizer,
    SimplicialMap,
    SimplicialObject,
    descend_to_quotients,
    model_circle,
    nerve,
    power,
    product,
    product_map,
    quotient,
    smash,
    subobject,
    surj_compose,
    surj_identity,
    surj_zero,
    suspension,
    t_space,
)


# --- small constructions --------------------------------------------------------


def indiscrete(m):
    """The one-block partition of {0..m-1}."""
    if m == 0:
        return Partition(0, ())
    return Partition(m, (tuple(range(m)),))


def discrete(m):
    """The all-singletons partition of {0..m-1}."""
    return Partition(m, tuple((x,) for x in range(m)))


def surjections(k, p):
    """All monotone surjections [k] -> [p], in lexicographic order."""
    for inc in itertools.combinations(range(k), p):
        alpha = [0]
        incs = set(inc)
        for t in range(k):
            alpha.append(alpha[-1] + (1 if t in incs else 0))
        yield tuple(alpha)


def joint_normalize(refs):
    """Normal form of one tuple of refs as a product simplex, by a fresh
    `JointNormalizer`: (product cell name, outer word)."""
    return JointNormalizer()(refs)


def filtration(table, i):
    """Full subcategory of objects with at most i components."""
    if not 1 <= i <= table.n:
        raise ValidationError(f"filtration index {i} out of range 1..{table.n}")
    keep = [k for k in range(len(table.objects)) if table.strata[k] <= i]
    reindex = {old: new for new, old in enumerate(keep)}
    homs = None
    if table.homs is not None:
        homs = {
            (reindex[a], reindex[b]): maps
            for (a, b), maps in table.homs.items()
            if a in reindex and b in reindex
        }
    return CategoryTable(
        n=table.n,
        objects=tuple(table.objects[k] for k in keep),
        strata=tuple(table.strata[k] for k in keep),
        groups=tuple(table.groups[k] for k in keep),
        homs=homs,
    )


def betti_numbers(obj, coefficients="Z", reduced=True):
    """The nonzero ranks of the homology of obj, by degree."""
    res = homology(obj, coefficients=coefficients, reduced=reduced)
    return {k: g.rank for k, g in res.groups.items() if not g.is_zero()}


def stratum_homology(res, coefficients="Z"):
    """The homology of a stratum's chain complex."""
    groups = homology_of_complex(res.complex, coefficients)
    return HomologyResult(coefficients, True, groups)


def unreduced_groups(cx, coefficients):
    """Homology straight from the raw boundary matrices, no reduction,
    over F_p by the reference mod-p elimination rather than the kernel."""
    kind, p = parse_coefficients(coefficients)
    top = max(cx.degrees(), default=-1)
    boundary_rank, torsion = {}, {}
    for k in range(top + 2):
        args = (cx.boundary(k), cx.ranks.get(k - 1, 0), cx.ranks.get(k, 0))
        if kind == "F":
            boundary_rank[k], torsion[k] = rank_mod_p(*args, p), ()
        else:
            d = sparse_elementary_divisors(*args)
            boundary_rank[k] = len(d)
            torsion[k] = tuple(x for x in d if x > 1) if kind == "Z" else ()
    return {
        k: HomologyGroup(
            cx.ranks.get(k, 0) - boundary_rank[k] - boundary_rank[k + 1], torsion[k + 1]
        )
        for k in range(top + 1)
    }


def reduce_complex_reference(cx):
    """The unit-pair reduction of `homology.reduce_complex`, with a
    boundary dict and a coboundary dict per generator: the oracle that
    the flat-array reducer must match entry for entry.

    A generator a is paired with b when <da, b> = +-1 and either b is
    the only remaining face of a or a the only remaining coface of b.
    Generators are visited first-in first-out in (degree, index) order
    and neighbours of a removed pair requeued.
    """
    offset = {}
    n = 0
    for k in sorted(cx.ranks):
        offset[k] = n
        n += cx.ranks[k]
    bd = [{} for _ in range(n)]
    cobd = [{} for _ in range(n)]
    for k, es in cx.entries.items():
        if not es:
            continue
        col, row = offset[k], offset[k - 1]
        for i, j, v in es:
            a, b = col + j, row + i
            w = bd[a].get(b, 0) + v
            if w:
                bd[a][b] = cobd[b][a] = w
            else:
                bd[a].pop(b, None)
                cobd[b].pop(a, None)
    alive = [True] * n
    queue = deque(range(n))
    while queue:
        g = queue.popleft()
        if not alive[g]:
            continue
        for nbrs in (bd[g], cobd[g]):
            if len(nbrs) == 1 and next(iter(nbrs.values())) in (1, -1):
                (h,) = nbrs
                for x in (g, h):
                    alive[x] = False
                    for f in bd[x]:
                        del cobd[f][x]
                        queue.append(f)
                    for c in cobd[x]:
                        del bd[c][x]
                        queue.append(c)
                    bd[x], cobd[x] = {}, {}
                break
    ranks, entries, index = {}, {}, {}
    for k, start in offset.items():
        keep = [start + i for i in range(cx.ranks[k]) if alive[start + i]]
        ranks[k] = len(keep)
        index.update((g, new) for new, g in enumerate(keep))
    for k in cx.entries:
        start = offset.get(k, 0)
        entries[k] = [
            (index[f], index[g], v)
            for g in range(start, start + cx.ranks.get(k, 0))
            if alive[g]
            for f, v in bd[g].items()
        ]
    return ChainComplex(ranks=ranks, entries=entries)


def kept_face_sums_reference(obj, index, augmentation=None):
    """`homology._kept_face_sums` with every face read as a ref from the
    face table, a space of chains included: the oracle for the faces
    that production reads straight from each chain."""
    vertex = {} if augmentation is None else {augmentation: 1}
    for k in sorted(obj.cells):
        ident, signs = surj_identity(k - 1), (1, -1) * (k // 2 + 1)
        for c in obj.cells[k]:
            if c not in index:
                continue
            if not k:
                yield c, dict(vertex)
                continue
            acc = {}
            for (t, alpha), v in zip(obj.faces[c], signs):
                if alpha == ident:
                    j = index.get(t)
                    if j is not None:
                        acc[j] = acc.get(j, 0) + v
            yield c, {j: v for j, v in acc.items() if v}


def t_space_via_nerve(lam):
    """The tree space by its definition, with every face stored: the
    nerve of the refinement poset of lam with the chains that miss its
    minimum or its maximum collapsed.  The oracle for `t_space`, which
    builds the chains through both directly and computes their faces on
    lookup."""
    poset = refinement_poset(lam)
    full = nerve(poset)
    away = [c for c in full.all_cells() if poset.min_index not in c or poset.max_index not in c]
    return quotient(full, away)


def assert_same_reduction(cx):
    """`reduce_complex` leaves what the reference leaves: the same
    ranks and entries, in the same order."""
    small, expected = reduce_complex(cx), reduce_complex_reference(cx)
    assert list(small.ranks.items()) == list(expected.ranks.items())
    assert list(small.entries.items()) == list(expected.entries.items())
    return small


def smash_via_product(a, b):
    """The smash product by its definition: the product with its wedge
    collapsed.  The oracle for `smash`, which builds the cells off the
    wedge directly."""
    prod = product([a, b])
    wedge = [
        cell
        for cell in prod.all_cells()
        if cell[0][0] == a.basepoint or cell[1][0] == b.basepoint
    ]
    return quotient(prod, wedge)


def suspension_via_nerve(lam):
    """The suspension model by its definition: the nerve of the whole
    refinement poset of lam, with the chains through the maximum dropped
    and the chains missing the minimum collapsed, smashed with the
    circle.  Chains are renamed to index the poset without its maximum.
    The oracle for `t_space_suspension_model`, which builds the chains
    from the minimum directly."""
    poset = refinement_poset(lam)
    mn, mx = poset.min_index, poset.max_index
    full = nerve(poset)
    below = subobject(full, [c for c in full.all_cells() if mx not in c])

    def rename(chain):
        return tuple(i - (i > mx) for i in chain)

    renamed = SimplicialObject(
        {k: [rename(c) for c in names] for k, names in below.cells.items()},
        {rename(c): tuple((rename(t), a) for t, a in fs) for c, fs in below.faces.items()},
    )
    away = [c for c in renamed.all_cells() if mn - (mn > mx) not in c]
    return smash(model_circle(pointed=True), quotient(renamed, away))


def suspended_objects(monkeypatch):
    """The objects that `t_space_suspension_model` suspends, recorded."""
    objects = []

    def recording_suspension(obj):
        objects.append(obj)
        return suspension(obj)

    monkeypatch.setattr(simplicial, "suspension", recording_suspension)
    return objects


def product_map_reference(maps, source, target):
    """The images of `product_map(maps, source, target)`, each computed
    once and all stored in one dict: the oracle for `ProductImages`,
    which computes them on lookup."""
    normalize = JointNormalizer()
    image_memos = [{} for _ in maps]  # per coordinate: ref -> image ref
    mapping = {}
    for cell in source.all_cells():
        if cell == BASEPOINT:
            mapping[cell] = (BASEPOINT, (0,))
            continue
        refs = []
        for f, memo, ref in zip(maps, image_memos, cell):
            if f is not None:
                image = memo.get(ref)
                if image is None:
                    image = memo[ref] = f.ref_image(ref)
                ref = image
            refs.append(ref)
        image = normalize(refs)
        if image[0] not in target.dim_of:
            image = (BASEPOINT, surj_zero(source.dim_of[cell]))
        mapping[cell] = image
    return mapping


def automorphism_relations(pieces, automorphisms):
    """The relations (i, i, piece, a, b) that glue each piece along its
    automorphism generators (pw, tw) from `layers._coend_pieces`, as
    product maps a = pw x id and b = id x tw of the piece to itself."""
    return [
        (i, i, pieces[i], product_map([pw, None], pieces[i], pieces[i]),
         product_map([None, tw], pieces[i], pieces[i]))
        for i, generators in automorphisms.items()
        for pw, tw in generators
    ]


def glue_cell_by_cell(pieces, relations):
    """The colimit of the pieces along a(w) ~ b(w) for plain relations
    only, every relation applied to each nondegenerate cell of its w: the
    oracle for `layers._glue`, which divides each piece by its
    automorphisms as orbits of factor-cell pairs.  Union-find runs per
    dimension k over every nondegenerate k-cell of the pieces; a
    degenerate image enters as its normal form, fixed in a lower
    dimension, and any other class becomes a glued cell named after its
    first member."""
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

        def node(i, ref, k=k):
            cell, alpha = ref
            return (i, cell) if alpha[-1] == k else (None, form(i, ref))

        if k == 0:
            for i in pieces:
                uf.union((0, pieces[0].basepoint), (i, pieces[i].basepoint))
        for i, j, w, a, b in relations:
            for cell in w.cells_of_dim(k):
                uf.union(node(i, a.mapping[cell]), node(j, b.mapping[cell]))
        for group in uf.classes():
            forms = [nf for i, nf in group if i is None]
            if len(forms) > 1:
                raise ValidationError("gluing maps are not simplicial")
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


def identity_simplicial(obj):
    mapping = {c: (c, surj_identity(obj.dim_of[c])) for c in obj.dim_of}
    return SimplicialMap(obj, obj, mapping)


def surj_degeneracy(alpha, i):
    """alpha composed with the i-th codegeneracy (duplicate entry i)."""
    return alpha[: i + 1] + (alpha[i],) + alpha[i + 1:]


def compose(g, f):
    """The set map g after f."""
    return SetMap(f.source_size, g.target_size, tuple(g.values[v] for v in f.values))


# --- oracles for the partition merge kernel --------------------------------------


def union_find_blocks(uf):
    """A union-find's classes as sorted tuples, ordered by minimum."""
    return tuple(sorted(tuple(sorted(g)) for g in uf.classes()))


def image_partition_reference(f, p):
    """The image partition through a union-find over the target, sorted
    afterwards; production merges over an int list with no sorting."""
    uf = UnionFind(range(f.target_size))
    for block in p.blocks:
        for x in block[1:]:
            uf.union(f.values[block[0]], f.values[x])
    return Partition(f.target_size, union_find_blocks(uf))


def meet_reference(p, q):
    """The meet through a union-find over the support, sorted afterwards."""
    uf = UnionFind(range(p.support_size))
    for block in itertools.chain(p.blocks, q.blocks):
        for x in block[1:]:
            uf.union(block[0], x)
    return Partition(p.support_size, union_find_blocks(uf))


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
    whose component count condition turns out to be automatic.  A union
    that finds both ends of an edge already joined closes a cycle."""
    cl = lam.components
    where_l, where_d = lam.block_of(), delta.block_of()
    uf = UnionFind()
    return all(uf.union(where_l[x], cl + where_d[x]) for x in range(lam.support_size))


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
            canon = min(members, key=repr)
            for c in members:
                out[c] = canon
        return out

    def orbit_sizes(self):
        return Counter(self.orbit_of.values())


def quotient_by_group(action):
    """Cellwise orbit object of a simplicial group action."""
    obj = action.space
    orbit_of = action.orbit_of
    reps = sorted(set(orbit_of.values()), key=repr)
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


# --- sub-diagonals and route A of the layer ------------------------------------------


def sub_diagonal_cells_reference(power_obj, delta):
    """The cells of a power constant across every block of delta, read
    off each cell's coincidence partition: the oracle for
    `powers.sub_diagonal_cells`, which compares coordinates directly."""
    return {c for c in power_obj.all_cells() if coincidence_partition(c).leq(delta)}


def route_a_coend(M, n):
    """The reduced chains of the layer of M at n as
    sum over lam of Z[N_lam] (x)_{Aut lam} C~(T_lam), and those of each
    stratum: the second oracle for `layers.latching_coend`, which takes
    the top cycles of T_lam in place of its whole chains.

    N_lam is read off `power(M, m)`: its cells with pairwise distinct
    coordinates.  Every permutation of Aut lam is listed, and an orbit
    stands for its first member in the power's cell order.  A generator
    q (x) t pairs a representative q with a cell t of T_lam other than
    the basepoint; d(q (x) t) = dq (x) t + (-1)^|q| q (x) dt.  A face of
    q with coincidence partition kappa good for lam is read through the
    map f: [m] -> [|kappa|] numbering kappa's blocks by their minima,
    relabeled onto the canonical object mu and then onto the orbit's
    first member; the composite h moves t by `t_space_map`, and a
    degenerate image or the basepoint is 0.  Returns the total complex
    and, by object index, each stratum's: lam's generators with the
    faces that stay in lam.
    """
    table = enumerate_en(n, include_homs=False)
    objects = table.objects
    index = {lam: idx for idx, lam in enumerate(objects)}
    powers, groups, trees = {}, [], []
    for lam in objects:
        m = lam.support_size
        if m not in powers:
            p = power(M, m)
            powers[m] = (p, {c: i for i, c in enumerate(p.all_cells())})
        groups.append([
            g for g in itertools.permutations(range(m))
            if image_partition(SetMap(m, m, g), lam) == lam
        ])
        trees.append(t_space(lam))

    def first_of_orbit(idx, cell):
        # (the orbit's first member r, g with (pw_g cell) = r), where
        # (pw_g q)_t = q_{g(t)}
        position = powers[len(cell)][1]
        return min(
            ((tuple(cell[g[t]] for t in range(len(cell))), g) for g in groups[idx]),
            key=lambda pair: position[pair[0]],
        )

    reps = []
    for idx, lam in enumerate(objects):
        p, _ = powers[lam.support_size]
        reps.append([
            c for c in p.all_cells()
            if len(set(c)) == len(c) and first_of_orbit(idx, c)[0] == c
        ])
    maps = {}

    def moved(idx, face):
        # (mu, r, h) with face = pw_h r, or None when kappa is bad for lam
        lam = objects[idx]
        kappa = coincidence_partition(face)
        if not is_good(kappa, lam):
            return None
        m, k = lam.support_size, kappa.components
        f = SetMap(m, k, tuple(kappa.block_of()))
        image = image_partition(f, lam)
        blocks = sorted(image.blocks, key=lambda b: -len(b))
        relabel = {x: i for i, x in enumerate(x for b in blocks for x in b)}
        mu = index[Partition(k, tuple(
            tuple(range(sum(map(len, blocks[:j])), sum(map(len, blocks[: j + 1]))))
            for j in range(len(blocks))
        ))]
        target = [None] * k
        for t in range(m):
            target[relabel[f(t)]] = face[t]
        r, g = first_of_orbit(mu, tuple(target))
        inverse = [0] * k
        for s, v in enumerate(g):
            inverse[v] = s
        h = tuple(inverse[relabel[f(t)]] for t in range(m))
        return mu, r, h

    def tree_image(idx, mu, h, t):
        key = idx, h
        if key not in maps:
            lam = objects[idx]
            maps[key] = t_space_map(SetMap(lam.support_size, objects[mu].support_size, h), lam, objects[mu])
        image, word = maps[key].mapping[t]
        return None if image == BASEPOINT or word[-1] != len(word) - 1 else image

    generators = {}  # degree -> (idx, q, t)
    for idx, lam in enumerate(objects):
        p = powers[lam.support_size][0]
        for q in reps[idx]:
            for t in trees[idx].all_cells():
                if t != BASEPOINT:
                    generators.setdefault(p.dim_of[q] + trees[idx].dim_of[t], []).append((idx, q, t))
    order = [gen for k in sorted(generators) for gen in generators[k]]
    number = {gen: i for i, gen in enumerate(order)}
    local = {idx: {} for idx in range(len(objects))}
    for gen in order:
        local[gen[0]][gen] = len(local[gen[0]])
    runs, local_runs = [], {idx: [] for idx in local}
    for idx, q, t in order:
        p = powers[objects[idx].support_size][0]
        tree = trees[idx]
        terms = []
        if p.dim_of[q]:
            ident = surj_identity(p.dim_of[q] - 1)
            for i, (face, word) in enumerate(p.faces[q]):
                target = moved(idx, face) if word == ident else None
                if target is not None:
                    mu, r, h = target
                    image = t if mu == idx and h == tuple(range(len(h))) else tree_image(idx, mu, h, t)
                    if image is not None:
                        terms.append(((mu, r, image), (-1) ** i))
        sign = (-1) ** p.dim_of[q]
        if tree.dim_of[t]:
            for j, (face, _) in enumerate(tree.faces[t]):
                if face != BASEPOINT:
                    terms.append(((idx, q, face), sign * (-1) ** j))
        run, stays = Counter(), Counter()
        for gen, v in terms:
            run[number[gen]] += v
            if gen[0] == idx:
                stays[local[idx][gen]] += v
        runs.append({g: v for g, v in run.items() if v})
        local_runs[idx].append({g: v for g, v in stays.items() if v})
    ranks = {k: len(gens) for k, gens in sorted(generators.items())}
    strata = {}
    for idx in local:
        local_ranks = Counter(
            powers[objects[i].support_size][0].dim_of[q] + trees[i].dim_of[t]
            for i, q, t in local[idx]
        )
        strata[idx] = ChainComplex(ranks=dict(sorted(local_ranks.items())), runs=local_runs[idx])
    return ChainComplex(ranks=ranks, runs=runs), strata
