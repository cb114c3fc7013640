"""Layer assembly: powers glued with tree spaces over the fusion category.

The layer is the coend of the power quotients Q_lam against the tree
spaces T_lam.  `derivative_report` computes it from latching-free cells
and top cycles, building no simplex of a power, smash or glued space:

- Essential cofibrancy makes the coend's chains
  sum over lam of Z[N_lam] (x)_{Aut lam} C~(T_lam), where N_lam is the
  set of latching-free cells of the power, those whose coordinate refs
  are pairwise distinct.  T_lam has reduced homology in its top degree
  alone, spanned by explicit top cycles (`simplicial.top_cycles`), so
  the top cycles may stand for its whole chains.  `latching_coend`
  builds that complex, and the strata as its diagonal blocks: one
  generator per Aut lam-orbit of latching-free cells and word choice,
  each face moved along the coend's relations and read in the top
  cycles of the object it lands in, with no elimination.
- `layer_census` counts the cells of the glued space and of its pieces
  in closed form, which gives the gluing counts, the cell dimensions
  and the Euler characteristic of each filtration stage, after checking
  the same caps, in the same order, as the simplicial coend.

The simplicial coend stays as the oracle that the tests check both
against.  `coend` builds it as the colimit of simplicial sets that
glues each piece along both actions of every morphism.  The relations
of a set of arrows that generates the category under composition
already fix it, so only the generating arrows of the table are applied:
a minimal set of automorphism generators of each object and one arrow
per double coset of automorphisms in each other hom set
(`CategoryTable.generating_arrows`).  Both actions are functorial, so
the relation of a composite follows from those of its factors.

An automorphism acts on both factors of its object's piece by
isomorphisms, cell to cell with identity words, so it glues the piece's
cells with the same words along the orbits of their pairs of factor
cells.  These orbits are found once per object, by one union-find over
the pairs of non-basepoint factor cells (`_aut_orbits`); the stratum of
an object takes the same orbits on the pairs off the fat diagonal.  The
colimit is then computed from the orbits' representative cells alone,
one dimension at a time: the relations of the other generating arrows
are applied to the cells of their mixing pieces, and a degenerate image
stands for its Eilenberg-Zilber normal form, fixed in a lower
dimension.  Because both actions are simplicial, the identifications
of degenerate simplices follow from these.  The colimit reads the faces
of a piece's cell only when the cell becomes a glued representative,
and never the faces of a mixing piece; `smash` computes each face on
lookup, so no other face is computed.  The relation maps compute each
image when the colimit looks it up, once per cell of the mixing piece,
and keep none (`product_map`).

The pieces and relations are built once per coend, and glued once.
Filtration stage i is the subobject of the glued cells of the objects
with at most i components, a prefix of the table: essential cofibrancy
makes each stage map injective, so gluing those pieces alone would give
the same cells, named and ordered alike.  The stratum of an object
(`stratum`) is computed at chain level, as the automorphism
coinvariants of the chains of (power / fat diagonal) tensored with
those of the tree space.  This is exact: the shuffle and
Alexander-Whitney maps and the Eilenberg-Zilber homotopy are natural
and keep the wedge, so they pass to coinvariants.
"""

import itertools
from collections import Counter
from math import comb, perm

from .category import enumerate_en, strict_fusions
from .errors import CapExceededError, ValidationError
from .fusion import is_good
from .homology import (
    ChainComplex,
    HomologyResult,
    homology_of_complex,
    tensor_chain_complex,
)
from .partitions import (
    SetMap,
    UnionFind,
    all_partitions,
    image_partition,
    refinement_poset,
)
from .powers import fat_diagonal_cells, induced_power_map, power_pair
from .simplicial import (
    BASEPOINT,
    SimplicialObject,
    check_product_counts,
    check_product_size,
    descend_to_quotients,
    point_object,
    product_map,
    smash,
    subobject,
    surj_compose,
    surj_identity,
    t_space,
    top_cycles,
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


class CoendAssembly:
    __slots__ = ("n", "stages", "pieces", "pairs", "trees", "gluing_log", "table")

    def __init__(self, n, stages, pieces, pairs, trees, gluing_log, table):
        self.n = n
        self.stages = stages  # i -> filtration stage i, a subobject of the total; 0 is the point
        self.pieces = pieces  # object index -> pointed piece
        self.pairs = pairs  # object index -> power pair
        self.trees = trees  # partition -> (refinement poset, tree space)
        self.gluing_log = gluing_log  # dimension -> number of identifications (stage n)
        self.table = table

    @property
    def total(self):
        return self.stages[self.n]


def _arrow_maps(table, i, j, pairs, trees):
    """The factor maps (pw, tw) of each generating arrow f: lam_i -> lam_j:
    pw the wrong-way map of power quotients, tw the map of tree spaces.
    pairs holds the power pairs by object index; trees is as in `_tree`."""
    lam, lam_j = table.objects[i], table.objects[j]
    maps = []
    for values in table.generating_arrows(i, j):
        f = SetMap(lam.support_size, lam_j.support_size, values)
        maps.append(
            (power_quotient_map(f, pairs[i], pairs[j]), t_space_map(f, lam, lam_j, trees))
        )
    return maps


def _aut_orbits(xs, ys, generators, what):
    """The orbits of the pairs (x, y) in xs x ys under (pw x, y) ~ (x, tw y)
    for each generator (pw, tw) of a group acting on both factors, as a
    dict sending each pair to the first pair of its orbit in
    `itertools.product` order.

    These are the orbits of the diagonal action (x, y) -> (pw_g^-1 x,
    tw_g y).  xs and ys are invariant sets of cells of the maps' sources:
    a generator must send each cell of xs (of ys) to a cell of xs (of ys)
    with the identity word, or the relation would not be one of pairs;
    anything else raises ValidationError naming what.
    """
    pairs = list(itertools.product(xs, ys))
    orbits = UnionFind(pairs)
    factors = ((xs, set(xs)), (ys, set(ys)))
    for generator in generators:
        px, ty = (
            _cell_images(m, cells, kept, what)
            for m, (cells, kept) in zip(generator, factors)
        )
        for x, y in pairs:
            orbits.union((px[x], y), (x, ty[y]))
    first = {}
    return {p: first.setdefault(id(orbits.find(p)), p) for p in pairs}


def _cell_images(m, cells, kept, what):
    """cell -> image cell of the map m on cells, each image a cell of the
    set kept with the identity word."""
    images = {}
    for c in cells:
        image, word = m.mapping[c]
        if image not in kept or word[-1] != len(word) - 1:
            raise ValidationError(
                f"an automorphism of {what} is not an isomorphism: it sends "
                f"{c!r} to {(image, word)!r}"
            )
        images[c] = image
    return images


def _coend_pieces(M, table, pairs=None, trees=None):
    """The pieces of the coend, the relations that glue them, and the
    automorphism generators that each piece is divided by.

    Piece i is the power quotient of object i smashed with its tree
    space.  Its automorphisms are given as a list, automorphisms[i], of
    the factor maps (pw, tw) of the generators of Aut(lam_i): each acts
    on both factors by isomorphisms, and `_glue` divides the piece by
    them as orbits of factor-cell pairs.  An arrow f: lam_i -> lam_j with
    i != j gives the relation (i, j, w, a, b) on the mixing piece w =
    (power quotient of lam_j) smashed with (tree space of lam_i), with
    a: w -> piece i and b: w -> piece j.  A caller that keeps the power
    pairs (by object index) and the tree spaces (see `_tree`) passes the
    dicts to fill.

    Every power is counted against the product caps before the first is
    built.  The pieces and mixing pieces compute their faces on lookup:
    `_glue` reads only the faces of its glued representatives, and the
    relation maps read only cells.  They compute each image on lookup
    and keep none, so a relation holds its two factor maps, not a table
    over the cells of w.

    Only the generating arrows are applied.  For f = g' f0 g with g,
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
        pieces[i] = smash(pairs[i].quotient, _tree(trees, lam)[1])
    relations = []
    automorphisms = {}
    for i, lam in enumerate(table.objects):
        tree = trees[lam][1]
        automorphisms[i] = _arrow_maps(table, i, i, pairs, trees)
        for j in range(len(table.objects)):
            maps = _arrow_maps(table, i, j, pairs, trees) if j != i else ()
            if not maps:
                continue
            w = smash(pairs[j].quotient, tree)
            for pw, tw in maps:
                a = product_map([pw, None], w, pieces[i])
                b = product_map([None, tw], w, pieces[j])
                relations.append((i, j, w, a, b))
    return pieces, relations, automorphisms


def _glue(pieces, relations, automorphisms=None):
    """Colimit of the pieces along a(w) ~ b(w), with shared basepoints,
    each piece i divided by the generators in automorphisms[i].

    A generator's factor maps (pw, tw) send cells to cells with identity
    words, so (pw q, t) ~ (q, tw t) sends a piece cell ((x, alpha),
    (y, beta)) to the cell with the same words on another pair: its
    classes are the orbits of the pairs (x, y) of non-basepoint factor
    cells (`_aut_orbits`), the same for every word pair.  They are found
    once per piece, and a cell of the piece stands for the cell of its
    orbit's first pair, which comes first in the piece's cell order.
    A relation passed with i == j is glued cell by cell, like any other.

    Then, in each dimension k, union-find runs over those representative
    k-cells (i, cell) of the pieces.  A degenerate image enters as its
    normal form (glued cell, word), which a lower dimension fixed; a
    class that holds one takes it, any other class becomes a glued cell
    named after its first member: lowest piece first, then the piece's
    cell order.  Only such a representative's faces are read from its
    piece, and only cells are read from a mixing piece.
    gluing counts, per dimension k, the identifications the colimit makes
    among all k-simplices: the pieces have sum over q of n_q * C(k, q) of
    them, the glued space the same sum over its own q-cells.
    """
    moved = {}  # piece -> pair -> its orbit's first pair, for each pair not first
    for i, generators in (automorphisms or {}).items():
        if not generators:
            continue
        pw, tw = generators[0]
        xs = [c for c in pw.source.all_cells() if c != pw.source.basepoint]
        ys = [c for c in tw.source.all_cells() if c != tw.source.basepoint]
        first = _aut_orbits(xs, ys, generators, f"object {i}")
        moved[i] = {p: r for p, r in first.items() if r is not p}

    def rep(i, cell):
        orbit = moved.get(i)
        if orbit is None or cell == pieces[i].basepoint:
            return cell
        (x, alpha), (y, beta) = cell
        r = orbit.get((x, y))
        return cell if r is None else ((r[0], alpha), (r[1], beta))

    top = max(p.dimension for p in pieces.values())
    normal = {}  # (piece, representative cell) -> normal form in the glued space
    cells = {}
    faces = {}

    def form(i, ref):
        cell, alpha = ref
        name, beta = normal[(i, rep(i, cell))]
        return name, surj_compose(beta, alpha)

    gluing = {}
    for k in range(top + 1):
        uf = UnionFind(
            (i, cell)
            for i, piece in pieces.items()
            for cell in piece.cells_of_dim(k)
            if rep(i, cell) is cell
        )

        def node(i, ref):
            # a degenerate simplex is the node (None, its normal form)
            cell, alpha = ref
            return (i, rep(i, cell)) if alpha[-1] == k else (None, form(i, ref))

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
    automorphisms included; basepoints are shared.  Stage i holds the
    glued cells named after a piece of an object with at most i
    components.  The objects come in increasing order of components and
    a glued cell is named after its first member, lowest piece first, so
    these are the cells that gluing those pieces alone would give.
    """
    if n > COEND_N_CAP:
        raise CapExceededError(f"coend for n={n} exceeds cap {COEND_N_CAP}")
    table = enumerate_en(n)
    pairs, trees = {}, {}
    pieces, relations, automorphisms = _coend_pieces(M, table, pairs, trees)
    total, gluing = _glue(pieces, relations, automorphisms)
    stages = {0: point_object()}
    for i in range(1, n):
        keep = [c for c in total.dim_of if table.strata[c[0]] <= i]
        stages[i] = subobject(total, keep, basepoint=total.basepoint)
    stages[n] = total
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


class StratumResult:
    __slots__ = ("lam", "complex", "free", "group_order")

    def __init__(self, lam, complex, free, group_order):
        self.lam = lam
        self.complex = complex  # reduced chains of the stratum
        self.free = free
        self.group_order = group_order


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
    coinvariant classes are the orbits of the generators: those of the
    coend's pieces (`_aut_orbits`), restricted to the power cells off
    the fat diagonal, an invariant set of cells of the power quotient.
    The stabilizer of q (x) t is stab(q) & stab(t), so the action is
    free exactly when every orbit has as many members as the group.
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
    first = _aut_orbits(
        [q for q in pair.power.all_cells() if q not in fat],
        [t for t in tree.all_cells() if t != BASEPOINT],
        _arrow_maps(table, idx, idx, assembly.pairs, assembly.trees),
        str(lam),
    )
    group = table.groups[idx]
    orbit_sizes = Counter(first.values()).values()
    return StratumResult(
        lam=lam,
        complex=tensor_chain_complex(pair.power, tree, fat, {BASEPOINT}, first),
        free=all(size == group.order for size in orbit_sizes),
        group_order=group.order,
    )


# ---------------------------------------------------------------------------
# the census: cell counts of the simplicial coend in closed form


class LayerCensus:
    __slots__ = (
        "table",
        "latching",
        "gluing",
        "coend_cells",
        "cell_dim_low",
        "cell_dim_high",
        "stage_euler",
    )

    def __init__(self, table, latching, gluing, coend_cells, cell_dim_low, cell_dim_high, stage_euler):
        self.table = table
        self.latching = latching  # support k -> dimension d -> |N_{k,d}|
        self.gluing = gluing  # dimension -> identifications, as `_glue` counts them
        self.coend_cells = coend_cells  # dimension -> cells of the glued space
        # the extreme dimensions of the glued cells other than the basepoint
        self.cell_dim_low = cell_dim_low
        self.cell_dim_high = cell_dim_high
        self.stage_euler = stage_euler  # i -> reduced Euler characteristic of stage i


def latching_counts(M, k):
    """d -> |N_{k,d}|, the number of d-cells of M^k whose k coordinate
    refs are pairwise distinct, for every d with one.

    R_s = sum over cells c of C(s, dim c) counts the s-simplices of M,
    degenerate ones included, so (R_d)_k, a falling factorial, counts
    the k-tuples of distinct d-simplices.  Each such tuple is s_J of
    exactly one latching-free cell, for a set J of j of the d
    degeneracies, and inverting that sum over J gives
    |N_{k,d}| = sum_j (-1)^j C(d, j) (R_{d-j})_k.
    """
    dims = M.cell_count()
    r = [sum(comb(s, p) * count for p, count in dims.items()) for s in range(k * M.dimension + 1)]
    out = {}
    for d in range(k * M.dimension + 1):
        count = sum((-1) ** j * comb(d, j) * perm(r[d - j], k) for j in range(d + 1))
        if count:
            out[d] = count
    return out


def _joint_counts(a, b):
    """k -> the jointly nondegenerate pairs of monotone surjections
    [k] -> [a] and [k] -> [b]: each of the k steps moves the first, the
    second or both, and a + b - k of the first's a steps move both."""
    return {k: comb(k, a) * comb(a, a + b - k) for k in range(max(a, b), a + b + 1)}


def _smash_counts(xs, ys):
    """k -> the k-cells of a smash product other than its basepoint, from
    the non-basepoint cells of its factors per dimension."""
    out = Counter()
    for a, x in xs.items():
        for b, y in ys.items():
            for k, pairs in _joint_counts(a, b).items():
                out[k] += x * y * pairs
    return out


def layer_census(M, n):
    """The cell counts of the simplicial coend of M at n, in closed form,
    after the same cap checks as `coend`, with nothing built but the
    tree spaces.

    The checks run in the order in which `coend` builds its products, so
    an input over a cap raises the first CapExceededError that `coend`
    raises: n over COEND_N_CAP, then each power, then each piece
    smash(Q_i, T_i) in object order, then each mixing piece
    smash(Q_j, T_i) of an arrow i -> j, for i then j.  Each product is
    counted from its factors' cells per dimension
    (`check_product_counts`).  The power quotient Q_i has the d-cells of
    the power whose coincidence partition kappa is good for lam_i, so
    sum over kappa good of |N_{|kappa|,d}| of them (`latching_counts`).

    The glued space's k-cells other than its basepoint are the Aut
    lam-orbits of the jointly nondegenerate pairs of a latching-free
    cell of the power and a cell of T_lam, each orbit of |Aut lam| pairs
    since the action on latching-free cells is free.  They give the
    glued cells, the filtration stages (stage i holds those of the
    objects with at most i components) and their reduced Euler
    characteristics, and `gluing`: per dimension k, the simplices of the
    pieces, sum over q of n_q C(k, q), less those of the glued space.
    """
    if n > COEND_N_CAP:
        raise CapExceededError(f"coend for n={n} exceeds cap {COEND_N_CAP}")
    table = enumerate_en(n, include_homs=False)
    objects = table.objects
    dims = Counter(M.cell_count())
    for lam in objects:
        m = lam.support_size
        check_product_counts(m * M.dimension, [dims] * m)
    latching = {k: latching_counts(M, k) for k in range(1, max(lam.support_size for lam in objects) + 1)}
    quotients, trees = [], []
    for lam in objects:
        good = Counter()
        for kappa in all_partitions(lam.support_size):
            if is_good(kappa, lam):
                good.update(latching[kappa.components])
        tree = t_space(lam)
        tree_cells = Counter({k: len(names) for k, names in tree.cells.items() if k})
        quotients.append((max(good, default=0), good))
        trees.append((tree.dimension, tree_cells))
        check_product_counts(quotients[-1][0] + tree.dimension, [good, tree_cells])
    for i, lam in enumerate(objects):
        for j, target in enumerate(objects):
            # an arrow to another object lowers the components
            if table.strata[j] < table.strata[i] and strict_fusions(lam, target):
                check_product_counts(quotients[j][0] + trees[i][0], [quotients[j][1], trees[i][1]])
    pieces = [_smash_counts(good, tree_cells) for (_, good), (_, tree_cells) in zip(quotients, trees)]
    glued = []  # per object: k -> its glued k-cells
    for idx, lam in enumerate(objects):
        pairs = _smash_counts(latching[lam.support_size], trees[idx][1])
        glued.append({k: c // table.groups[idx].order for k, c in pairs.items()})
    cells = Counter({0: 1})  # the basepoint
    for counts in glued:
        cells.update(counts)
    top = max(max(p, default=0) for p in pieces)
    gluing = {}
    for k in range(top + 1):
        # each piece has a basepoint of its own
        simplices = len(pieces) + sum(c * comb(k, q) for p in pieces for q, c in p.items())
        gluing[k] = simplices - sum(c * comb(k, q) for q, c in cells.items())
    stage_euler = {0: 0}
    for i in range(1, n + 1):
        stage_euler[i] = sum(
            (-1) ** k * c
            for idx, counts in enumerate(glued)
            if table.strata[idx] <= i
            for k, c in counts.items()
        )
    live = [k for counts in glued for k, c in counts.items() if c]
    return LayerCensus(
        table=table,
        latching=latching,
        gluing=gluing,
        coend_cells={k: c for k, c in sorted(cells.items()) if c},
        cell_dim_low=min(live, default=0),
        cell_dim_high=max(live, default=0),
        stage_euler=stage_euler,
    )


# ---------------------------------------------------------------------------
# the coend from latching-free cells and top cycles


class LatchingCoend:
    __slots__ = ("table", "total", "strata", "representatives")

    def __init__(self, table, total, strata, representatives):
        self.table = table
        self.total = total  # ChainComplex of the whole layer, reduced
        self.strata = strata  # object index -> ChainComplex of its stratum
        # object index -> dimension d -> the orbit representatives of N_{lam,d}
        self.representatives = representatives


def _simplices(M, top):
    """The d-simplices of M for d <= top, degenerate ones included, as
    two lists per dimension, each indexed like the simplices' refs
    (cell, alpha): each simplex's degenerate positions as a bitmask (bit
    t when alpha[t] == alpha[t + 1]), and, for d >= 1, its faces as
    indices into the simplices of dimension d - 1."""
    refs, masks, faces = [], [], []
    known = {}  # cell -> its faces, read once
    for d in range(top + 1):
        refs.append([
            (c, alpha)
            for c in M.all_cells()
            for alpha in _surjections(d, M.dim_of[c])
        ])
        masks.append([
            sum(1 << t for t in range(d) if alpha[t] == alpha[t + 1]) for _, alpha in refs[d]
        ])
        if d:
            index = {ref: i for i, ref in enumerate(refs[d - 1])}
            faces.append([
                tuple(index[f] for f in M.faces_of_ref(ref, known)) for ref in refs[d]
            ])
        else:
            faces.append([])
    return masks, faces


def _surjections(d, p):
    """The monotone surjections [d] -> [p], by the positions of their p
    steps."""
    for steps in itertools.combinations(range(d), p):
        alpha = [0]
        for t in range(d):
            alpha.append(alpha[-1] + (t in steps))
        yield tuple(alpha)


def _representatives(sizes, masks, full):
    """One representative of each Aut-orbit of the latching-free cells of
    one dimension, for the canonical object with these block sizes.

    A cell is a tuple of distinct simplex indices, block after block;
    the representative has each block's indices increasing, and each
    block larger than an equal-size block before it.  Its simplices are
    jointly nondegenerate: their masks of degenerate positions (`masks`)
    meet in nothing, full being the mask of every position.
    """
    out = []
    _extend_representative(sizes, masks, 0, (), (), full, out)
    return out


def _extend_representative(sizes, masks, b, cell, previous, shared, out):
    """Append to out each representative that completes cell with blocks
    b, b + 1, ...; previous is the block before b and shared the
    degenerate positions the simplices of cell have in common.  A
    module-level recursion, so that no closure refers to itself."""
    if b == len(sizes):
        if not shared:
            out.append(cell)
        return
    free = [x for x in range(len(masks)) if x not in cell]
    for block in itertools.combinations(free, sizes[b]):
        if len(previous) == len(block) and block < previous:
            continue
        mask = shared
        for x in block:
            mask &= masks[x]
        _extend_representative(sizes, masks, b + 1, cell + block, block, mask, out)


def _orbit_of_face(face, lam, shapes):
    """Where a latching-free face lands, read through the coend's
    relations: (object index, representative, h), with face = pw_h of
    the representative for the arrow h: lam -> that object, or None when
    the face lies on a diagonal that is bad for lam.

    face is a tuple of simplex indices, one per point of lam; its
    coincidence partition kappa joins the points with equal indices.
    The blocks of lam join kappa's blocks into classes, the blocks of
    h(lam), and kappa is good for lam exactly when that keeps the excess
    (the criterion of `is_good`).  The representative lists each class's
    indices increasing, the classes by decreasing size and then
    increasingly, so it is the one `_representatives` lists for the
    canonical object of h(lam)'s shape, whose index shapes gives; h sends
    each point to the position of its index there.
    """
    parent = {x: x for x in face}
    for block in lam.blocks:
        a = face[block[0]]
        while parent[a] != a:
            a = parent[a]
        for t in block[1:]:
            b = face[t]
            while parent[b] != b:
                b = parent[b]
            parent[b] = a
    classes = {}
    for x in parent:
        root = x
        while parent[root] != root:
            root = parent[root]
        classes.setdefault(root, []).append(x)
    if len(parent) - len(classes) != lam.excess:
        return None
    ordered = sorted((sorted(c) for c in classes.values()), key=lambda c: (-len(c), c))
    rep = tuple(x for c in ordered for x in c)
    position = {x: i for i, x in enumerate(rep)}
    return shapes[tuple(map(len, ordered))], rep, tuple(position[x] for x in face)


def _pushed_cycle(source, target, f, w, images):
    """The coordinates of f_* rho_w on the top cycles of target, for the
    top cycles source of lam, a strict fusion f: lam -> mu and the top
    cycles target of mu.  Each chain of rho_w maps elementwise through
    the image partition; images keeps the poset index of each element's
    image under f.  A chain with a repeat is degenerate and no dual
    chain, so `coordinates` skips it with the rest."""
    terms = []
    for chain, sign in source.cycle(w).items():
        image = []
        for i in chain:
            j = images.get(i)
            if j is None:
                j = images[i] = target.poset.index[image_partition(f, source.poset.elements[i])]
            image.append(j)
        terms.append((tuple(image), sign))
    return target.coordinates(terms)


def latching_coend(M, n, table=None):
    """The reduced chains of the layer of M at n, as
    sum over lam of Z[N_lam] (x)_{Aut lam} Z_e(T_lam), and of each stratum.

    N_lam is the set of latching-free cells of M^m, those whose m
    coordinate refs are pairwise distinct, and Z_e(T_lam) the top cycles
    of the tree space, spanned by the rho_w of `top_cycles`.  The
    automorphisms act freely on N_lam, so a generator is q (x) rho_w for
    an orbit representative q (`_representatives`) and a word choice w,
    in degree dim q + n.  rho_w is a cycle, so
    d(q (x) rho_w) = sum over i of (-1)^i (d_i q) (x) rho_w.  A face d_i q
    is read coordinatewise, and is 0 when its refs are jointly
    degenerate or lie on a diagonal bad for lam; otherwise it is pw_h of
    a representative r of the object it lands in (`_orbit_of_face`), and
    the coend's relation (pw_h r, t) ~ (r, tw_h t) makes the term
    r (x) h_* rho_w, read in that object's top cycles (`_pushed_cycle`).
    A face with pairwise distinct refs stays in lam's summand, h an
    automorphism; the others land in objects with fewer points.

    The stratum of lam keeps lam's generators and only the faces that
    stay.  table is `enumerate_en(n, include_homs=False)` unless given.
    """
    if table is None:
        table = enumerate_en(n, include_homs=False)
    objects = table.objects
    top = max(lam.support_size for lam in objects) * M.dimension
    masks, faces = _simplices(M, top)
    shapes = {lam.shape(): idx for idx, lam in enumerate(objects)}
    cycles = [top_cycles(lam) for lam in objects]
    representatives = {}
    for idx, lam in enumerate(objects):
        representatives[idx] = {}
        for d in range(lam.support_size * M.dimension + 1):
            reps = _representatives(lam.shape(), masks[d], (1 << d) - 1)
            if reps:
                representatives[idx][d] = reps
    # generators numbered by degree, then object, representative and
    # word: in the whole layer, and in the stratum of their object
    first, ranks, numbered = {}, {}, 0
    local_ranks, local_numbered = {idx: {} for idx in representatives}, Counter()
    for d in range(top + 1):
        for idx, reps in representatives.items():
            words = len(cycles[idx].words)
            for rep in reps.get(d, ()):
                first[idx, d, rep] = (numbered, local_numbered[idx])
                numbered += words
                local_numbered[idx] += words
                ranks[d + n] = ranks.get(d + n, 0) + words
                local_ranks[idx][d + n] = local_ranks[idx].get(d + n, 0) + words
    pushes = {}  # (object, h) -> its SetMap, its poset images, word -> coordinates
    runs, local_runs = [], {idx: [] for idx in representatives}
    for d in range(top + 1):
        for idx, reps in representatives.items():
            lam = objects[idx]
            for rep in reps.get(d, ()):
                terms = []  # (sign, object, representative, h) per face that survives
                for i in range(d + 1) if d else ():
                    face = tuple(faces[d][x][i] for x in rep)
                    shared = (1 << d - 1) - 1
                    for x in face:
                        shared &= masks[d - 1][x]
                    orbit = None if shared else _orbit_of_face(face, lam, shapes)
                    if orbit is not None:
                        terms.append((-1 if i % 2 else 1, *orbit))
                for w in range(len(cycles[idx].words)):
                    run, local = {}, {}
                    for sign, mu, face_rep, h in terms:
                        push = pushes.get((idx, h))
                        if push is None:
                            f = SetMap(lam.support_size, objects[mu].support_size, h)
                            push = pushes[idx, h] = (f, {}, {})
                        f, images, known = push
                        if w not in known:
                            known[w] = _pushed_cycle(cycles[idx], cycles[mu], f, w, images)
                        at, local_at = first[mu, d - 1, face_rep]
                        for v, c in known[w].items():
                            run[at + v] = run.get(at + v, 0) + sign * c
                            if mu == idx:
                                local[local_at + v] = local.get(local_at + v, 0) + sign * c
                    runs.append({g: c for g, c in run.items() if c})
                    local_runs[idx].append({g: c for g, c in local.items() if c})
    return LatchingCoend(
        table=table,
        total=ChainComplex(ranks=ranks, runs=runs),
        strata={
            idx: ChainComplex(ranks=local_ranks[idx], runs=local_runs[idx])
            for idx in representatives
        },
        representatives=representatives,
    )


# ---------------------------------------------------------------------------
# the report


def derivative_report(M, n, coefficients="Z", emit_cells=False):
    """Everything the layer computation determines, as plain JSON data.

    No raw cell names appear, so relabeling the model leaves the report
    unchanged.  The census (`layer_census`) checks the caps and gives
    the cell counts of the simplicial coend; the homology of the layer
    and of each stratum comes from `latching_coend`.  Two fields compare
    the routes: `euler_additivity` sets the census's stage Euler
    characteristics against the strata's homology, and `free_action`
    checks that the orbit representatives, |Aut lam| each, number the
    latching-free cells that the census counts.
    """
    census = layer_census(M, n)
    table = census.table
    layer = latching_coend(M, n, table)
    coend_homology = HomologyResult(
        coefficients, True, homology_of_complex(layer.total, coefficients)
    )
    report = {
        "schema": "layer-report/1",
        "n": n,
        "coefficients": coefficients,
        "model": {
            "cells": {str(k): v for k, v in M.cell_count().items()},
            "pointed": M.basepoint is not None,
        },
        "coend": coend_homology.groups_json(),
        "gluing": {str(k): v for k, v in sorted(census.gluing.items())},
    }
    if emit_cells:
        report["coend_cells"] = {str(k): v for k, v in census.coend_cells.items()}
    strata = {}
    stage_eulers = census.stage_euler
    additivity = []
    for i in range(1, n + 1):
        stratum_sum = 0
        for idx, lam in enumerate(table.objects):
            if table.strata[idx] != i:
                continue
            label = "-".join(str(s) for s in lam.shape())
            order = table.groups[idx].order
            reps = {d: len(r) * order for d, r in layer.representatives[idx].items()}
            # a latching-free cell has pairwise distinct coordinates, so
            # only the identity fixes it
            if reps != census.latching[lam.support_size]:
                raise ValidationError(f"automorphisms of stratum {label} do not act freely")
            groups = homology_of_complex(layer.strata[idx], coefficients)
            entry = {
                "support": lam.support_size,
                "free_action": True,
                "group_order": order,
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
    live = [k for k, g in coend_homology.groups.items() if not g.is_zero()]
    low, high = census.cell_dim_low, census.cell_dim_high
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
