"""Finite simplicial sets with explicit degeneracy bookkeeping.

A simplicial set is presented by its nondegenerate cells.  Faces are
recorded as refs: a ref (cell, alpha) stands for the simplex obtained
from a nondegenerate cell by the degeneracy operator encoded as the
monotone surjection alpha, stored by its values.  Every simplex has a
unique such normal form, so products, quotients and maps can all be
computed concretely.
"""

import functools
import itertools
import math
import os
from collections import Counter
from collections.abc import Mapping

from .errors import CapExceededError, ValidationError
from .partitions import check_support_cap, refinement_poset

BASEPOINT = "*"
PRODUCT_DIM_CAP = 6
# wedge:2 at n = 2 builds 83,232 cells; points:60 at n = 2 would need 216,000
PRODUCT_CELL_CAP = 150_000
T_SPACE_TOP_CELL_CAP = 56_700  # T7 takes about 2.6 s and 150 MB; T8 has 1,587,600
# excess x top cells of T(lam); (0 1 2 3 4 5) takes about 1.1 s and 58 MB
SUSPENSION_TOP_CELL_CAP = 13_500


def _debug():
    return bool(os.environ.get("FORESTCALC_DEBUG"))


# ---------------------------------------------------------------------------
# monotone surjections [k] -> [p], stored as value tuples of length k+1


def surj_identity(p):
    return tuple(range(p + 1))


def surj_zero(k):
    """The unique surjection [k] -> [0]."""
    return (0,) * (k + 1)


def surj_compose(outer, inner):
    """outer after inner, both monotone surjections."""
    return tuple(outer[v] for v in inner)


def surj_face(alpha, i):
    """alpha composed with the i-th coface.

    Returns (None, beta) when the composite is still surjective, or
    (j, beta) when it factors as (j-th coface) after beta.
    """
    k = len(alpha) - 1
    v = alpha[i]
    unique = (i == 0 or alpha[i - 1] < v) and (i == k or alpha[i + 1] > v)
    dropped = alpha[:i] + alpha[i + 1:]
    if not unique:
        return None, dropped
    return v, tuple(x if x < v else x - 1 for x in dropped)


# ---------------------------------------------------------------------------


class SimplicialObject:
    """Nondegenerate cells per dimension, in the order given, plus a face
    table of refs."""

    def __init__(self, cells, faces, basepoint=None):
        self.cells = {k: tuple(v) for k, v in cells.items() if v}
        self.faces = faces
        self.basepoint = basepoint
        self.dim_of = {}
        for k, names in self.cells.items():
            for c in names:
                if c in self.dim_of:
                    raise ValidationError(f"cell name {c!r} used in two dimensions")
                self.dim_of[c] = k
        if basepoint is not None and self.dim_of.get(basepoint) != 0:
            raise ValidationError("basepoint must be a dimension-0 cell")
        if _debug():
            self.validate()

    @property
    def dimension(self):
        return max(self.cells.keys(), default=-1)

    def cells_of_dim(self, k):
        return self.cells.get(k, ())

    def all_cells(self):
        for k in sorted(self.cells):
            yield from self.cells[k]

    def cell_count(self):
        return {k: len(v) for k, v in sorted(self.cells.items())}

    def face(self, cell, i):
        """The i-th face of a nondegenerate cell, as a ref."""
        return self.faces[cell][i]

    def faces_of_ref(self, ref, known):
        """Every face of an arbitrary simplex in normal form.  The faces
        of its cell are read from the dict known, or looked up once and
        kept there: a face table may compute them on each lookup, and
        the refs of one cell then share its face names."""
        cell, alpha = ref
        out = []
        for i in range(len(alpha)):
            j, beta = surj_face(alpha, i)
            if j is None:
                out.append((cell, beta))
                continue
            cell_faces = known.get(cell)
            if cell_faces is None:
                cell_faces = known[cell] = self.faces[cell]
            fcell, gamma = cell_faces[j]
            out.append((fcell, surj_compose(gamma, beta)))
        return out

    def validate(self):
        for k, names in self.cells.items():
            if k == 0:
                continue
            for c in names:
                # by subscript, so a table that computes faces on lookup
                # has every face checked
                try:
                    refs = self.faces[c]
                except KeyError:
                    refs = None
                if refs is None or len(refs) != k + 1:
                    raise ValidationError(f"cell {c!r} needs {k + 1} faces")
                for tcell, alpha in refs:
                    p = self.dim_of.get(tcell)
                    if p is None:
                        raise ValidationError(f"face of {c!r} targets unknown cell {tcell!r}")
                    if len(alpha) != k or alpha[0] != 0 or alpha[-1] != p:
                        raise ValidationError(f"bad face word {alpha} on {c!r}")
                    for a, b in zip(alpha, alpha[1:]):
                        if b - a not in (0, 1):
                            raise ValidationError(f"non-surjection word {alpha} on {c!r}")
        for k, names in self.cells.items():
            if k < 2:
                continue
            for c in names:
                sub = [self.faces_of_ref(r, {}) for r in self.faces[c]]
                for j in range(1, k + 1):
                    for i in range(j):
                        if sub[j][i] != sub[i][j - 1]:
                            raise ValidationError(
                                f"simplicial identity fails on {c!r} at (i, j) = ({i}, {j})"
                            )
        return True


def point_object(name=BASEPOINT, pointed=True):
    return SimplicialObject({0: [name]}, {}, basepoint=name if pointed else None)


def subobject(obj, keep, basepoint=None):
    """The subobject on a face-closed set of cells."""
    keep = set(keep)
    for c in keep:
        k = obj.dim_of[c]
        if k == 0:
            continue
        for tcell, _ in obj.faces[c]:
            if tcell not in keep:
                raise ValidationError(
                    f"cell set not face-closed: {c!r} has face {tcell!r} outside"
                )
    cells = {}
    for k, names in obj.cells.items():
        sub = [c for c in names if c in keep]
        if sub:
            cells[k] = sub
    faces = {c: obj.faces[c] for c in keep if obj.dim_of[c] > 0}
    return SimplicialObject(cells, faces, basepoint=basepoint)


# ---------------------------------------------------------------------------
# nerves of posets


def nerve(poset):
    """Order complex: nondegenerate k-cells are strict chains of length k+1.

    Cell names are tuples of poset element indices in increasing order.
    """
    cells = {0: [(i,) for i in range(len(poset.elements))]}
    k = 0
    while cells.get(k):
        nxt = []
        for ch in cells[k]:
            for j in poset.strictly_above(ch[-1]):
                nxt.append(ch + (j,))
        if nxt:
            cells[k + 1] = nxt
        k += 1
    faces = {}
    for k, names in cells.items():
        if k == 0:
            continue
        ident = surj_identity(k - 1)
        for ch in names:
            faces[ch] = tuple(
                (ch[:i] + ch[i + 1:], ident) for i in range(k + 1)
            )
    return SimplicialObject(cells, faces)


# ---------------------------------------------------------------------------
# products and powers


@functools.cache
def _joint_surjection_tuples(dims):
    """Jointly nondegenerate tuples of monotone surjections onto [dims_i],
    as a tuple of tuples of value tuples.

    Every power, piece and mixing piece asks for the same dims, so the
    result is cached for the life of the process.  It is immutable, and
    the product dimension cap, checked before any call, bounds the dims
    and so the cache.
    """
    out = []
    _extend_jointly(dims, [[0] for _ in dims], out)
    return tuple(out)


def _extend_jointly(dims, cur, out):
    """Append to out every jointly nondegenerate completion of the words
    cur.  A module-level recursion, not a closure over out: a closure
    that calls itself is a reference cycle, which would keep out alive
    until the garbage collector runs."""
    m = len(dims)
    if all(cur[i][-1] == dims[i] for i in range(m)):
        out.append(tuple(tuple(a) for a in cur))
    for mask in range(1, 1 << m):
        bits = [i for i in range(m) if mask >> i & 1]
        if any(cur[i][-1] >= dims[i] for i in bits):
            continue
        for i in range(m):
            cur[i].append(cur[i][-1] + (1 if i in bits else 0))
        _extend_jointly(dims, cur, out)
        for i in range(m):
            cur[i].pop()


class JointNormalizer:
    """Joint normal forms of tuples of refs, with the per-word work
    memoized: each word's bitmask of degenerate positions (bit t when
    a[t] == a[t + 1]), each word's stripped form under a shared mask,
    and each mask's outer word.  One normalizer serves one table of
    computed values: the images of a product map (`ProductImages`) or
    the faces of a product (`ProductFaces`), and its memos live as long
    as that table.
    """

    def __init__(self):
        self.masks = {}  # word -> degenerate positions
        self.stripped = {}  # (word, shared mask) -> stripped word
        self.outer = {}  # (shared mask, word length) -> outer word

    def __call__(self, refs):
        """(product cell name, outer word) of a tuple of refs."""
        masks = self.masks
        shared = -1
        for _, a in refs:
            mask = masks.get(a)
            if mask is None:
                mask = masks[a] = sum(
                    1 << t for t in range(len(a) - 1) if a[t] == a[t + 1]
                )
            shared &= mask
            if not shared:
                break
        k1 = len(refs[0][1])
        tau = self.outer.get((shared, k1))
        if tau is None:
            tau = [0]
            for t in range(k1 - 1):
                tau.append(tau[-1] + (0 if shared >> t & 1 else 1))
            tau = self.outer[(shared, k1)] = tuple(tau)
        if not shared:
            return tuple(refs), tau
        stripped = self.stripped
        out = []
        for c, a in refs:
            b = stripped.get((a, shared))
            if b is None:
                # position t + 1 repeats position t for each shared bit t
                b = stripped[(a, shared)] = (a[0],) + tuple(
                    a[t + 1] for t in range(k1 - 1) if not shared >> t & 1
                )
            out.append((c, b))
        return tuple(out), tau


def _surjection_tuples(factors, coordinate_cells):
    """Per dims tuple of the coordinate cells, its jointly nondegenerate
    surjection tuples.

    Raises CapExceededError when the product simplices whose coordinate
    j is a cell of coordinate_cells[j] are over a cap (see
    `check_product_counts`).
    """
    per_dim = [
        Counter(f.dim_of[c] for c in cs)
        for f, cs in zip(factors, coordinate_cells)
    ]
    return check_product_counts(sum(f.dimension for f in factors), per_dim)


def check_product_counts(top, per_dim):
    """Per dims tuple, its jointly nondegenerate surjection tuples, for
    the product simplices of factors of total dimension top whose
    coordinate j ranges over per_dim[j][d] cells of each dimension d.

    Raises CapExceededError when top is over the dimension cap, or when
    those simplices are over the cell cap: they are counted, per dims
    tuple the coordinate cells of those dims times the surjection
    tuples, before any is enumerated.  Counts alone suffice, so a
    product can be checked without building its factors.
    """
    if top > PRODUCT_DIM_CAP:
        raise CapExceededError(f"product dimension {top} exceeds cap {PRODUCT_DIM_CAP}")
    surjection_tuples = {}
    count = 0
    for dims in itertools.product(*per_dim):
        tuples = surjection_tuples[dims] = _joint_surjection_tuples(dims)
        count += math.prod(n[d] for n, d in zip(per_dim, dims)) * len(tuples)
    if count > PRODUCT_CELL_CAP:
        raise CapExceededError(f"product has {count} cells, exceeds cap {PRODUCT_CELL_CAP}")
    return surjection_tuples


def check_product_size(factors):
    """Raise CapExceededError when product(factors) is over a cap,
    without building it."""
    _surjection_tuples(factors, [list(f.all_cells()) for f in factors])


def _product_cells(factors, coordinate_cells):
    """Cells per dimension of the product simplices whose coordinate j
    is a cell of coordinate_cells[j]; `_surjection_tuples` checks the
    caps first.  Their faces come from a `ProductFaces` table."""
    surjection_tuples = _surjection_tuples(factors, coordinate_cells)
    cells = {}
    for combo in itertools.product(*coordinate_cells):
        dims = tuple(f.dim_of[c] for f, c in zip(factors, combo))
        for alphas in surjection_tuples[dims]:
            cells.setdefault(len(alphas[0]) - 1, []).append(tuple(zip(combo, alphas)))
    return cells


class ProductFaces(dict):
    """Face table of product cells: a cell's faces are computed the
    first time they are looked up, and kept.

    Faces are computed coordinatewise and renormalized.  Given the
    factors' basepoints, a face with a basepoint coordinate becomes the
    collapsed face (BASEPOINT, surj_zero(k - 1)).  The per-factor face
    memos and the normalizer live as long as the table, so each
    coordinate face is computed once, and each factor cell's faces are
    looked up once.
    """

    def __init__(self, factors, basepoints=None):
        super().__init__()
        self.factors = factors
        self.basepoints = basepoints
        self.normalize = JointNormalizer()
        self.face_memos = [{} for _ in factors]  # per factor: ref -> its faces
        self.cell_memos = [{} for _ in factors]  # per factor: cell -> its faces

    def __missing__(self, name):
        # only a product cell of positive dimension has faces
        if not isinstance(name, tuple) or len(name[0][1]) < 2:
            raise KeyError(name)
        k = len(name[0][1]) - 1
        coordinate_faces = []
        for f, memo, known, ref in zip(self.factors, self.face_memos, self.cell_memos, name):
            ref_faces = memo.get(ref)
            if ref_faces is None:
                ref_faces = memo[ref] = f.faces_of_ref(ref, known)
            coordinate_faces.append(ref_faces)
        basepoints = self.basepoints
        fs = []
        for i in range(k + 1):
            sub = [fc[i] for fc in coordinate_faces]
            if basepoints and any(c == bp for (c, _), bp in zip(sub, basepoints)):
                fs.append((BASEPOINT, surj_zero(k - 1)))
            else:
                fs.append(self.normalize(sub))
        faces = self[name] = tuple(fs)
        return faces


def product(factors):
    """Product of finitely many simplicial objects.

    Cells are jointly nondegenerate tuples of refs; faces are computed
    coordinatewise and renormalized when they are first looked up (see
    `ProductFaces`).  Pointed when every factor is.
    """
    if not factors:
        raise ValidationError("product needs at least one factor")
    cells = _product_cells(factors, [list(f.all_cells()) for f in factors])
    faces = ProductFaces(factors)
    basepoint = None
    if all(f.basepoint is not None for f in factors):
        basepoint = tuple((f.basepoint, (0,)) for f in factors)
    return SimplicialObject(cells, faces, basepoint=basepoint)


def power(m, k):
    """The k-fold product of a single object with itself."""
    if k < 1:
        raise ValidationError("power needs at least one factor")
    return product([m] * k)


# ---------------------------------------------------------------------------
# quotients


def quotient(obj, collapse):
    """Collapse a face-closed set of cells to a fresh basepoint.

    Collapsing the empty set adds a disjoint basepoint.
    """
    collapse = set(collapse)
    if BASEPOINT in obj.dim_of:
        raise ValidationError("object already uses the reserved basepoint name")
    for c in collapse:
        if c not in obj.dim_of:
            raise ValidationError(f"unknown cell {c!r} in collapse set")
    for c in collapse:
        if obj.dim_of[c] == 0:
            continue
        for tcell, _ in obj.faces[c]:
            if tcell not in collapse:
                raise ValidationError(
                    f"collapse set not face-closed at {c!r} (face {tcell!r})"
                )
    cells = {0: [BASEPOINT]}
    for k, names in obj.cells.items():
        for c in names:
            if c not in collapse:
                cells.setdefault(k, []).append(c)
    faces = {}
    for k, names in obj.cells.items():
        if k == 0:
            continue
        for c in names:
            if c in collapse:
                continue
            fs = []
            for tcell, alpha in obj.faces[c]:
                if tcell in collapse:
                    fs.append((BASEPOINT, surj_zero(k - 1)))
                else:
                    fs.append((tcell, alpha))
            faces[c] = tuple(fs)
    return SimplicialObject(cells, faces, basepoint=BASEPOINT)


def smash(a, b):
    """Smash product of pointed objects, each face computed the first
    time it is looked up (see `ProductFaces`).

    Built directly: the cells are the product cells with no basepoint
    coordinate, plus a fresh basepoint, and a face with a basepoint
    coordinate is the collapsed face, so the cells and faces are those
    of quotient(product([a, b]), wedge) without building the product.
    """
    cells = _smash_cells(a, b)
    faces = ProductFaces((a, b), (a.basepoint, b.basepoint))
    return SimplicialObject(cells, faces, basepoint=BASEPOINT)


def _smash_cells(a, b):
    """The cells of the smash product of pointed objects, per dimension:
    the fresh basepoint, then the product cells with no basepoint
    coordinate, in `_product_cells` order."""
    if a.basepoint is None or b.basepoint is None:
        raise ValidationError("smash needs basepoints on both factors")
    factors = (a, b)
    coordinate_cells = [
        [c for c in f.all_cells() if c != f.basepoint] for f in factors
    ]
    cells = _product_cells(factors, coordinate_cells)
    return {0: [BASEPOINT] + cells.pop(0, []), **cells}


class SuspensionFaces(dict):
    """Face table of the suspension S^1 smash X of a space of chains X
    whose last face stays (`suspension`), computed on each lookup and
    never stored.

    A cell pairs (e, alpha), alpha a surjection [d] -> [1] that steps up
    at position a, with (x, beta), beta either the identity of a d-chain
    x or s, the degeneracy of a (d - 1)-chain that repeats a - 1.  Face
    i drops position i from both words by the simplicial identities.  It
    falls to the basepoint when alpha loses its only 0 or its only 1
    (the circle's vertex), or when it takes face 0 of x, which is X's
    basepoint; face 0 always does one or the other.  Otherwise alpha's
    face steps up at a2, and beta's face is x itself when s repeats i,
    or x with element i - (i > a) dropped, degenerated by the s that
    repeats a2 - 1.  Every face of X keeps the identity word, so the
    two words are jointly nondegenerate and each face is a cell with
    the identity word.
    """

    def __missing__(self, cell):
        # only a cell of positive dimension has faces
        if not isinstance(cell, tuple) or len(cell[0][1]) < 2:
            raise KeyError(cell)
        (e, alpha), (x, beta) = cell
        d = len(alpha) - 1
        a = alpha.index(1)
        degenerate = beta[-1] < d
        ident, collapsed = surj_identity(d - 1), (BASEPOINT, surj_zero(d - 1))
        out = [collapsed]
        for i in range(1, d + 1):
            if i == d and a == d:
                out.append(collapsed)
                continue
            a2 = a - (i < a)
            if degenerate and a - 1 <= i <= a:
                t, gamma = x, ident
            else:
                j = i - (degenerate and i > a)
                t = x[:j] + x[j + 1:]
                gamma = _degeneracy(d - 1, a2 - 1) if degenerate else ident
            out.append((((e, alpha[:i] + alpha[i + 1:]), (t, gamma)), ident))
        return tuple(out)


@functools.cache
def _degeneracy(k, j):
    """The surjection [k] -> [k - 1] that repeats j."""
    return tuple(range(j + 1)) + tuple(range(j, k))


def suspension(obj):
    """The smash product of the pointed circle with a space of chains
    whose last face stays, with the cells, cell order and faces of
    smash(model_circle(pointed=True), obj), its faces in closed form
    (`SuspensionFaces`).  Any other object is a ValidationError."""
    if not isinstance(obj.faces, ChainFaces) or obj.faces.last_collapses:
        raise ValidationError("suspension needs a space of chains whose last face stays")
    cells = _smash_cells(model_circle(pointed=True), obj)
    return SimplicialObject(cells, SuspensionFaces(), basepoint=BASEPOINT)


# ---------------------------------------------------------------------------
# simplicial maps


class SimplicialMap:
    """A map of simplicial objects given on nondegenerate cells.

    mapping sends each source cell to a ref of the target; the whole
    map is determined by naturality.  It is a dict, or a table that
    computes each image on lookup (`ProductImages`).
    """

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = mapping

    def cell_image(self, cell):
        return self.mapping[cell]

    def ref_image(self, ref):
        cell, alpha = ref
        tcell, gamma = self.mapping[cell]
        return (tcell, surj_compose(gamma, alpha))

    def validate(self):
        # each image is read once, so a table that computes images on
        # lookup computes each once here too
        images = {}
        for c, (tcell, gamma) in self.mapping.items():
            k = self.source.dim_of[c]
            if tcell not in self.target.dim_of:
                raise ValidationError(f"image cell {tcell!r} not in target")
            p = self.target.dim_of[tcell]
            if len(gamma) != k + 1 or gamma[0] != 0 or gamma[-1] != p:
                raise ValidationError(f"bad image word {gamma} on {c!r}")
            images[c] = (tcell, gamma)
        for c, image in images.items():
            k = self.source.dim_of[c]
            if k == 0:
                continue
            image_faces = self.target.faces_of_ref(image, {})
            for i, (fcell, alpha) in enumerate(self.source.faces[c]):
                tcell, gamma = images[fcell]
                if image_faces[i] != (tcell, surj_compose(gamma, alpha)):
                    raise ValidationError(
                        f"map not simplicial at face {i} of {c!r}"
                    )
        if (
            self.source.basepoint is not None
            and self.target.basepoint is not None
        ):
            bp_img = images[self.source.basepoint]
            if bp_img != (self.target.basepoint, (0,)):
                raise ValidationError("map does not preserve the basepoint")
        return True


def same_object(a, b):
    """Structural equality; separately built copies compose fine.  Faces
    are read by subscript, so a table that computes them on lookup is
    compared by its faces, not by the ones it holds so far."""
    return a is b or (
        a.cells == b.cells
        and a.basepoint == b.basepoint
        and all(a.faces[c] == b.faces[c] for k, cs in a.cells.items() if k for c in cs)
    )


def compose_simplicial(g, f):
    if not same_object(f.target, g.source):
        raise ValidationError("simplicial maps do not compose")
    mapping = {c: g.ref_image(r) for c, r in f.mapping.items()}
    return SimplicialMap(f.source, g.target, mapping)


class ProductImages(Mapping):
    """The images of a product map (`product_map`), computed on each
    lookup and never stored.

    A factor given as None is the identity: its coordinate ref is copied
    unchanged.  The image refs are renormalized jointly, since a
    factor's image can add degeneracies shared by all coordinates.  An
    image outside target (a simplex of the collapsed wedge, when target
    is a smash) goes to the basepoint.  Each coordinate's image of a ref
    is computed once and kept, as are the normalizer's memos, for as
    long as the table lives; the images themselves are not kept.
    """

    def __init__(self, maps, source, target):
        self.maps = maps
        self.source = source
        self.target = target
        self.normalize = JointNormalizer()
        self.image_memos = [{} for _ in maps]  # per coordinate: ref -> image ref

    def __getitem__(self, cell):
        dim_of = self.source.dim_of
        if cell not in dim_of:
            raise KeyError(cell)
        if cell == BASEPOINT:
            return (BASEPOINT, (0,))
        refs = []
        for f, memo, ref in zip(self.maps, self.image_memos, cell):
            if f is not None:
                image = memo.get(ref)
                if image is None:
                    image = memo[ref] = f.ref_image(ref)
                ref = image
            refs.append(ref)
        image = self.normalize(refs)
        if image[0] not in self.target.dim_of:
            return (BASEPOINT, surj_zero(dim_of[cell]))
        return image

    def __iter__(self):
        return self.source.all_cells()

    def __len__(self):
        return len(self.source.dim_of)


def product_map(maps, source, target):
    """The map source -> target acting on coordinate j by maps[j] (None
    for the identity).

    source and target are products, or smash products, of the factors'
    sources and targets.  The images are computed on each lookup and
    none is stored (see `ProductImages`).
    """
    return SimplicialMap(source, target, ProductImages(maps, source, target))


def descend_to_quotients(mapping, src_quot, tgt_quot):
    """Push a cell -> ref mapping through quotients on both sides."""
    out = {BASEPOINT: (BASEPOINT, (0,))}
    for c in src_quot.all_cells():
        if c == BASEPOINT:
            continue
        tcell, gamma = mapping[c]
        if tcell in tgt_quot.dim_of:
            out[c] = (tcell, gamma)
        else:
            out[c] = (BASEPOINT, surj_zero(src_quot.dim_of[c]))
    return SimplicialMap(src_quot, tgt_quot, out)


# ---------------------------------------------------------------------------
# tree spaces of partitions


def t_space_top_cells(lam):
    """Maximal chains from lam to the discrete partition, the top cells
    of T(lam): per block of size m, m!(m-1)!/2^(m-1) maximal chains of
    the partition lattice, shuffled by a multinomial coefficient."""
    steps = [len(b) - 1 for b in lam.blocks]
    count = math.factorial(sum(steps))
    for s in steps:
        count //= math.factorial(s)
    for s in steps:
        count *= math.factorial(s + 1) * math.factorial(s) // 2 ** s
    return count


def _check_t_space_size(lam):
    # the support cap first: the top-cell count of a large support has
    # thousands of digits, too many to print
    check_support_cap(lam.support_size)
    top = t_space_top_cells(lam)
    if top > T_SPACE_TOP_CELL_CAP:
        raise CapExceededError(
            f"tree space has {top} top cells, exceeds cap {T_SPACE_TOP_CELL_CAP}"
        )


def _chains_from_min(poset):
    """The chains of the poset that start at its minimum and miss its
    maximum, as lists of index tuples: those of one element, then of
    two, and so on."""
    mx = poset.max_index
    chains = [(poset.min_index,)]
    while chains:
        yield chains
        chains = [
            ch + (j,) for ch in chains for j in poset.strictly_above(ch[-1]) if j != mx
        ]


class ChainFaces(dict):
    """Face table of a space of chains in a poset, computed on each
    lookup and never stored.

    Face i of a k-chain drops its element i and keeps the identity
    word.  The first face falls to the basepoint, and so does the last
    when last_collapses; every other face is again a chain of the space.
    The faces follow from the chain alone, so the boundary reads those
    of chains of three or more elements straight from it
    (`homology._kept_face_sums`); this table serves edges, the checks,
    and the products and smashes with a tree space.
    """

    def __init__(self, last_collapses):
        super().__init__()
        self.last_collapses = last_collapses
        self.ends = {}  # k -> identity word, first face, last face, inner range

    def __missing__(self, chain):
        # only a chain of two or more elements has faces
        if not isinstance(chain, tuple) or len(chain) < 2:
            raise KeyError(chain)
        k = len(chain) - 1
        ends = self.ends.get(k)
        if ends is None:
            head = ((BASEPOINT, surj_zero(k - 1)),)
            tail = head if self.last_collapses else ()
            ends = self.ends[k] = (surj_identity(k - 1), head, tail, range(1, k + 1 - len(tail)))
        ident, head, tail, inner = ends
        return (*head, *[(chain[:i] + chain[i + 1:], ident) for i in inner], *tail)


def t_space(lam):
    """Nerve of the refinement poset of lam modulo its boundary part.

    The boundary consists of the chains missing the minimum or the
    maximum, so the cells left are the chains from the minimum to the
    maximum: their first and last faces fall to the basepoint, and an
    inner face drops one element and stays such a chain.  The faces
    follow from the chain, so they are computed on lookup
    (`ChainFaces`) and none is stored.  For the discrete partition the
    space degenerates to two points, one of them the basepoint.
    """
    _check_t_space_size(lam)
    poset = refinement_poset(lam)
    mn, mx = poset.min_index, poset.max_index
    if mn == mx:
        return SimplicialObject({0: [BASEPOINT, (mn,)]}, {}, basepoint=BASEPOINT)
    cells = {0: [BASEPOINT]}
    for k, chains in enumerate(_chains_from_min(poset), 1):
        cells[k] = [ch + (mx,) for ch in chains]
    return SimplicialObject(cells, ChainFaces(last_collapses=True), basepoint=BASEPOINT)


class TopCycles:
    """A basis of the top cycles of T(lam), built with no elimination
    (Wachs, On the (co)homology of the partition lattice and the free
    Lie algebra, 1998).

    For each block of lam choose a word: the block's least element,
    then its others in any order, prod_b (|b| - 1)! choices w in all
    (`words`).  Cutting a word between two adjacent letters splits its
    block in two, so cutting the e = excess(lam) gaps one at a time, in
    an order pi, gives a maximal chain from lam to the discrete
    partition: a top cell of T(lam).  rho_w = sum over pi of sgn(pi)
    (the chain of pi) is a cycle (`cycle`): its first and last faces
    fall to the basepoint, and its inner face i cancels against that of
    pi with its cuts i and i + 1 swapped.  T(lam) has reduced homology
    in degree e alone, and the rho_w are a basis of it.

    The dual chain of w cuts each block's gaps from right to left, one
    block after another.  It splits off the letters of each word from
    the last one back, so it names w, and it lies in the support of
    rho_w alone, with the sign `sign` of that cut order.  A top cycle's
    coordinate on rho_w is its coefficient on the dual chain of w times
    that sign, read with no elimination (`coordinates`).

    Chains are named as the cells of `t_space`: tuples of indices into
    `poset`.  Gaps are numbered block by block, left to right, and a set
    of cut gaps is a bitmask; each chain is read off the masks of the
    prefixes of its cut order, and each mask's partition is computed
    once per word (`_cut_partitions`).
    """

    __slots__ = ("poset", "at", "words", "orders", "sign", "dual")

    def __init__(self, poset, at, words, orders, sign, dual):
        self.poset = poset
        self.at = at  # blocks of each element -> its index in poset
        self.words = words  # per word choice, one word per block
        self.orders = orders  # per cut order, its sign and the masks of its prefixes
        self.sign = sign
        self.dual = dual  # dual chain -> index of its word choice

    def cycle(self, i):
        """rho_w for the word choice words[i], as top chain -> sign."""
        parts = _cut_partitions(self.at, self.words[i])
        return {tuple(map(parts.__getitem__, masks)): s for s, masks in self.orders}

    def coordinates(self, terms):
        """The coordinates of a top cycle, given as (top chain,
        coefficient) terms, on the rho_w: word index -> nonzero
        coefficient.  Only dual chains are read; the terms must sum to a
        cycle."""
        out = {}
        for chain, c in terms:
            i = self.dual.get(chain)
            if i is not None:
                out[i] = out.get(i, 0) + self.sign * c
        return {i: c for i, c in out.items() if c}


def top_cycles(lam):
    """The top cycles of the tree space of lam (see `TopCycles`)."""
    poset = refinement_poset(lam)
    at = {p.blocks: i for i, p in enumerate(poset.elements)}
    words = tuple(
        itertools.product(
            *([(b[0],) + rest for rest in itertools.permutations(b[1:])] for b in lam.blocks)
        )
    )
    orders = tuple(
        (_permutation_sign(order), _prefix_masks(order))
        for order in itertools.permutations(range(lam.excess))
    )
    dual_order, first = [], 0
    for b in lam.blocks:
        dual_order += range(first + len(b) - 2, first - 1, -1)
        first += len(b) - 1
    masks = _prefix_masks(dual_order)
    dual = {}
    for i, word in enumerate(words):
        parts = _cut_partitions(at, word)
        dual[tuple(parts[mask] for mask in masks)] = i
    return TopCycles(poset, at, words, orders, _permutation_sign(dual_order), dual)


def _cut_partitions(at, word):
    """Per mask of cut gaps, the index (by at) of the partition that
    cutting the words there gives."""
    parts = []
    for mask in range(1 << sum(len(letters) - 1 for letters in word)):
        blocks, gap = [], 0
        for letters in word:
            segment = [letters[0]]
            for x in letters[1:]:
                if mask >> gap & 1:
                    blocks.append(tuple(sorted(segment)))
                    segment = []
                segment.append(x)
                gap += 1
            blocks.append(tuple(sorted(segment)))
        # sorting disjoint blocks as tuples orders them by minimum
        parts.append(at[tuple(sorted(blocks))])
    return parts


def _permutation_sign(order):
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    return -1 if inversions % 2 else 1


def _prefix_masks(order):
    masks = [0]
    for gap in order:
        masks.append(masks[-1] | 1 << gap)
    return tuple(masks)


def t_space_suspension_model(lam):
    """Suspension description: the circle smashed with the nerve of the
    refinement poset minus its maximum, modulo the chains that miss the
    minimum.

    The cells left are the chains from the minimum: the first face of
    each falls to the basepoint, and every other face drops one element
    and stays such a chain (`ChainFaces`, computed on lookup).  Cell
    names index the poset without its maximum, as they would in the
    nerve of that subposet.  The smash with the circle is built in
    closed form (`suspension`), its faces computed on lookup too.
    Requires positive excess; the degenerate case has no suspension
    description.
    """
    if lam.excess == 0:
        raise ValidationError("suspension model needs positive excess")
    _check_t_space_size(lam)
    top = lam.excess * t_space_top_cells(lam)
    if top > SUSPENSION_TOP_CELL_CAP:
        raise CapExceededError(
            f"suspension model has {top} top cells, exceeds cap {SUSPENSION_TOP_CELL_CAP}"
        )
    poset = refinement_poset(lam)
    mx = poset.max_index
    cells = {0: [BASEPOINT]}
    for k, chains in enumerate(_chains_from_min(poset)):
        cells.setdefault(k, []).extend(tuple(i - (i > mx) for i in ch) for ch in chains)
    q = SimplicialObject(cells, ChainFaces(last_collapses=False), basepoint=BASEPOINT)
    return suspension(q)


# ---------------------------------------------------------------------------
# built-in test models and JSON input


def model_points(k):
    names = [f"p{i}" for i in range(k)]
    return SimplicialObject({0: names}, {})


def model_interval():
    faces = {"e": (("v1", (0,)), ("v0", (0,)))}
    return SimplicialObject({0: ["v0", "v1"], 1: ["e"]}, faces)


def model_circle(pointed=False):
    faces = {"e": (("v", (0,)), ("v", (0,)))}
    return SimplicialObject(
        {0: ["v"], 1: ["e"]}, faces, basepoint="v" if pointed else None
    )


def model_wedge_of_circles(k, pointed=False):
    names = [f"e{i}" for i in range(k)]
    faces = {e: (("v", (0,)), ("v", (0,))) for e in names}
    return SimplicialObject(
        {0: ["v"], 1: names}, faces, basepoint="v" if pointed else None
    )


def check_cell_id(value, what):
    """value, when it can name a cell: a string or an integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f"{what} {value!r} is not a string or an integer")
    return value


def model_from_json(data):
    """Build a model from {"cells": [{"id", "dim", "faces"}], "basepoint"?}.

    Faces are lists of cell ids; all faces must be nondegenerate, which
    covers ordered complexes and circle-like identifications.

    More than CUBE_GENERATOR_CAP cells are refused before any is built:
    a cube of covers has at least one generator per cell, and a power
    of support 2 or more in a layer at least the square of the cell
    count, over PRODUCT_CELL_CAP long before.
    """
    from .homology import CUBE_GENERATOR_CAP

    try:
        items = list(data["cells"])
    except (TypeError, KeyError) as exc:
        raise ValidationError("model JSON needs a 'cells' list") from exc
    if len(items) > CUBE_GENERATOR_CAP:
        raise CapExceededError(
            f"model has {len(items)} cells, exceeds cap {CUBE_GENERATOR_CAP}"
        )
    cells = {}
    dims = {}
    for item in items:
        try:
            cid, dim = item["id"], item["dim"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(
                "each entry of 'cells' needs 'id' and 'dim' fields"
            ) from exc
        check_cell_id(cid, "cell id")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValidationError(f"cell {cid!r} has bad dimension {dim!r}")
        if cid in dims:
            raise ValidationError(f"duplicate cell id {cid!r}")
        dims[cid] = dim
        cells.setdefault(dim, []).append(cid)
    faces = {}
    for item in items:
        cid, dim = item["id"], item["dim"]
        listed = item.get("faces", [])
        if not isinstance(listed, list):
            raise ValidationError(f"faces of {cid!r} must be a list of cell ids")
        if dim == 0:
            if listed:
                raise ValidationError(f"vertex {cid!r} cannot have faces")
            continue
        if len(listed) != dim + 1:
            raise ValidationError(
                f"cell {cid!r} of dimension {dim} needs {dim + 1} faces"
            )
        refs = []
        for fid in listed:
            if check_cell_id(fid, f"face of {cid!r}") not in dims:
                raise ValidationError(f"cell {cid!r} lists unknown face {fid!r}")
            if dims[fid] != dim - 1:
                raise ValidationError(
                    f"face {fid!r} of {cid!r} has dimension {dims[fid]}, expected {dim - 1}"
                )
            refs.append((fid, surj_identity(dim - 1)))
        faces[cid] = tuple(refs)
    basepoint = data.get("basepoint")
    if basepoint is not None:
        check_cell_id(basepoint, "basepoint")
    obj = SimplicialObject(cells, faces, basepoint=basepoint)
    obj.validate()
    return obj

