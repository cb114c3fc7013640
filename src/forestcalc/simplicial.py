"""Finite simplicial sets with explicit degeneracy bookkeeping.

A simplicial set is presented by its nondegenerate cells.  Faces are
recorded as refs: a ref (cell, alpha) stands for the simplex obtained
from a nondegenerate cell by the degeneracy operator encoded as the
monotone surjection alpha, stored by its values.  Every simplex has a
unique such normal form, so products, quotients and maps can all be
computed concretely.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from .errors import CapExceededError, ValidationError
from .partitions import refinement_poset

BASEPOINT = "*"
PRODUCT_DIM_CAP = 6
T_SPACE_TOP_CELL_CAP = 56_700  # T7 takes about 12 s end to end; T8 has 1,587,600


def _debug():
    return bool(os.environ.get("FORESTCALC_DEBUG"))


def sort_key(name):
    return repr(name)


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


def surjections(k, p):
    """All monotone surjections [k] -> [p], in lexicographic order."""
    for inc in itertools.combinations(range(k), p):
        alpha = [0]
        incs = set(inc)
        for t in range(k):
            alpha.append(alpha[-1] + (1 if t in incs else 0))
        yield tuple(alpha)


# ---------------------------------------------------------------------------


class SimplicialObject:
    """Nondegenerate cells per dimension plus a face table of refs."""

    def __init__(self, cells, faces, basepoint=None, validate=False):
        self.cells = {
            k: tuple(sorted(v, key=sort_key)) for k, v in cells.items() if v
        }
        self.faces = dict(faces)
        self.basepoint = basepoint
        self.dim_of = {}
        for k, names in self.cells.items():
            for c in names:
                if c in self.dim_of:
                    raise ValidationError(f"cell name {c!r} used in two dimensions")
                self.dim_of[c] = k
        if basepoint is not None and self.dim_of.get(basepoint) != 0:
            raise ValidationError("basepoint must be a dimension-0 cell")
        if validate or _debug():
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

    def face_of_ref(self, ref, i):
        """The i-th face of an arbitrary simplex in normal form."""
        cell, alpha = ref
        j, beta = surj_face(alpha, i)
        if j is None:
            return (cell, beta)
        fcell, gamma = self.faces[cell][j]
        return (fcell, surj_compose(gamma, beta))

    def validate(self):
        for k, names in self.cells.items():
            if k == 0:
                continue
            for c in names:
                refs = self.faces.get(c)
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
                for j in range(1, k + 1):
                    for i in range(j):
                        left = self.face_of_ref(self.faces[c][j], i)
                        right = self.face_of_ref(self.faces[c][i], j - 1)
                        if left != right:
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


def _joint_surjection_tuples(dims):
    """Jointly nondegenerate tuples of monotone surjections onto [dims_i]."""
    m = len(dims)
    out = []
    cur = [[0] for _ in range(m)]

    def rec():
        if all(cur[i][-1] == dims[i] for i in range(m)):
            out.append(tuple(tuple(a) for a in cur))
        for mask in range(1, 1 << m):
            bits = [i for i in range(m) if mask >> i & 1]
            if any(cur[i][-1] >= dims[i] for i in bits):
                continue
            for i in range(m):
                cur[i].append(cur[i][-1] + (1 if i in bits else 0))
            rec()
            for i in range(m):
                cur[i].pop()

    rec()
    return out


def joint_normalize(refs):
    """Normal form of a tuple of refs as a product simplex.

    Strips the degeneracy positions shared by every coordinate and
    returns (product cell name, outer word).
    """
    k1 = len(refs[0][1])
    for _, a in refs:
        if a[-1] == k1 - 1:
            # an identity word shares no degeneracy position
            return tuple(refs), a
    shared = [
        t
        for t in range(k1 - 1)
        if all(a[t] == a[t + 1] for (_, a) in refs)
    ]
    if not shared:
        return tuple(refs), surj_identity(k1 - 1)
    remove = {t + 1 for t in shared}
    stripped = tuple(
        (c, tuple(a[t] for t in range(k1) if t not in remove)) for (c, a) in refs
    )
    shared_set = set(shared)
    tau = [0]
    for t in range(k1 - 1):
        tau.append(tau[-1] + (0 if t in shared_set else 1))
    return stripped, tuple(tau)


def product(factors):
    """Product of finitely many simplicial objects.

    Cells are jointly nondegenerate tuples of refs; faces are computed
    coordinatewise and renormalized.  Pointed when every factor is.
    """
    if not factors:
        raise ValidationError("product needs at least one factor")
    top = sum(f.dimension for f in factors)
    if top > PRODUCT_DIM_CAP:
        raise CapExceededError(f"product dimension {top} exceeds cap {PRODUCT_DIM_CAP}")
    cells = {}
    for combo in itertools.product(*[list(f.all_cells()) for f in factors]):
        dims = [factors[i].dim_of[c] for i, c in enumerate(combo)]
        for alphas in _joint_surjection_tuples(dims):
            name = tuple((combo[i], alphas[i]) for i in range(len(factors)))
            k = len(alphas[0]) - 1
            cells.setdefault(k, []).append(name)
    faces = {}
    for k, names in cells.items():
        if k == 0:
            continue
        for name in names:
            fs = []
            for i in range(k + 1):
                sub = [
                    factors[j].face_of_ref(name[j], i) for j in range(len(factors))
                ]
                fs.append(joint_normalize(sub))
            faces[name] = tuple(fs)
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
    """Smash product of pointed objects: product over wedge."""
    if a.basepoint is None or b.basepoint is None:
        raise ValidationError("smash needs basepoints on both factors")
    prod = product([a, b])
    wedge = [
        cell
        for cell in prod.all_cells()
        if cell[0][0] == a.basepoint or cell[1][0] == b.basepoint
    ]
    return quotient(prod, wedge)


# ---------------------------------------------------------------------------
# simplicial maps


@dataclass
class SimplicialMap:
    """A map of simplicial objects given on nondegenerate cells.

    mapping sends each source cell to a ref of the target; the whole
    map is determined by naturality.
    """

    source: SimplicialObject
    target: SimplicialObject
    mapping: dict

    def cell_image(self, cell):
        return self.mapping[cell]

    def ref_image(self, ref):
        cell, alpha = ref
        tcell, gamma = self.mapping[cell]
        return (tcell, surj_compose(gamma, alpha))

    def validate(self):
        for c, (tcell, gamma) in self.mapping.items():
            k = self.source.dim_of[c]
            if tcell not in self.target.dim_of:
                raise ValidationError(f"image cell {tcell!r} not in target")
            p = self.target.dim_of[tcell]
            if len(gamma) != k + 1 or gamma[0] != 0 or gamma[-1] != p:
                raise ValidationError(f"bad image word {gamma} on {c!r}")
        for c in self.mapping:
            k = self.source.dim_of[c]
            if k == 0:
                continue
            for i in range(k + 1):
                left = self.target.face_of_ref(self.cell_image(c), i)
                right = self.ref_image(self.source.face(c, i))
                if left != right:
                    raise ValidationError(
                        f"map not simplicial at face {i} of {c!r}"
                    )
        if (
            self.source.basepoint is not None
            and self.target.basepoint is not None
        ):
            bp_img = self.mapping[self.source.basepoint]
            if bp_img != (self.target.basepoint, (0,)):
                raise ValidationError("map does not preserve the basepoint")
        return True


def same_object(a, b):
    """Structural equality; separately built copies compose fine."""
    return a is b or (
        a.cells == b.cells and a.faces == b.faces and a.basepoint == b.basepoint
    )


def compose_simplicial(g, f):
    if not same_object(f.target, g.source):
        raise ValidationError("simplicial maps do not compose")
    mapping = {c: g.ref_image(r) for c, r in f.mapping.items()}
    return SimplicialMap(f.source, g.target, mapping)


def product_map(maps, source, target):
    """The map source -> target acting on coordinate j by maps[j].

    source and target are products, or smash products, of the factors'
    sources and targets.  A factor given as None is the identity: its
    coordinate ref is copied unchanged.  The image refs are renormalized
    jointly, since a factor's image can add degeneracies shared by all
    coordinates.  An image outside target (a simplex of the collapsed
    wedge, when target is a smash) goes to the basepoint.
    """
    mapping = {}
    for cell in source.all_cells():
        if cell == BASEPOINT:
            mapping[cell] = (BASEPOINT, (0,))
            continue
        image = joint_normalize(
            [ref if f is None else f.ref_image(ref) for f, ref in zip(maps, cell)]
        )
        if image[0] not in target.dim_of:
            image = (BASEPOINT, surj_zero(source.dim_of[cell]))
        mapping[cell] = image
    return SimplicialMap(source, target, mapping)


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
    top = t_space_top_cells(lam)
    if top > T_SPACE_TOP_CELL_CAP:
        raise CapExceededError(
            f"tree space has {top} top cells, exceeds cap {T_SPACE_TOP_CELL_CAP}"
        )


def t_space(lam):
    """Nerve of the refinement poset of lam modulo its boundary part.

    The boundary consists of the chains missing the minimum or the
    maximum, so the cells left are the chains from the minimum to the
    maximum: their first and last faces fall to the basepoint, and an
    inner face drops one element and stays such a chain.  For the
    discrete partition the space degenerates to two points, one of them
    the basepoint.
    """
    _check_t_space_size(lam)
    poset = refinement_poset(lam)
    mn, mx = poset.min_index, poset.max_index
    if mn == mx:
        return SimplicialObject({0: [BASEPOINT, (mn,)]}, {}, basepoint=BASEPOINT)
    cells = {0: [BASEPOINT]}
    faces = {}
    chains, k = [(mn,)], 1  # chains from the minimum that miss the maximum
    while chains:
        ident = surj_identity(k - 1)
        collapsed = (BASEPOINT, surj_zero(k - 1))
        cells[k] = [ch + (mx,) for ch in chains]
        for cell in cells[k]:
            inner = tuple((cell[:i] + cell[i + 1:], ident) for i in range(1, k))
            faces[cell] = (collapsed,) + inner + (collapsed,)
        chains = [
            ch + (j,) for ch in chains for j in poset.strictly_above(ch[-1]) if j != mx
        ]
        k += 1
    return SimplicialObject(cells, faces, basepoint=BASEPOINT)


def t_space_suspension_model(lam):
    """Suspension description: circle smashed with a quotient of nerves.

    Uses the subposet below the maximum; requires positive excess, the
    degenerate case has no suspension description.
    """
    if lam.excess == 0:
        raise ValidationError("suspension model needs positive excess")
    _check_t_space_size(lam)
    poset = refinement_poset(lam)
    mx = poset.max_index
    mn = poset.min_index
    keep = [i for i in range(len(poset.elements)) if i != mx]
    sub = poset.restrict(keep)
    # index of lam inside the restricted poset
    lam_idx = sub.index[poset.elements[mn]]
    n = nerve(sub)
    away = [c for c in n.all_cells() if lam_idx not in c]
    q = quotient(n, away)
    return smash(model_circle(pointed=True), q)


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
    """
    try:
        items = list(data["cells"])
    except (TypeError, KeyError) as exc:
        raise ValidationError("model JSON needs a 'cells' list") from exc
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

