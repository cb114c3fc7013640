"""Homology of finite simplicial objects over Z, Q and prime fields.

Normalized chains: one generator per nondegenerate cell, faces with a
degenerate normal form contribute nothing.  One face-sum routine feeds
every boundary matrix: the chains of an object, the tensor chains of a
stratum, and through the chains of its corners the total cofiber of a
cube of subobjects.  Every complex is first
reduced along unit pairs (coreductions, Mrozek-Batko), which leaves a
chain-homotopy-equivalent subcomplex; a tree space keeps only its
top-degree homology generators and needs no elimination at all.  The
reduction holds the complex in flat integer arrays, each generator's
faces with their coefficients and its cofaces, not in a dict per
generator.
Every ring is then read off one chain of elementary divisors per
boundary, computed by the sparse kernel: over Z and Q each divisor adds
to the rank, over F_p those that p does not divide, and over Z the
divisors above 1 are the torsion.  The mod-p Gaussian elimination and
the dense Smith form are reference routes for the checks, not used here.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from operator import add, itemgetter, sub

from .errors import CapExceededError, ValidationError
from .kernel import sparse_elementary_divisors
from .simplicial import _debug, subobject, surj_identity

# a cube has 2^d corners: 12 interval covers take 0.5 s and 50 MB, and
# each further cover doubles both
COVER_CAP = 12
# the primality test is trial division: 46,340 steps at this bound
PRIME_CAP = 2**31 - 1


def parse_coefficients(spec):
    """Accept "Z", "Q" or "F<p>" for a prime p written in ASCII digits
    without sign or leading zero; return ("Z", None), ("Q", None) or
    ("F", p).  One spelling per ring keeps one digest per computation."""
    if spec in ("Z", "Q"):
        return (spec, None)
    if not re.fullmatch(r"F[1-9][0-9]*", spec):
        raise ValidationError(f"bad coefficient spec {spec!r}")
    # the length test comes first: int() refuses very long digit strings
    if len(spec) - 1 > len(str(PRIME_CAP)) or int(spec[1:]) > PRIME_CAP:
        raise ValidationError(f"coefficient prime exceeds cap {PRIME_CAP}")
    p = int(spec[1:])
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise ValidationError(f"{p} is not prime")
    return ("F", p)


# ---------------------------------------------------------------------------
# chain complexes


@dataclass
class ChainComplex:
    """ranks[k] generators in degree k; entries[k] is the boundary
    C_k -> C_{k-1} as (row, col, value) triples.  An augmented complex
    carries a degree -1 rank of 1 and entries[0]."""

    ranks: dict
    entries: dict
    labels: dict | None = None

    def degrees(self):
        return sorted(k for k in self.ranks if k >= 0)

    def boundary(self, k):
        return self.entries.get(k, [])

    def validate(self):
        for k, es in self.entries.items():
            n_from = self.ranks.get(k, 0)
            n_to = self.ranks.get(k - 1, 0)
            for i, j, v in es:
                if not (0 <= i < n_to and 0 <= j < n_from):
                    raise ValidationError(f"boundary entry out of range in degree {k}")
                if v == 0:
                    raise ValidationError(f"explicit zero entry in degree {k}")
        for k in list(self.entries):
            if k - 1 not in self.entries:
                continue
            # compose boundary maps and demand zero
            lower = {}
            for i, j, v in self.entries[k - 1]:
                lower.setdefault(j, {})[i] = v
            acc = {}
            for i, j, v in self.entries[k]:
                row = lower.get(i)
                if not row:
                    continue
                for ii, w in row.items():
                    key = (ii, j)
                    acc[key] = acc.get(key, 0) + v * w
            if any(val != 0 for val in acc.values()):
                raise ValidationError(f"boundary squared nonzero from degree {k}")
        return True


def _kept_face_sums(obj, drop):
    """Each cell outside drop with its boundary in normalized chains: the
    alternating sum of its faces that are nondegenerate and outside
    drop, as face -> nonzero coefficient."""
    for k in sorted(obj.cells):
        ident = surj_identity(k - 1)
        for c in obj.cells[k]:
            if c in drop:
                continue
            acc = {}
            for i, (t, alpha) in enumerate(obj.faces[c] if k else ()):
                if alpha == ident and t not in drop:
                    acc[t] = acc.get(t, 0) + (-1 if i % 2 else 1)
            yield c, {t: v for t, v in acc.items() if v}


def chain_complex(obj, reduced=True):
    """Normalized chains of a simplicial object.

    Pointed objects reduce relative to the basepoint; unpointed ones
    get an augmentation in degree -1.
    """
    pointed = obj.basepoint is not None
    drop = {obj.basepoint} if reduced and pointed else ()
    basis = {k: [c for c in obj.cells[k] if c not in drop] for k in sorted(obj.cells)}
    index = {c: i for names in basis.values() for i, c in enumerate(names)}
    ranks = {k: len(v) for k, v in basis.items()}
    entries = {k: [] for k in basis if k}
    for c, faces in _kept_face_sums(obj, drop):
        if faces:
            entries[obj.dim_of[c]] += [(index[t], index[c], v) for t, v in faces.items()]
    if reduced and not pointed:
        ranks[-1] = 1
        entries[0] = [(0, j, 1) for j in range(ranks.get(0, 0))]
    return ChainComplex(ranks=ranks, entries=entries, labels=basis)


def tensor_chain_complex(a, b, drop_a, drop_b, class_of):
    """Normalized chains of a tensored with those of b, divided by the
    identifications class_of makes.

    A generator x (x) y pairs a cell x of a outside drop_a with a cell y
    of b outside drop_b; class_of sends each generator to its class.
    The classes are the generators of the result, per degree in order of
    first appearance.  The boundary of
    a class is d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy for its first
    member, read through class_of; dropped and degenerate faces are zero.
    The caller's classes must be compatible with this boundary.
    """
    da, db = dict(_kept_face_sums(a, drop_a)), dict(_kept_face_sums(b, drop_b))
    index = {}  # class -> position within its degree
    members = {}  # degree -> first member of each class
    for x in da:
        for y in db:
            c = class_of[(x, y)]
            if c not in index:
                firsts = members.setdefault(a.dim_of[x] + b.dim_of[y], [])
                index[c] = len(firsts)
                firsts.append((x, y))
    entries = {}
    for k, firsts in members.items():
        if k == 0:
            continue
        es = []
        for j, (x, y) in enumerate(firsts):
            sign = -1 if a.dim_of[x] % 2 else 1
            terms = [((f, y), v) for f, v in da[x].items()]
            terms += [((x, f), sign * v) for f, v in db[y].items()]
            acc = {}
            for gen, v in terms:
                i = index[class_of[gen]]
                acc[i] = acc.get(i, 0) + v
            es.extend((i, j, v) for i, v in acc.items() if v)
        entries[k] = es
    ranks = {k: len(firsts) for k, firsts in members.items()}
    return ChainComplex(ranks=ranks, entries=entries, labels=members)


def reduce_complex(cx):
    """The subcomplex left after removing unit pairs, homotopy equivalent
    to cx over Z and hence over every field.

    A generator a is paired with b when <da, b> = +-1 and either b is
    the only remaining face of a or a the only remaining coface of b.
    Such a pair's Schur complement has no fill, so the survivors keep
    their original entries.  Generators are visited first-in first-out
    in (degree, index) order and neighbours of a removed pair requeued;
    a last-in first-out order stalls far from a perfect matching on tree
    spaces.  Entries other than +-1 are never paired, so torsion stays.

    The complex is held in flat arrays: each generator's faces with
    their coefficients and its cofaces, each run starting at the
    generator's offset, with live-neighbour counts and an alive flag
    per generator.  Entries that repeat a (row, col) are summed first
    and a sum of 0 is dropped; faces and cofaces keep the order in
    which their entries were first given (a dict's insertion order).
    """
    offset, n = {}, 0
    for k in sorted(cx.ranks):
        offset[k] = n
        n += cx.ranks[k]
    blocks = [(offset[k], offset[k - 1], es) for k, es in cx.entries.items() if es]
    start, face, coef = _runs(blocks, n, by_column=True)
    runs = map(face.__getitem__, map(slice, start, start[1:]))
    if 0 in coef or sum(map(len, map(set, runs))) < len(face):
        blocks = [(col, row, _summed(es)) for col, row, es in blocks]
        start, face, coef = _runs(blocks, n, by_column=True)
    cstart, coface, _ = _runs(blocks, n, by_column=False)
    # live face and coface counts: lists, as they are small ints
    nf, nc = list(map(sub, start[1:], start)), list(map(sub, cstart[1:], cstart))
    alive = bytearray(b"\x01") * n
    # first in first out: each batch is what the one before requeued
    batch = range(n)
    while batch:
        queue = array("q")
        for g in batch:
            if not alive[g]:
                continue
            h = None
            if nf[g] == 1:
                s = start[g]
                while not alive[face[s]]:
                    s += 1
                if coef[s] in (1, -1):
                    h = face[s]
            if h is None and nc[g] == 1:
                s = cstart[g]
                while not alive[coface[s]]:
                    s += 1
                c = coface[s]
                t = start[c]
                while face[t] != g:
                    t += 1
                if coef[t] in (1, -1):
                    h = c
            if h is None:
                continue
            # a neighbour that dies with the pair is not requeued: it
            # would be skipped when it came up
            alive[g] = alive[h] = 0
            for x in (g, h):
                for f in face[start[x]:start[x + 1]]:
                    if alive[f]:
                        nc[f] -= 1
                        queue.append(f)
                for c in coface[cstart[x]:cstart[x + 1]]:
                    if alive[c]:
                        nf[c] -= 1
                        queue.append(c)
        batch = queue
    ranks, entries, index = {}, {}, {}
    for k, first in offset.items():
        keep = [first + i for i in range(cx.ranks[k]) if alive[first + i]]
        ranks[k] = len(keep)
        index.update((g, new) for new, g in enumerate(keep))
    for k in cx.entries:
        first = offset.get(k, 0)
        entries[k] = [
            (index[face[s]], index[g], coef[s])
            for g in range(first, first + cx.ranks.get(k, 0))
            if alive[g]
            for s in range(start[g], start[g + 1])
            if alive[face[s]]
        ]
    return ChainComplex(ranks=ranks, entries=entries)


def _runs(blocks, n, by_column):
    """Each generator's faces (by_column) or cofaces, as one flat array
    of neighbours with the coefficients alongside and a start offset per
    generator.  blocks holds (first column, first row, entries) per
    degree; each generator's run keeps the order its entries are given
    in."""
    mine, theirs = (itemgetter(1), itemgetter(0)) if by_column else (itemgetter(0), itemgetter(1))
    count = array("q", [0]) * (n + 1)
    neighbours, coef = array("q"), []
    for col, row, es in sorted(blocks, key=itemgetter(0)):
        base, other = (col, row) if by_column else (row, col)
        es = sorted(es, key=mine)  # stable: each run in the given order
        neighbours.extend(map(add, itertools.repeat(other), map(theirs, es)))
        coef.extend(map(itemgetter(2), es))
        for x, c in Counter(map(mine, es)).items():
            count[base + x + 1] = c
    return array("q", itertools.accumulate(count)), neighbours, coef


def _summed(es):
    """The entries with each repeated (row, col) summed and a sum of 0
    dropped, in the order a dict keyed by (row, col) would hold them."""
    acc = {}
    for i, j, v in es:
        w = acc.get((i, j), 0) + v
        if w:
            acc[i, j] = w
        else:
            acc.pop((i, j), None)
    return [(i, j, v) for (i, j), v in acc.items()]


def _euler(cx):
    return sum((-1) ** k * r for k, r in cx.ranks.items())


# ---------------------------------------------------------------------------
# rank computations


def rank_mod_p(entries, nrows, ncols, p):
    """Rank over F_p by plain Gaussian elimination: the reference mod-p
    route, independent of the kernel.  Homology reads F_p ranks off the
    kernel's divisors instead; this one serves the tests."""
    rows = {}
    for i, j, v in entries:
        r = rows.setdefault(i, {})
        w = (r.get(j, 0) + v) % p
        if w:
            r[j] = w
        elif j in r:
            del r[j]
    rank = 0
    rows = [r for r in rows.values() if r]
    while rows:
        row = rows.pop()
        if not row:
            continue
        rank += 1
        pj = min(row)
        inv = pow(row[pj], -1, p)
        row = {j: (v * inv) % p for j, v in row.items()}
        nxt = []
        for other in rows:
            c = other.get(pj)
            if c:
                for j, v in row.items():
                    w = (other.get(j, 0) - c * v) % p
                    if w:
                        other[j] = w
                    elif j in other:
                        del other[j]
            if other:
                nxt.append(other)
        rows = nxt
    return rank


# ---------------------------------------------------------------------------
# homology groups


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple  # invariant factors > 1, in divisibility order

    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


@dataclass
class HomologyResult:
    coefficients: str
    reduced: bool
    groups: dict  # degree -> HomologyGroup

    def group(self, k):
        return self.groups.get(k, HomologyGroup(0, ()))

    def euler(self):
        return sum((-1) ** k * g.rank for k, g in self.groups.items() if k >= 0)

    def max_degree(self):
        live = [k for k, g in self.groups.items() if not g.is_zero()]
        return max(live) if live else None

    def is_acyclic(self):
        return all(g.is_zero() for g in self.groups.values())

    def groups_json(self):
        """The nonzero groups by degree and the Euler characteristic."""
        return {
            "groups": {
                str(k): g.to_json()
                for k, g in sorted(self.groups.items())
                if not g.is_zero()
            },
            "euler": self.euler(),
        }

    def to_json(self):
        return {
            "coefficients": self.coefficients,
            "reduced": self.reduced,
            **self.groups_json(),
        }


def homology_of_complex(cx, coefficients="Z"):
    """The homology groups of a chain complex, by degree."""
    kind, p = parse_coefficients(coefficients)
    small = reduce_complex(cx)
    if _debug():
        small.validate()
        if _euler(small) != _euler(cx):
            raise ValidationError("reduction changed the Euler characteristic")
    cx = small
    top = max(cx.degrees(), default=-1)
    boundary_rank, torsion = {}, {}
    for k in range(top + 2):
        n_from, n_to = cx.ranks.get(k, 0), cx.ranks.get(k - 1, 0)
        d = sparse_elementary_divisors(cx.boundary(k), n_to, n_from) if n_from and n_to else []
        # a divisor is a unit over Q, and over F_p unless p divides it
        boundary_rank[k] = sum(1 for x in d if x % p) if kind == "F" else len(d)
        torsion[k] = tuple(x for x in d if x > 1) if kind == "Z" else ()
    return {
        k: HomologyGroup(
            cx.ranks.get(k, 0) - boundary_rank[k] - boundary_rank[k + 1], torsion[k + 1]
        )
        for k in range(top + 1)
    }


def homology(obj, coefficients="Z", reduced=True):
    """Homology of a simplicial object; reduced by default."""
    cx = chain_complex(obj, reduced=reduced)
    groups = homology_of_complex(cx, coefficients)
    return HomologyResult(coefficients=coefficients, reduced=reduced, groups=groups)


# ---------------------------------------------------------------------------
# dense Smith form with transforms


def smith_normal_form(matrix):
    """Diagonalize an integer matrix: returns (d, u, v) with u * a * v = d,
    u and v unimodular, diagonal entries in a divisibility chain."""
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        for t in range(n):
            a[dst][t] += q * a[src][t]
        for t in range(m):
            u[dst][t] += q * u[src][t]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # locate a pivot of least absolute value
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = -(a[i][t] // a[t][t])
                    add_row(t, i, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = -(a[t][j] // a[t][t])
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # force divisibility into the remaining block
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    d = a
    return d, u, v


def diagonal_of(d):
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(abs(d[i][i]))
    return out


# ---------------------------------------------------------------------------
# total cofibers of cubes of subobjects


def cube_cofiber(corners):
    """Chain complex of the total cofiber of a cube of subobjects.

    corners maps each subset U of the directions 0..d-1 to an object,
    and the corner at U must be a subobject of the corner at U + {i}.
    A generator (U, x), x a cell of the corner at U, sits in degree
    |x| + d - |U|; its boundary is (-1)^|U| (U, dx) plus, for each i
    outside U, (-1)^#{j outside U : j < i} (U + {i}, x).
    """
    d = len(frozenset().union(*corners))
    chains = {U: chain_complex(obj, reduced=False) for U, obj in corners.items()}
    ranks, offset, index = {}, {}, {}  # offset[U, k]: first row of U's k-cells
    for U, cx in chains.items():
        index[U] = {c: i for names in cx.labels.values() for i, c in enumerate(names)}
        for k, n in cx.ranks.items():
            offset[U, k] = ranks.get(k + d - len(U), 0)
            ranks[k + d - len(U)] = offset[U, k] + n
    entries = {k: [] for k in ranks if k > 0}
    for U, cx in chains.items():
        shift, sign = d - len(U), (-1) ** len(U)
        for k, es in cx.entries.items():
            entries[k + shift] += [
                (offset[U, k - 1] + i, offset[U, k] + j, sign * v) for i, j, v in es
            ]
        outside = [i for i in range(d) if i not in U]
        for pos, i in enumerate(outside):
            V = U | {i}
            _check_subobject(corners[U], corners[V])
            for k, names in cx.labels.items():
                entries[k + shift] += [
                    (offset[V, k] + index[V][c], offset[U, k] + j, (-1) ** pos)
                    for j, c in enumerate(names)
                ]
    return ChainComplex(ranks=ranks, entries=entries)


def _check_subobject(small, big):
    for c, k in small.dim_of.items():
        if big.dim_of.get(c) != k or (k and small.faces[c] != big.faces[c]):
            raise ValidationError(f"cube corner is not a subobject: cell {c!r} differs")


def cube_acyclicity(corners, coefficients="Z"):
    """Whether the total cofiber of a cube of subobjects vanishes in homology."""
    groups = homology_of_complex(cube_cofiber(corners), coefficients)
    result = HomologyResult(coefficients=coefficients, reduced=False, groups=groups)
    return result.is_acyclic(), result


def cover_cube(obj, covers):
    """Corners of the cube of intersections of a family of subcomplexes
    covering obj: the corner at U is the intersection of the covers
    outside U, and the full subset is the whole object.  More than
    COVER_CAP covers is refused before any corner is built."""
    if len(covers) > COVER_CAP:
        raise CapExceededError(f"{len(covers)} covers exceed cap {COVER_CAP}")
    cells = set(obj.dim_of)
    cover_sets = [set(c) for c in covers]
    union = set().union(*cover_sets)
    if union != cells:
        missing = sorted(cells - union, key=repr)[:3]
        if missing:
            raise ValidationError(f"covers miss cells, e.g. {missing}")
        unknown = sorted(union - cells, key=repr)[:3]
        raise ValidationError(f"covers name unknown cells, e.g. {unknown}")
    d = len(covers)
    corners = {}
    for r in range(d + 1):
        for U in itertools.combinations(range(d), r):
            outside = [s for i, s in enumerate(cover_sets) if i not in U]
            corners[frozenset(U)] = subobject(obj, cells.intersection(*outside)) if r < d else obj
    return corners


def cover_acyclicity(obj, covers, coefficients="Z"):
    """Whether the total cofiber of the cover cube vanishes in homology."""
    return cube_acyclicity(cover_cube(obj, covers), coefficients)
