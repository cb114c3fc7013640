"""Homology of finite simplicial objects over Z, Q and prime fields.

Normalized chains: one generator per nondegenerate cell, faces with a
degenerate normal form contribute nothing.  A complex holds its boundary
as runs: each generator's faces and their coefficients, in flat lists
over one numbering of the generators: by degree, then in the order the
builder lists them.  One routine lays the runs out, in the same pass
that sums each cell's faces, for every boundary: the chains of an
object, the tensor chains of a stratum, and the total cofiber of a cube
of subobjects, summed from its corners' faces with no complex built per
corner.  The checks read the runs as they lie; (row, col, value)
triples are made only for the boundaries that reach the kernel, and
for callers that ask for them.  Every complex is first
reduced along unit pairs (coreductions, Mrozek-Batko), which leaves a
chain-homotopy-equivalent subcomplex; a tree space keeps only its
top-degree homology generators and needs no elimination at all.  The
reduction reads the runs as they are and finds the cofaces by one
counting pass, with no sort.
Every ring is then read off one chain of elementary divisors per
boundary, computed by the sparse kernel: over Z and Q each divisor adds
to the rank, over F_p those that p does not divide, and over Z the
divisors above 1 are the torsion.  The mod-p Gaussian elimination and
the dense Smith form are reference routes for the checks, not used here.
"""

import itertools
import re
from collections import Counter
from operator import sub

from .errors import CapExceededError, ValidationError
from .kernel import sparse_elementary_divisors
from .partitions import Frozen
from .simplicial import ChainFaces, _debug, product_counts, subobject, surj_identity

# a cube has 2^d corners: 12 interval covers take about 0.4 s and 35 MB,
# and each further cover doubles both
COVER_CAP = 12
# (U, x) generators of a cube's total cofiber, counted before any corner
# is built.  Near the cap a cube costs no more than wedge:2 at n = 2
# (4.9 s and 142 MB): a fan of 39 cells under 12 full covers (159,744
# generators) takes about 2.3 s and 121 MB, one of 42,003 cells under 2
# (168,012) about 2.5 s and 147 MB; 100 points under 12 (409,600) took
# 6.3 s and 298 MB when only the covers were counted
CUBE_GENERATOR_CAP = 170_000
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


class ChainComplex:
    """Chains with ranks[k] generators in degree k, numbered in one
    sequence by increasing degree: offset[k] is the number of the first
    generator of degree k.  An augmented complex carries a degree -1
    rank of 1.

    The boundary is held as runs in flat lists: generator g's faces are
    face[start[g]:start[g + 1]], by number, with their coefficients
    alongside in coef.  It is given as runs, one dict face number ->
    nonzero coefficient per generator in numbering order, which one
    routine lays out (`_lay_out`); `entries` and `boundary` give the
    boundary back as (row, col, value) triples.
    """

    def __init__(self, ranks, runs):
        self.ranks = ranks
        self.offset = _offsets(ranks)
        self.start, self.face, self.coef = _lay_out(runs)

    def degrees(self):
        return sorted(k for k in self.ranks if k >= 0)

    def boundary(self, k):
        """The boundary C_k -> C_{k-1} as (row, col, value) triples."""
        if k not in self.ranks or k - 1 not in self.ranks:
            return []
        col, row = self.offset[k], self.offset[k - 1]
        start, face, coef = self.start, self.face, self.coef
        return [
            (face[s] - row, g - col, coef[s])
            for g in range(col, col + self.ranks[k])
            for s in range(start[g], start[g + 1])
        ]

    @property
    def entries(self):
        return {k: self.boundary(k) for k in sorted(self.ranks) if k - 1 in self.ranks}

    def block(self, generators):
        """The diagonal block on generators, numbers given increasing:
        each keeps its faces among them, renumbered in that order, and a
        degree keeps a rank only if it holds one of them.  A complex
        when no face of theirs outside them has a face among them."""
        number = {g: i for i, g in enumerate(generators)}
        ranks = {}
        for k, first in self.offset.items():
            count = sum(first <= g < first + self.ranks[k] for g in generators)
            if count:
                ranks[k] = count
        runs = []
        for g in generators:
            s, t = self.start[g], self.start[g + 1]
            runs.append({number[f]: c for f, c in zip(self.face[s:t], self.coef[s:t]) if f in number})
        return ChainComplex(ranks=ranks, runs=runs)

    def validate(self):
        """Check the runs as they lie: each face of a degree-k generator
        is numbered in degree k - 1 with a nonzero coefficient, and the
        faces of its faces cancel.  Generators are visited in numbering
        order, so a face's own run is checked before it is read."""
        start, face, coef = self.start, self.face, self.coef
        for k, first in self.offset.items():
            low = self.offset.get(k - 1, 0)
            high = low + self.ranks.get(k - 1, 0)
            for g in range(first, first + self.ranks[k]):
                s, t = start[g], start[g + 1]
                if not all(low <= f < high for f in face[s:t]):
                    raise ValidationError(f"boundary entry out of range in degree {k}")
                if not all(coef[s:t]):
                    raise ValidationError(f"explicit zero entry in degree {k}")
                acc = Counter()
                for f, v in zip(face[s:t], coef[s:t]):
                    for u in range(start[f], start[f + 1]):
                        acc[face[u]] += v * coef[u]
                if any(acc.values()):
                    raise ValidationError(f"boundary squared nonzero from degree {k}")
        return True


def _offsets(ranks):
    """The number of the first generator of each degree, numbering
    generators by increasing degree."""
    offset, n = {}, 0
    for k in sorted(ranks):
        offset[k] = n
        n += ranks[k]
    return offset


def _lay_out(runs):
    """The flat start / face / coef lists of runs given in generator
    order: the one routine that lays out every boundary."""
    start, face, coef = [0], [], []
    for run in runs:
        face.extend(run)
        coef.extend(run.values())
        start.append(len(face))
    return start, face, coef


def _kept_face_sums(obj, index, augmentation=None):
    """Each cell that index numbers with its boundary in normalized
    chains: the alternating sum of its faces that are nondegenerate and
    numbered, as face number -> nonzero coefficient.  A vertex's
    boundary is the augmentation's number with coefficient 1, if given.

    index numbers distinct cells apart.  A space of chains
    (`ChainFaces`) has the faces of each k-chain, k >= 2, read straight
    from the chain, one face for all its chains at a time: face i drops
    element i, with sign (-1)^i, for 1 <= i <= k, or i < k when the last
    face collapses; a collapsed face is the basepoint degenerated and
    adds nothing.  An edge's collapsed faces are the basepoint itself,
    so edges, like the cells of every other object, have their faces
    read as refs from the face table.
    """
    vertex = {} if augmentation is None else {augmentation: 1}
    chains = isinstance(obj.faces, ChainFaces)
    for k in sorted(obj.cells):
        ident, signs = surj_identity(k - 1), (1, -1) * (k // 2 + 1)
        if chains and k > 1:
            cells = [c for c in obj.cells[k] if c in index]
            inner, inner_signs = range(1, k + 1 - obj.faces.last_collapses), signs[1:]
            # one column per inner face: its number for each cell
            columns = [list(map(index.get, [c[:i] + c[i + 1:] for c in cells])) for i in inner]
            runs = (
                {j: v for j, v in zip(faces, inner_signs) if j is not None}
                for faces in zip(*columns)
            )
            yield from zip(cells, runs)
            continue
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
            yield c, acc if all(acc.values()) else {j: v for j, v in acc.items() if v}


def chain_complex(obj, reduced=True):
    """Normalized chains of a simplicial object.

    Pointed objects reduce relative to the basepoint; unpointed ones
    get an augmentation in degree -1.
    """
    pointed = obj.basepoint is not None
    drop = {obj.basepoint} if reduced and pointed else ()
    basis = {k: [c for c in obj.cells[k] if c not in drop] for k in sorted(obj.cells)}
    ranks = {k: len(v) for k, v in basis.items()}
    augmented = reduced and not pointed
    # the augmentation's generator, if any, comes first in the numbering
    cells = itertools.chain.from_iterable(basis.values())
    index = {c: i for i, c in enumerate(cells, augmented)}
    runs = (faces for _, faces in _kept_face_sums(obj, index, 0 if augmented else None))
    if augmented:
        ranks[-1] = 1
        runs = itertools.chain([{}], runs)
    return ChainComplex(ranks=ranks, runs=runs)


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
    # each cell kept is its own key
    da = dict(_kept_face_sums(a, {c: c for c in a.dim_of if c not in drop_a}))
    db = dict(_kept_face_sums(b, {c: c for c in b.dim_of if c not in drop_b}))
    members, seen = {}, set()  # degree -> first member of each class
    for x in da:
        for y in db:
            c = class_of[(x, y)]
            if c not in seen:
                seen.add(c)
                members.setdefault(a.dim_of[x] + b.dim_of[y], []).append((x, y))
    ranks = {k: len(firsts) for k, firsts in members.items()}
    # in numbering order: by degree, then first appearance
    generators = [gen for k in sorted(members) for gen in members[k]]
    number = {class_of[gen]: i for i, gen in enumerate(generators)}

    def runs():
        for x, y in generators:
            sign = -1 if a.dim_of[x] % 2 else 1
            terms = [((f, y), v) for f, v in da[x].items()]
            terms += [((x, f), sign * v) for f, v in db[y].items()]
            acc = {}
            for gen, v in terms:
                i = number[class_of[gen]]
                acc[i] = acc.get(i, 0) + v
            yield {i: v for i, v in acc.items() if v}

    return ChainComplex(ranks=ranks, runs=runs())


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

    The reduction reads cx's runs as they are, each generator's faces in
    their given order; each generator's cofaces come from one counting
    pass over the runs, in generator order.  Live-neighbour counts and
    an alive flag per generator are flat too.  The survivors keep their
    runs, with the dead faces left out.
    """
    start, face, coef = cx.start, cx.face, cx.coef
    n = len(start) - 1
    # live face and coface counts
    nf = list(map(sub, start[1:], start))
    count = Counter(face)
    nc = list(map(count.get, range(n), itertools.repeat(0)))
    cstart = list(itertools.accumulate(nc, initial=0))
    fill, coface = cstart[:], [0] * len(face)
    owners = itertools.chain.from_iterable(map(itertools.repeat, range(n), nf))
    for f, g in zip(face, owners):
        s = fill[f]
        coface[s] = g
        fill[f] = s + 1
    alive = bytearray(b"\x01") * n
    # first in first out: each batch is what the one before requeued
    batch = range(n)
    while batch:
        queue = []
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
    # a survivor's new number is the count of survivors before it
    new = list(itertools.accumulate(alive, initial=0))
    ranks = {k: new[first + cx.ranks[k]] - new[first] for k, first in cx.offset.items()}
    runs = (
        {new[f]: v for f, v in zip(face[s:t], coef[s:t]) if alive[f]}
        for s, t, live in zip(start, start[1:], alive)
        if live
    )
    return ChainComplex(ranks=ranks, runs=runs)


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


class HomologyGroup(Frozen):
    """A finitely generated abelian group: free rank and invariant
    factors > 1, in divisibility order.  Frozen; equal fields give
    equal, equally hashed groups."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def __eq__(self, other):
        if other.__class__ is not HomologyGroup:
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"HomologyGroup(rank={self.rank!r}, torsion={self.torsion!r})"

    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


class HomologyResult:
    __slots__ = ("coefficients", "reduced", "groups")

    def __init__(self, coefficients, reduced, groups):
        self.coefficients = coefficients
        self.reduced = reduced
        self.groups = groups  # degree -> HomologyGroup

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


def suspension_homology(obj, coefficients="Z"):
    """The cells per dimension and the reduced homology of S^1 smash obj,
    for a pointed object obj, read from obj with nothing of the smash
    built.

    Its cells are the basepoint and, in each dimension d >= 1,
    d (|obj_d| + |obj_{d-1}|) more, counting the cells of obj off its
    basepoint (`product_counts`).  Its reduced homology is that of obj
    moved up one degree: the reduced suspension isomorphism for
    S^1 = Delta[1] / boundary, through normalized Eilenberg-Zilber,
    which holds over Z and over every field.
    """
    off_base = {k: sum(c != obj.basepoint for c in names) for k, names in obj.cells.items()}
    cells = {0: 1, **product_counts([{1: 1}, off_base])}
    inner = homology(obj, coefficients)
    groups = {0: HomologyGroup(0, ()), **{k + 1: g for k, g in inner.groups.items()}}
    return cells, HomologyResult(coefficients=coefficients, reduced=True, groups=groups)


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
    for U in corners:
        for i in range(d):
            if i not in U:
                _check_subobject(corners[U], corners[U | {i}])
    ranks = {}
    for U, obj in corners.items():
        for k, cells in sorted(obj.cells.items()):
            ranks[k + d - len(U)] = ranks.get(k + d - len(U), 0) + len(cells)
    # in numbering order: by degree, then corner, then the corner's order
    number, count = {U: {} for U in corners}, itertools.count()
    for m in sorted(ranks):
        for U, obj in corners.items():
            number[U].update(zip(obj.cells.get(m - d + len(U), ()), count))
    runs = [None] * next(count)
    for U, obj in corners.items():
        sign, index = (-1) ** len(U), number[U]
        # the numbering of each coface corner, with its sign
        outside = [i for i in range(d) if i not in U]
        cofaces = [(number[U | {i}], (-1) ** pos) for pos, i in enumerate(outside)]
        for x, faces in _kept_face_sums(obj, index):
            run = {f: sign * v for f, v in faces.items()}
            for above, v in cofaces:
                run[above[x]] = v
            runs[index[x]] = run
    return ChainComplex(ranks=ranks, runs=runs)


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
    COVER_CAP covers, or a total cofiber of more than CUBE_GENERATOR_CAP
    generators, is refused before any corner is built."""
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
    # a cell lies in the corner at U when every cover outside U holds it
    count = sum(2 ** sum(c in s for s in cover_sets) for c in cells)
    if count > CUBE_GENERATOR_CAP:
        raise CapExceededError(f"cube has {count} generators, exceeds cap {CUBE_GENERATOR_CAP}")
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
