"""Homology of finite simplicial objects over Z, Q and prime fields.

Normalized chains: one generator per nondegenerate cell, faces with a
degenerate normal form contribute nothing.  Every complex is first
reduced along unit pairs (coreductions, Mrozek-Batko), which leaves a
chain-homotopy-equivalent subcomplex; a tree space keeps only its
top-degree homology generators and needs no elimination at all.
Integer homology is then read off elementary divisors computed by the
sparse kernel; the mod-p route is an independent Gaussian elimination
so the two can cross-check each other.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .kernel import sparse_elementary_divisors
from .simplicial import _debug, surj_identity

COEFFICIENT_CHOICES = ("Z", "Q")  # plus "F<p>" for prime p


def parse_coefficients(spec):
    """Accept "Z", "Q" or "F<p>"; return ("Z",), ("Q",) or ("F", p)."""
    if spec == "Z":
        return ("Z", None)
    if spec == "Q":
        return ("Q", None)
    if spec.startswith("F"):
        try:
            p = int(spec[1:])
        except ValueError:
            raise ValidationError(f"bad coefficient spec {spec!r}")
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValidationError(f"{p} is not prime")
        return ("F", p)
    raise ValidationError(f"bad coefficient spec {spec!r}")


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


def _face_sum(obj, c, k):
    """Boundary of the k-cell c in normalized chains: the alternating sum
    of its nondegenerate faces, as face -> nonzero coefficient."""
    ident = surj_identity(k - 1)
    acc = {}
    for i in range(k + 1):
        tcell, alpha = obj.faces[c][i]
        if alpha == ident:
            acc[tcell] = acc.get(tcell, 0) + (1 if i % 2 == 0 else -1)
    return {t: v for t, v in acc.items() if v}


def chain_complex(obj, reduced=True):
    """Normalized chains of a simplicial object.

    Pointed objects reduce relative to the basepoint; unpointed ones
    get an augmentation in degree -1.
    """
    pointed = obj.basepoint is not None
    dropped = {obj.basepoint} if reduced and pointed else set()
    basis = {}
    index = {}
    for k in sorted(obj.cells):
        names = [c for c in obj.cells_of_dim(k) if c not in dropped]
        basis[k] = names
        index.update({c: i for i, c in enumerate(names)})
    ranks = {k: len(v) for k, v in basis.items()}
    entries = {}
    for k in sorted(obj.cells):
        if k == 0:
            continue
        es = []
        for j, c in enumerate(basis.get(k, ())):
            for tcell, v in _face_sum(obj, c, k).items():
                if tcell not in dropped:
                    es.append((index[tcell], j, v))
        if es or ranks.get(k):
            entries[k] = es
    if reduced and not pointed:
        ranks[-1] = 1
        entries[0] = [(0, j, 1) for j in range(ranks.get(0, 0))]
    return ChainComplex(ranks=ranks, entries=entries, labels=basis)


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


def _euler(cx):
    return sum((-1) ** k * r for k, r in cx.ranks.items())


# ---------------------------------------------------------------------------
# rank computations


def integer_divisors(entries, nrows, ncols):
    """Nonzero elementary divisors; the kernel returns them as a
    divisibility chain."""
    return sparse_elementary_divisors(list(entries), nrows, ncols)


def rank_mod_p(entries, nrows, ncols, p):
    """Rank over F_p by plain Gaussian elimination; independent of the
    integer route."""
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
    kind, p = parse_coefficients(coefficients)
    reduced = -1 in cx.ranks
    small = reduce_complex(cx)
    if _debug():
        small.validate()
        if _euler(small) != _euler(cx):
            raise ValidationError("reduction changed the Euler characteristic")
    cx = small
    degrees = cx.degrees()
    top = max(degrees, default=-1)
    ranks_of_boundary = {}
    divisors = {}
    for k in range(0, top + 2):
        es = cx.boundary(k)
        n_from = cx.ranks.get(k, 0)
        n_to = cx.ranks.get(k - 1, 0)
        if n_from == 0 or n_to == 0:
            ranks_of_boundary[k] = 0
            divisors[k] = []
            continue
        if kind == "F":
            ranks_of_boundary[k] = rank_mod_p(es, n_to, n_from, p)
            divisors[k] = []
        else:
            d = integer_divisors(es, n_to, n_from)
            divisors[k] = d
            ranks_of_boundary[k] = len(d)
    groups = {}
    for k in range(0, top + 1):
        n = cx.ranks.get(k, 0)
        rank = n - ranks_of_boundary.get(k, 0) - ranks_of_boundary.get(k + 1, 0)
        if kind == "Z":
            torsion = tuple(d for d in divisors.get(k + 1, []) if d > 1)
        else:
            torsion = ()
        groups[k] = HomologyGroup(rank, torsion)
    return groups, reduced


def homology(obj, coefficients="Z", reduced=True):
    """Homology of a simplicial object; reduced by default."""
    cx = chain_complex(obj, reduced=reduced)
    groups, _ = homology_of_complex(cx, coefficients)
    return HomologyResult(coefficients=coefficients, reduced=reduced, groups=groups)


def betti_numbers(obj, coefficients="Z", reduced=True):
    res = homology(obj, coefficients=coefficients, reduced=reduced)
    return {k: g.rank for k, g in res.groups.items() if not g.is_zero()}


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
# labeled complexes, cones and cubes of inclusions


@dataclass
class LabeledComplex:
    """A chain complex with named generators, handy for mapping cones."""

    degrees: dict  # k -> list of labels
    diff: dict  # k -> {col_label: {row_label: coeff}}

    def to_chain_complex(self):
        degs = {k: sorted(v, key=repr) for k, v in self.degrees.items()}
        index = {}
        for k, labels in degs.items():
            for i, lab in enumerate(labels):
                index[(k, lab)] = i
        ranks = {k: len(v) for k, v in degs.items()}
        entries = {}
        for k, cols in self.diff.items():
            es = []
            for col, row_map in cols.items():
                j = index[(k, col)]
                for row, val in row_map.items():
                    if val:
                        es.append((index[(k - 1, row)], j, val))
            entries[k] = es
        return ChainComplex(ranks=ranks, entries=entries, labels=degs)


def labeled_chains(obj):
    """Absolute normalized chains of an object, with cell labels."""
    degrees = {k: list(obj.cells_of_dim(k)) for k in sorted(obj.cells)}
    diff = {
        k: {c: _face_sum(obj, c, k) for c in obj.cells_of_dim(k)}
        for k in sorted(obj.cells)
        if k != 0
    }
    return LabeledComplex(degrees=degrees, diff=diff)


def chain_map_of(simplicial_map):
    """Cell -> {target cell: coeff} of the induced map on normalized chains."""
    out = {}
    for c, (tcell, gamma) in simplicial_map.mapping.items():
        k = simplicial_map.source.dim_of[c]
        if gamma == surj_identity(k):
            out[c] = {tcell: 1}
        else:
            out[c] = {}
    return out


def mapping_cone(a, b, fmap):
    """Cone of a chain map f: A -> B given by label dicts.

    Generators are ("a", x) shifted up one degree and ("b", y); the
    boundary is (-da, db - f).  Returns the cone plus the label
    embeddings needed to build induced maps between cones.
    """
    degrees = {}
    for k, labels in b.degrees.items():
        degrees.setdefault(k, []).extend(("b", lab) for lab in labels)
    for k, labels in a.degrees.items():
        degrees.setdefault(k + 1, []).extend(("a", lab) for lab in labels)
    diff = {}
    for k in degrees:
        cols = {}
        for tag, lab in degrees[k]:
            if tag == "b":
                row_map = b.diff.get(k, {}).get(lab, {})
                cols[("b", lab)] = {("b", r): v for r, v in row_map.items()}
            else:
                out = {}
                for r, v in a.diff.get(k - 1, {}).get(lab, {}).items():
                    out[("a", r)] = -v
                for r, v in fmap.get(lab, {}).items():
                    out[("b", r)] = out.get(("b", r), 0) - v
                cols[("a", lab)] = {key: v for key, v in out.items() if v}
        diff[k] = cols
    return LabeledComplex(degrees=degrees, diff=diff)


def cone_map(fmap_a, fmap_b):
    """Map of cones induced by a strictly commuting square of chain maps."""
    out = {}
    for lab, row in fmap_a.items():
        out[("a", lab)] = {("a", r): v for r, v in row.items()}
    for lab, row in fmap_b.items():
        out[("b", lab)] = {("b", r): v for r, v in row.items()}
    return out


def total_cofiber(cube_objs, cube_maps, directions):
    """Iterated mapping cone of a cube of simplicial objects.

    cube_objs maps frozensets of directions to objects; cube_maps maps
    (U, V) with V = U + one direction to simplicial maps.  The result
    is the chain complex of the total cofiber.
    """
    complexes = {U: labeled_chains(obj) for U, obj in cube_objs.items()}
    maps = {
        pair: chain_map_of(f) for pair, f in cube_maps.items()
    }
    dirs = sorted(directions, reverse=True)
    for d in dirs:
        new_cx = {}
        new_maps = {}
        rest = [U for U in complexes if d not in U]
        for U in rest:
            V = U | {d}
            new_cx[U] = mapping_cone(complexes[U], complexes[frozenset(V)], maps[(U, frozenset(V))])
        for (U, V) in maps:
            if d in U or d in V - U:
                continue
            Ud, Vd = frozenset(U | {d}), frozenset(V | {d})
            new_maps[(U, V)] = cone_map(maps[(U, V)], maps[(Ud, Vd)])
        complexes = new_cx
        maps = new_maps
    (_, total), = complexes.items()
    return total.to_chain_complex()


def cover_cube(obj, covers):
    """Cube of intersections of a family of subcomplexes covering obj.

    The vertex at subset U is the intersection of the covers outside U,
    the full subset is the whole object; all maps are inclusions.
    """
    from .simplicial import SimplicialMap, subobject

    d = len(covers)
    cover_sets = [set(c) for c in covers]
    union = set()
    for s in cover_sets:
        union |= s
    if union != set(obj.dim_of.keys()):
        missing = sorted(set(obj.dim_of) - union, key=repr)[:3]
        if missing:
            raise ValidationError(f"covers miss cells, e.g. {missing}")
        unknown = sorted(union - set(obj.dim_of), key=repr)[:3]
        raise ValidationError(f"covers name unknown cells, e.g. {unknown}")
    full = frozenset(range(d))
    objs = {}
    for r in range(d + 1):
        for U in map(frozenset, itertools.combinations(range(d), r)):
            if U == full:
                objs[U] = obj
            else:
                cells = set(obj.dim_of)
                for i in range(d):
                    if i not in U:
                        cells &= cover_sets[i]
                objs[U] = subobject(obj, cells)
    maps = {}
    for U in objs:
        for i in range(d):
            if i in U:
                continue
            V = frozenset(U | {i})
            mapping = {
                c: (c, surj_identity(objs[U].dim_of[c])) for c in objs[U].dim_of
            }
            maps[(U, V)] = SimplicialMap(objs[U], objs[V], mapping)
    return objs, maps


def cover_acyclicity(obj, covers, coefficients="Z"):
    """Whether the total cofiber of the cover cube vanishes in homology."""
    objs, maps = cover_cube(obj, covers)
    cx = total_cofiber(objs, maps, range(len(covers)))
    groups, _ = homology_of_complex(cx, coefficients)
    result = HomologyResult(coefficients=coefficients, reduced=False, groups=groups)
    return result.is_acyclic(), result
