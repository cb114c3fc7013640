"""Sparse integer elimination, the one kernel behind integer homology.

Computes the elementary divisor chain of a sparse integer matrix by
fraction-free row and column operations.  Values are Python ints
throughout, so no overflow is possible.  Pivots are chosen
deterministically: unit entries first, then least absolute value, least
fill estimate, and finally position.
"""

from heapq import heappop, heappush
from math import gcd

# benchmark results record this label, so runs stay comparable across kernels
IMPLEMENTATION = "python"


def _key(rows, cols, i, j):
    v = rows[i][j]
    a = v if v > 0 else -v
    fill = (len(rows[i]) - 1) * (len(cols[j]) - 1)
    return (0 if a == 1 else 1, a, fill, i, j)


def sparse_elementary_divisors(entries, nrows, ncols):
    """Elementary divisors of the matrix given as (row, col, value) triples.

    Returns the ascending chain d1 | d2 | ... of positive divisors; its
    length is the rank of the matrix.
    """
    rows = [dict() for _ in range(nrows)]
    cols = [set() for _ in range(ncols)]
    for i, j, v in entries:
        if v == 0:
            continue
        w = rows[i].get(j, 0) + v
        if w == 0:
            del rows[i][j]
            cols[j].discard(i)
        else:
            rows[i][j] = w
            cols[j].add(i)
    live = sum(len(r) for r in rows)

    heap = []
    for i in range(nrows):
        for j in rows[i]:
            heappush(heap, _key(rows, cols, i, j))

    def axpy_row(dst, src, q, skip_col):
        # row[dst] += q * row[src]; the skip_col entry is the caller's job
        nonlocal live
        row_dst = rows[dst]
        for c, v in rows[src].items():
            if c == skip_col:
                continue
            w = row_dst.get(c, 0) + q * v
            if w == 0:
                if c in row_dst:
                    del row_dst[c]
                    cols[c].discard(dst)
                    live -= 1
            else:
                if c not in row_dst:
                    cols[c].add(dst)
                    live += 1
                row_dst[c] = w
                heappush(heap, _key(rows, cols, dst, c))

    def axpy_col(dst, src, q, skip_row):
        # col[dst] += q * col[src]; the skip_row entry is the caller's job
        nonlocal live
        for r in list(cols[src]):
            if r == skip_row:
                continue
            w = rows[r].get(dst, 0) + q * rows[r][src]
            if w == 0:
                if dst in rows[r]:
                    del rows[r][dst]
                    cols[dst].discard(r)
                    live -= 1
            else:
                if dst not in rows[r]:
                    cols[dst].add(r)
                    live += 1
                rows[r][dst] = w
                heappush(heap, _key(rows, cols, r, dst))

    def drop(i, j):
        nonlocal live
        if j in rows[i]:
            del rows[i][j]
            cols[j].discard(i)
            live -= 1

    diagonal = []
    while live:
        pi = -1
        pj = -1
        while heap:
            key = heappop(heap)
            i, j = key[3], key[4]
            if j not in rows[i]:
                continue
            cur = _key(rows, cols, i, j)
            if cur == key:
                pi, pj = i, j
                break
            heappush(heap, cur)
        if pi < 0:
            for i in range(nrows):
                for j in rows[i]:
                    heappush(heap, _key(rows, cols, i, j))
            continue

        # shrink the pivot until it divides its whole row and column
        while True:
            v = rows[pi][pj]
            bad_row = -1
            for r in sorted(cols[pj]):
                if r != pi and rows[r][pj] % v != 0:
                    bad_row = r
                    break
            if bad_row >= 0:
                u = rows[bad_row][pj]
                q = -(u // v)
                axpy_row(bad_row, pi, q, pj)
                rows[bad_row][pj] = u + q * v
                heappush(heap, _key(rows, cols, bad_row, pj))
                pi = bad_row
                continue
            bad_col = -1
            for c in sorted(rows[pi]):
                if c != pj and rows[pi][c] % v != 0:
                    bad_col = c
                    break
            if bad_col >= 0:
                u = rows[pi][bad_col]
                q = -(u // v)
                axpy_col(bad_col, pj, q, pi)
                rows[pi][bad_col] = u + q * v
                heappush(heap, _key(rows, cols, pi, bad_col))
                pj = bad_col
                continue
            break

        # clear the pivot column by row operations, then the row
        v = rows[pi][pj]
        for r in sorted(cols[pj]):
            if r == pi:
                continue
            q = -(rows[r][pj] // v)
            axpy_row(r, pi, q, pj)
            drop(r, pj)
        for c in sorted(rows[pi]):
            if c == pj:
                continue
            q = -(rows[pi][c] // v)
            axpy_col(c, pj, q, pi)
            drop(pi, c)
        diagonal.append(v if v > 0 else -v)
        drop(pi, pj)

    return normalize_divisor_chain(diagonal)


def normalize_divisor_chain(values):
    """gcd/lcm closure turning a diagonal multiset into a divisor chain.

    Units divide everything, so they are counted and put first; only the
    entries > 1 go through the pairwise closure.  The invariant factors
    of a diagonal are unique, so this is the chain the full closure gives.
    """
    units = sum(1 for v in values if v in (1, -1))
    d = [abs(v) for v in values if v not in (0, 1, -1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0
    return [1] * units + d
