"""Sparse integer elimination, the one kernel behind integer homology.

A column-order Smith elimination: each column in turn pivots on its
least entry (ties: shortest row, then row index), row operations clear
the column, and column operations, which then touch only the pivot row,
reduce that row modulo the pivot.  Any remainder becomes the new pivot,
so |pivot| falls at every move.  Values are Python ints, so no overflow
is possible, and the divisor chain of the diagonal is unique, so the
pivot order cannot change a result.
"""

from math import gcd

# benchmark results record this label, so runs stay comparable across kernels
IMPLEMENTATION = "python"


def sparse_elementary_divisors(entries, nrows, ncols):
    """Elementary divisors of the matrix given as (row, col, value) triples.

    Returns the ascending chain d1 | d2 | ... of positive divisors; its
    length is the rank of the matrix.
    """
    rows = [{} for _ in range(nrows)]
    cols = [set() for _ in range(ncols)]
    for i, j, v in entries:
        w = rows[i].pop(j, 0) + v
        if w:
            rows[i][j] = w
            cols[j].add(i)
        else:
            cols[j].discard(i)

    diagonal = []
    for j in range(ncols):
        while cols[j]:
            pj = j
            pi = min(cols[j], key=lambda i: (abs(rows[i][j]), len(rows[i]), i))
            v = rows[pi][pj]
            while True:
                # row operations clear the pivot column
                others = [r for r in cols[pj] if r != pi]
                while others:
                    r = others.pop()
                    src, dst = rows[pi], rows[r]
                    q = dst[pj] // v
                    for c, w in src.items():
                        x = dst.pop(c, 0) - q * w
                        if x:
                            dst[c] = x
                            cols[c].add(r)
                        else:
                            cols[c].discard(r)
                    if pj in dst:
                        others.append(pi)
                        pi, v = r, dst[pj]
                # column operations reduce the pivot row modulo the pivot
                row = rows[pi]
                for c in [c for c in row if c != pj]:
                    x = row.pop(c) % v
                    if x:
                        row[c] = x
                    else:
                        cols[c].discard(pi)
                if len(row) == 1:
                    break
                pj = min((c for c in row if c != pj), key=lambda c: (abs(row[c]), c))
                v = row[pj]
            diagonal.append(abs(v))
            del rows[pi][pj]
            cols[pj].discard(pi)

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
