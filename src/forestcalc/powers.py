"""Powers of a model and the diagonal subobjects cut out by partitions.

A cell of the k-fold power is a tuple of coordinate refs; which
diagonals it sits on is read off its coincidence partition (the
positions carrying equal refs).  Membership in the bad diagonal of a
partition is then a single goodness test, thanks to the heredity of
badness under coarsening.
"""

from .errors import SupportMismatchError, ValidationError
from .fusion import is_good
from .partitions import make_partition
from .simplicial import (
    SimplicialMap,
    power,
    quotient,
    surj_identity,
)


def coincidence_partition(cell):
    """Partition of the coordinate positions by equality of refs."""
    groups = {}
    for t, ref in enumerate(cell):
        groups.setdefault(ref, []).append(t)
    return make_partition(len(cell), groups.values())


def sub_diagonal_cells(power_obj, delta):
    """Cells constant across every block of delta."""
    out = set()
    for cell in power_obj.all_cells():
        if len(cell) != delta.support_size:
            raise SupportMismatchError("power arity differs from delta support")
        if coincidence_partition(cell).leq(delta):
            out.add(cell)
    return out


def fat_diagonal_cells(power_obj):
    """Cells with at least one repeated coordinate ref."""
    return {cell for cell in power_obj.all_cells() if len(set(cell)) < len(cell)}


def bad_diagonal_cells(power_obj, lam):
    """Cells lying on some diagonal that is bad relative to lam.

    Badness is hereditary under coarsening, so a cell lies on a bad
    diagonal exactly when its own coincidence partition is bad.
    """
    out = set()
    for cell in power_obj.all_cells():
        k = coincidence_partition(cell)
        if len(cell) != lam.support_size:
            raise SupportMismatchError("power arity differs from lam support")
        if not is_good(k, lam):
            out.add(cell)
    return out


class PowerPair:
    """A power with the cells of its bad diagonal and the quotient by them."""

    __slots__ = ("lam", "power", "bad_cells", "quotient")

    def __init__(self, lam, power, bad_cells, quotient):
        self.lam = lam
        self.power = power
        self.bad_cells = bad_cells  # a frozenset
        self.quotient = quotient


def power_pair(model, lam):
    p = power(model, lam.support_size)
    bad = frozenset(bad_diagonal_cells(p, lam))
    return PowerPair(lam=lam, power=p, bad_cells=bad, quotient=quotient(p, bad))


def induced_power_map(f, source_power, target_power):
    """The map of powers induced by a surjective support map f.

    f: [m] -> [m'] gives M^{m'} -> M^m by reading coordinate f(t) at
    position t.  Surjectivity keeps every cell jointly nondegenerate,
    so no renormalization is ever needed.
    """
    if not f.is_surjective():
        raise ValidationError("induced power maps need surjective support maps")
    mapping = {}
    for cell in source_power.all_cells():
        if len(cell) != f.target_size:
            raise SupportMismatchError("power arity differs from map target")
        moved = tuple(cell[f(t)] for t in range(f.source_size))
        mapping[cell] = (moved, surj_identity(source_power.dim_of[cell]))
    return SimplicialMap(source_power, target_power, mapping)
