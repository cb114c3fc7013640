"""Named invariant checks over exhaustive small ranges.

Each check sweeps every instance inside its size budget and reports the
first counterexample when one exists.  The quick level is meant to stay
under half a minute; exhaustive pushes every budget one notch up.
"""

import itertools

from .category import (
    aut_order_formula,
    automorphism_group,
    enumerate_en,
    shapes_of_excess,
    verify_essentially_cofibrant,
    verify_nice_filtration,
)
from .errors import ValidationError
from .fusion import (
    PartitionMorphism,
    decompose_elementary,
    goodness_via_graph,
    is_good,
    is_strict_fusion,
    strictness_via_h1,
)
from .homology import (
    cover_acyclicity,
    cube_acyclicity,
    diagonal_of,
    homology,
    smith_normal_form,
    suspension_homology,
)
from .kernel import sparse_elementary_divisors
from .layers import derivative_report, t_space_map
from .partitions import (
    SetMap,
    all_partitions,
    canonicalize,
    image_partition,
    join,
    make_partition,
    meet,
)
from .simplicial import (
    compose_simplicial,
    model_circle,
    model_interval,
    model_points,
    subobject,
    t_space,
    t_space_suspension_model,
)


class CheckResult:
    __slots__ = ("name", "passed", "details", "counterexample")

    def __init__(self, name, passed, details=None, counterexample=None):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.counterexample = counterexample

    def to_json(self):
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _bell_numbers(limit):
    """Bell triangle; returns [B_0 .. B_limit]."""
    out = [1]
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        out.append(nxt[0])
        row = nxt
    return out


def _surjections_onto(m, mp):
    """All surjective SetMaps m -> mp."""
    for values in itertools.product(range(mp), repeat=m):
        if len(set(values)) == mp:
            yield SetMap(m, mp, values)


def _all_fusions(m, mp):
    """Every fusion between partitions of the two supports."""
    sources = list(all_partitions(m))
    for f in _surjections_onto(m, mp):
        for src in sources:
            tgt = image_partition(f, src)
            yield PartitionMorphism(src, tgt, f)


def check_partition_lattice_counts(budget, ctx):
    bells = _bell_numbers(budget["support"])
    for m in range(1, budget["support"] + 1):
        got = sum(1 for _ in all_partitions(m))
        if got != bells[m]:
            return False, {"support": m}, {"expected": bells[m], "got": got}
    return True, {"supports": budget["support"]}, None


def check_meet_join_lattice_laws(budget, ctx):
    m = min(budget["support"], 4)
    parts = list(all_partitions(m))
    for p, q in itertools.product(parts, repeat=2):
        if meet(p, q) != meet(q, p) or join(p, q) != join(q, p):
            return False, {}, {"p": str(p), "q": str(q), "law": "commutativity"}
        if join(p, meet(p, q)) != p or meet(p, join(p, q)) != p:
            return False, {}, {"p": str(p), "q": str(q), "law": "absorption"}
    for p, q, r in itertools.combinations(parts, 3):
        if meet(meet(p, q), r) != meet(p, meet(q, r)):
            return False, {}, {"p": str(p), "q": str(q), "r": str(r), "law": "meet associativity"}
        if join(join(p, q), r) != join(p, join(q, r)):
            return False, {}, {"p": str(p), "q": str(q), "r": str(r), "law": "join associativity"}
    return True, {"support": m, "pairs": len(parts) ** 2}, None


def check_image_partition_closure(budget, ctx):
    """Transitive-closure oracle: x, y land in one block exactly when a
    zig-zag of map fibers and source blocks links them."""
    checked = 0
    top = min(budget["support"], 4)
    for m in range(2, top + 1):
        sources = list(all_partitions(m))
        for mp in range(1, m + 1):
            for f in _surjections_onto(m, mp):
                for src in sources:
                    img = image_partition(f, src)
                    reach = [[False] * mp for _ in range(mp)]
                    for i in range(mp):
                        reach[i][i] = True
                    for block in src.blocks:
                        for x, y in itertools.combinations(block, 2):
                            reach[f(x)][f(y)] = reach[f(y)][f(x)] = True
                    for k in range(mp):
                        for i in range(mp):
                            if reach[i][k]:
                                row_k = reach[k]
                                row_i = reach[i]
                                for j in range(mp):
                                    if row_k[j]:
                                        row_i[j] = True
                    where = img.block_of()
                    for x in range(mp):
                        for y in range(mp):
                            if reach[x][y] != (where[x] == where[y]):
                                return False, {}, {
                                    "map": list(f.values),
                                    "source": str(src),
                                    "pair": [x, y],
                                }
                    checked += 1
    return True, {"instances": checked}, None


def check_strictness_triple(budget, ctx):
    """Excess preservation, the determinant test, and all-elementary
    decomposition must agree on every fusion."""
    checked = 0
    fault = ctx.get("inject_fault")
    for m in range(2, budget["support"] + 1):
        for mp in range(1, m + 1):
            for morphism in _all_fusions(m, mp):
                by_excess = is_strict_fusion(morphism)
                if fault and checked == 0:
                    by_excess = not by_excess
                by_h1 = strictness_via_h1(morphism)
                # third route: every elementary step must glue across two
                # distinct blocks, a purely local condition
                by_decomp = all(
                    step.is_isomorphism()
                    or step.target.components == step.source.components - 1
                    for step in decompose_elementary(morphism)
                )
                if not (by_excess == by_h1 == by_decomp):
                    return False, {"instances": checked}, {
                        "morphism": str(morphism),
                        "excess_route": by_excess,
                        "determinant_route": by_h1,
                        "decomposition_route": by_decomp,
                    }
                checked += 1
    return True, {"instances": checked}, None


def check_goodness_double_criterion(budget, ctx):
    checked = 0
    for m in range(2, budget["support"] + 1):
        parts = list(all_partitions(m))
        for lam, delta in itertools.product(parts, repeat=2):
            a = is_good(delta, lam)
            b = goodness_via_graph(delta, lam)
            if a != b:
                return False, {"instances": checked}, {
                    "lam": str(lam),
                    "delta": str(delta),
                    "excess_route": a,
                    "graph_route": b,
                }
            checked += 1
    return True, {"instances": checked}, None


def check_badness_hereditary(budget, ctx):
    """Badness descends to coarser partitions."""
    checked = 0
    for m in range(2, budget["support"] + 1):
        parts = list(all_partitions(m))
        for lam in parts:
            good = [is_good(delta, lam) for delta in parts]
            for delta, delta_good in zip(parts, good):
                if delta_good:
                    continue
                for coarser, coarser_good in zip(parts, good):
                    if coarser_good and delta.refines(coarser):
                        return False, {"instances": checked}, {
                            "lam": str(lam),
                            "bad": str(delta),
                            "coarser_but_good": str(coarser),
                        }
                checked += 1
    return True, {"instances": checked}, None


def check_badness_pushforward(budget, ctx):
    """Strict fusions carry bad partitions to bad partitions."""
    bad = {}

    def bad_of(lam):
        # the partitions bad relative to lam, in all_partitions order,
        # found once per check; a dict keeps the order and tests membership
        if lam not in bad:
            bad[lam] = dict.fromkeys(
                d for d in all_partitions(lam.support_size) if not is_good(d, lam)
            )
        return bad[lam]

    checked = 0
    top = min(budget["support"], 4)
    for m in range(2, top + 1):
        for mp in range(1, m + 1):
            for morphism in _all_fusions(m, mp):
                if not is_strict_fusion(morphism):
                    continue
                lam, lam2, f = morphism.source, morphism.target, morphism.map
                bad_targets = bad_of(lam2)
                for delta in bad_of(lam):
                    img = image_partition(f, delta)
                    if img not in bad_targets:
                        return False, {"instances": checked}, {
                            "fusion": str(morphism),
                            "bad": str(delta),
                            "image_good": str(img),
                        }
                    checked += 1
    return True, {"instances": checked}, None


def _expected_tree_rank(lam):
    rank = 1
    for block in lam.blocks:
        for t in range(2, len(block)):
            rank *= t
    return rank


def check_tspace_wedge_ranks(budget, ctx):
    checked = 0
    for m in range(1, budget["tree_support"] + 1):
        seen = set()
        for lam in all_partitions(m):
            key = lam.shape()
            if key in seen:
                continue
            seen.add(key)
            result = homology(t_space(lam))
            expected_degree = lam.excess
            expected_rank = _expected_tree_rank(lam)
            for k, group in result.groups.items():
                ok = (
                    (k == expected_degree and group.rank == expected_rank and not group.torsion)
                    or group.is_zero()
                )
                if not ok:
                    return False, {"instances": checked}, {
                        "lam": str(lam),
                        "degree": k,
                        "group": group.to_json(),
                        "expected": {"degree": expected_degree, "rank": expected_rank},
                    }
            if result.group(expected_degree).rank != expected_rank:
                return False, {"instances": checked}, {
                    "lam": str(lam),
                    "missing_rank": expected_rank,
                }
            checked += 1
    return True, {"instances": checked}, None


def check_tspace_model_agreement(budget, ctx):
    checked = 0
    for m in range(2, budget["support"] + 1):
        seen = set()
        for lam in all_partitions(m):
            if lam.excess == 0 or lam.shape() in seen:
                continue
            seen.add(lam.shape())
            a = homology(t_space(lam))
            _, b = suspension_homology(t_space_suspension_model(lam))
            top = max(a.max_degree(), b.max_degree())
            for k in range(top + 1):
                if a.group(k) != b.group(k):
                    return False, {"instances": checked}, {
                        "lam": str(lam),
                        "degree": k,
                        "quotient_model": a.group(k).to_json(),
                        "suspension_model": b.group(k).to_json(),
                    }
            checked += 1
    return True, {"instances": checked}, None


def check_tree_map_functoriality(budget, ctx):
    """Induced tree-space maps respect composition and identities."""
    checked = 0
    trees = {}  # each partition's poset and tree space, built once
    top = min(budget["support"], 4)
    for m in range(2, top + 1):
        sources = list(all_partitions(m))
        for mid in range(1, m + 1):
            for f in _surjections_onto(m, mid):
                for src in sources:
                    lam_mid = image_partition(f, src)
                    if src.excess != lam_mid.excess:
                        continue
                    for mp in range(1, mid + 1):
                        for g in _surjections_onto(mid, mp):
                            lam_out = image_partition(g, lam_mid)
                            if lam_mid.excess != lam_out.excess:
                                continue
                            gf = SetMap(m, mp, tuple(g(f(x)) for x in range(m)))
                            lhs = t_space_map(gf, src, lam_out, trees)
                            rhs = compose_simplicial(
                                t_space_map(g, lam_mid, lam_out, trees),
                                t_space_map(f, src, lam_mid, trees),
                            )
                            if lhs.mapping != rhs.mapping:
                                return False, {"instances": checked}, {
                                    "f": list(f.values),
                                    "g": list(g.values),
                                    "lam": str(src),
                                }
                            checked += 1
                            if checked >= 400:
                                return True, {"instances": checked, "truncated": True}, None
    return True, {"instances": checked}, None


def check_nice_filtration(budget, ctx):
    reports = {}
    for n in range(1, budget["table_n"] + 1):
        table = enumerate_en(n)
        cert = verify_nice_filtration(table)
        reports[n] = cert["passed"]
        if not cert["passed"]:
            return False, {"n": n}, cert
    return True, {"levels": reports}, None


def check_composition_closure(budget, ctx):
    for n in range(1, budget["table_n"] + 1):
        table = enumerate_en(n)
        try:
            table.check_composition_closure()
        except ValidationError as exc:
            return False, {"n": n}, {"witness": str(exc)}
    return True, {"n": budget["table_n"]}, None


def check_aut_order_formula(budget, ctx):
    checked = 0
    for m in range(1, budget["support"] + 1):
        seen = set()
        for lam in all_partitions(m):
            if lam.shape() in seen:
                continue
            seen.add(lam.shape())
            got = automorphism_group(lam).order
            want = aut_order_formula(lam)
            if got != want:
                return False, {"instances": checked}, {
                    "lam": str(lam),
                    "group_order": got,
                    "formula": want,
                }
            checked += 1
    return True, {"instances": checked}, None


def check_iso_class_count(budget, ctx):
    for n in range(1, budget["n"] + 1):
        shapes = set(shapes_of_excess(n))
        found = set()
        for m in range(n + 1, 2 * n + 1):
            for lam in all_partitions(m):
                if lam.excess == n and lam.is_irreducible():
                    found.add(canonicalize(lam).shape())
        if shapes != found:
            return False, {"n": n}, {
                "skeletal": sorted(shapes),
                "brute_force": sorted(found),
            }
    return True, {"n": budget["n"]}, None


def check_fat_reconstruction(budget, ctx):
    models = [("two points", model_points(2))]
    if budget["n"] >= 2:
        models.append(("three points", model_points(3)))
        models.append(("circle", model_circle()))
    for n in range(1, budget["n"] + 1):
        for label, M in models:
            report = verify_essentially_cofibrant(n, M)
            if not report["passed"]:
                return False, {"n": n, "model": label}, report
    return True, {"n": budget["n"], "models": [m[0] for m in models]}, None


def check_coend_euler_additivity(budget, ctx):
    cases = [(model_points(2), 1)]
    if budget["n"] >= 2:
        cases += [(model_points(2), 2), (model_points(3), 1), (model_points(3), 2), (model_circle(), 1)]
    for M, n in cases:
        report = derivative_report(M, n)
        if not report["euler_additivity"]["passed"]:
            return False, {"n": n}, report["euler_additivity"]
    return True, {"cases": len(cases)}, None


def broken_square_demo():
    """A square whose corner forgets the actual intersection; its total
    cofiber must detect the failure."""
    seg = model_interval()
    return cube_acyclicity({
        frozenset(): subobject(seg, []),
        frozenset((0,)): subobject(seg, ["v0", "v1", "e"]),
        frozenset((1,)): subobject(seg, ["v0"]),
        frozenset((0, 1)): seg,
    })


# the cube-check demos: case -> (run, expected verdict, failure note)
CUBE_DEMOS = {
    "interval": (
        lambda: cover_acyclicity(model_interval(), [["v0", "v1", "e"], ["v0"]]),
        True,
        "interval cover expected acyclic",
    ),
    "circle": (
        lambda: cover_acyclicity(model_circle(), [["v", "e"], ["v"]]),
        True,
        "circle cover expected acyclic",
    ),
    "negative": (
        broken_square_demo,
        False,
        "square with an understated corner must fail",
    ),
}


def check_cube_pushout_controls(budget, ctx):
    for run, expected, note in CUBE_DEMOS.values():
        ok, _ = run()
        if ok != expected:
            return False, {}, {"case": note}
    return True, {"cases": len(CUBE_DEMOS)}, None


def check_kernel_vs_dense_snf(budget, ctx):
    matrices = [
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 0], [0, 0]],
        [[0]],
        [[6, 10, 15], [10, 15, 6], [15, 6, 10]],
    ]
    # a boundary matrix from a tree space, flattened to dense
    from .homology import chain_complex

    cx = chain_complex(t_space(make_partition(4, [[0, 1, 2, 3]])), reduced=True)
    deg = max(k for k, es in cx.entries.items() if es)
    rows, cols = cx.ranks.get(deg - 1, 0), cx.ranks.get(deg, 0)
    dense = [[0] * cols for _ in range(rows)]
    for i, j, v in cx.entries[deg]:
        dense[i][j] = v
    matrices.append(dense)
    for mat in matrices:
        entries = [
            (i, j, v) for i, row in enumerate(mat) for j, v in enumerate(row) if v
        ]
        sparse = sparse_elementary_divisors(entries, len(mat), len(mat[0]))
        d, u, v = smith_normal_form(mat)
        via_dense = [x for x in diagonal_of(d) if x]
        if list(sparse) != via_dense:
            return False, {}, {
                "matrix": mat,
                "sparse": list(sparse),
                "dense": via_dense,
            }
    return True, {"matrices": len(matrices)}, None


def check_power_diagonal_routes(budget, ctx):
    """Bad cells of a power named two ways: by the goodness test on the
    coincidence partition, and by sweeping sub-diagonals of bad shapes."""
    from .fusion import bad_diagonals
    from .powers import bad_diagonal_cells, sub_diagonal_cells
    from .simplicial import power

    models = [model_points(2), model_points(3), model_circle()]
    lams = [
        make_partition(2, [[0, 1]]),
        make_partition(3, [[0, 1, 2]]),
        make_partition(4, [[0, 1], [2, 3]]),
    ]
    checked = 0
    for M in models:
        for lam in lams:
            p = power(M, lam.support_size)
            direct = set(bad_diagonal_cells(p, lam))
            swept = set()
            for delta in bad_diagonals(lam):
                swept.update(sub_diagonal_cells(p, delta))
            if direct != swept:
                return False, {"instances": checked}, {
                    "lam": str(lam),
                    "direct_only": sorted(map(repr, direct - swept))[:3],
                    "swept_only": sorted(map(repr, swept - direct))[:3],
                }
            checked += 1
    return True, {"instances": checked}, None


CHECKS = (
    ("partition-lattice-counts", check_partition_lattice_counts),
    ("meet-join-lattice-laws", check_meet_join_lattice_laws),
    ("image-partition-closure", check_image_partition_closure),
    ("strictness-triple", check_strictness_triple),
    ("goodness-double-criterion", check_goodness_double_criterion),
    ("badness-hereditary", check_badness_hereditary),
    ("badness-pushforward", check_badness_pushforward),
    ("tspace-wedge-ranks", check_tspace_wedge_ranks),
    ("tspace-model-agreement", check_tspace_model_agreement),
    ("tree-map-functoriality", check_tree_map_functoriality),
    ("nice-filtration", check_nice_filtration),
    ("composition-closure", check_composition_closure),
    ("aut-order-formula", check_aut_order_formula),
    ("iso-class-count", check_iso_class_count),
    ("fat-reconstruction", check_fat_reconstruction),
    ("coend-euler-additivity", check_coend_euler_additivity),
    ("cube-pushout-controls", check_cube_pushout_controls),
    ("kernel-vs-dense-snf", check_kernel_vs_dense_snf),
    ("power-diagonal-routes", check_power_diagonal_routes),
)

BUDGETS = {
    "quick": {"support": 4, "tree_support": 4, "n": 1, "table_n": 2},
    "exhaustive": {"support": 5, "tree_support": 6, "n": 2, "table_n": 4},
}


def run_checks(level="quick", inject_fault=False):
    """Run the whole catalog in declaration order."""
    if level not in BUDGETS:
        raise ValueError(f"unknown level {level!r}")
    budget = BUDGETS[level]
    ctx = {"inject_fault": inject_fault}
    results = []
    for name, func in CHECKS:
        passed, details, counterexample = func(budget, ctx)
        results.append(
            CheckResult(
                name=name,
                passed=passed,
                details=details,
                counterexample=counterexample,
            )
        )
    return results


def results_payload(results, level):
    return {
        "level": level,
        "passed": all(r.passed for r in results),
        "checks": [r.to_json() for r in results],
    }
