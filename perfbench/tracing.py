"""The traced run: per-layer metrics measured from outside the program.

The workload's commands run in this process through forestcalc.cli.main,
first plain and then with public functions of each module replaced, at
every name a module binds them to, by wrappers that record a span (name,
start, end, parent span, command id) and counts.  The package keeps no
memoized state between calls, so in-process commands do the same work as
fresh processes.  Spans stay in memory and are written to
out/spans-<workload>-seed<seed>.jsonl when the run ends.

A layer's `.s` metric is its self time: span time minus the spans of
wrapped functions it called.  README.md says which end-to-end metric
each of these should move, and on which workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from collections import Counter, defaultdict
from math import comb

import common
import workloads


def _cells(obj):
    return sum(obj.cell_count().values())


def count_cells(counts, name, args, result):
    counts[name + ".cells"] += _cells(result)


def count_coend(counts, name, args, result):
    """Work and waste of one coend: the colimit visits every simplex of
    every piece up to the top dimension, n_q * C(k, q) of them for the
    q-cells in dimension k (computed from the returned pieces)."""
    top = max(p.dimension for p in result.pieces.values())
    visited = sum(
        n_q * comb(k, q)
        for piece in result.pieces.values()
        for q, n_q in piece.cell_count().items()
        for k in range(q, top + 1)
    )
    counts[name + ".simplices_visited"] += visited
    counts[name + ".glued_cells"] += _cells(result.total)
    counts[name + ".merges"] += sum(result.gluing_log.values())


def count_chain_complex(counts, name, args, result):
    counts[name + ".generators"] += sum(r for k, r in result.ranks.items() if k >= 0)


def count_elim(counts, name, args, result):
    entries, nrows, ncols = args[:3]
    counts[name + ".nnz"] += sum(1 for e in entries if e[2])
    counts[name + ".rank"] += len(result)
    counts[name + ".max_rows"] = max(counts[name + ".max_rows"], nrows)
    counts[name + ".max_cols"] = max(counts[name + ".max_cols"], ncols)


def count_morphisms(counts, name, args, result):
    counts["category.morphisms"] += len(result)


def count_poset(counts, name, args, result):
    counts[name + ".elements"] += len(result.elements)


def count_power_pair(counts, name, args, result):
    counts[name + ".power_cells"] += _cells(result.power)
    counts[name + ".bad_cells"] += len(result.bad_cells)


def count_cache_get(counts, name, args, result):
    counts["envelope.cache_hits"] += result is not None


# (module, function, span name, counter); the span name is the metric prefix
TARGETS = (
    ("layers", "coend", "layers.coend", count_coend),
    ("layers", "coend_over_filtration", "layers.coend_over_filtration", None),
    ("layers", "stratum", "layers.stratum", None),
    ("layers", "t_space_map", "layers.t_space_map", None),
    ("layers", "power_quotient_map", "layers.power_quotient_map", None),
    ("layers", "derivative_report", "layers.derivative_report", None),
    ("simplicial", "product", "simplicial.product", count_cells),
    ("simplicial", "smash", "simplicial.smash", count_cells),
    ("simplicial", "quotient", "simplicial.quotient", count_cells),
    ("simplicial", "nerve", "simplicial.nerve", count_cells),
    ("simplicial", "t_space", "simplicial.t_space", count_cells),
    ("simplicial", "product_map", "simplicial.product_map", None),
    ("simplicial", "descend_to_quotients", "simplicial.descend_to_quotients", None),
    ("homology", "chain_complex", "homology.chain_complex", count_chain_complex),
    ("kernel", "sparse_elementary_divisors", "homology.elim", count_elim),
    ("homology", "rank_mod_p", "homology.rank_mod_p", None),
    ("category", "enumerate_en", "category.enumerate_en", None),
    ("category", "strict_fusions", "category.strict_fusions", count_morphisms),
    ("partitions", "refinement_poset", "partitions.refinement_poset", count_poset),
    ("fusion", "is_good", "fusion.is_good", None),
    ("powers", "power_pair", "powers.power_pair", count_power_pair),
    ("envelope", "cache_get", "envelope.cache_get", count_cache_get),
    ("envelope", "cache_put", "envelope.cache_put", None),
    ("envelope", "envelope", "envelope.envelope", None),
    ("envelope", "render", "envelope.render", None),
)

CALLS = (
    "layers.stratum",
    "simplicial.product",
    "simplicial.smash",
    "simplicial.quotient",
    "simplicial.nerve",
    "simplicial.t_space",
    "homology.chain_complex",
    "homology.elim",
    "homology.rank_mod_p",
    "category.enumerate_en",
    "category.strict_fusions",
    "partitions.refinement_poset",
    "fusion.is_good",
    "powers.power_pair",
)

COUNTS = (
    "layers.coend.simplices_visited",
    "layers.coend.glued_cells",
    "layers.coend.merges",
    "simplicial.product.cells",
    "simplicial.smash.cells",
    "simplicial.quotient.cells",
    "simplicial.nerve.cells",
    "simplicial.t_space.cells",
    "homology.chain_complex.generators",
    "homology.elim.nnz",
    "homology.elim.rank",
    "homology.elim.max_rows",
    "homology.elim.max_cols",
    "category.morphisms",
    "partitions.refinement_poset.elements",
    "powers.power_pair.power_cells",
    "powers.power_pair.bad_cells",
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, command id)
        self.stack = []
        self.counts = Counter()
        self.command = None

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.command)
            if counter is not None:
                # counting is a span of its own, so no layer's self time holds it
                start = time.perf_counter()
                counter(self.counts, name, args, result)
                self.spans.append(
                    ("trace.count", start, time.perf_counter(), parent, self.command)
                )
            return result

        return traced

    def self_times(self):
        """name -> (calls, total self time)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, selfs = Counter(), defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            selfs[name] += end - start - child_time[index]
        return calls, selfs

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps([name, start, end, parent, command]) + "\n")


def install(tracer):
    """Replace every target at each name bound to it in the package;
    return a function that puts the originals back."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "forestcalc"]
    undo = []
    for modname, func, name, counter in TARGETS:
        original = getattr(sys.modules[f"forestcalc.{modname}"], func)
        wrapper = tracer.wrap(name, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    verify = sys.modules["forestcalc.verify"]
    undo.append((verify, "CHECKS", verify.CHECKS))
    verify.CHECKS = tuple(
        (check, tracer.wrap(f"verify.{check}", fn)) for check, fn in verify.CHECKS
    )

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore


def import_package():
    for key in [k for k in os.environ if k.startswith("FORESTCALC_")]:
        del os.environ[key]
    sys.path.insert(0, str(common.SRC))
    import forestcalc.cli

    return forestcalc.cli


def one_pass(cli, steps, expected, tracer=None):
    """Run the steps through cli.main; return wall time and failures."""
    failures = []
    wall = 0.0
    for command_id, (key, argv) in enumerate(steps):
        out, err = io.StringIO(), io.StringIO()
        call = cli.main
        if tracer is not None:
            tracer.command = command_id
            call = tracer.wrap("command", cli.main)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(argv)
        wall += time.perf_counter() - start
        reason = common.check_output(code, out.getvalue(), expected[key])
        if reason:
            failures.append((key, reason))
    return wall, failures


def source_digest():
    """Digest of the program and benchmark sources, naming a count record."""
    h = hashlib.sha256()
    for base in (common.SRC / "forestcalc", common.HERE):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def per_layer_metrics(tracer, check_names, untraced_wall, traced_wall):
    calls, selfs = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for _, _, name, _ in TARGETS:
        metrics[f"{name}.s"] = (selfs[name], "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    visited = counts["layers.coend.simplices_visited"]
    useful = counts["layers.coend.glued_cells"] / visited if visited else 0.0
    metrics["layers.coend.useful_ratio"] = (useful, "ratio")
    gets = calls["envelope.cache_get"]
    hits = counts["envelope.cache_hits"] / gets if gets else 0.0
    metrics["envelope.cache_hit_ratio"] = (hits, "ratio")
    for check in check_names:
        metrics[f"verify.{check}.s"] = (selfs[f"verify.{check}"], "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def counts_repeat(workload, metrics):
    """Compare this run's counts with the last traced run of the same
    workload and sources; the first run of a workload records them."""
    counts = {k: v for k, (v, unit) in metrics.items()
              if unit != "s" and not k.startswith("trace.")}
    path = common.OUT / f"trace-counts-{workload}-{source_digest()}.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        differ = sorted(k for k in set(before) | set(counts)
                        if before.get(k) != counts.get(k))
        for k in differ:
            print(f"{workload} COUNT DIFFERS {k}: {before.get(k)} then {counts.get(k)}")
        return not differ
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return True


def run_traced(workload, seed, expected, work):
    cli = import_package()
    models = workloads.write_models(seed, work)
    plain, traced = (
        workloads.sequence(workload, seed, models, str(work / f"cache-{label}"))
        for label in ("plain", "traced")
    )
    untraced_wall, failures = one_pass(cli, plain, expected)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced_wall, traced_failures = one_pass(cli, traced, expected, tracer)
    finally:
        restore()
    failures += traced_failures
    tracer.write(common.OUT / f"spans-{workload}-seed{seed}.jsonl")
    check_names = [check for check, _ in sys.modules["forestcalc.verify"].CHECKS]
    metrics = per_layer_metrics(tracer, check_names, untraced_wall, traced_wall)
    extra = {
        "environment": common.environment(sys.modules["forestcalc.kernel"].IMPLEMENTATION),
        "counts_repeat": counts_repeat(workload, metrics),
        "spans": len(tracer.spans),
    }
    return common.Result(len(plain) + len(traced), failures, metrics, extra)
