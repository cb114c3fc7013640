"""Tooling around the package.  The benchmark's traced run
(perfbench/tracing.py) wraps package functions by module and name, so
each of them must keep existing; the README's examples must run; the
package's lazily loaded exports must exist; no module, test module
included, keeps an import it does not use, at the top or inside a
function; homology eliminates through the one kernel, leaving the
reference routes to verify and the tests; coreduction has one routine
and one caller, its dict-based reference living in the tests; one
routine lays out every boundary, and simplicial.py has one smash, whose
face table computes each face on lookup; a product map computes each
image on lookup and stores no table of them; only the two tables whose
words can become degenerate, the product's faces and a product map's
images, normalize refs jointly; the latching route moves a face onto
its image partition through the merge kernel that `image_partition`
and `meet` share, and pushes top cycles through the image cache of
their map, keeping no memo of its own; the package leaves no
reference cycles for the garbage collector, so no nested function refers
to itself; no package module imports dataclasses, its records being
plain classes whose frozen ones share one base that refuses assignment;
and the partition, fusion, category and verify modules keep no
process-wide memo, their caches living on the objects that own them."""

import ast
import gc
import glob
import importlib
import os
import re
from collections import Counter

import pytest

import forestcalc.verify
from forestcalc.category import automorphism_group, enumerate_en
from forestcalc.fusion import PartitionMorphism
from forestcalc.homology import HomologyGroup
from forestcalc.layers import coend, derivative_report
from forestcalc.partitions import Frozen, Partition, SetMap, all_partitions, make_partition
from forestcalc.simplicial import model_circle, model_points
from forestcalc.verify import run_checks

ROOT = os.path.dirname(os.path.dirname(__file__))
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "forestcalc")
TESTS = os.path.join(ROOT, "tests")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_trace_targets_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    for modname, func, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"forestcalc.{modname}")
        assert callable(getattr(module, func, None)), (modname, func)
    assert forestcalc.verify.CHECKS


def test_trace_coend_counter_reads_assembly(monkeypatch):
    tracing = _tracing(monkeypatch)
    counts = Counter()
    tracing.count_coend(counts, "layers.coend", (), coend(model_points(2), 1))
    assert counts["layers.coend.glued_cells"] > 0


def test_readme_python_blocks_run(capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        # a print line's trailing comment is one line of its output
        for expected in re.findall(r"^print\(.*\)\s+# (.+)$", block, re.MULTILINE):
            assert expected in printed, (expected, printed)


def _imports_with_scope(tree):
    """Each import statement with the innermost function around it, or
    with the module when there is none."""
    found = []

    def visit(scope, node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((scope, child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child if inner else scope, child)

    visit(tree, tree)
    return found


def test_no_unused_imports():
    # an import inside a function must be used inside that function
    unused = []
    paths = glob.glob(os.path.join(PACKAGE, "*.py")) + glob.glob(os.path.join(TESTS, "*.py"))
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for scope, stmt in _imports_with_scope(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append((os.path.basename(path), stmt.lineno, name))
    assert not unused, unused


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_package_imports_no_dataclasses():
    # dataclasses loads inspect, ast and dis into every process, and
    # each decorated class compiles its methods at import; the records
    # are plain classes with slots
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append((os.path.basename(path), node.lineno))
    assert not found, found


def test_frozen_records_refuse_assignment_and_compare_by_fields():
    # partitions and homology groups, compared and used as keys, are
    # equal and equally hashed when their fields are
    p = make_partition(3, [[2], [1, 0]])
    assert p == Partition(3, ((0, 1), (2,))) and hash(p) == hash(Partition(3, ((0, 1), (2,))))
    assert p != Partition(3, ((0,), (1, 2)))
    g = HomologyGroup(1, (2,))
    assert g == HomologyGroup(1, (2,)) and hash(g) == hash(HomologyGroup(1, (2,)))
    assert g != HomologyGroup(1, ())
    assert repr(g) == "HomologyGroup(rank=1, torsion=(2,))"
    f = SetMap(3, 2, (0, 0, 1))
    morphism = PartitionMorphism(p, Partition(2, ((0,), (1,))), f)
    # the five records share one frozen base, which names each class
    for record in (p, g, f, morphism, automorphism_group(p)):
        cls = type(record)
        assert issubclass(cls, Frozen)
        assert "__setattr__" not in cls.__dict__ and "__delattr__" not in cls.__dict__
        refused = f"^{cls.__name__} is frozen: cannot"
        for name in record.__slots__:
            before = getattr(record, name)
            with pytest.raises(AttributeError, match=f"{refused} assign {name}$"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"{refused} delete {name}$"):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError, match=f"{refused} assign extra$"):
            record.extra = None


def test_lazy_exports_are_defined():
    # the package loads its exported names on first use from a table of
    # name -> submodule; the table must cover __all__ exactly, and each
    # submodule must define its names, not import them
    (table,) = (
        ast.literal_eval(node.value)
        for node in _parse(os.path.join(PACKAGE, "__init__.py")).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
    )
    assert set(table) == set(forestcalc.__all__)
    missing = []
    for module in set(table.values()):
        defined = set()
        for node in _parse(os.path.join(PACKAGE, module + ".py")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        missing += [(name, m) for name, m in table.items() if m == module and name not in defined]
    assert not missing, sorted(missing)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_one_elimination_in_production():
    # homology reads every ring off the kernel's divisors, from one call
    # site; the mod-p elimination and the dense Smith form are reference
    # routes that only verify and the tests may call
    callers = {"rank_mod_p": (), "smith_normal_form": ("verify.py",), "diagonal_of": ("verify.py",)}
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)
        for node in ast.walk(_parse(path)):
            name = isinstance(node, ast.Call) and _called_name(node)
            if name in callers and module not in callers[name]:
                found.append((module, node.lineno, name))
    assert not found, found
    kernel_sites = [
        (getattr(scope, "name", None), node.lineno)
        for scope in _parse(os.path.join(PACKAGE, "homology.py")).body
        for node in ast.walk(scope)
        if isinstance(node, ast.Call) and _called_name(node) == "sparse_elementary_divisors"
    ]
    assert [scope for scope, _ in kernel_sites] == ["homology_of_complex"], kernel_sites


def test_one_coreduction_in_production():
    # the package defines one unit-pair reducer and homology calls it from
    # one site; the dict-based reference reducer lives in the tests alone
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, calls, reference = [], [], []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)
        tree = _parse(path)
        for scope in tree.body:
            for node in ast.walk(scope):
                if isinstance(node, functions) and re.search(r"(^|_)(co)?reduc", node.name):
                    defined.append((module, node.name))
                if isinstance(node, ast.Call) and _called_name(node) == "reduce_complex":
                    calls.append((module, getattr(scope, "name", None)))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "reduce_complex_reference":
                reference.append((module, node.lineno))
    assert defined == [("homology.py", "reduce_complex")], defined
    assert calls == [("homology.py", "homology_of_complex")], calls
    assert not reference, reference
    helpers_defs = [
        node.name
        for node in _parse(os.path.join(TESTS, "helpers.py")).body
        if isinstance(node, functions)
    ]
    assert "reduce_complex_reference" in helpers_defs


def test_one_boundary_layout_in_production():
    # every boundary is laid out once, straight from each generator's
    # summed faces: the package builds every chain complex from runs,
    # on one numbering with no labels, homology.py lays runs out from one
    # call site and sorts nothing by a key into runs, a cube's total
    # cofiber is summed from its corners' faces with no complex per
    # corner, and the checks read the runs, not triples; the product
    # face table has one mode, computing each face on lookup,
    # simplicial.py defines one smash and takes the faces of a simplex
    # in one routine, and the suspension model, read from the chain space
    # it suspends, builds no smash or product and has no face table
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    complexes = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and _called_name(node) == "ChainComplex":
                complexes.append((module, node.lineno, {k.arg for k in node.keywords}))
    assert complexes
    assert all("runs" in keys and not keys & {"entries", "labels"} for _, _, keys in complexes), (
        complexes
    )
    simplicial = _parse(os.path.join(PACKAGE, "simplicial.py"))
    defined = {node.name: node for node in ast.walk(simplicial) if isinstance(node, functions)}
    (simplicial_object,) = [
        node
        for node in simplicial.body
        if isinstance(node, ast.ClassDef) and node.name == "SimplicialObject"
    ]
    methods = [node.name for node in simplicial_object.body if isinstance(node, functions)]
    assert "face_of_ref" not in methods, methods
    (product_faces,) = [
        node
        for node in simplicial.body
        if isinstance(node, ast.ClassDef) and node.name == "ProductFaces"
    ]
    methods = [node.name for node in product_faces.body if isinstance(node, functions)]
    assert "fill" not in methods, methods
    assert [name for name in defined if name.endswith("smash")] == ["smash"]
    suspension_calls = [
        _called_name(node)
        for node in ast.walk(defined["t_space_suspension_model"])
        if isinstance(node, ast.Call)
    ]
    assert not {"smash", "_smash_cells", "product"} & set(suspension_calls), suspension_calls
    classes = [node.name for node in simplicial.body if isinstance(node, ast.ClassDef)]
    assert "SuspensionFaces" not in classes, classes
    tree = _parse(os.path.join(PACKAGE, "homology.py"))
    layout_sites = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, functions)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and _called_name(node) == "_lay_out"
    ]
    assert layout_sites == ["__init__"], layout_sites
    (chain_complex_class,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ChainComplex"
    ]
    methods = {node.name: node for node in chain_complex_class.body if isinstance(node, functions)}
    assert "labels" not in {arg.arg for arg in methods["__init__"].args.args}
    validate_reads = {
        getattr(node, "attr", None) for node in ast.walk(methods["validate"])
    }
    assert not validate_reads & {"entries", "boundary"}, validate_reads
    (cube_cofiber,) = [
        node for node in tree.body if isinstance(node, functions) and node.name == "cube_cofiber"
    ]
    cube_calls = {_called_name(node) for node in ast.walk(cube_cofiber) if isinstance(node, ast.Call)}
    assert "chain_complex" not in cube_calls, cube_calls
    assert "labels" not in {getattr(node, "attr", None) for node in ast.walk(cube_cofiber)}
    keyed_sorts = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) in ("sorted", "sort")
        for k in node.keywords
        if k.arg == "key" and not (isinstance(k.value, ast.Name) and k.value.id == "repr")
    ]
    assert not keyed_sorts, keyed_sorts
    assert "itemgetter" not in {getattr(node, "id", None) for node in ast.walk(tree)}


def test_one_product_count_and_one_numbering():
    # every product is counted by one closed form: the surjection tuples
    # are enumerated only for the builders, no other count of pairs or
    # smashes is defined, and a complex is given only as runs; the layer
    # numbers its generators once and reads each stratum off the one
    # complex it builds
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, callers = set(), []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        for scope in ast.walk(_parse(path)):
            if not isinstance(scope, functions):
                continue
            defined.add(scope.name)
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and _called_name(node) == "_joint_surjection_tuples":
                    callers.append(scope.name)
    assert callers == ["_surjection_tuples"], callers
    assert {"product_counts", "nondegenerate_counts"} <= defined
    assert not {"_joint_counts", "_smash_counts", "_summed_runs"} & defined
    tree = _parse(os.path.join(PACKAGE, "homology.py"))
    (chain_complex_class,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ChainComplex"
    ]
    (init,) = [node for node in chain_complex_class.body if getattr(node, "name", None) == "__init__"]
    assert [arg.arg for arg in init.args.args] == ["self", "ranks", "runs"]
    layers_tree = _parse(os.path.join(PACKAGE, "layers.py"))
    (latching_coend,) = [
        node for node in layers_tree.body if isinstance(node, functions) and node.name == "latching_coend"
    ]
    built = [
        node.lineno
        for node in ast.walk(latching_coend)
        if isinstance(node, ast.Call) and _called_name(node) == "ChainComplex"
    ]
    assert len(built) == 1, built
    loops = (ast.For, ast.comprehension)
    assert not [
        node.lineno
        for loop in ast.walk(latching_coend)
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and _called_name(node) == "ChainComplex"
    ]


def test_product_map_stores_no_image_table():
    # product_map wraps a ProductImages and loops over no cell; that
    # table is a read-only Mapping, not a dict that fills, binds no table
    # to a name like mapping, and stores nothing under the cell it is
    # asked for
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    simplicial = _parse(os.path.join(PACKAGE, "simplicial.py"))
    (product_map,) = [
        node for node in simplicial.body if isinstance(node, functions) and node.name == "product_map"
    ]
    (images,) = [
        node for node in simplicial.body if isinstance(node, ast.ClassDef) and node.name == "ProductImages"
    ]
    loops = (ast.For, ast.While, ast.comprehension, ast.Dict, ast.DictComp)
    assert not [node.lineno for node in ast.walk(product_map) if isinstance(node, loops)]
    assert "ProductImages" in {
        _called_name(node) for node in ast.walk(product_map) if isinstance(node, ast.Call)
    }
    assert [getattr(base, "id", None) for base in images.bases] == ["Mapping"]
    methods = {node.name: node for node in images.body if isinstance(node, functions)}
    assert not methods.keys() & {"__setitem__", "__missing__"}, sorted(methods)
    tables = [
        node.lineno
        for scope in (product_map, images)
        for node in ast.walk(scope)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if (getattr(target, "id", None) or getattr(target, "attr", None)) in ("mapping", "images", "table")
    ]
    assert not tables, tables
    getitem = methods["__getitem__"]
    key = getitem.args.args[1].arg
    keyed_stores = [
        node.lineno
        for node in ast.walk(images)
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and key in {getattr(name, "id", None) for name in ast.walk(node.slice)}
    ]
    assert not keyed_stores, keyed_stores


def test_latching_faces_use_the_shared_partition_kernel():
    # the latching route moves a face onto its image partition through
    # the merge kernel, with no union-find walk of its own, and pushes a
    # top cycle through the image cache its map keeps, taking no memo
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    layers = {
        node.name: node
        for node in _parse(os.path.join(PACKAGE, "layers.py")).body
        if isinstance(node, functions)
    }
    orbit, pushed = layers["_orbit_of_face"], layers["_pushed_cycle"]
    assert "_merged_blocks" in {
        _called_name(node) for node in ast.walk(orbit) if isinstance(node, ast.Call)
    }
    assert not [node.lineno for node in ast.walk(orbit) if isinstance(node, ast.While)]
    assert [arg.arg for arg in pushed.args.args] == ["source", "target", "f", "w"]
    assert not pushed.args.defaults and not pushed.args.kwonlyargs
    stores = [
        node.lineno
        for node in ast.walk(pushed)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
    ]
    assert not stores, stores


def test_joint_normalizer_only_where_words_can_degenerate():
    # a product's faces and a product map's images renormalize refs
    # whose words can share a degeneracy, so no other code in the
    # package constructs a JointNormalizer
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    sites = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        tree = _parse(path)
        for scope in tree.body:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and _called_name(node) == "JointNormalizer":
                    name = scope.name if isinstance(scope, functions) else None
                    sites.append((os.path.basename(path), name))
    assert sorted(sites) == [("simplicial.py", "ProductFaces"), ("simplicial.py", "ProductImages")], sites


def test_no_self_referencing_nested_functions():
    # a nested function that refers to its own name holds the cell that
    # holds it: a reference cycle that keeps the function, and all it
    # closes over, alive until the cyclic garbage collector runs
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for outer in ast.walk(tree):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, functions):
                    continue
                if any(
                    isinstance(node, ast.Name) and node.id == inner.name
                    for node in ast.walk(inner)
                ):
                    found.add((os.path.basename(path), inner.lineno, inner.name))
    assert not found, sorted(found)


MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "__setitem__",
}


def _own_nodes(function):
    """The nodes of a function's body, not those of functions, lambdas or
    classes nested in it."""
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, nested))


def _module_state_stores(tree):
    """Where a function of the module writes to a module-level name: a
    global statement, a store into a subscript of the name, a mutating
    method called on it, or a mutable default argument, which outlives
    its call the same way."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    module_names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, functions):
            continue
        args = function.args
        for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
            literal = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
            built = isinstance(default, ast.Call) and _called_name(default) in ("dict", "list", "set")
            if isinstance(default, literal) or built:
                found.append((default.lineno, "mutable default"))
        if isinstance(function, ast.Lambda):
            continue
        nodes = list(_own_nodes(function))
        local = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
        local |= {a.arg for a in (args.vararg, args.kwarg) if a}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module_names - local
        for node in nodes:
            if isinstance(node, ast.Global):
                found.append((node.lineno, "global " + ", ".join(node.names)))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                base = node.value
                if isinstance(base, ast.Name) and base.id in shared:
                    found.append((node.lineno, base.id + "[...]"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if node.func.attr in MUTATING_METHODS and isinstance(base, ast.Name) and base.id in shared:
                    found.append((node.lineno, f"{base.id}.{node.func.attr}"))
    return found


def _function_caches(tree):
    """Uses of functools' memoizing decorators."""
    memoizers = {"cache", "lru_cache"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, a.name) for a in node.names if a.name in memoizers]
        elif isinstance(node, ast.Attribute) and node.attr in memoizers:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append((node.lineno, "functools." + node.attr))
    return found


# the modules of the category, the fusions and their checks
MEMO_FREE = ("partitions.py", "fusion.py", "verify.py", "category.py")


def test_partition_and_fusion_work_keeps_no_module_memo():
    # a map keeps the images computed through it and a check keeps what
    # it tabulates, so both are freed with their owner; a process-wide
    # memo on images, meets or partition lists would hold every value
    # any command ever asked for (verify --level exhaustive grew from
    # 26.9 to 37.6 MB with one)
    found = []
    for module in MEMO_FREE:
        tree = _parse(os.path.join(PACKAGE, module))
        found += [(module, *where) for where in _module_state_stores(tree) + _function_caches(tree)]
    assert not found, found


def test_module_memo_guard_sees_a_memo():
    # the guard above, on code that keeps a process-wide memo each way
    memo = ast.parse(
        "_SEEN = {}\n"
        "ORDER = []\n"
        "def image(f, p):\n"
        "    if p not in _SEEN:\n"
        "        _SEEN[p] = f(p)\n"
        "    ORDER.append(p)\n"
        "    return _SEEN[p]\n"
        "def count(p, seen={}):\n"
        "    global ORDER\n"
        "    return seen.setdefault(p, len(seen))\n"
        "def local(p):\n"
        "    ORDER = []\n"
        "    ORDER.append(p)\n"
        "    _SEEN = {}\n"
        "    _SEEN[p] = p\n"
    )
    assert sorted(what for _, what in _module_state_stores(memo)) == [
        "ORDER.append", "_SEEN[...]", "global ORDER", "mutable default",
    ]
    cached = ast.parse(
        "import functools\n"
        "from functools import lru_cache, cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def meet(p, q):\n"
        "    return p\n"
    )
    assert sorted(what for _, what in _function_caches(cached)) == [
        "cache", "functools.lru_cache", "lru_cache",
    ]


@pytest.mark.parametrize(
    "work",
    [
        lambda: enumerate_en(4),
        lambda: list(all_partitions(6)),
        lambda: derivative_report(model_circle(), 2),
        lambda: run_checks("quick"),
    ],
    ids=["enumerate_en", "all_partitions", "derivative_report", "run_checks"],
)
def test_no_cyclic_garbage(work):
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        gc.enable()
