"""End-to-end tests of the command line interface."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import forestcalc
from forestcalc import commands, layers, simplicial
from forestcalc.cli import main, parse_partition
from forestcalc.envelope import cache_get
from forestcalc.homology import CUBE_GENERATOR_CAP
from forestcalc.partitions import make_partition
from forestcalc.simplicial import ProductFaces, SimplicialObject


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    monkeypatch.delenv("FORESTCALC_CACHE", raising=False)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    return code, json.loads(out), err


# --- enumerate -----------------------------------------------------------------


def test_enumerate_table(capsys):
    code, env, _ = run_json(capsys, ["enumerate", "--n", "2"])
    assert code == 0
    assert env["command"] == "enumerate"
    assert env["config"] == {"n": 2}
    payload = env["payload"]
    assert payload["hom_counts"] == [[6, 0], [24, 8]]
    assert payload["glue_pattern_counts"] == [[1, 0], [4, 1]]
    assert len(payload["objects"]) == 2


def test_enumerate_objects_only(capsys):
    code, env, _ = run_json(capsys, ["enumerate", "--n", "5", "--objects-only"])
    assert code == 0
    assert len(env["payload"]["objects"]) == 7
    assert "homs" not in env["payload"]


def test_enumerate_stratum_filter(capsys):
    code, env, _ = run_json(capsys, ["enumerate", "--n", "2", "--stratum", "2"])
    assert code == 0
    assert len(env["payload"]["objects"]) == 1
    assert "homs" not in env["payload"]
    assert "hom_counts" not in env["payload"]


def test_enumerate_bad_stratum(capsys):
    code, out, err = run_cli(capsys, ["enumerate", "--n", "2", "--stratum", "5"])
    assert code == 2
    assert out == ""
    assert "error:" in err


# --- goodness ------------------------------------------------------------------


def test_goodness_single(capsys):
    code, env, _ = run_json(
        capsys, ["goodness", "--lambda", "(0 1 2)", "--delta", "(0 1)(2)"]
    )
    assert code == 0
    payload = env["payload"]
    assert payload["routes_agree"] is True
    assert payload["good"] is payload["routes"]["excess"]


def test_goodness_sweep(capsys):
    code, env, _ = run_json(capsys, ["goodness", "--lambda", "(0 1 2)", "--all"])
    assert code == 0
    payload = env["payload"]
    assert len(payload["verdicts"]) == 5
    assert payload["bad_count"] == 4


def test_goodness_needs_delta_or_all(capsys):
    code, _, err = run_cli(capsys, ["goodness", "--lambda", "(0 1 2)"])
    assert code == 2
    assert "error:" in err


def test_goodness_delta_and_all_together_exit_2(capsys):
    argv = ["goodness", "--lambda", "(0 1 2)", "--delta", "(0 1)(2)", "--all"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: give --delta or --all, not both\n"


def test_goodness_json_blocks(capsys):
    code, env, _ = run_json(
        capsys, ["goodness", "--lambda", "[[0,1],[2,3]]", "--all"]
    )
    assert code == 0
    assert env["payload"]["bad_count"] == 10


def test_goodness_sweep_too_big_is_rejected_at_once(capsys):
    argv = ["goodness", "--lambda", "(0 1 2 3 4 5)(6 7 8 9)", "--all"]
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: support 10 exceeds cap 9\n"


# --- tspace --------------------------------------------------------------------


def test_tspace_quotient(capsys):
    code, env, _ = run_json(capsys, ["tspace", "--lambda", "(0 1 2)"])
    assert code == 0
    payload = env["payload"]
    assert payload["model"] == "quotient"
    assert payload["homology"]["groups"] == {"2": {"rank": 2, "torsion": []}}


def test_tspace_suspension_agrees(capsys):
    code_a, env_a, _ = run_json(capsys, ["tspace", "--lambda", "(0 1 2)"])
    code_b, env_b, _ = run_json(
        capsys, ["tspace", "--lambda", "(0 1 2)", "--model", "suspension"]
    )
    assert code_a == code_b == 0
    assert env_a["payload"]["homology"]["groups"] == env_b["payload"]["homology"]["groups"]


def test_tspace_bad_partition(capsys):
    code, _, err = run_cli(capsys, ["tspace", "--lambda", "garbage"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["tspace", "goodness"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("(a b)", "partition element 'a' is not a non-negative integer"),
        ("(0 1.5)", "partition element '1.5' is not a non-negative integer"),
        ('[[0,"x"]]', "partition element 'x' is not a non-negative integer"),
        ("[1,2]", "partition JSON must be a list of blocks"),
        ("(0 100000000)", "largest element 100000000 needs all of 0..100000000"),
        ("[[-1,0]]", "partition element -1 is not a non-negative integer"),
        ("junk(0 1)more", "cannot parse partition 'junk(0 1)more'"),
        ("(0 1)x(2 3)", "cannot parse partition '(0 1)x(2 3)'"),
        ("(0 1)(2 3", "cannot parse partition '(0 1)(2 3'"),
    ],
    ids=[
        "letters",
        "fraction",
        "json-string",
        "json-flat",
        "huge-element",
        "negative",
        "junk-around",
        "junk-between",
        "unclosed",
    ],
)
def test_bad_partition_is_one_error_line(capsys, command, text, message):
    argv = [command, "--lambda", text] + (["--all"] if command == "goodness" else [])
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tspace", "--lambda", "[[0,1],[0,2]]"],
        ["tspace", "--lambda", "(0 1)(0 2)"],
        ["goodness", "--lambda", "(0 1)", "--delta", "(0)(0 1)"],
    ],
    ids=["json", "cycles", "delta"],
)
def test_repeated_element_is_named(capsys, argv):
    # a repeated element is reported as such, not as blocks out of order
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: element 0 appears in two blocks\n"


@pytest.mark.parametrize(
    "text",
    ["[" * 960 + "]" * 960, '[[0,"' + "x" * 5000 + '"]]'],
    ids=["nested-brackets", "long-string"],
)
def test_bad_partition_element_error_is_short(text):
    # the error quotes the start of the offending token, not all of it;
    # run in a fresh interpreter, whose stack leaves the JSON parser
    # room for 960 levels
    proc = run_fresh("-m", "forestcalc", "tspace", "--lambda", text)
    code, out, err = proc.returncode, proc.stdout, proc.stderr
    assert (code, out) == (2, "")
    assert err.startswith("error: partition element ") and err.count("\n") == 1
    assert len(err) < 120 and "…" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["(0 1)(2 3)", " (0 1) (2 3) ", "(0,1)(2,3)"],
    ids=["adjacent", "spaced", "commas"],
)
def test_partition_text_forms(text):
    assert parse_partition(text) == make_partition(4, [[0, 1], [2, 3]])


@pytest.mark.parametrize("model", ["quotient", "suspension"])
def test_tspace_too_big_is_rejected_at_once(capsys, model):
    argv = ["tspace", "--lambda", "(0 1 2 3 4 5 6 7)", "--model", model]
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: tree space has 1587600 top cells, exceeds cap 56700\n"


@pytest.mark.parametrize("model", ["quotient", "suspension"])
@pytest.mark.parametrize("support", [10, 3001])
def test_tspace_support_over_cap_is_rejected_at_once(capsys, model, support):
    # the support cap comes before the top cells are counted: at support
    # 3001 their count has too many digits to print
    lam = "(" + " ".join(map(str, range(support))) + ")"
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["tspace", "--lambda", lam, "--model", model])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: support {support} exceeds cap 9\n"


def test_tspace_repeat_in_a_long_block_is_rejected_at_once(capsys):
    # the repeated element is found in one counting pass, not by one
    # scan of the block per element
    lam = "(0 " + " ".join(map(str, range(20_000))) + ")"
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["tspace", "--lambda", lam])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: element 0 repeated inside a block\n"


def test_tspace_suspension_too_big_is_rejected_at_once(capsys):
    # T7 itself passes the tree-space cap; its suspension model has six
    # times its top cells
    argv = ["tspace", "--lambda", "(0 1 2 3 4 5 6)", "--model", "suspension"]
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: suspension model has 340200 top cells, exceeds cap 13500\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tspace", "--lambda", "(0 1 2 3 4 5 6)"],
        ["layer", "--m", "circle", "--n", "2"],
    ],
    ids=["tspace-T7", "layer-circle"],
)
@pytest.mark.parametrize(
    "coeff, message",
    [
        ("F4", "error: 4 is not prime"),
        ("F2305843009213693951", "error: coefficient prime exceeds cap 2147483647"),
        ("F+3", "error: bad coefficient spec 'F+3'"),
        ("F03", "error: bad coefficient spec 'F03'"),
        ("F\u0663", "error: bad coefficient spec 'F\u0663'"),
        ("R", "error: bad coefficient spec 'R'"),
    ],
    ids=["composite", "huge-prime", "sign", "leading-zero", "non-ascii-digit", "unknown"],
)
def test_bad_coefficients_are_rejected_at_once(capsys, argv, coeff, message):
    start = time.monotonic()
    code, out, err = run_cli(capsys, argv + ["--coeff", coeff])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == message + "\n"


def test_tspace_many_small_blocks_accepted(capsys):
    code, env, _ = run_json(capsys, ["tspace", "--lambda", "(0 1)(2 3)(4 5)(6 7)"])
    assert code == 0
    assert env["payload"]["cells"]["4"] == 24
    assert env["payload"]["homology"]["groups"] == {"4": {"rank": 1, "torsion": []}}


# --- layer ----------------------------------------------------------------------


def test_layer_report(capsys):
    code, env, _ = run_json(capsys, ["layer", "--m", "points:2", "--n", "1"])
    assert code == 0
    payload = env["payload"]
    assert payload["schema"] == "layer-report/1"
    assert payload["coend"]["groups"] == {"1": {"rank": 1, "torsion": []}}
    assert payload["euler_additivity"]["passed"] is True


def test_layer_emit_cells(capsys):
    code, env, _ = run_json(
        capsys, ["layer", "--m", "points:2", "--n", "1", "--emit-cells"]
    )
    assert code == 0
    assert "coend_cells" in env["payload"]


@pytest.mark.parametrize("emit", [False, True], ids=["plain", "emit-cells"])
def test_layer_builds_each_coend_once(capsys, monkeypatch, emit):
    # one census gives the cell counts and one latching coend the whole
    # layer and each of its two strata, whose homology is read once
    # each; no coend piece, smash or simplicial chain complex is built
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in ("layer_census", "latching_coend", "homology_of_complex", "_coend_pieces", "smash"):
        count(layers, name)
    # the package exports a function named homology, so fetch the module
    count(sys.modules["forestcalc.homology"], "chain_complex")
    argv = ["layer", "--m", "points:2", "--n", "2"] + (["--emit-cells"] if emit else [])
    code, env, _ = run_json(capsys, argv)
    assert code == 0
    assert calls == {"layer_census": 1, "latching_coend": 1, "homology_of_complex": 3}
    assert ("coend_cells" in env["payload"]) == emit


@pytest.mark.parametrize(
    "argv",
    [["layer", "--m", "points:3", "--n", "2"], ["tspace", "--lambda", "(0 1 2)(3 4)"]],
    ids=["layer", "tspace"],
)
def test_debug_validation_keeps_stdout(capsys, monkeypatch, argv):
    # FORESTCALC_DEBUG=1 validates every simplicial object on construction;
    # a product face table computes faces on lookup and starts empty, so
    # after validation it must hold the faces of every positive-dimensional
    # cell
    validated = []
    unchecked = []
    original = SimplicialObject.validate

    def counting(self):
        validated.append(self)
        lazy = isinstance(self.faces, ProductFaces)
        result = original(self)
        if lazy:
            unchecked.append(
                [c for k, cs in self.cells.items() if k for c in cs if c not in self.faces]
            )
        return result

    monkeypatch.setattr(SimplicialObject, "validate", counting)
    monkeypatch.delenv("FORESTCALC_DEBUG", raising=False)
    code, plain, _ = run_cli(capsys, argv)
    unchecked_plain = len(validated)
    monkeypatch.setenv("FORESTCALC_DEBUG", "1")
    code_debug, debug, _ = run_cli(capsys, argv)
    assert code == code_debug == 0
    assert debug == plain
    assert len(validated) > unchecked_plain
    assert all(not cells for cells in unchecked)
    if argv[0] == "layer":
        # the layer builds no product: it reads the power's simplices off
        # the model, and validates the model and its tree spaces
        assert unchecked == []


def test_coend_computes_faces_only_for_glued_cells(monkeypatch):
    # the colimit reads a piece's faces only for its glued representatives
    # and never those of a mixing piece, so only those face tuples are
    # ever computed; the coend is glued once, and stage 1 is a subobject
    # of the glued space, so it computes no faces of its own
    monkeypatch.delenv("FORESTCALC_DEBUG", raising=False)
    built = []
    smash = layers.smash

    def recording(*args):
        built.append(smash(*args))
        return built[-1]

    monkeypatch.setattr(layers, "smash", recording)
    assembly = layers.coend(simplicial.model_circle(), 2)
    pieces = list(assembly.pieces.values())
    mixing = [w for w in built if not any(w is p for p in pieces)]
    assert len(pieces) == 2 and len(mixing) == 1
    assert [len(w.faces) for w in mixing] == [0]
    computed = sum(len(p.faces) for p in pieces)
    glued = sum(
        n_k
        for stage in assembly.stages.values()
        for k, n_k in stage.cell_count().items()
        if k > 0
    )
    assert computed <= glued
    # the 570 glued cells of positive dimension, out of 6,420 piece cells
    assert computed == 570
    assert sum(n_k for p in pieces for k, n_k in p.cell_count().items() if k) == 6420


def test_coend_reads_each_relation_image_once(monkeypatch):
    # each piece is divided by its automorphisms as orbits of factor-cell
    # pairs, read off the generators' factor maps, so only the relation
    # of the one non-iso arrow reads images through ProductImages: once
    # per cell of its 529-cell mixing piece on each side (26,746 reads
    # when every generator was applied cell by cell)
    reads = []
    getitem = simplicial.ProductImages.__getitem__

    def counting(self, cell):
        reads.append(self.source)
        return getitem(self, cell)

    monkeypatch.setattr(simplicial.ProductImages, "__getitem__", counting)
    layers.coend(simplicial.model_circle(), 2)
    assert len(reads) == 1058
    (w,) = {id(source): source for source in reads}.values()
    assert sum(w.cell_count().values()) == 529


# stdout of `layer` at the commit before the layer was computed from
# latching-free cells, by sha256
LAYER_STDOUT = {
    ("circle", 1): "69c26e098f0edc1b4663ce60210a05f8d06edd828eccfa3e4dac8782d1faca23",
    ("circle", 2): "ca306bdd556be49247a7e19063370fa87443be42b9c1be966c7d09712088dddb",
    ("interval", 1): "7941c584810e6012ff09c12c890f88aa661567a5c81d01d5c1404179119e6c48",
    ("interval", 2): "4ae7978bb24b7d27a7558facf615ae449ebfb66fe9b5e48fdeefe506e2bbc534",
    ("points:3", 1): "fca8a56129c828d685fd448caeac321aa3299296b305e0dc94c571e9eee8cd2e",
    ("points:3", 2): "140aed94aeb4cbbd33f0920a46a0987a0f061c45e3f7d7179d35a64935cdc9e7",
    ("wedge:2", 1): "c8f8fc5354803ab51e3401e049ff2bf25abe64e461738656c65fa866dd6fc06a",
    ("wedge:2", 2): "afa690920382e1708d06c178e29db885d830e1d09c2d1c169c3fe8a91821fff1",
    ("points:15", 2): "a76a90cae2ae519fb7773c76eba4597e5f02715c36ee1c84aaf13bd872132520",
}


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refused


def test_layer_never_reaches_the_simplicial_coend(capsys, monkeypatch):
    # the simplicial coend is the tests' oracle; with every step of it
    # refused, `layer` prints the same bytes as when it glued the coend
    for name in ("coend", "_coend_pieces", "_glue", "stratum", "smash", "power_pair"):
        monkeypatch.setattr(layers, name, _refuse(name))
    for (model, n), digest in LAYER_STDOUT.items():
        code, out, err = run_cli(capsys, ["layer", "--m", model, "--n", str(n)])
        assert (code, err) == (0, ""), (model, n)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (model, n)


@pytest.mark.parametrize(
    "model, cells", [("points:16", 171_360), ("points:17", 220_320), ("points:19", 348_840)]
)
def test_layer_piece_over_the_cap_is_rejected_at_once(capsys, model, cells):
    # the powers fit the cap but a piece, the power quotient of (0 1)(2 3)
    # smashed with its tree space, does not; its cells are counted before
    # any is built (1.3 to 2.8 s when the coend built up to that piece)
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["layer", "--m", model, "--n", "2"])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: product has {cells} cells, exceeds cap 150000\n"


TRIANGLE = {
    "cells": [
        {"id": "a", "dim": 0},
        {"id": "b", "dim": 0},
        {"id": "c", "dim": 0},
        {"id": "ab", "dim": 1, "faces": ["b", "a"]},
        {"id": "bc", "dim": 1, "faces": ["c", "b"]},
        {"id": "ac", "dim": 1, "faces": ["c", "a"]},
        {"id": "abc", "dim": 2, "faces": ["bc", "ac", "ab"]},
    ]
}


def test_layer_of_a_triangle(capsys, tmp_path):
    # a 2-simplex fits at n = 1, with the payload pinned before the layer
    # was computed from latching-free cells; at n = 2 the power of
    # (0 1)(2 3) has dimension 8, over the product dimension cap
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE), encoding="utf-8")
    code, env, err = run_json(capsys, ["layer", "--m", str(path), "--n", "1"])
    assert (code, err) == (0, "")
    assert env["digest"] == "5ab7ee07eb76ee274cb403dcb8ed9831965db50036068a7ba914e12688278f3e"
    code, out, err = run_cli(capsys, ["layer", "--m", str(path), "--n", "2"])
    assert (code, out) == (2, "")
    assert err == "error: product dimension 8 exceeds cap 6\n"


def test_layer_coend_cap_message(capsys):
    code, out, err = run_cli(capsys, ["layer", "--m", "points:2", "--n", "3"])
    assert (code, out) == (2, "")
    assert err == "error: coend for n=3 exceeds cap 2\n"


@pytest.mark.parametrize(
    "model, n, cells",
    [("points:60", "2", 216_000), ("points:3000", "1", 9_000_000)],
)
def test_layer_product_too_big_is_rejected_at_once(capsys, model, n, cells):
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["layer", "--m", model, "--n", n])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: product has {cells} cells, exceeds cap 150000\n"


def test_layer_rejects_an_oversized_power_before_building_any(capsys, monkeypatch):
    # every power is counted before the first is built: points:20 at n = 2
    # fits the power of the first object (8,000 cells) but not that of
    # (2, 2), and nothing is built before the error
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return record

    monkeypatch.setattr(layers, "power_pair", refuse("power_pair"))
    monkeypatch.setattr(layers, "smash", refuse("smash"))
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["layer", "--m", "points:20", "--n", "2"])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: product has 160000 cells, exceeds cap 150000\n"
    assert calls == []


def test_layer_unknown_model(capsys):
    code, _, err = run_cli(capsys, ["layer", "--m", "bogus", "--n", "1"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec, code",
    [
        ("points:abc", 2),
        ("wedge:x", 2),
        ("points:-1", 2),
        ("wedge:-2", 2),
        ("points:+3", 2),
        ("points: 3", 2),
        ("points:1_0", 2),
        ("points:\u0663", 2),  # an Arabic-Indic three
        ("points:03", 2),
        ("wedge:03", 2),
        ("points:1000000000000", 2),
        ("wedge:1000000000000", 2),
        ("points:0", 0),  # the empty model
        ("wedge:0", 0),  # a point
    ],
)
def test_layer_model_count(capsys, spec, code):
    start = time.monotonic()
    got, out, err = run_cli(capsys, ["layer", "--m", spec, "--n", "1"])
    assert time.monotonic() - start < 1.0
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert json.loads(out)["config"]["m"] == spec


def test_layer_model_from_file(capsys, tmp_path):
    model = {
        "cells": [
            {"id": "a", "dim": 0},
            {"id": "b", "dim": 0},
        ]
    }
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code, env, _ = run_json(capsys, ["layer", "--m", str(path), "--n", "1"])
    assert code == 0
    assert env["payload"]["coend"]["groups"] == {"1": {"rank": 1, "torsion": []}}


# --- cube-check -------------------------------------------------------------------


def test_cube_demos(capsys):
    for demo in ("interval", "circle"):
        code, env, _ = run_json(capsys, ["cube-check", "--demo", demo])
        assert code == 0
        assert env["payload"]["acyclic"] is True
    code, env, _ = run_json(capsys, ["cube-check", "--demo", "negative"])
    assert code == 0  # the failure is expected there
    assert env["payload"]["acyclic"] is False
    assert env["payload"]["expected_acyclic"] is False


def test_cube_from_file(capsys, tmp_path):
    data = {
        "model": {
            "cells": [
                {"id": "v0", "dim": 0},
                {"id": "v1", "dim": 0},
                {"id": "e", "dim": 1, "faces": ["v1", "v0"]},
            ]
        },
        "covers": [["v0", "v1", "e"], ["v0", "v1"]],
    }
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, env, _ = run_json(capsys, ["cube-check", "--file", str(path)])
    assert code == 0
    assert env["payload"]["acyclic"] is True
    assert env["payload"]["file"] == "cube.json"


def test_cube_demo_and_file_together_exit_2(capsys):
    argv = ["cube-check", "--demo", "interval", "--file", "/no/such.json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: give --demo or --file, not both\n"


def test_cube_with_too_many_covers_is_rejected_at_once(capsys, tmp_path):
    # 2^40 corners: only a check made before any corner is built returns
    interval = [
        {"id": "v0", "dim": 0},
        {"id": "v1", "dim": 0},
        {"id": "e", "dim": 1, "faces": ["v1", "v0"]},
    ]
    data = {"model": {"cells": interval}, "covers": [["v0", "v1", "e"]] * 40}
    path = tmp_path / "many.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["cube-check", "--file", str(path)])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 40 covers exceed cap 12\n"


def test_cube_over_the_generator_cap_is_rejected_at_once(capsys, tmp_path):
    # 100 points in every corner of 2^12: 409,600 generators, counted
    # before any corner is built
    points = [{"id": f"p{i}", "dim": 0} for i in range(100)]
    data = {"model": {"cells": points}, "covers": [[p["id"] for p in points]] * 12}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.monotonic()
    code, out, err = run_cli(capsys, ["cube-check", "--file", str(path)])
    assert time.monotonic() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: cube has 409600 generators, exceeds cap 170000\n"


@pytest.mark.parametrize("command", ["layer", "cube-check"])
def test_model_file_over_the_cell_cap_is_rejected_before_it_is_built(
    capsys, tmp_path, monkeypatch, command
):
    # one cell more than a cube may have generators: refused as soon as
    # the cells are listed, before any cell is checked or built
    count = CUBE_GENERATOR_CAP + 1
    model = {"cells": [{"id": i, "dim": 0} for i in range(count)]}
    data = model if command == "layer" else {"model": model, "covers": [[]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("a cell was checked")

    monkeypatch.setattr(simplicial, "check_cell_id", refuse)
    flag = ["--m", str(path), "--n", "1"] if command == "layer" else ["--file", str(path)]
    code, out, err = run_cli(capsys, [command] + flag)
    assert (code, out) == (2, "")
    assert err == f"error: model has {count} cells, exceeds cap {CUBE_GENERATOR_CAP}\n"


def test_cube_file_missing_keys(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}", encoding="utf-8")
    code, _, err = run_cli(capsys, ["cube-check", "--file", str(path)])
    assert code == 2
    assert "error:" in err


def test_cube_file_bad_covers_shape(capsys, tmp_path):
    data = {
        "model": {"cells": [{"id": "v", "dim": 0}]},
        "covers": 5,
    }
    path = tmp_path / "bad_covers.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run_cli(capsys, ["cube-check", "--file", str(path)])
    assert code == 2
    assert "covers" in err


def test_layer_file_wrong_cells_shape(capsys, tmp_path):
    # "cells" as a dim-to-names dict instead of a list of records
    path = tmp_path / "wrong_shape.json"
    path.write_text(
        json.dumps({"cells": {"0": ["p", "q"]}}), encoding="utf-8"
    )
    code, _, err = run_cli(capsys, ["layer", "--m", str(path), "--n", "1"])
    assert code == 2
    assert "error:" in err


def test_cube_nonexistent_file(capsys):
    code, _, err = run_cli(capsys, ["cube-check", "--file", "/no/such/file.json"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "command, data, message",
    [
        (
            "cube-check",
            {"model": {"cells": [{"id": "a", "dim": 0}]}, "covers": [[["a"]]]},
            "cover entry ['a'] is not a string or an integer",
        ),
        ("cube-check", ["model", "covers"], 'cube files need an object'),
        ("layer", {"cells": [{"id": ["a"], "dim": 0}]}, "cell id ['a'] is not a string"),
        (
            "layer",
            {"cells": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1, "faces": 3}]},
            "faces of 'e' must be a list",
        ),
        (
            "layer",
            {"cells": [{"id": "a", "dim": 0}], "basepoint": ["a"]},
            "basepoint ['a'] is not a string",
        ),
    ],
    ids=["nested-cover-entry", "top-level-list", "list-cell-id", "faces-number", "list-basepoint"],
)
def test_bad_json_is_one_error_line(capsys, tmp_path, command, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    flag = ["--file", str(path)] if command == "cube-check" else ["--m", str(path), "--n", "1"]
    code, out, err = run_cli(capsys, [command] + flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def nested_json(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize(
    "command, depth",
    [("layer", 200_000), ("cube-check", 200_000), ("tspace", 30_000)],
)
def test_too_deep_json_is_one_error_line(capsys, tmp_path, command, depth):
    # json gives up on deep nesting with RecursionError, not ValueError
    path = tmp_path / "deep.json"
    path.write_text(nested_json(depth), encoding="utf-8")
    argv = {
        "layer": ["layer", "--m", str(path), "--n", "1"],
        "cube-check": ["cube-check", "--file", str(path)],
        "tspace": ["tspace", "--lambda", nested_json(depth)],
    }[command]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_too_deep_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["tspace", "--lambda", "(0 1 2)"]
    _, fresh, _ = run_cli(capsys, argv)
    cache = tmp_path / "cache"
    run_cli(capsys, ["--cache", str(cache)] + argv)
    (name,) = os.listdir(cache)
    (cache / name).write_text(nested_json(200_000), encoding="utf-8")
    assert run_cli(capsys, ["--cache", str(cache)] + argv) == (0, fresh, "")
    # the fresh envelope replaced the corrupt entry
    assert (cache / name).read_text(encoding="utf-8") == fresh


# --- verify ------------------------------------------------------------------------


def test_verify_quick(capsys):
    code, env, _ = run_json(capsys, ["verify", "--level", "quick"])
    assert code == 0
    assert env["payload"]["passed"] is True
    assert len(env["payload"]["checks"]) == 19


def test_verify_byte_identical(capsys):
    _, out_a, _ = run_cli(capsys, ["verify", "--level", "quick"])
    _, out_b, _ = run_cli(capsys, ["verify", "--level", "quick"])
    assert out_a == out_b


def test_verify_fault_exit(capsys):
    code, env, _ = run_json(capsys, ["verify", "--inject-fault"])
    assert code == 1
    assert env["payload"]["passed"] is False


# --- global options -----------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "env.json"
    code, out, _ = run_cli(
        capsys, ["--out", str(path), "enumerate", "--n", "1"]
    )
    assert code == 0
    assert out == ""
    env = json.loads(path.read_text(encoding="utf-8"))
    assert env["command"] == "enumerate"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, ["--format", "text", "enumerate", "--n", "1"])
    assert code == 0
    assert out.startswith("forestcalc ")
    assert out.rstrip().splitlines()[-1].startswith("digest ")


def test_timings_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, ["--timings", "enumerate", "--n", "1"])
    assert code == 0
    assert "wall" in err
    json.loads(out)  # stdout stays clean


def test_cache_hit_is_byte_identical(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = ["--cache", cache, "tspace", "--lambda", "(0 1)"]
    code_a, out_a, _ = run_cli(capsys, argv)
    assert code_a == 0
    stored = os.listdir(cache)
    assert len(stored) == 1
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_b == 0
    assert out_a == out_b
    # different config gets its own entry
    run_cli(capsys, ["--cache", cache, "tspace", "--lambda", "(0 1 2)"])
    assert len(os.listdir(cache)) == 2


def test_zero_valued_option_is_part_of_the_cache_key(capsys, tmp_path):
    # --stratum 0 is bad input, not a hit on the entry without --stratum
    cache = str(tmp_path / "cache")
    run_cli(capsys, ["--cache", cache, "enumerate", "--n", "2"])
    argv = ["enumerate", "--n", "2", "--stratum", "0"]
    code, out, err = run_cli(capsys, ["--cache", cache] + argv)
    assert (code, out, err) == (2, "", "error: stratum must lie in 1..2\n")
    assert run_cli(capsys, argv) == (code, out, err)


def test_cache_write_survives_a_taken_temporary_name(capsys, tmp_path):
    # whatever sits at <key>.json.tmp does not stop a run from storing its
    # entry: each process writes through a temporary name of its own
    argv = ["tspace", "--lambda", "(0 1 2)"]
    _, fresh, _ = run_cli(capsys, argv)
    cache = tmp_path / "cache"
    run_cli(capsys, ["--cache", str(cache)] + argv)
    (name,) = os.listdir(cache)
    os.remove(cache / name)
    os.mkdir(cache / (name + ".tmp"))
    code, out, _ = run_cli(capsys, ["--cache", str(cache)] + argv)
    assert (code, out) == (0, fresh)
    assert (cache / name).read_text(encoding="utf-8") == fresh


def _bump_euler(env):
    env["payload"]["homology"]["euler"] += 1


def _edit_config_and_version(env):
    # payload and digest still agree; only the context is wrong
    env["config"]["lam"] = "(0 1)"
    env["version"] = "0.0.0"


def test_edited_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["tspace", "--lambda", "(0 1 2)"]
    _, fresh, _ = run_cli(capsys, argv)
    for edit in (_bump_euler, _edit_config_and_version):
        cache = str(tmp_path / edit.__name__)
        run_cli(capsys, ["--cache", cache] + argv)
        (name,) = os.listdir(cache)
        path = os.path.join(cache, name)
        with open(path, encoding="utf-8") as fh:
            env = json.load(fh)
        edit(env)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(env, fh)
        code, out, _ = run_cli(capsys, ["--cache", cache] + argv)
        assert code == 0
        assert out == fresh, edit.__name__
        # the fresh envelope replaced the edited entry
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(fresh)


TSPACE_012 = ["tspace", "--lambda", "(0 1 2)"]


def _cached_entry(capsys, cache, argv):
    """Run argv against a new cache directory; its one entry's path."""
    run_cli(capsys, ["--cache", str(cache)] + argv)
    (name,) = os.listdir(cache)
    return cache / name


def _one_byte_edits(text):
    """The entry with one byte changed in the frame (the config and the
    tool name), in the digest and in the payload."""

    def at(marker):
        return text.index(marker) + len(marker)

    def replace(i, new):
        assert text[i] != new
        return text[:i] + new + text[i + 1:]

    digest, payload = at('"digest":"'), at('"payload":')
    digit = next(i for i in range(payload, len(text)) if text[i].isdigit())
    return {
        "config": replace(at('"lam":"(0 1 '), "3"),
        "tool": replace(at('"tool":"'), "F"),
        "digest": replace(digest, "1" if text[digest] == "0" else "0"),
        "payload": replace(digit, "9" if text[digit] != "9" else "8"),
    }


def test_one_byte_edit_of_a_cache_entry_is_a_miss(capsys, tmp_path):
    _, fresh, _ = run_cli(capsys, TSPACE_012)
    for where, edited in _one_byte_edits(fresh).items():
        path = _cached_entry(capsys, tmp_path / where, TSPACE_012)
        assert path.read_text(encoding="utf-8") == fresh
        path.write_text(edited, encoding="utf-8")
        key = path.name[: -len(".json")]
        assert cache_get(str(path.parent), key, "tspace", {"lam": "(0 1 2)"}) is None, where
        assert run_cli(capsys, ["--cache", str(path.parent)] + TSPACE_012) == (0, fresh, "")
        # the fresh envelope replaced the edited entry
        assert path.read_text(encoding="utf-8") == fresh, where


def test_reformatted_cache_entry_is_a_miss_and_is_rewritten(capsys, tmp_path):
    _, fresh, _ = run_cli(capsys, TSPACE_012)
    path = _cached_entry(capsys, tmp_path, TSPACE_012)
    for pretty in (
        json.dumps(json.loads(fresh), indent=2) + "\n",
        fresh.replace("\n", "\r\n"),
        fresh[:-1],
    ):
        path.write_text(pretty, encoding="utf-8", newline="")
        assert json.loads(path.read_text(encoding="utf-8")) == json.loads(fresh)
        key = path.name[: -len(".json")]
        assert cache_get(str(tmp_path), key, "tspace", {"lam": "(0 1 2)"}) is None
        assert run_cli(capsys, ["--cache", str(tmp_path)] + TSPACE_012) == (0, fresh, "")
        assert path.read_bytes() == fresh.encode()


@pytest.mark.parametrize(
    "argv",
    [
        TSPACE_012,
        ["enumerate", "--n", "1"],
        ["enumerate", "--n", "2"],
        ["goodness", "--lambda", "(0 1)(2 3)", "--all"],
        ["layer", "--m", "points:2", "--n", "1"],
    ],
    ids=["tspace", "enumerate-1", "enumerate-2", "goodness", "layer"],
)
def test_text_format_hit_equals_the_miss(capsys, tmp_path, argv):
    # a hit renders the payload read back from canonical JSON, keys
    # sorted; short lists of records (the objects of enumerate --n 1)
    # render with sorted keys on a miss too
    text_argv = ["--format", "text", "--cache", str(tmp_path)] + argv
    _, uncached, _ = run_cli(capsys, ["--format", "text"] + argv)
    miss = run_cli(capsys, text_argv)
    assert miss == (0, uncached, "")
    assert run_cli(capsys, text_argv) == miss
    # the entry is the canonical JSON whatever the format of the run
    _, fresh, _ = run_cli(capsys, argv)
    (name,) = os.listdir(tmp_path)
    assert (tmp_path / name).read_text(encoding="utf-8") == fresh
    assert run_cli(capsys, ["--cache", str(tmp_path)] + argv) == (0, fresh, "")


def test_json_hit_parses_no_json(capsys, tmp_path, monkeypatch):
    argv = ["--cache", str(tmp_path), "enumerate", "--n", "3"]
    code, miss, _ = run_cli(capsys, argv)
    assert code == 0

    def no_parse(*args, **kwargs):
        raise AssertionError("a hit parsed JSON")

    monkeypatch.setattr(json, "load", no_parse)
    monkeypatch.setattr(json, "loads", no_parse)
    assert run_cli(capsys, argv) == (0, miss, "")
    out = tmp_path / "out.json"
    assert run_cli(capsys, ["--out", str(out)] + argv) == (0, "", "")
    assert out.read_text(encoding="utf-8") == miss


def test_cache_serves_a_payload_stored_with_its_own_digest(capsys, tmp_path):
    # the digest catches edits and damage, not a writer of the cache
    # directory: a payload rewritten together with its digest is served
    # as stored, and under --format text one that is not JSON is a miss
    _, fresh, _ = run_cli(capsys, TSPACE_012)
    path = _cached_entry(capsys, tmp_path, TSPACE_012)
    head, rest = fresh.split('"digest":"')
    _, tail = rest.split('","payload":', 1)
    tail = tail[tail.index(',"tool":'):]
    for payload in ('{"forged":true}', "not json"):
        digest = hashlib.sha256((payload + "\n").encode()).hexdigest()
        forged = f'{head}"digest":"{digest}","payload":{payload}{tail}'
        path.write_text(forged, encoding="utf-8")
        assert run_cli(capsys, ["--cache", str(tmp_path)] + TSPACE_012) == (0, forged, "")
    code, out, err = run_cli(capsys, ["--format", "text", "--cache", str(tmp_path)] + TSPACE_012)
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, ["--format", "text"] + TSPACE_012)[1]
    assert path.read_text(encoding="utf-8") == fresh


def _must_not_run(*args, **kwargs):
    raise AssertionError("the command ran")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
def test_cache_path_that_is_a_file_exits_2_before_any_work(capsys, tmp_path, monkeypatch, below):
    # the file itself, or a path below it that no directory could hold
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x", encoding="utf-8")
    path = blocker / below if below else blocker
    monkeypatch.setattr(commands, "enumerate_en", _must_not_run)
    code, out, err = run_cli(capsys, ["--cache", str(path), "enumerate", "--n", "2"])
    assert (code, out) == (2, "")
    if below:
        assert err == f"error: cache path {path} is below {blocker}, which is not a directory\n"
    else:
        assert err == f"error: cache path {path} is not a directory\n"


def test_out_into_missing_directory_exits_2_before_any_work(capsys, tmp_path, monkeypatch):
    path = tmp_path / "missing" / "env.json"
    monkeypatch.setattr(commands, "enumerate_en", _must_not_run)
    code, out, err = run_cli(capsys, ["--out", str(path), "enumerate", "--n", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: no directory for --out {path}\n"
    assert not path.parent.exists()


def test_failed_writes_are_one_error_line(capsys, tmp_path):
    # a cache directory below a file cannot be made, and a directory
    # cannot be opened as the --out file
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    for argv in (
        ["--cache", str(blocker / "cache")],
        ["--out", str(tmp_path)],
    ):
        code, out, err = run_cli(capsys, argv + ["enumerate", "--n", "1"])
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_failures_are_not_cached(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, _, _ = run_cli(capsys, ["--cache", cache, "verify", "--inject-fault"])
    assert code == 1
    assert not os.path.exists(cache) or os.listdir(cache) == []


def test_module_entrypoint():
    # run from the directory holding the package under test, so a checkout
    # works without installing it
    proc = subprocess.run(
        [sys.executable, "-m", "forestcalc", "enumerate", "--n", "1"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(forestcalc.__file__)),
    )
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    assert env["tool"] == "forestcalc"


# --- start-up -------------------------------------------------------------------

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")

# what the compute layer loads; none of it is needed to parse arguments
# or to serve a cache hit
COMPUTE_MODULES = {"dataclasses"} | {
    f"forestcalc.{name}"
    for name in (
        "kernel",
        "partitions",
        "fusion",
        "category",
        "simplicial",
        "homology",
        "powers",
        "layers",
        "verify",
        "commands",
    )
}


def run_fresh(*args, **env):
    """Run a fresh interpreter on args from the directory holding the
    package under test, with env added to the environment."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(forestcalc.__file__)),
        env={**os.environ, **env},
    )


def loaded_after(code):
    """What a fresh interpreter prints running code, as lines, and the
    modules it holds afterwards."""
    proc = run_fresh("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], set(json.loads(lines[-1]))


def test_parsing_loads_no_compute_module():
    _, loaded = loaded_after("import forestcalc.cli\nforestcalc.cli.build_parser()")
    assert not loaded & COMPUTE_MODULES, sorted(loaded & COMPUTE_MODULES)


def test_no_process_loads_openssl(monkeypatch, tmp_path):
    # the envelope digests come from the interpreter's built-in SHA-256;
    # hashlib's OpenSSL module costs every process megabytes of memory.
    # Nor does the compute layer load dataclasses, which brings inspect,
    # ast and dis; a miss still loads every module the benchmark traces
    monkeypatch.syspath_prepend(PERFBENCH)
    traced = {f"forestcalc.{modname}" for modname, *_ in importlib.import_module("tracing").TARGETS}
    run = (
        "from forestcalc.cli import main\n"
        f"assert main(['--cache', {str(tmp_path)!r}, 'tspace', '--lambda', '(0 1)']) == 0"
    )
    _, loaded = loaded_after("import forestcalc.cli\nforestcalc.cli.build_parser()")
    assert "_hashlib" not in loaded
    miss, loaded = loaded_after(run)  # loads the whole compute layer
    assert "_hashlib" not in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded & {"dataclasses", "inspect"})
    assert traced <= loaded, sorted(traced - loaded)
    hit, loaded = loaded_after(run)
    assert "_hashlib" not in loaded
    assert hit == miss and len(os.listdir(tmp_path)) == 1


def test_envelope_digests_without_openssl():
    import hashlib
    import importlib.util

    from forestcalc import envelope

    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256")
    assert envelope.sha256 is not hashlib.sha256


def test_cache_hit_loads_no_compute_module(capsys, tmp_path):
    argv = ["--cache", str(tmp_path), "tspace", "--lambda", "(0 1)(2 3)"]
    code, miss, _ = run_cli(capsys, argv)
    assert code == 0
    printed, loaded = loaded_after(
        f"from forestcalc.cli import main\nassert main({argv!r}) == 0"
    )
    assert printed == miss.splitlines()
    assert not loaded & COMPUTE_MODULES, sorted(loaded & COMPUTE_MODULES)


def test_miss_loads_every_traced_module(monkeypatch):
    # the benchmark's traced run looks these modules up after one plain
    # pass, and the tspace workload's plain pass runs tspace commands only
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import tracing

    _, loaded = loaded_after(
        "from forestcalc.cli import main\n"
        "assert main(['tspace', '--lambda', '(0 1)']) == 0"
    )
    wanted = {f"forestcalc.{module}" for module, _, _, _ in tracing.TARGETS}
    assert wanted | {"forestcalc.verify"} <= loaded


@pytest.mark.parametrize(
    "first",
    ["import forestcalc.layers", "import forestcalc.homology", "import forestcalc", ""],
)
def test_exported_homology_stays_the_function(first):
    # the submodule homology shares its name with an exported function;
    # loading the submodule must not rebind the package attribute
    proc = run_fresh(
        "-c",
        f"{first}\n"
        "from forestcalc import homology\n"
        "import forestcalc, forestcalc.homology\n"
        "assert forestcalc.homology is homology\n"
        "print(type(homology).__name__)",
    )
    assert (proc.stdout, proc.stderr) == ("function\n", "")


def test_cube_demo_names_are_the_verify_demos():
    from forestcalc.cli import CUBE_DEMO_NAMES
    from forestcalc.verify import CUBE_DEMOS

    assert CUBE_DEMO_NAMES == tuple(CUBE_DEMOS)


# argparse's output under Python 3.11 at 80 columns
HELP = """\
usage: forestcalc [-h] [--format {json,text}] [--out OUT] [--cache [CACHE]]
                  [--timings]
                  {enumerate,goodness,tspace,layer,cube-check,verify} ...

partition fusions, tree spaces, and layer homology

positional arguments:
  {enumerate,goodness,tspace,layer,cube-check,verify}
    enumerate           objects and morphisms at a given excess
    goodness            goodness of a partition relative to another
    tspace              tree space homology of a partition
    layer               layer report for a model and excess
    cube-check          acyclicity of a cover cube
    verify              run the named invariant checks

options:
  -h, --help            show this help message and exit
  --format {json,text}
  --out OUT             write the envelope to a file instead of stdout
  --cache [CACHE]       cache envelopes (optional directory; default
                        ~/.cache/forestcalc)
  --timings             print wall time to stderr
"""

BAD_DEMO = """\
usage: forestcalc cube-check [-h] [--demo {interval,circle,negative}]
                             [--file FILE]
forestcalc cube-check: error: argument --demo: invalid choice: 'bogus' \
(choose from 'interval', 'circle', 'negative')
"""


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["--help"], 0, HELP, ""),
        (["cube-check", "--demo", "bogus"], 2, "", BAD_DEMO),
    ],
    ids=["help", "bad-demo"],
)
def test_parser_texts(argv, code, stdout, stderr):
    proc = run_fresh("-m", "forestcalc", *argv, COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
