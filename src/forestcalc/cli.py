"""Command line interface.

Every subcommand prints one result envelope; timings go to stderr so
that identical computations stay byte-identical on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .category import enumerate_en
from .envelope import (
    cache_directory,
    cache_get,
    cache_key,
    cache_put,
    envelope,
    render,
)
from .errors import CapExceededError, NotAFusionError, ValidationError
from .fusion import goodness_via_graph, is_good
from .homology import cover_acyclicity, homology
from .layers import derivative_report
from .partitions import all_partitions, check_support_cap, make_partition
from .simplicial import (
    check_cell_id,
    model_circle,
    model_from_json,
    model_interval,
    model_points,
    model_wedge_of_circles,
    t_space,
    t_space_suspension_model,
)
from .verify import CUBE_DEMOS, results_payload, run_checks

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_INPUT = 2


def _element(token):
    """A partition element: a digit string or a JSON integer, at least 0."""
    if isinstance(token, str) and re.fullmatch(r"[0-9]+", token):
        return int(token)
    if type(token) is int and token >= 0:
        return token
    raise ValidationError(f"partition element {token!r} is not a non-negative integer")


def parse_partition(text):
    """Accepts "(0 1)(2 3)" or a JSON list of blocks like [[0,1],[2,3]].

    The text form is nothing but parenthesised groups and whitespace;
    commas may separate the elements of a group.

    The elements must be exactly 0..k-1, so a largest element that the
    element count cannot reach is rejected before the support is built.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            blocks = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"bad partition JSON: {exc}") from exc
        if not all(isinstance(b, list) for b in blocks):
            raise ValidationError(
                f"partition JSON must be a list of blocks like [[0,1],[2,3]], got {text!r}"
            )
    else:
        groups = re.findall(r"\(([^()]*)\)", text)
        whole = re.fullmatch(r"(\s*\([^()]*\))+\s*", text)
        if not whole or "".join(groups).strip() == "":
            raise ValidationError(f"cannot parse partition {text!r}")
        blocks = [g.replace(",", " ").split() for g in groups]
    blocks = [[_element(x) for x in b] for b in blocks]
    flat = [x for b in blocks for x in b]
    if not flat:
        raise ValidationError("empty partition")
    top = max(flat)
    if top >= len(flat):
        raise ValidationError(
            f"largest element {top} needs all of 0..{top}, only {len(flat)} given"
        )
    return make_partition(top + 1, blocks)


def _model_count(spec):
    """The k of points:k or wedge:k, which must be a non-negative integer."""
    try:
        k = int(spec.split(":", 1)[1])
    except ValueError:
        k = -1
    if k < 0:
        raise ValidationError(f"bad model {spec!r}: k must be a non-negative integer")
    return k


def load_model(spec):
    """Built-in names (points:k, circle, interval, wedge:k) or a JSON file."""
    if spec == "circle":
        return model_circle()
    if spec == "interval":
        return model_interval()
    if spec.startswith("points:"):
        return model_points(_model_count(spec))
    if spec.startswith("wedge:"):
        return model_wedge_of_circles(_model_count(spec))
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ValidationError(f"bad model JSON in {spec}: {exc}") from exc
        return model_from_json(data)
    raise ValidationError(
        f"unknown model {spec!r}; use points:k, circle, interval, wedge:k, or a JSON path"
    )


# ---------------------------------------------------------------------------
# subcommand payload builders


def run_enumerate(args):
    table = enumerate_en(
        args.n, include_homs=not args.objects_only and args.stratum is None
    )
    data = table.to_json()
    if args.stratum is not None:
        if not 1 <= args.stratum <= args.n:
            raise ValidationError(f"stratum must lie in 1..{args.n}")
        keep = [
            idx for idx, s in enumerate(table.strata) if s == args.stratum
        ]
        data["objects"] = [data["objects"][i] for i in keep]
        data["strata"] = [args.stratum] * len(keep)
    return data, EXIT_OK


def run_goodness(args):
    lam = parse_partition(args.lam)
    if args.all:
        check_support_cap(lam.support_size)
        verdicts = []
        for delta in all_partitions(lam.support_size):
            verdicts.append(
                {
                    "delta": delta.to_json(),
                    "good": is_good(delta, lam),
                }
            )
        return {
            "lam": lam.to_json(),
            "verdicts": verdicts,
            "bad_count": sum(1 for v in verdicts if not v["good"]),
        }, EXIT_OK
    if args.delta is None:
        raise ValidationError("need --delta or --all")
    delta = parse_partition(args.delta)
    excess_route = is_good(delta, lam)
    graph_route = goodness_via_graph(delta, lam)
    payload = {
        "lam": lam.to_json(),
        "delta": delta.to_json(),
        "good": excess_route,
        "routes": {"excess": excess_route, "graph": graph_route},
        "routes_agree": excess_route == graph_route,
    }
    return payload, EXIT_OK if payload["routes_agree"] else EXIT_COMPUTATION


def run_tspace(args):
    lam = parse_partition(args.lam)
    if args.model == "suspension":
        space = t_space_suspension_model(lam)
    else:
        space = t_space(lam)
    result = homology(space, coefficients=args.coeff)
    return {
        "lam": lam.to_json(),
        "model": args.model,
        "cells": {str(k): v for k, v in space.cell_count().items()},
        "homology": result.to_json(),
    }, EXIT_OK


def run_layer(args):
    model = load_model(args.m)
    report = derivative_report(
        model, args.n, coefficients=args.coeff, emit_cells=args.emit_cells
    )
    exit_code = EXIT_OK
    if not report["euler_additivity"]["passed"] or not report["degree_support"]["passed"]:
        exit_code = EXIT_COMPUTATION
    return report, exit_code


def run_cube_check(args):
    if args.demo is not None and args.file is not None:
        raise ValidationError("give --demo or --file, not both")
    if args.demo is not None:
        run, expected, _ = CUBE_DEMOS[args.demo]
        ok, result = run()
        payload = {
            "case": args.demo,
            "acyclic": ok,
            "expected_acyclic": expected,
            "homology": result.to_json(),
        }
        return payload, EXIT_OK if ok == expected else EXIT_COMPUTATION
    if args.file is None:
        raise ValidationError("need --demo or --file")
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"bad cube JSON: {exc}") from exc
    if not isinstance(data, dict) or "model" not in data or "covers" not in data:
        raise ValidationError('cube files need an object with "model" and "covers" keys')
    covers = data["covers"]
    if not isinstance(covers, list) or not all(isinstance(c, list) for c in covers):
        raise ValidationError('"covers" must be a list of cell-name lists')
    for cover in covers:
        for cid in cover:
            check_cell_id(cid, "cover entry")
    obj = model_from_json(data["model"])
    ok, result = cover_acyclicity(obj, covers)
    payload = {
        "file": os.path.basename(args.file),
        "acyclic": ok,
        "homology": result.to_json(),
    }
    return payload, EXIT_OK if ok else EXIT_COMPUTATION


def run_verify(args):
    results = run_checks(args.level, inject_fault=args.inject_fault)
    payload = results_payload(results, args.level)
    return payload, EXIT_OK if payload["passed"] else EXIT_COMPUTATION


# ---------------------------------------------------------------------------
# wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="forestcalc",
        description="partition fusions, tree spaces, and layer homology",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--out", help="write the envelope to a file instead of stdout")
    parser.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        help="cache envelopes (optional directory; default ~/.cache/forestcalc)",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print wall time to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="objects and morphisms at a given excess")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stratum", type=int, default=None)
    p.add_argument("--objects-only", action="store_true")
    p.set_defaults(func=run_enumerate)

    p = sub.add_parser("goodness", help="goodness of a partition relative to another")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=run_goodness)

    p = sub.add_parser("tspace", help="tree space homology of a partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--model", choices=["quotient", "suspension"], default="quotient")
    p.add_argument("--coeff", default="Z")
    p.set_defaults(func=run_tspace)

    p = sub.add_parser("layer", help="layer report for a model and excess")
    p.add_argument("--m", required=True, help="points:k, circle, interval, wedge:k, or JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeff", default="Z")
    p.add_argument("--emit-cells", action="store_true")
    p.set_defaults(func=run_layer)

    p = sub.add_parser("cube-check", help="acyclicity of a cover cube")
    p.add_argument("--demo", choices=list(CUBE_DEMOS), default=None)
    p.add_argument("--file", default=None)
    p.set_defaults(func=run_cube_check)

    p = sub.add_parser("verify", help="run the named invariant checks")
    p.add_argument("--level", choices=["quick", "exhaustive"], default="quick")
    p.add_argument("--inject-fault", action="store_true")
    p.set_defaults(func=run_verify)

    return parser


CONFIG_KEYS = {
    "enumerate": ("n", "stratum", "objects_only"),
    "goodness": ("lam", "delta", "all"),
    "tspace": ("lam", "model", "coeff"),
    "layer": ("m", "n", "coeff", "emit_cells"),
    "cube-check": ("demo", "file"),
    "verify": ("level", "inject_fault"),
}


def _config_of(args):
    return {
        key: getattr(args, key)
        for key in CONFIG_KEYS[args.command]
        if getattr(args, key) not in (None, False)
    }


def _input_blobs(args):
    """File contents that feed the computation, for cache keys."""
    blobs = []
    for attr in ("file", "m"):
        value = getattr(args, attr, None)
        if value and os.path.exists(value):
            with open(value, "rb") as fh:
                blobs.append(fh.read())
    return blobs


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    config = _config_of(args)
    cache_dir = cache_directory(args.cache)
    key = None
    env = None
    exit_code = EXIT_OK
    if cache_dir is not None:
        key = cache_key(args.command, config, _input_blobs(args))
        env = cache_get(cache_dir, key, args.command, config)
    if env is None:
        try:
            payload, exit_code = args.func(args)
        except (ValidationError, CapExceededError, NotAFusionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        env = envelope(args.command, config, payload)
        if cache_dir is not None and exit_code == EXIT_OK:
            cache_put(cache_dir, key, env)
    text = render(env, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.timings:
        print(f"wall {time.monotonic() - started:.3f}s", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
