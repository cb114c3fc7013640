"""The compute side of the command line: models and payload builders.

`cli.main` imports this module only when a command has to be computed,
so parsing arguments and serving cache hits never load the compute
layer.  Each builder takes the parsed arguments and returns the payload
and the exit code.
"""

from __future__ import annotations

import json
import os
import re

from .category import enumerate_en
from .cli import EXIT_COMPUTATION, EXIT_OK, parse_partition
from .errors import CapExceededError, ValidationError
from .fusion import goodness_via_graph, is_good
from .homology import cover_acyclicity, homology, parse_coefficients
from .layers import derivative_report
from .partitions import all_partitions, check_support_cap
from .simplicial import (
    PRODUCT_CELL_CAP,
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


def _model_count(spec):
    """The k of points:k or wedge:k: ASCII digits, no sign, no leading zero.

    Every power in a layer has support at least 2, so it has at least k^2
    cells; a k above the product cap is rejected before the model is built.
    """
    digits = spec.split(":", 1)[1]
    if not re.fullmatch(r"0|[1-9][0-9]*", digits):
        raise ValidationError(f"bad model {spec!r}: k must be a non-negative integer")
    if len(digits) > len(str(PRODUCT_CELL_CAP)) or int(digits) > PRODUCT_CELL_CAP:
        raise CapExceededError(f"bad model {spec!r}: k exceeds cap {PRODUCT_CELL_CAP}")
    return int(digits)


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
            except (ValueError, RecursionError) as exc:
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
    if args.all and args.delta is not None:
        raise ValidationError("give --delta or --all, not both")
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
    parse_coefficients(args.coeff)
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
    parse_coefficients(args.coeff)
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
        except (ValueError, RecursionError) as exc:
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


RUNNERS = {
    "enumerate": run_enumerate,
    "goodness": run_goodness,
    "tspace": run_tspace,
    "layer": run_layer,
    "cube-check": run_cube_check,
    "verify": run_verify,
}
