"""The benchmark's workloads: fixed forestcalc command sequences.

A command is a key, which names its pinned exit code and payload digest
in expected.json, and its CLI arguments.  Layer commands name a model
("circle", "points:4", "wedge:2"); at set-up each model is written as a
JSON model file with cell ids drawn from the seed, and the argument is
replaced by that file's path.  Relabeling leaves the layer payload
unchanged, so the digests pinned from the built-in models still apply.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random

# cells of the built-in models, as in forestcalc.simplicial: vertices,
# then edges with their two faces
MODELS = {
    "circle": (["v"], {"e": ("v", "v")}),
    "points:4": (["p0", "p1", "p2", "p3"], {}),
    "wedge:2": (["v"], {"e0": ("v", "v"), "e1": ("v", "v")}),
}

COEND = (("layer", "--m", "circle", "--n", "2"),)

TSPACE = (
    ("tspace", "--lambda", "(0 1 2 3 4 5)"),
    ("tspace", "--lambda", "(0 1 2 3 4 5)", "--coeff", "F2"),
    ("tspace", "--lambda", "(0 1 2 3 4)(5 6)"),
    ("tspace", "--lambda", "(0 1 2 3)(4 5 6)"),
    ("tspace", "--lambda", "(0 1 2 3 4)", "--model", "suspension"),
)

CLI_MIX = (
    ("enumerate", "--n", "4"),
    ("goodness", "--lambda", "(0 1 2 3)(4 5 6)", "--all"),
    ("verify", "--level", "quick"),
    ("layer", "--m", "points:4", "--n", "2"),
    ("layer", "--m", "circle", "--n", "1"),
    ("layer", "--m", "wedge:2", "--n", "1"),
    ("tspace", "--lambda", "(0 1 2)(3 4)(5 6)"),
    ("cube-check", "--demo", "negative"),
    ("cube-check", "--demo", "interval"),
)

WORKLOADS = {"coend": COEND, "tspace": TSPACE, "cli-mix": CLI_MIX}

# cli-mix runs every command twice against one fresh cache directory
CACHED = {"cli-mix"}


def command_key(args):
    return " ".join(args)


def all_commands():
    """Every distinct command of every workload, in a fixed order."""
    seen = {}
    for commands in WORKLOADS.values():
        for args in commands:
            seen.setdefault(command_key(args), args)
    return list(seen.values())


def relabeled_model(name, rng):
    """JSON model data for a built-in model, with fresh cell ids."""
    vertices, edges = MODELS[name]
    names = vertices + list(edges)
    ids = rng.sample(range(1 << 48), len(names))
    fresh = {old: f"c{new:012x}" for old, new in zip(names, ids)}
    cells = [{"id": fresh[v], "dim": 0} for v in vertices]
    cells += [
        {"id": fresh[e], "dim": 1, "faces": [fresh[f] for f in faces]}
        for e, faces in edges.items()
    ]
    rng.shuffle(cells)
    return {"cells": cells}


def write_models(seed, directory):
    """Write every model as a relabeled JSON file; return name -> path."""
    rng = random.Random(f"models:{seed}")
    paths = {}
    for name in sorted(MODELS):
        path = os.path.join(directory, name.replace(":", "-") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(relabeled_model(name, rng), fh)
        paths[name] = path
    return paths


def model_args(args, model_paths):
    """The arguments with the model name after --m replaced by its file."""
    out = list(args)
    for i, token in enumerate(out[:-1]):
        if token == "--m":
            out[i + 1] = model_paths[out[i + 1]]
    return out


def sequence(workload, seed, model_paths, cache_dir):
    """The commands of one pass of a workload, as (key, argv) pairs.

    The seed sets the order.  A cached workload runs every command once
    in each of two orders against cache_dir, which must be new to the
    pass, so each command misses before it hits.
    """
    rng = random.Random(f"order:{workload}:{seed}")
    commands = list(WORKLOADS[workload])
    cached = workload in CACHED
    steps = []
    for _ in range(2 if cached else 1):
        rng.shuffle(commands)
        for args in commands:
            argv = model_args(args, model_paths)
            if cached:
                argv = ["--cache", cache_dir] + argv
            steps.append((command_key(args), argv))
    return steps
