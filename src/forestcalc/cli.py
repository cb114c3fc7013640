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

from .envelope import (
    cache_directory,
    cache_get,
    cache_key,
    cache_put,
    envelope,
    render,
)
from .errors import ValidationError

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_INPUT = 2

# the names of verify.CUBE_DEMOS, which lives on the compute side
CUBE_DEMO_NAMES = ("interval", "circle", "negative")


ECHO_CHARS = 40  # of a bad token, quoted in its one-line error


def _element(token):
    """A partition element: a digit string or a JSON integer, at least 0.
    The error quotes at most ECHO_CHARS characters of a bad token."""
    if isinstance(token, str) and re.fullmatch(r"[0-9]+", token):
        return int(token)
    if type(token) is int and token >= 0:
        return token
    shown = repr(token)
    if len(shown) > ECHO_CHARS:
        shown = shown[:ECHO_CHARS] + "…"
    raise ValidationError(f"partition element {shown} is not a non-negative integer")


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
        except (ValueError, RecursionError) as exc:
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
    from .partitions import make_partition

    return make_partition(top + 1, blocks)


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

    p = sub.add_parser("goodness", help="goodness of a partition relative to another")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--delta", default=None)
    p.add_argument("--all", action="store_true")

    p = sub.add_parser("tspace", help="tree space homology of a partition")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--model", choices=["quotient", "suspension"], default="quotient")
    p.add_argument("--coeff", default="Z")

    p = sub.add_parser("layer", help="layer report for a model and excess")
    p.add_argument("--m", required=True, help="points:k, circle, interval, wedge:k, or JSON path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeff", default="Z")
    p.add_argument("--emit-cells", action="store_true")

    p = sub.add_parser("cube-check", help="acyclicity of a cover cube")
    p.add_argument("--demo", choices=CUBE_DEMO_NAMES, default=None)
    p.add_argument("--file", default=None)

    p = sub.add_parser("verify", help="run the named invariant checks")
    p.add_argument("--level", choices=["quick", "exhaustive"], default="quick")
    p.add_argument("--inject-fault", action="store_true")

    return parser


# the options every command takes, none of which changes its result
GLOBAL_OPTIONS = ("command", "format", "out", "cache", "timings")


def _config_of(args):
    """The command's own options, for the envelope and the cache key;
    an option left unset (None, or False for a flag) is omitted."""
    return {
        key: value
        for key, value in vars(args).items()
        if key not in GLOBAL_OPTIONS and value is not None and value is not False
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


def _unwritable(cache_dir, out):
    """Why the cache directory or the --out file cannot be written, or
    None; checked before any work."""
    if cache_dir is not None and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        return f"cache path {cache_dir} is not a directory"
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        return f"no directory for --out {out}"
    return None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    config = _config_of(args)
    cache_dir = cache_directory(args.cache)
    problem = _unwritable(cache_dir, args.out)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    env = None
    exit_code = EXIT_OK
    try:
        if cache_dir is not None:
            key = cache_key(args.command, config, _input_blobs(args))
            env = cache_get(cache_dir, key, args.command, config)
        if env is None:
            # the compute layer loads only when a command has to be computed
            from .commands import RUNNERS

            payload, exit_code = RUNNERS[args.command](args)
            env = envelope(args.command, config, payload)
            if cache_dir is not None and exit_code == EXIT_OK:
                cache_put(cache_dir, key, env)
        text = render(env, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not args.out:
        sys.stdout.write(text)
    if args.timings:
        print(f"wall {time.monotonic() - started:.3f}s", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
