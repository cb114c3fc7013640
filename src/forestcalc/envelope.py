"""Result envelopes: canonical JSON, content digests, optional caching.

Envelopes make runs comparable: the same computation must serialize to
the same bytes, so timing and host details stay out of the payload.
"""

from __future__ import annotations

import hashlib
import json
import os

from . import __version__

TOOL_NAME = "forestcalc"
CACHE_ENV = "FORESTCALC_CACHE"


def canonical_json(data):
    """Stable serialization: sorted keys, no whitespace, one newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _digest_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Envelope(dict):
    """An envelope's fields, plus the canonical text of its payload.

    The text is taken once, when the envelope is built, and serves both
    the digest and the rendered JSON; an envelope is not edited after.
    """

    def __init__(self, payload_text, **fields):
        super().__init__(**fields)
        self.payload_text = payload_text


def envelope(command, config, payload):
    """Wrap a payload with enough context to reproduce it."""
    payload_text = canonical_json(payload)
    return Envelope(
        payload_text,
        tool=TOOL_NAME,
        version=__version__,
        command=command,
        config=config,
        payload=payload,
        digest=_digest_of(payload_text),
    )


def _envelope_json(env):
    """canonical_json(env), with the payload text of an Envelope spliced
    in rather than serialized again."""
    if not isinstance(env, Envelope):
        return canonical_json(env)
    fields = (
        json.dumps(key) + ":" + (
            env.payload_text if key == "payload" else canonical_json(value)
        )[:-1]
        for key, value in sorted(env.items())
    )
    return "{" + ",".join(fields) + "}\n"


def render(env, fmt="json"):
    if fmt == "json":
        return _envelope_json(env)
    lines = [f"{env['tool']} {env['version']} :: {env['command']}"]
    for key, value in sorted(env["config"].items()):
        lines.append(f"  {key} = {value}")
    lines.append(_render_value(env["payload"], indent=0))
    lines.append(f"digest {env['digest']}")
    return "\n".join(lines) + "\n"


def _render_value(value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        parts = []
        for k in sorted(value, key=str):
            sub = _render_value(value[k], indent + 1)
            if "\n" in sub or len(sub) > 60:
                parts.append(f"{pad}{k}:\n{sub}")
            else:
                parts.append(f"{pad}{k}: {sub.strip()}")
        return "\n".join(parts)
    if isinstance(value, (list, tuple)):
        flat = json.dumps(value)
        if len(flat) <= 72:
            return f"{pad}{flat}"
        return "\n".join(_render_value(v, indent) for v in value)
    return f"{pad}{json.dumps(value)}"


# ---------------------------------------------------------------------------
# cache, disabled unless asked for


def cache_directory(flag_value=None):
    """The cache root, or None when caching is off.

    Priority: explicit flag path, then the environment variable; an
    empty value means "default location".
    """
    raw = flag_value if flag_value is not None else os.environ.get(CACHE_ENV)
    if raw is None:
        return None
    if raw in ("", "1", "true"):
        return os.path.join(os.path.expanduser("~"), ".cache", TOOL_NAME)
    return raw


def cache_key(command, config, input_blobs=()):
    """Digest of everything that determines a result."""
    h = hashlib.sha256()
    h.update(__version__.encode())
    h.update(b"\x00")
    h.update(command.encode())
    h.update(b"\x00")
    h.update(canonical_json(config).encode())
    for blob in input_blobs:
        h.update(b"\x00")
        h.update(blob)
    return h.hexdigest()


def cache_get(directory, key, command, config):
    """The cached envelope, or None when the entry is missing, unreadable
    or differs from the envelope of its payload for this command and
    config (an edited digest, config or version)."""
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            env = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(env, dict) or "payload" not in env:
        return None
    fresh = envelope(command, config, env["payload"])
    if env != fresh:
        return None
    return fresh


def cache_put(directory, key, env):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    # one name per process, so two runs writing one key do not collide
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_envelope_json(env))
    os.replace(tmp, path)
