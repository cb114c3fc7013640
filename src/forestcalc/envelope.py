"""Result envelopes: canonical JSON, content digests, optional caching.

Envelopes make runs comparable: the same computation must serialize to
the same bytes, so timing and host details stay out of the payload.
"""

from __future__ import annotations

import json
import os

# CPython's built-in SHA-256, the module hashlib itself falls back to:
# the same digests, without loading OpenSSL into every process
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

from . import __version__

TOOL_NAME = "forestcalc"
CACHE_ENV = "FORESTCALC_CACHE"


def canonical_json(data):
    """Stable serialization: sorted keys, no whitespace, one newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _digest_of(text):
    return sha256(text.encode("utf-8")).hexdigest()


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


_PAYLOAD_KEY = '","payload":'


def _frame(command, config):
    """The canonical text of an envelope for this command and config, cut
    around its digest and its payload: the text is
    head + digest + _PAYLOAD_KEY + payload text less its newline + tail.
    The keys are those of `envelope`, in sorted order."""
    fields = tuple(canonical_json(v)[:-1] for v in (command, config, TOOL_NAME, __version__))
    head = '{"command":%s,"config":%s,"digest":"' % fields[:2]
    tail = ',"tool":%s,"version":%s}\n' % fields[2:]
    return head, tail


def _envelope_json(env):
    """canonical_json(env), with the payload text of an Envelope spliced
    in rather than serialized again."""
    if not isinstance(env, Envelope):
        return canonical_json(env)
    head, tail = _frame(env["command"], env["config"])
    # one join, so no partial sum of the payload's size is held beside it
    return "".join((head, env["digest"], _PAYLOAD_KEY, env.payload_text[:-1], tail))


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
        # keys sorted, as a payload read back from its canonical JSON has them
        flat = json.dumps(value, sort_keys=True)
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
    h = sha256()
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
    """The cached envelope's canonical JSON text, served as stored, or
    None when the entry is missing or unreadable, or is not byte for byte
    the frame of an envelope for this command, config, tool and version
    around a digest that is the sha256 of the payload text between them.

    An edit to the frame, the digest or the payload, or a re-formatted
    entry, is a miss.  The digest guards against edits and damage, not
    against a writer of the cache directory: a payload stored with its
    own digest is served unparsed, as it stands.
    """
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None
    head, tail = _frame(command, config)
    start = len(head) + 64 + len(_PAYLOAD_KEY)
    end = len(text) - len(tail)
    if not (
        start < end
        and text.startswith(head)
        and text.startswith(_PAYLOAD_KEY, start - len(_PAYLOAD_KEY))
        and text.endswith(tail)
    ):
        return None
    if _digest_of(text[start:end] + "\n") != text[len(head):len(head) + 64]:
        return None
    return text


def cache_put(directory, key, env):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    # one name per process, so two runs writing one key do not collide
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_envelope_json(env))
    os.replace(tmp, path)
