"""Tests for canonical serialization, digests, and the optional cache."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import forestcalc
from forestcalc import __version__
from forestcalc.envelope import (
    _digest_of,
    cache_directory,
    cache_get,
    cache_key,
    cache_put,
    canonical_json,
    envelope,
    render,
)


def test_canonical_json_sorts_and_ends_with_newline():
    a = canonical_json({"b": 1, "a": 2})
    b = canonical_json({"a": 2, "b": 1})
    assert a == b == '{"a":2,"b":1}\n'
    assert "\n" not in a[:-1]


def test_canonical_json_no_spaces():
    out = canonical_json({"k": [1, 2, {"x": True}]})
    assert " " not in out


def sha256_of_payload(payload):
    """The digest computed independently of the package's own helper."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def test_payload_digest_sensitivity():
    base = envelope("x", {}, {"x": 1})["digest"]
    assert envelope("x", {}, {"x": 1})["digest"] == base == sha256_of_payload({"x": 1})
    assert envelope("x", {}, {"x": 2})["digest"] != base
    assert envelope("x", {}, {"y": 1})["digest"] != base
    assert len(base) == 64


def test_envelope_fields():
    env = envelope("tspace", {"lam": "(0 1)"}, {"rank": 1})
    assert env["tool"] == "forestcalc"
    assert env["version"] == __version__
    assert env["command"] == "tspace"
    assert env["digest"] == sha256_of_payload({"rank": 1})


def test_render_json_is_canonical():
    env = envelope("x", {}, {"v": 1})
    out = render(env, "json")
    assert out == canonical_json(env)
    assert json.loads(out)["payload"] == {"v": 1}


def test_render_json_splices_the_payload_text_verbatim():
    payload = {"z": [1, {"b": None, "a": "\u00e9\\"}], "a": 1.5, "m": {}}
    env = envelope("layer", {"n": 2, "m": "circle"}, payload)
    out = render(env, "json")
    assert out == canonical_json(dict(env))
    assert json.loads(out) == env


def test_render_text_mentions_command_and_digest():
    env = envelope("goodness", {"all": True}, {"verdict": "good"})
    out = render(env, "text")
    assert "goodness" in out.splitlines()[0]
    assert out.splitlines()[-1].startswith("digest ")
    assert "verdict" in out


# --- cache ---------------------------------------------------------------------


def test_cache_off_by_default(monkeypatch):
    monkeypatch.delenv("FORESTCALC_CACHE", raising=False)
    assert cache_directory() is None


def test_cache_directory_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv("FORESTCALC_CACHE", raising=False)
    assert cache_directory(str(tmp_path)) == str(tmp_path)
    assert cache_directory("1").endswith(".cache/forestcalc")
    monkeypatch.setenv("FORESTCALC_CACHE", str(tmp_path / "env"))
    assert cache_directory() == str(tmp_path / "env")
    # the flag wins over the environment
    assert cache_directory(str(tmp_path)) == str(tmp_path)


def test_cache_key_sensitivity():
    base = cache_key("enumerate", {"n": 2})
    assert cache_key("enumerate", {"n": 2}) == base
    assert cache_key("enumerate", {"n": 3}) != base
    assert cache_key("goodness", {"n": 2}) != base
    assert cache_key("enumerate", {"n": 2}, (b"blob",)) != base
    assert cache_key("enumerate", {"n": 2}, (b"a", b"b")) != cache_key(
        "enumerate", {"n": 2}, (b"ab",)
    )


def test_cache_roundtrip(tmp_path):
    d = str(tmp_path / "cache")
    config = {"lam": "(0 1)"}
    key = cache_key("tspace", config)
    assert cache_get(d, key, "tspace", config) is None
    env = envelope("tspace", config, {"rank": 1})
    cache_put(d, key, env)
    back = cache_get(d, key, "tspace", config)
    assert back == json.loads(canonical_json(env))
    with open(f"{d}/{key}.json", encoding="utf-8") as fh:
        assert fh.read() == canonical_json(dict(env))
    assert render(back) == render(env)
    # unrelated keys stay empty
    other = {"lam": "(0 2)"}
    assert cache_get(d, cache_key("tspace", other), "tspace", other) is None


def test_cache_get_tolerates_garbage(tmp_path):
    d = tmp_path
    key = "0" * 64
    for text in ("{not json", "[1, 2]", '{"payload": {"rank": 1}}'):
        (d / (key + ".json")).write_text(text, encoding="utf-8")
        assert cache_get(str(d), key, "tspace", {}) is None


# --- digests -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["", "forestcalc", "(0 1)(2 3) é∂∧ \U0001d54a"],
    ids=["empty", "ascii", "non-ascii"],
)
def test_digest_equals_the_openssl_route(text):
    assert _digest_of(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_digest_of_a_large_payload_equals_the_openssl_route():
    from forestcalc.category import enumerate_en

    text = canonical_json(enumerate_en(4).to_json())  # the enumerate --n 4 payload
    assert len(text) > 1_000_000
    assert _digest_of(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cache_key_equals_the_openssl_route():
    config = {"m": "model.json", "n": 2, "coeff": "F3"}
    blobs = (b'{"cells":[]}', b"\x00\xff", b"")
    h = hashlib.sha256()
    h.update(__version__.encode() + b"\x00layer\x00" + canonical_json(config).encode())
    for blob in blobs:
        h.update(b"\x00" + blob)
    assert cache_key("layer", config, blobs) == h.hexdigest()


def test_digest_falls_back_to_hashlib_without_the_builtin_modules():
    # a build without the built-in hashes still digests, through hashlib
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from forestcalc import envelope\n"
        "assert envelope.sha256 is hashlib.sha256\n"
        "print(envelope.envelope('x', {}, {'x': 1})['digest'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(forestcalc.__file__)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == sha256_of_payload({"x": 1}) + "\n"
