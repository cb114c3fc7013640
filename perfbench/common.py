"""Paths, child processes and the correctness gate shared by the
benchmark's scripts."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a command that runs longer than this counts as failed
COMMAND_TIMEOUT_S = 150


def child_env():
    """This process's environment without FORESTCALC_* settings, with the
    checkout's sources first on the import path.  Children keep compiled
    bytecode, as an installed package does, whatever this process does."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("FORESTCALC_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def payload_digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected():
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_output(exit_code, stdout, expected):
    """None when a command's result matches its pin, else the reason."""
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, expected {expected['exit']}"
    try:
        env = json.loads(stdout)
        digest, payload = env["digest"], env["payload"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a result envelope"
    if digest != expected["digest"]:
        return f"digest {digest[:12]}, expected {expected['digest'][:12]}"
    if payload_digest(payload) != digest:
        return "payload does not match its digest"
    return None


@dataclass
class Outcome:
    wall_s: float
    maxrss_kb: int
    exit_code: int
    timed_out: bool
    stdout: str
    stderr: str


def run_python(args, work, env):
    """Run `python <args>` from the checkout root and reap it with wait4,
    so the rusage belongs to this child alone."""
    out_path, err_path = work / "child.out", work / "child.err"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
        exit_code=proc.returncode,
        timed_out=killed.is_set(),
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def environment(kernel):
    """Python version, elimination kernel and cores, kept with each result."""
    return {
        "python": platform.python_version(),
        "kernel": kernel,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


@dataclass
class Result:
    attempted: int
    failures: list  # (key, reason)
    metrics: dict  # name -> (value, unit)
    extra: dict  # recorded with the result, not reported as metrics
