"""Pin the exit code and payload digest of every benchmark command.

    python3 perfbench/pin.py

Runs each distinct command of every workload once, with the built-in
models named directly, and writes expected.json.  The pins in the
repository were taken at the seed commit; re-pinning only makes sense
at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

import common
import workloads


def main():
    env = common.child_env()
    work = common.OUT / "pin"
    work.mkdir(parents=True, exist_ok=True)
    pins = {}
    for args in workloads.all_commands():
        key = workloads.command_key(args)
        o = common.run_python(["-m", "forestcalc", *args], work, env)
        if o.timed_out:
            print(f"error: {key} timed out", file=sys.stderr)
            return 1
        digest = json.loads(o.stdout)["digest"]
        pins[key] = {"exit": o.exit_code, "digest": digest}
        print(f"{o.wall_s:8.2f} s {o.maxrss_kb / 1024:7.1f} MB  {key}", flush=True)
    with open(common.HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
