"""Rewrite digests.json from the current program's output.

    python3 perfbench/refresh_digests.py

Runs every invocation of every workload on its canonical input (unpermuted
coordinates, sorted generators, each prime for the monoid members) and stores
the sha256 of the canonicalised stdout.  An invocation that exits non-zero or
misses its known answer gets no digest, and the script exits 1.  Refresh only
when a change alters the reports on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import OUT, Runner


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
    runner = Runner(work)
    table, bad = {}, 0
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 0, work, canonical=True)
            table[name] = {}
            for inv in wl["invocations"]:
                child = runner.cli(inv)
                report = json.loads(child.stdout).get("report", {}) if child.code == 0 else {}
                if child.code != 0 or not workloads.known_answer(inv, report):
                    print(f"{name}: {inv['digest_key']}: exit {child.code}, known answer "
                          "missed; no digest written", file=sys.stderr)
                    bad += 1
                    continue
                table[name][inv["digest_key"]] = workloads.digest(inv, child.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
