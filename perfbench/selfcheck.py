"""Self-check of the benchmark's correctness oracle.

    python3 perfbench/selfcheck.py

1. One pass of monoid_known with one digest and one known answer deliberately
   wrong must fail exactly those two invocations, so failed/attempted rises
   from 0 to 2 of the pass.
2. Two different seeds must give the same verdict for every invocation of
   every workload: the seed relabels inputs and never changes an answer.

Exits 0 when both hold.  Takes about a minute.
"""

from __future__ import annotations

import copy
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import OUT, Runner, run_pass


def one_pass(name: str, seed: int, work: Path, sabotage: bool = False):
    wl = workloads.build(name, seed, work)
    digests = workloads.load_digests(name)
    invocations = wl["invocations"]
    if sabotage:
        invocations = copy.deepcopy(invocations)
        digests = dict(digests, **{invocations[0]["digest_key"]: "0" * 64})
        target = next(inv for inv in invocations if inv["expect"]["kind"] == "classgroup")
        target["expect"]["class_group"] = (0, [99])
    log: list[str] = []
    rows = run_pass(Runner(work), invocations, digests, log)
    return rows, log


def verdicts(rows) -> list[tuple]:
    return [(inv["command"], inv["member"], reason) for inv, _, reason in rows]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
    ok = True
    try:
        rows, log = one_pass("monoid_known", 1, work, sabotage=True)
        reasons = sorted(r for _, _, r in rows if r)
        print(f"sabotaged monoid_known: {len(reasons)} of {len(rows)} failed: {reasons}")
        if reasons != ["digest mismatch", "wrong known answer"]:
            ok = False
            print("FAIL: the sabotaged digest and known answer were not both caught", *log,
                  sep="\n  ")
        for name in workloads.WORKLOADS:
            a, _ = one_pass(name, 1, work)
            b, _ = one_pass(name, 2, work)
            same = verdicts(a) == verdicts(b)
            failures = sum(1 for v in verdicts(a) + verdicts(b) if v[2])
            print(f"{name}: seeds 1 and 2 {'agree' if same else 'DISAGREE'}, "
                  f"{failures} failed invocations")
            ok = ok and same and failures == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
