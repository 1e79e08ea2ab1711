"""Seeded workloads for the ptlab benchmark, with their correctness oracle.

A workload is a list of CLI invocations.  The seed only relabels the inputs
(coordinate permutations, generator order, the prime of a monoid member), so
every seed asks the same mathematical questions and has the same answers.
ptlab never sees the seed, only the generated descriptor files.

Each invocation fails its check if it exits non-zero, if it was killed at the
time limit, if the sha256 of its (canonicalised) stdout differs from the
checked-in digest, or if its verdict differs from the known answer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

MONOID_PRIMES = (2, 3, 5)
TOWER_COMMANDS = ("verify", "tilt", "exactstilt")
MONOID_COMMANDS = ("check", "classgroup", "divide")

QUADRIC_GENERATORS = ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))
QUADRIC_F = (0, 1, 1, 0)

# Tower workloads: prime, window (depth, cutoff D, precision N), and the exact
# residue (S_i) and level (R_i) monomial basis sizes that the warm-up child
# must reproduce.
TOWERS = {
    "quadric_p3": {
        "p": 3, "depth": 2, "cutoff": 4, "precision": 2,
        "S": [9, 110, 2085], "R": [14, 140, 2470],
    },
    "rlr_deep": {
        "p": 2, "depth": 3, "cutoff": 5, "precision": 2,
        "S": [21, 121, 802, 5796], "R": [56, 286, 1771, 12341],
    },
}
# per-invocation time limits in seconds: tower commands take 1-4 s, monoid
# commands under 1 s, so only a hang reaches them
TOWER_LIMIT = 60.0
MONOID_LIMIT = 30.0


def veronese(d: int, n: int) -> list[tuple[int, ...]]:
    """Generators of the degree-n Veronese cone V(d, n): class group Z/n."""
    return [c for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n]


def segre(a: int, b: int) -> list[tuple[int, ...]]:
    """Generators of the Segre cone of P^a x P^b: class group Z."""
    out = []
    for i in range(a + 1):
        for j in range(b + 1):
            v = [0] * (a + b + 2)
            v[i] = 1
            v[a + 1 + j] = 1
            out.append(tuple(v))
    return out


# Saturated members: (name, generators, rank of Q^gp, class group as
# (free rank, invariant factors)).  Every layer quotient is (Z/p)^rank.
KNOWN_MONOIDS = [
    *[(f"V(2,{n})", veronese(2, n), 2, (0, [n])) for n in range(2, 7)],
    ("V(3,2)", veronese(3, 2), 3, (0, [2])),
    ("S(1,1)", segre(1, 1), 3, (1, [])),
    ("S(1,2)", segre(1, 2), 4, (1, [])),
]

# Non-saturated members for `monoid saturate`, with the Hilbert basis of
# their saturation.  (1,0),(1,8),(2,9) is left out: it does not finish with
# the budgeted saturation search (see README.md).
KNOWN_SATURATIONS = [
    ("gap(0,1)", [(1, 0), (0, 2), (0, 3)], [(1, 0), (0, 1)]),
    ("gap(1,1)", [(1, 0), (1, 2), (1, 3)], [(1, 0), (1, 1), (1, 2), (1, 3)]),
    ("num<3,5>", [(3,), (5,)], [(1,)]),
]

WORKLOADS = ("quadric_p3", "rlr_deep", "monoid_known")


def _permute(v, perm) -> list[int]:
    return [v[k] for k in perm]


def _unpermute(v, perm) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, k in enumerate(perm):
        out[k] = v[i]
    return tuple(out)


def _write(work: Path, name: str, payload: dict) -> str:
    path = work / name
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _tower_presentation(name: str, rng: random.Random, canonical: bool) -> dict:
    spec = TOWERS[name]
    if name == "quadric_p3":
        perm = list(range(4)) if canonical else rng.sample(range(4), 4)
        return {
            "monoid": {"ambient_rank": 4, "scale_base": spec["p"], "level": 0,
                       "generators": [_permute(g, perm) for g in QUADRIC_GENERATORS]},
            "free_rank": 0, "p": spec["p"],
            "f": [{"exponent": _permute(QUADRIC_F, perm), "level": 0, "coeff": 1}],
            "labels": _permute(["x", "y", "z", "w"], perm),
        }
    k = 0 if canonical else rng.randrange(3)
    return {
        "monoid": {"ambient_rank": 0, "scale_base": spec["p"], "level": 0, "generators": []},
        "free_rank": 3, "p": spec["p"],
        "f": [{"exponent": [1 if i == k else 0 for i in range(3)], "level": 0, "coeff": 1}],
        "labels": ["x1", "x2", "x3"],
    }


def build(name: str, seed: int, work: Path, pass_index: int = 0,
          canonical: bool = False) -> dict:
    """The workload's invocations and set-up spec; writes input files to work.

    Each pass of a run gets its own relabelling, drawn from (seed, pass_index):
    the work a relabelling causes varies a little (generator order steers the
    budgeted searches), and the median over passes evens that out.
    canonical=True uses the unpermuted, sorted inputs for every prime, which
    is what the checked-in digests were made from.
    """
    rng = random.Random(f"{name}:{seed}:{pass_index}")
    if name in TOWERS:
        spec = TOWERS[name]
        desc = _tower_presentation(name, rng, canonical)
        path = _write(work, f"{name}.json", desc)
        window = ["--p", str(spec["p"]), "--depth", str(spec["depth"]),
                  "--cutoff", str(spec["cutoff"]), "--precision", str(spec["precision"])]
        invocations = [{
            "command": f"tower {cmd}",
            "member": name,
            "argv": ["tower", cmd, "--input", path] + window,
            "digest_key": f"tower {cmd}",
            "expect": {"kind": "all_pass"},
            "limit": TOWER_LIMIT,
        } for cmd in TOWER_COMMANDS]
        setup = {"kind": "tower", "input": path, "depth": spec["depth"],
                 "cutoff": spec["cutoff"], "precision": spec["precision"]}
        return {"invocations": invocations, "setup": setup}

    if name != "monoid_known":
        raise ValueError(f"unknown workload {name!r}")
    members = []
    for mname, gens, rank, cl in KNOWN_MONOIDS:
        members.append((mname, gens, [
            (cmd, {"kind": cmd, "rank": rank, "class_group": cl}) for cmd in MONOID_COMMANDS
        ]))
    for mname, gens, hilbert in KNOWN_SATURATIONS:
        members.append((mname, gens, [("saturate", {"kind": "saturate", "hilbert": hilbert})]))
    primes = MONOID_PRIMES if canonical else None
    invocations, inputs = [], []
    for mname, gens, commands in members:
        dim = len(gens[0])
        for p in primes or (rng.choice(MONOID_PRIMES),):
            if canonical:
                perm, order = list(range(dim)), sorted(gens)
            else:
                perm = rng.sample(range(dim), dim)
                order = rng.sample(gens, len(gens))
            desc = {"ambient_rank": dim, "scale_base": p, "level": 0,
                    "generators": [_permute(g, perm) for g in order]}
            path = _write(work, f"{mname}-p{p}.json", desc)
            inputs.append(path)
            for cmd, expect in commands:
                invocations.append({
                    "command": f"monoid {cmd}",
                    "member": mname,
                    "argv": ["monoid", cmd, "--input", path, "--p", str(p)],
                    "digest_key": f"{mname}|p={p}|monoid {cmd}",
                    "expect": dict(expect, p=p, perm=perm),
                    "limit": MONOID_LIMIT,
                })
    return {"invocations": invocations, "setup": {"kind": "monoid", "inputs": inputs}}


def canonical_stdout(inv: dict, stdout: bytes) -> bytes:
    """Undo the seed's relabelling so every seed has one digest per question.

    Tower reports do not mention coordinates, so they are taken byte for
    byte.  Monoid reports echo generators: those are mapped back through the
    coordinate permutation and sorted, then re-serialised the way the CLI
    serialises.
    """
    perm = inv["expect"].get("perm")
    if perm is None:
        return stdout
    payload = json.loads(stdout)

    def fix(obj):
        if isinstance(obj, dict):
            return {k: (sorted(list(_unpermute(g, perm)) for g in v)
                        if k == "generators" else fix(v)) for k, v in obj.items()}
        return obj

    return (json.dumps(fix(payload), sort_keys=True, separators=(",", ":")) + "\n").encode()


def digest(inv: dict, stdout: bytes) -> str:
    return hashlib.sha256(canonical_stdout(inv, stdout)).hexdigest()


def known_answer(inv: dict, report: dict) -> bool:
    """Does the report's verdict equal the closed-form answer?"""
    exp = inv["expect"]
    kind = exp["kind"]
    if kind == "all_pass":
        return report.get("all_pass") is True
    if kind == "check":
        return (report.get("sharp") is True and report.get("saturated") is True
                and report.get("dimension") == exp["rank"])
    if kind == "classgroup":
        free, factors = exp["class_group"]
        return report.get("free_rank") == free and report.get("invariant_factors") == factors
    if kind == "divide":
        lq = report.get("layer_quotient", {})
        p, rank = exp["p"], exp["rank"]
        return lq.get("invariant_factors") == [p] * rank and lq.get("order") == p ** rank
    if kind == "saturate":
        got = {_unpermute(g, exp["perm"]) for g in report.get("generators", [])}
        return got == {tuple(h) for h in exp["hilbert"]}
    raise ValueError(f"unknown known-answer kind {kind!r}")


def check(inv: dict, code: int, killed: bool, stdout: bytes, digests: dict) -> str | None:
    """None if the invocation passed, else the reason it failed."""
    if killed:
        return "time limit"
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if digest(inv, stdout) != digests.get(inv["digest_key"]):
        return "digest mismatch"
    if not known_answer(inv, payload.get("report", {})):
        return "wrong known answer"
    return None


def load_digests(name: str) -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[name]
