"""ptlab benchmark: fresh-process verdict time, one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every CLI invocation is a fresh
``python -m ptlab.cli`` child with ``PYTHONPATH=src``, one child at a time
(a closed loop of one client).  The last line of stdout is the result object;
the line before it is the run context.  With ``--trace 1`` the run reports the
per-layer metrics instead: see README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 15     # set-up children per run; setup_s is their median
IMPORT_REPS = 5     # import-only children per traced run
DEADLINE_S = 150.0  # no child starts after this many seconds of a run ...
GRACE_S = 20.0      # ... and every child is killed this much later, so a run ends inside 180 s
PROBE_LIMIT_S = 60.0
CAL_EVERY_S = 1.0   # timed child seconds between two calibration children
REF_CAL_S = 0.2     # calibrate.py's wall and CPU time at the reference speed

# span name recorded around a CLI -> layer call, per per-layer metric
SPAN_METRICS = {
    "logreg.build_tower_s": "logreg.build_tower",
    "logreg.verify_tilt_s": "logreg.verify_tilt",
    "tower.axioms_abc_s": "tower.verify_purely_inseparable",
    "tower.axioms_defg_s": "tower.verify_perfectoid",
    "tower.frobenius_identities_s": "tower.frobenius_identities",
    "tower.tilt_mod_pillar_iso_s": "tower.tilt_mod_pillar_iso",
    "tower.exactstilt_s": "tower.verify_exactstilt",
    "tower.inverse_perfection_s": "tower.inverse_perfection_is_perfect",
    "classgroup.class_group_s": "classgroup.class_group",
}
CLI_COMMANDS = ("tower verify", "tower tilt", "tower exactstilt", "monoid check",
                "monoid classgroup", "monoid divide", "monoid saturate")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    killed: bool
    stdout: bytes
    stderr: bytes
    # wall and cpu rescaled to the reference speed, set by Calibrator
    ref_wall: float | None = None
    ref_cpu: float | None = None


class Runner:
    """Starts one child at a time in a pinned environment and reaps it with wait4."""

    def __init__(self, work: Path, deadline: float | None = None):
        self.work = work
        self.deadline = deadline
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONNOUSERSITE": "1",
            "PTLAB_THREADS": "1",
            "LC_ALL": "C",
        }
        self._n = 0

    def past_deadline(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def run(self, argv: list[str], limit: float) -> Child:
        if self.deadline is not None:
            limit = min(limit, max(0.0, self.deadline + GRACE_S - time.monotonic()))
        self._n += 1
        out_path = self.work / f"child{self._n}.out"
        err_path = self.work / f"child{self._n}.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)

            def kill():
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(limit, kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    state["reaped"] = True
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): leave no child behind
                timer.cancel()
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            child = Child(wall=limit if state["killed"] else wall,
                          cpu=usage.ru_utime + usage.ru_stime,
                          rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                          killed=state["killed"], stdout=out.read(), stderr=err.read())
        out_path.unlink()
        err_path.unlink()
        return child

    def cli(self, inv: dict) -> Child:
        return self.run([sys.executable, "-m", "ptlab.cli", *inv["argv"]], inv["limit"])

    def probe(self, mode: str, spec: dict) -> tuple[Child, dict | None]:
        self._n += 1
        path = self.work / f"spec{self._n}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        child = self.run([sys.executable, str(HERE / "probe.py"), mode, str(path)],
                         PROBE_LIMIT_S)
        path.unlink()
        if child.code != 0 or child.killed:
            return child, None
        return child, json.loads(child.stdout.splitlines()[-1])


class Calibrator:
    """Brackets timed children with calibrate.py children and rescales them.

    The machine's speed drifts by tens of percent over tens of seconds.  A
    child's time divided by the mean of the calibrations just before and
    just after it no longer carries that drift; multiplying by REF_CAL_S
    turns the ratio back into seconds at a fixed reference speed.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.samples: list[float] = []
        self.last = self._measure()
        self.pending: list[Child] = []
        self.since = 0.0

    def _measure(self) -> Child:
        child = self.runner.run([sys.executable, str(HERE / "calibrate.py")], PROBE_LIMIT_S)
        if child.code != 0 or child.killed:
            raise RuntimeError("calibration child failed")
        self.samples.append(child.wall)
        return child

    def add(self, child: Child) -> None:
        self.pending.append(child)
        self.since += child.wall
        if self.since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = self._measure()
        wall = (self.last.wall + now.wall) / 2
        cpu = (self.last.cpu + now.cpu) / 2
        for child in self.pending:
            child.ref_wall = child.wall * REF_CAL_S / wall
            child.ref_cpu = child.cpu * REF_CAL_S / cpu
        self.last, self.pending, self.since = now, [], 0.0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _git_sha() -> str | None:
    # only in a git checkout (.git a directory or, in a worktree, a file), so
    # that git never searches the directories above a plain checkout
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(runner: Runner, invocations: list[dict], digests: dict, log: list,
             calibrator: Calibrator | None = None) -> list:
    """One closed-loop pass: each invocation in its own fresh CLI child."""
    rows = []
    for inv in invocations:
        if runner.past_deadline():
            rows.append((inv, None, "run deadline"))
            continue
        child = runner.cli(inv)
        if calibrator:
            calibrator.add(child)
        reason = workloads.check(inv, child.code, child.killed, child.stdout, digests)
        if reason:
            log.append(f"{inv['command']} {inv['member']}: {reason}: "
                       f"{child.stderr.decode(errors='replace').strip()[-300:]}")
        rows.append((inv, child, reason))
    if calibrator:
        calibrator.flush()
    return rows


def _children(rows):
    return [child for _, child, _ in rows if child is not None]


def timed_run(runner: Runner, wl: dict, relabel, digests: dict, seconds: int, log: list):
    calibrator = Calibrator(runner)
    setup = []
    for _ in range(SETUP_REPS):
        child, payload = runner.probe("setup", wl["setup"])
        if payload is None:
            log.append(f"set-up child failed: {child.stderr.decode(errors='replace')[-300:]}")
            return None
        calibrator.add(child)
        setup.append(child)
    calibrator.flush()
    passes = []
    t0 = time.monotonic()
    while True:
        rows = run_pass(runner, relabel(len(passes)), digests, log, calibrator)
        passes.append(rows)
        last = sum(c.wall for c in _children(rows))
        print(f"perfbench: pass {len(passes)}: {last:.4f} s wall, "
              f"{sum(c.cpu for c in _children(rows)):.4f} s cpu, "
              f"{sum(c.ref_wall for c in _children(rows)):.4f} s wall at reference speed",
              file=sys.stderr)
        if time.monotonic() - t0 + last > seconds or runner.past_deadline():
            break
    rows = [r for p in passes for r in p]
    metrics = {
        "verdict_s": (_typical_pass(passes, "ref_wall"), "s"),
        "verdict_cpu_s": (_typical_pass(passes, "ref_cpu"), "s"),
        "setup_s": (statistics.median(c.ref_wall for c in setup), "s"),
        "peak_rss_mb": (max((c.rss_mb for c in _children(rows)), default=0.0), "MB"),
    }
    return rows, metrics, statistics.median(calibrator.samples)


def _typical_pass(passes: list, field: str) -> float:
    """Sum over the invocations of each one's median across the run's passes.

    Jitter that the calibration does not remove usually hits one invocation,
    not a whole pass: the median per invocation discards it where a median
    of pass totals cannot.
    """
    per_invocation = zip(*passes)
    return sum(statistics.median(getattr(c, field) for _, c, _ in column if c is not None)
               for column in per_invocation if any(c is not None for _, c, _ in column))


def _traced_pass(runner: Runner, invocations: list[dict], digests: dict, log: list):
    rows, payloads = [], []
    for k, inv in enumerate(invocations):
        if runner.past_deadline():
            rows.append((inv, None, "run deadline"))
            continue
        child, payload = runner.probe("trace", {"command": inv["command"], "argv": inv["argv"]})
        if payload is None:
            reason = "traced child failed"
        else:
            reason = workloads.check(inv, payload["code"], False,
                                     payload["stdout"].encode(), digests)
            payloads.append((k, child, payload))
        if reason:
            log.append(f"traced {inv['command']} {inv['member']}: {reason}: "
                       f"{child.stderr.decode(errors='replace').strip()[-300:]}")
        rows.append((inv, child, reason))
    return rows, payloads


def _layer_metrics(untraced, payloads, context, import_s) -> dict:
    m: dict[str, float] = {"cli.import_s": import_s}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace(' ', '_')}_s"] = sum(
            c.wall for inv, c, _ in untraced if c is not None and inv["command"] == cmd)
    spans: dict[str, float] = {}
    modules: dict[str, float] = {}
    funcs: dict[str, dict] = {}
    total = enum_returned = enum_contains = 0
    for _, _, p in payloads:
        for s in p["spans"]:
            spans[s["name"]] = spans.get(s["name"], 0.0) + s["end"] - s["start"]
        for mod, tt in p["modules"].items():
            modules[mod] = modules.get(mod, 0.0) + tt
        for name, row in p["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "cum_s": 0.0})
            acc["calls"] += row["calls"]
            acc["cum_s"] += row["cum_s"]
        total += p["profile_total_s"]
        enum_returned += p["enum_returned"]
        enum_contains += p["enum_contains"]
    for metric, span in SPAN_METRICS.items():
        m[metric] = spans.get(span, 0.0)
    basis_spans = [s for s in context.get("spans", []) if s["name"] == "series.monomial_basis"]
    m["series.basis_s"] = sum(s["end"] - s["start"] for s in basis_spans)
    m["series.basis_size"] = sum(context.get("S", []))
    for mod in ("tower", "series", "monoid", "intlat", "stdlib.fractions"):
        m[f"{mod}.self_s"] = modules.get(mod, 0.0)
    for name in ("series.make_series", "series.s_mul", "monoid.contains", "monoid.elem_new",
                 "monoid.bounded_search", "intlat.in_lattice", "intlat.hnf", "intlat.snf"):
        m[f"{name}.calls"] = funcs.get(name, {}).get("calls", 0)
    for name in ("series.torsion_annihilator", "monoid.contains", "monoid.is_saturated"):
        m[f"{name}.cum_s"] = funcs.get(name, {}).get("cum_s", 0.0)
    m["monoid.enum_contains.calls"] = enum_contains
    m["monoid.enum_yield"] = enum_returned / enum_contains if enum_contains else 0.0
    m["profile.self_s"] = total
    return m


def traced_run(runner: Runner, relabel, digests: dict, seconds: int, context: dict,
               log: list, trace_file: dict):
    imports = [runner.run([sys.executable, "-c", "import ptlab.cli"], PROBE_LIMIT_S).wall
               for _ in range(IMPORT_REPS)]
    import_s = statistics.median(imports)
    pairs, rows = [], []
    t0 = time.monotonic()
    while True:
        invocations = relabel(len(pairs))
        untraced = run_pass(runner, invocations, digests, log)
        traced, payloads = _traced_pass(runner, invocations, digests, log)
        rows += untraced + traced
        m = _layer_metrics(untraced, payloads, context, import_s)
        traced_wall = sum(c.wall for _, c, _ in traced if c is not None)
        m["trace.overhead_s"] = traced_wall - sum(c.wall for c in _children(untraced))
        pairs.append(m)
        for k, _, p in payloads:
            trace_file["traces"].append({"pass": len(pairs), "invocation": k,
                                         "command": invocations[k]["command"],
                                         "member": invocations[k]["member"],
                                         "spans": p["spans"]})
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(pairs) > seconds or runner.past_deadline():
            break
    units = {}
    for name in pairs[0]:
        units[name] = ("count" if name.endswith((".calls", "_size"))
                       else "ratio" if name.endswith("_yield") else "s")
    metrics = {name: (statistics.median(p[name] for p in pairs), units[name]) for name in pairs[0]}
    return rows, metrics, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "ptlab" / "cli.py").is_file():
        return _fail(f"no ptlab sources under {ROOT / 'src'}")
    digests = workloads.load_digests(args.workload)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    log: list[str] = []
    try:
        wl = workloads.build(args.workload, args.seed, work)
        runner = Runner(work, start + DEADLINE_S)

        def relabel(k: int) -> list[dict]:
            if k == 0:
                return wl["invocations"]
            (work / f"pass{k}").mkdir()
            return workloads.build(args.workload, args.seed, work / f"pass{k}", k)["invocations"]

        # untimed warm-up: compiles __pycache__ and reports the basis sizes
        child, context = runner.probe("context", wl["setup"])
        if context is None:
            return _fail("warm-up child failed: "
                         + child.stderr.decode(errors="replace").strip()[-500:])
        if Path(context["ptlab_dir"]) != (ROOT / "src" / "ptlab").resolve():
            return _fail(f"children import ptlab from {context['ptlab_dir']}, not src/")
        correct = True
        expected = workloads.TOWERS.get(args.workload)
        if expected and (context["S"], context["R"]) != (expected["S"], expected["R"]):
            log.append(f"basis sizes S={context['S']} R={context['R']} differ from "
                       f"S={expected['S']} R={expected['R']}")
            correct = False
        trace_file = {"workload": args.workload, "seed": args.seed,
                      "context_spans": context.get("spans", []), "traces": []}
        if args.trace:
            got = traced_run(runner, relabel, digests, args.seconds, context, log, trace_file)
        else:
            got = timed_run(runner, wl, relabel, digests, args.seconds, log)
        if got is None:
            for line in log:
                print(f"perfbench: {line}", file=sys.stderr)
            return 2
        rows, metrics, calibration = got
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _, _, reason in rows if reason)
    for line in log:
        print(f"perfbench: {line}", file=sys.stderr)
    run_context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _src_sha256(), "python": context["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "basis_sizes": {k: context[k] for k in ("S", "R") if k in context},
        "invocations_per_pass": len(wl["invocations"]),
        "calibration_s": calibration,
        "reference_calibration_s": REF_CAL_S,
    }
    if args.trace:
        trace_file["context"] = run_context
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace_file, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"context": run_context}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
