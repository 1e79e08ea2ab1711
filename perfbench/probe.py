"""Child-side half of the ptlab benchmark; run.py starts one fresh process per use.

    python3 perfbench/probe.py context SPEC   warm-up: compile ptlab, report basis sizes
    python3 perfbench/probe.py setup SPEC     import ptlab.cli, build the inputs, exit
    python3 perfbench/probe.py trace SPEC     one CLI invocation in-process, traced

SPEC is a JSON file written by run.py.  Each mode prints one JSON object.

The traced mode runs ``ptlab.cli.main`` in this process.  Before it does, every
library function that the cli module imported (``build_tower``,
``verify_perfectoid``, ``class_group``, ...) is replaced in the cli namespace
by a wrapper that records a span, so spans sit exactly at the boundary between
the CLI and each layer.  cProfile runs around the call; its figures are
aggregated here per ptlab module and per named function and sent back, so the
parent never unpickles anything.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import io
import json
import pstats
import sys
import threading
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent id) held in memory until exit."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.thread_profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._local = threading.local()  # .profiling: a worker profiler is on

    @contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            # a worker thread's first span hangs under the caller that waits on it
            parent = stack[-1] if stack else (self._stacks.get(self._main) or [None])[-1]
            rec = {"id": len(self.spans), "parent": parent, "name": name,
                   "start": time.perf_counter() - self.t0, "end": None}
            self.spans.append(rec)
            stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            with self._lock:
                stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                if threading.get_ident() == self._main or getattr(self._local, "profiling", False):
                    return fn(*args, **kwargs)
                # cProfile only sees the thread that enabled it: profile
                # worker threads separately and merge at the end
                prof = cProfile.Profile()
                with self._lock:
                    self.thread_profiles.append(prof)
                self._local.profiling = True
                prof.enable()
                try:
                    return fn(*args, **kwargs)
                finally:
                    prof.disable()
                    self._local.profiling = False

        return wrapper


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _ptlab_dir() -> Path:
    import ptlab

    return Path(ptlab.__file__).resolve().parent


def _build(spec: dict):
    """Build the workload's inputs through the public constructors.

    Returns the tower of a tower workload, None for a monoid workload.
    """
    import ptlab.cli  # noqa: F401  (compiles every module into __pycache__)

    if spec["kind"] != "tower":
        from ptlab.monoid import AffineMonoid

        for path in spec["inputs"]:
            AffineMonoid.from_descriptor(_load(path))
        return None
    from ptlab.logreg import LogRegPresentation, build_tower

    P = LogRegPresentation.from_descriptor(_load(spec["input"]))
    return build_tower(P, spec["depth"], Fraction(spec["cutoff"]), spec["precision"])


def mode_context(spec: dict) -> dict:
    T = _build(spec)
    out = {"ptlab_dir": str(_ptlab_dir()), "python": sys.version.split()[0]}
    if T is None:
        return out
    tracer = Tracer()
    with tracer.span("series.monomial_basis"):
        out["S"] = [len(T.residue(i).monomial_basis()) for i in range(T.depth + 1)]
    out["R"] = [len(T.levels[i].monomial_basis()) for i in range(T.depth + 1)]
    out["spans"] = tracer.spans
    return out


def mode_setup(spec: dict) -> dict:
    _build(spec)
    return {}


def _code_key(fn) -> tuple | None:
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _named_functions():
    """Functions whose call counts or cumulative times are metrics.

    A name that a later version of ptlab no longer defines reads as zero.
    """
    from ptlab import intlat, monoid, series

    elem = getattr(monoid.MonoidElem, "__post_init__", None)
    return {
        "series.make_series": getattr(series, "make_series", None),
        "series.s_mul": getattr(series, "s_mul", None),
        "series.torsion_annihilator": getattr(series, "torsion_annihilator", None),
        "monoid.contains": getattr(monoid, "contains", None),
        "monoid.elem_new": elem,
        "monoid.is_saturated": getattr(monoid, "is_saturated", None),
        "monoid.bounded_search": getattr(monoid, "_bounded_combo_member", None),
        "intlat.in_lattice": getattr(intlat, "in_lattice", None),
        "intlat.hnf": getattr(intlat, "hnf", None),
        "intlat.snf": getattr(intlat, "snf", None),
    }


def _aggregate(stats: dict, ptlab_dir: Path, enumerate_fn) -> dict:
    modules: dict[str, float] = {}
    total = 0.0
    for (filename, _, _), (_, _, tt, _, _) in stats.items():
        total += tt
        path = Path(filename)
        if path.parent == ptlab_dir:
            key = path.stem
        elif path.name == "fractions.py":
            key = "stdlib.fractions"
        else:
            continue
        modules[key] = modules.get(key, 0.0) + tt
    functions = {}
    for name, fn in _named_functions().items():
        row = stats.get(_code_key(fn)) if fn is not None else None
        functions[name] = {"calls": row[1] if row else 0, "cum_s": row[3] if row else 0.0}
    # membership tests issued from inside enumerate_elements (its nested
    # helpers included): the attempts behind monoid.enum_yield
    enum_contains = 0
    key = _code_key(_named_functions()["monoid.contains"])
    if key in stats and enumerate_fn is not None:
        lines, first = inspect.getsourcelines(enumerate_fn)
        src = enumerate_fn.__code__.co_filename
        for (cfile, cline, _), edge in stats[key][4].items():
            if cfile == src and first <= cline < first + len(lines):
                enum_contains += edge[0]  # (calls, primitive calls, tt, ct)
    return {"modules": modules, "profile_total_s": total, "functions": functions,
            "enum_contains": enum_contains}


def mode_trace(spec: dict) -> dict:
    import ptlab.cli as cli
    from ptlab import monoid

    tracer = Tracer()
    for attr, fn in list(vars(cli).items()):
        mod = getattr(fn, "__module__", "") or ""
        if inspect.isfunction(fn) and mod.startswith("ptlab.") and mod != "ptlab.cli":
            setattr(cli, attr, tracer.wrap(f"{mod[len('ptlab.'):]}.{fn.__name__}", fn))

    enumerate_fn = getattr(monoid, "enumerate_elements", None)
    returned = [0]
    if enumerate_fn is not None:
        @functools.wraps(enumerate_fn)
        def counting(*args, **kwargs):
            result = enumerate_fn(*args, **kwargs)
            returned[0] += len(result)
            return result

        monoid.enumerate_elements = counting

    buf = io.StringIO()
    prof = cProfile.Profile()
    with tracer.span("cli." + spec["command"].replace(" ", "_")):
        with redirect_stdout(buf):
            prof.enable()
            try:
                code = cli.main(spec["argv"])
            finally:
                prof.disable()
    st = pstats.Stats(prof)
    for p in tracer.thread_profiles:
        st.add(p)
    out = _aggregate(st.stats, _ptlab_dir(), enumerate_fn)
    out.update(code=code, stdout=buf.getvalue(), spans=tracer.spans,
               enum_returned=returned[0])
    return out


MODES = {"context": mode_context, "setup": mode_setup, "trace": mode_trace}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in MODES:
        print("usage: probe.py {context|setup|trace} SPEC", file=sys.stderr)
        return 2
    result = MODES[argv[0]](_load(argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
