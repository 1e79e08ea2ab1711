"""Static hygiene of the package: stdlib-only imports, no unused imports, no
dead private helpers, the cutoff read only where listed, no generated code, a
lean import, function-level imports only where listed, and no function that
no command reaches."""

import ast
import cProfile
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ptlab"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> set[str]:
    """Every identifier node reads: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_no_unused_imports():
    unused = []
    for fname, tree in _modules().items():
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read:
                    unused.append(f"{fname}:{node.lineno}: {bound}")
    assert unused == []


def test_runtime_imports_only_the_standard_library():
    """Every import in src/ptlab is ptlab itself (relative or by name) or a
    module of the standard library: the runtime is stdlib-only."""
    foreign = []
    for fname, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue  # a relative import stays inside ptlab
            foreign += [f"{fname}:{node.lineno}: {m}" for m in mods
                        if m.split(".")[0] not in sys.stdlib_module_names | {"ptlab"}]
    assert foreign == []


def test_no_unreferenced_private_functions():
    """A module-level _helper must be used somewhere other than its own body."""
    statements = [(fname, stmt) for fname, tree in _modules().items() for stmt in tree.body]
    refs = [_names(stmt) for _, stmt in statements]
    dead = []
    for k, (fname, stmt) in enumerate(statements):
        if not isinstance(stmt, ast.FunctionDef):
            continue
        name = stmt.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in r for j, r in enumerate(refs) if j != k):
            dead.append(f"{fname}: {name}")
    assert dead == []



# Every function in src/ptlab that reads an attribute named cutoff, with what
# it does with D.  Anything else decides the cutoff on a ring's integer scale,
# deg(e) <= cap, and never compares a degree with D itself.
CUTOFF_READERS = {
    "cli._check": "parses --cutoff",
    "cli._cmd_tower": "passes the parsed D to build_tower",
    "series.SeriesRingDesc.__post_init__": "normalises D and refuses a nonpositive one",
    "series.SeriesRingDesc.cap": "D on the ring's integer scale, floor(D p^level)",
    "series.SeriesRingDesc.to_descriptor": "writes D",
    "tower.TowerDesc.__post_init__": "all levels share D",
    "tower.TowerDesc.cutoff_info": "reports D",
}


def _cutoff_readers(tree: ast.Module, module: str) -> set[str]:
    """module.qualname of each function in tree that reads an attribute named
    cutoff; a read outside every function counts as the module's."""
    found = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.<locals>.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                if (isinstance(child, ast.Attribute) and child.attr == "cutoff"
                        and isinstance(child.ctx, ast.Load)):
                    found.add(owner)
                visit(child, prefix, owner)

    visit(tree, module + ".", module)
    return found


def test_cutoff_is_decided_on_the_ring_scale():
    """Only the functions in CUTOFF_READERS read a .cutoff attribute, and the
    checker flags a rational degree compared with D."""
    found = set()
    for fname, tree in _modules().items():
        found |= _cutoff_readers(tree, fname[:-3])
    assert sorted(found) == sorted(CUTOFF_READERS)
    planted = ast.parse("class Walk:\n"
                        "    def within(self, R, e, p):\n"
                        "        return Fraction(sum(e.coords), p ** e.level) <= R.cutoff\n")
    assert _cutoff_readers(planted, "planted") == {"planted.Walk.within"}


def test_tower_raises_only_where_a_tower_is_built():
    """Checks never throw: the only raise statements in tower.py are in
    TowerDesc.__post_init__ and TowerDesc.from_descriptor, so a tower that
    was built can be checked."""
    where = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                if isinstance(child, ast.Raise):
                    where.append((owner, child.lineno))
                visit(child, owner)

    visit(_modules()["tower.py"], "")
    built = {"TowerDesc.__post_init__", "TowerDesc.from_descriptor"}
    assert [line for owner, line in where if owner not in built] == []
    assert {owner for owner, _ in where} == built


def test_no_dataclasses_and_no_generated_code():
    """Value classes are records (ptlab.record): nothing imports dataclasses,
    and nothing builds code from text with exec, compile or eval."""
    sites = []
    for fname, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            if any(m.split(".")[0] == "dataclasses" for m in mods):
                sites.append(f"{fname}:{node.lineno}: imports dataclasses")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "compile", "eval")):
                sites.append(f"{fname}:{node.lineno}: calls {node.func.id}")
    assert sites == []


def _child_env() -> dict:
    """The environment of a child python that imports this checkout's ptlab."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}


# Commands run in process after `import ptlab.cli`, in stages; after each
# stage the child prints the exit codes and which of the given modules are
# loaded by then.
CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from ptlab.cli import main
for stage in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        codes = [main(argv) for argv in stage]
    print(codes, sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every ptlab command is a fresh process, so what `import ptlab.cli` and
    the command load is paid per verdict.  dataclasses (which loads inspect)
    was most of it, and argparse loaded gettext and, on its first parse,
    locale.  fractions (with decimal and numbers) serves only a cutoff that
    is not an integer, so no monoid or regularity command loads it and an
    integral tower cutoff does not either.  No command loads heapq: the
    library normalises no digits, and reads p off f-bar.  The tower
    stack (ptlab.logreg, ptlab.series, ptlab.tower) serves only the tower
    commands, so no monoid or regularity command loads it."""
    env = _child_env()
    banned = ["argparse", "dataclasses", "decimal", "fractions", "gettext", "heapq",
              "inspect", "locale", "numbers", "ptlab.logreg", "ptlab.series", "ptlab.tower"]
    x1 = '[{"exponent": [1], "coeff": 1}]'
    quadric = ["--preset", "quadric", "--p", "3", "--depth", "1", "--cutoff"]
    stages = [
        [["monoid", a, "--preset", "A1"] for a in ("check", "saturate", "divide", "embed",
                                                     "classgroup")],
        [["regularity", "omega"], ["regularity", "maximal", "--d", "1", "--elems", f"[2, {x1}]"],
         ["regularity", "kummer", "--d", "1", "--f", f"[{x1}]", "--e", "2"]],
        [["tower", a, *quadric, "4"] for a in ("build", "verify", "tilt", "exactstilt")],
        [["tower", "verify", *quadric, "7/2"]],
    ]
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(stages), *banned], env=env,
                         capture_output=True, text=True, check=True)
    stack = "'ptlab.logreg', 'ptlab.series', 'ptlab.tower'"
    assert out.stdout.splitlines() == [
        "[0, 0, 0, 0, 0] []",
        "[0, 0, 0] []",
        f"[0, 0, 0, 0] [{stack}]",
        f"[0] ['decimal', 'fractions', 'numbers', {stack}]",
    ]


def test_a_monoid_child_loads_no_tower_module():
    """The benchmark's own path, a fresh `python -m ptlab.cli` child: under
    -X importtime a monoid command imports no module of the tower stack, a
    regularity command the toolkit and no module of the tower stack either,
    and -h still lists the names of both preset tables, the tower's
    included."""
    from ptlab.logreg import PRESETS
    from ptlab.monoid import PRESETS as MONOID_PRESETS

    env = _child_env()
    child = [sys.executable, "-X", "importtime", "-m", "ptlab.cli"]
    stack = {"ptlab.logreg", "ptlab.series", "ptlab.tower"}
    for argv, needed in ((["monoid", "check", "--preset", "A1"],
                          {"ptlab.monoid", "ptlab.classgroup"}),
                         (["regularity", "omega"], {"ptlab.regularity"})):
        out = subprocess.run([*child, *argv], env=env, capture_output=True, text=True,
                             check=True)
        loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
        assert needed <= loaded and not loaded & stack, argv
    out = subprocess.run([*child, "-h"], env=env, capture_output=True, text=True, check=True)
    words = set(out.stdout.replace("|", " ").split())
    assert {*MONOID_PRESETS, *PRESETS} <= words


# Every import inside a function of src/ptlab, with the reason it is not at
# module level.  The guard above fails if one of these moves back up.
TOWER_STACK = ("only tower commands use the tower stack, so no monoid or regularity "
               "command loads it")
LAZY_IMPORTS = {
    "series._as_rational: fractions": "only a cutoff that is not an integer needs "
                                      "fractions, which loads decimal and numbers",
    "cli._check: .series": TOWER_STACK,
    "cli._presentation_from_args: .logreg": TOWER_STACK,
    "cli._cmd_tower: .logreg": TOWER_STACK,
    "cli._cmd_tower: .tower": TOWER_STACK,
    "cli._cmd_regularity: .regularity": "only regularity commands use the regularity "
                                        "toolkit, so no monoid or tower command loads it",
    "cli.__iter__: .logreg": "the tower preset names (cli._TowerPresets), read for a "
                             "tower --preset and the usage; " + TOWER_STACK,
}


def test_lazy_imports_are_listed():
    found = []

    def visit(node, fname, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, fname, child.name)
            elif fn and isinstance(child, ast.Import):
                found.extend(f"{fname}.{fn}: {alias.name}" for alias in child.names)
            elif fn and isinstance(child, ast.ImportFrom):
                found.append(f"{fname}.{fn}: {'.' * child.level}{child.module or ''}")
            else:
                visit(child, fname, fn)

    for fname, tree in _modules().items():
        visit(tree, fname[:-3], None)
    assert sorted(found) == sorted(LAZY_IMPORTS)


def test_one_process_entry():
    """The installed `ptlab` and `python -m ptlab.cli` enter through one
    function, and main() itself leaves the collector alone: tests and the
    benchmark probe call it in process."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, entry = pyproject["project"]["scripts"]["ptlab"].partition(":")
    assert module == "ptlab.cli"
    tree = _modules()["cli.py"]
    guards = [stmt for stmt in tree.body if isinstance(stmt, ast.If)
              and ast.unparse(stmt.test) == "__name__ == '__main__'"]
    assert len(guards) == 1
    called = [sub.func.id for sub in ast.walk(guards[0])
              if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)]
    assert called == [entry]
    main = next(stmt for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "main")
    assert "gc" not in _names(main)


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(positional index or None for keyword-only, name) of fn's defaulted
    parameters."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    out = [(k, arg.arg) for k, arg in enumerate(pos) if k >= first]
    out += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, index: int | None, name: str, bound: bool) -> bool:
    """call may set the parameter: by keyword, by position (a call through an
    attribute binds self or cls first), or through *args / **kwargs."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return index is not None and len(call.args) > index - bound


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter of a function in src/ptlab is passed by some call
    in src/, tests/ or perfbench/; one that no caller sets is a knob that
    does nothing and should be the value every caller gets.  Calls are
    matched by the called name, so a same-named function elsewhere counts."""
    root = SRC.parents[1]
    calls: dict[str, list[ast.Call]] = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(called, []).append(node)
    unset = []
    for fname, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = bool(fn.args.args) and fn.args.args[0].arg in ("self", "cls")
            for index, name in _defaulted(fn):
                if not any(_passes(c, index, name, bound) for c in calls.get(fn.name, ())):
                    unset.append(f"{fname}: {fn.name}({name}=...)")
    assert unset == []


def test_every_descriptor_field_is_read():
    """Each field of a record with a from_descriptor reader is read, as an
    attribute, somewhere in src/ptlab outside that record's own
    to_descriptor: a field that only round-trips through its descriptor
    decides nothing.  Reads are matched by attribute name."""
    trees = list(_modules().values())
    loads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for cls in (node for tree in trees for node in ast.walk(tree)):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        if "from_descriptor" not in methods:
            continue
        writer = methods.get("to_descriptor")
        skip = {id(node) for node in ast.walk(writer)} if writer else set()
        read = {node.attr for node in loads if id(node) not in skip}
        unread += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    assert unread == []


# Functions in src/ptlab that the CLI matrix does not reach, each with the
# one reason it stays.
RECORD_INTERNAL = "record internals: the decorator runs at import, the rest are guards and repr"
ORACLE = "a reference oracle of the tests"
DESCRIPTOR = "reads or writes a descriptor format; no command calls it yet"
DESCRIBED_ONLY = ("decides what only a ring or tower descriptor gives, no preset: a "
                  "non-saturated monoid, a matrix transition, maps that leave a ring; "
                  "no command reads such a descriptor yet")
WITNESS = ("turns a packed exponent back into coordinates for a witness, which only a "
           "failing check writes; every presentation a command reads passes")
UNREACHED_BY_DESIGN = {
    "record.record": RECORD_INTERNAL,
    "record.record.<locals>.__eq__": "record equality: a command meets equal records only "
                                     "as one object, in sets and dicts",
    "record.record.<locals>.<lambda 1>": "the values of a record with no fields, "
                                         "which only test_record defines",
    "record.record.<locals>.__delattr__": RECORD_INTERNAL,
    "record.record.<locals>.__repr__": RECORD_INTERNAL,
    "record.record.<locals>.__setattr__": RECORD_INTERNAL,
    "record.record.<locals>.values": RECORD_INTERNAL,
    "cli.run": "the process entry, exercised in child processes",
    "monoid.member_test.<locals>.<lambda 1>": DESCRIBED_ONLY,
    "monoid.contains": DESCRIBED_ONLY,
    "monoid.in_gp": DESCRIBED_ONLY,
    "series.SeriesRingDesc.nonzero": DESCRIBED_ONLY,
    "series.SeriesRingDesc.elem": WITNESS,
    "series.SeriesRingDesc.unpack": WITNESS,
    "tower.Transition.on_packed.<locals>.act_packed": DESCRIBED_ONLY,
    "monoid.MonoidElem.__add__": ORACLE,
    "monoid.MonoidElem.__sub__": ORACLE,
    "monoid.MonoidElem._combine": ORACLE,
    "logreg.LogRegPresentation.to_descriptor": DESCRIPTOR,
    "series.SeriesRingDesc.from_descriptor": DESCRIPTOR,
    "tower.TowerDesc.from_descriptor": DESCRIPTOR,
}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file name, first line) -> module.qualname of every function, method
    and lambda defined in src/ptlab.  The first line is the profiler's: that
    of the first decorator, if any, and a lambda's own.  The k-th lambda of
    a scope, in source order, is named <lambda k>."""
    out = {}
    for fname, tree in _modules().items():
        stack = [(tree, fname[:-3] + ".")]
        lambdas: dict[str, list[int]] = {}
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(fname, line)] = prefix + child.name
                    stack.append((child, f"{prefix}{child.name}.<locals>."))
                elif isinstance(child, ast.Lambda):
                    lambdas.setdefault(prefix, []).append(child.lineno)
                    stack.append((child, f"{prefix}<lambda>.<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
        for prefix, lines in lambdas.items():
            for k, line in enumerate(sorted(lines), 1):
                out[(fname, line)] = f"{prefix}<lambda {k}>"
    return out


def _cli_matrix(tmp_path) -> list[list[str]]:
    """Every action of the three groups: the monoid presets and descriptors,
    a monoid that is not sharp, both tower presets at p = 2 and 3,
    presentations read with --input (one with f in (p), so I_0 = (0)), an
    exponent outside the ring monoid (its error names it); and the usage,
    asked for before and after a group."""
    from ptlab.logreg import preset

    numeric = json.dumps({"ambient_rank": 1, "scale_base": 2, "generators": [[2], [3]]})
    mon_file = tmp_path / "numeric.json"
    mon_file.write_text(numeric)
    pres_file = tmp_path / "quadric.json"
    pres_file.write_text(json.dumps(preset("quadric", 3).to_descriptor()))
    zero_file = tmp_path / "f_in_p.json"
    zero_file.write_text(json.dumps({
        "monoid": {"ambient_rank": 1, "scale_base": 2, "generators": [[1]]}, "free_rank": 0,
        "p": 2, "f": [{"exponent": [1], "coeff": 2}]}))
    out = []
    for action in ("check", "saturate", "divide", "embed", "classgroup"):
        for source in (["--preset", "quadric"], ["--preset", "Nd"], ["--preset", "A1"],
                       ["--json", numeric]):
            out.append(["monoid", action, *source])
    out.append(["monoid", "check", "--input", str(mon_file)])
    # <(1,0),(-1,0),(0,1)> is not sharp: check reports it (exit 1), saturate refuses it (exit 2)
    not_sharp = json.dumps({"ambient_rank": 2, "scale_base": 2,
                            "generators": [[1, 0], [-1, 0], [0, 1]]})
    out += [["monoid", "check", "--json", not_sharp], ["monoid", "saturate", "--json", not_sharp]]
    for name in ("unramified_rlr", "quadric"):
        for p, depth in (("2", "2"), ("3", "1")):
            for action in ("build", "verify", "tilt", "exactstilt"):
                out.append(["tower", action, "--preset", name, "--p", p, "--depth", depth])
    out.append(["tower", "verify", "--input", str(pres_file), "--depth", "1"])
    out.append(["tower", "verify", "--input", str(zero_file), "--depth", "1"])
    x1 = '[{"exponent": [1], "coeff": 1}]'
    out += [["regularity", "omega"], ["regularity", "omega", "--equal-char"],
            ["regularity", "maximal", "--d", "1", "--elems", f"[2, {x1}]"],
            ["regularity", "maximal", "--p", "2", "--d", "2",
             "--elems", '[[{"exponent": [-1, 0], "coeff": 1}]]'],
            ["regularity", "kummer", "--d", "1", "--f", f"[{x1}]", "--e", "2"],
            ["--help"], ["tower", "--help"]]
    return out


def _reached(run) -> set[tuple[str, int]]:
    """(file name, first line) of every src/ptlab function that run() calls."""
    prof = cProfile.Profile()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
    return {(path.name, e.code.co_firstlineno) for e in prof.getstats()
            if not isinstance(e.code, str)
            and (path := Path(e.code.co_filename).resolve()).parent == SRC}


def test_every_function_is_reached(tmp_path):
    """src/ptlab holds what a command reaches: each function or method is
    called by a fixed CLI matrix, run under cProfile, or is in
    UNREACHED_BY_DESIGN."""
    import ptlab
    # imported before the profile, as _cli_matrix imports the tower stack:
    # what runs at import is no command's call
    import ptlab.regularity  # noqa: F401
    from ptlab.cli import main

    assert Path(ptlab.__file__).resolve().parent == SRC
    # memoised results from earlier tests would hide the calls behind them
    for name, mod in list(sys.modules.items()):
        if name.startswith("ptlab."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
    matrix = _cli_matrix(tmp_path)
    reached = _reached(lambda: [main(argv) for argv in matrix])
    defined = _defined_functions()
    unreached = {name for key, name in defined.items() if key not in reached}
    for names, what in ((unreached - set(UNREACHED_BY_DESIGN), "reached by no command"),
                        (set(UNREACHED_BY_DESIGN) - set(defined.values()), "not defined"),
                        (set(UNREACHED_BY_DESIGN) - unreached, "reached after all")):
        assert not names, f"{what}: {', '.join(sorted(names))}"
