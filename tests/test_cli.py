"""CLI behavior: exit codes, determinism, descriptor round-trips."""

import errno
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ptlab.cli import _SIZED_PRESETS, GROUPS, load_descriptor, main
from ptlab.logreg import PRESETS, build_tower, preset
from ptlab.monoid import PRESETS as MONOID_PRESETS
from ptlab.monoid import AffineMonoid
from ptlab.monoid import preset as monoid_preset
from ptlab.tower import TowerDesc

NUMERIC = {"ambient_rank": 1, "scale_base": 2, "level": 0, "generators": [[2], [3]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_monoid_check_reports_saturation_failure(tmp_path, capsys):
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(NUMERIC))
    code, out, _ = run(capsys, "monoid", "check", "--input", str(path))
    assert code == 1
    report = json.loads(out)["report"]
    assert report["saturated"] is False
    assert report["sharp"] is True
    assert out.endswith("\n")


def test_monoid_check_passes_on_free_monoid(capsys):
    code, out, _ = run(capsys, "monoid", "check", "--preset", "Nd", "--d", "2")
    assert code == 0
    assert json.loads(out)["report"]["saturated"] is True


def test_monoid_saturate_roundtrip(capsys):
    code, out, _ = run(capsys, "monoid", "saturate", "--json", json.dumps(NUMERIC))
    assert code == 0
    S = AffineMonoid.from_descriptor(json.loads(out)["report"])
    assert S.generators == ((1,),)


def test_monoid_classgroup(capsys):
    code, out, _ = run(capsys, "monoid", "classgroup", "--preset", "A1")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["group"] == "Z/2"
    assert rep["prime_to_p"]["finite"] is True


def test_output_keys_are_sorted(capsys):
    _, out, _ = run(capsys, "monoid", "check", "--preset", "quadric")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert list(payload["report"]) == sorted(payload["report"])


def test_tower_verify_deterministic(capsys):
    args = ("tower", "verify", "--preset", "unramified_rlr", "--p", "2", "--d", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    # a cold process with other set iteration orders against this warm one
    root = Path(__file__).resolve().parents[1]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": seed}
    proc = subprocess.run([sys.executable, "-m", "ptlab.cli", *args],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out1


def test_tower_tilt_builds_one_source_tower(capsys, monkeypatch):
    built = []
    post_init = TowerDesc.__post_init__

    def counting(self):
        built.append("source" if self.levels[0].relation_f is not None else "predicted")
        post_init(self)

    monkeypatch.setattr(TowerDesc, "__post_init__", counting)
    code, _, _ = run(capsys, "tower", "tilt", "--preset", "unramified_rlr")
    assert code == 0
    assert built == ["source", "predicted"]


def test_tower_build_descriptor_roundtrip(capsys):
    # the report is the tower descriptor and nothing else, and reading it
    # back gives the same tower and the same bytes
    for name, p, depth in itertools.product(PRESETS, (2, 3), (1, 2)):
        code, out, _ = run(capsys, "tower", "build", "--preset", name, "--p", str(p),
                           "--depth", str(depth))
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["command", "report"] and payload["command"] == "tower build"
        T = build_tower(preset(name, p), depth, Fraction(4), 2)
        report = payload["report"]
        assert report.keys() == T.to_descriptor().keys()
        back = TowerDesc.from_descriptor(report)
        assert back == T
        again = {"command": "tower build", "report": back.to_descriptor()}
        assert json.dumps(again, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_tower_tilt_and_exactstilt_pass(capsys):
    code, out, _ = run(capsys, "tower", "tilt", "--preset", "unramified_rlr")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["all_pass"] and all(x["bijective"] for x in rep["mod_pillar_iso"])
    code2, out2, _ = run(capsys, "tower", "exactstilt", "--preset", "unramified_rlr")
    assert code2 == 0
    assert json.loads(out2)["report"]["all_pass"]


def test_regularity_commands(capsys):
    code, out, _ = run(capsys, "regularity", "omega", "--p", "3", "--d", "2")
    assert code == 0
    assert json.loads(out)["report"]["dimension"] == 3
    elems = json.dumps([2,
                        [{"exponent": [1, 0], "coeff": 1}],
                        [{"exponent": [0, 1], "coeff": 1}]])
    code2, _, _ = run(capsys, "regularity", "maximal", "--elems", elems)
    assert code2 == 0
    code3, _, _ = run(capsys, "regularity", "maximal", "--elems", "[2]")
    assert code3 == 1
    f = json.dumps([[{"exponent": [1, 0], "coeff": 1}],
                    [{"exponent": [0, 1], "coeff": 1}]])
    code4, _, _ = run(capsys, "regularity", "kummer", "--f", f, "--e", "2,2")
    assert code4 == 0
    # an empty --e is the empty list, as the default is
    code5, out5, _ = run(capsys, "regularity", "kummer", "--e", "")
    assert (code5, json.loads(out5)["report"]) == (0, {"regular": True})


def test_maximal_with_a_unit_is_false(capsys):
    """A unit is never part of a regular system of parameters (Matsumura,
    Thm 14.2).  In Z_3[[x1]], 4 = 1 + 3 is a unit, so (4, x1) is the unit
    ideal while (3, x1) is m; in F_2[[x1]], 1 + x1 is a unit and x1 is not."""
    x1 = [{"exponent": [1], "coeff": 1}]
    one_plus_x1 = [{"exponent": [0], "coeff": 1}, {"exponent": [1], "coeff": 1}]
    cases = [(["--p", "3"], [4, x1], False), (["--p", "3"], [3, x1], True),
             (["--equal-char"], [one_plus_x1], False), (["--equal-char"], [x1], True)]
    for flags, elems, want in cases:
        code, out, _ = run(capsys, "regularity", "maximal", "--d", "1", *flags,
                           "--elems", json.dumps(elems))
        assert (code, json.loads(out)["report"]) == (0 if want else 1, {"maximal": want})


def test_kummer_with_a_unit(capsys):
    """Regularity at the points over m of Z_3[[x1]]: a unit with 3 not
    dividing e is etale (T^2 - 1, T^2 - 4); with p | e a unit keeps the
    class of f - [b], [b] the Teichmuller lift of its residue (4 - 1 = 3
    has that of p, 8 - [2] and 1 - [1] none).  Over F_2[[x1]], 1 + x1 with
    e = 4 has the class of x1."""
    one_plus_x1 = json.dumps([[{"exponent": [0], "coeff": 1}, {"exponent": [1], "coeff": 1}]])
    cases = [(["--p", "3"], "[1]", "2", True), (["--p", "3"], "[4]", "2", True),
             (["--p", "3"], "[4]", "3", True), (["--p", "3"], "[8]", "3", False),
             (["--p", "3"], "[1]", "9", False), (["--p", "3"], "[4]", "6", True),
             (["--equal-char"], one_plus_x1, "4", True)]
    for flags, f, e, want in cases:
        code, out, _ = run(capsys, "regularity", "kummer", *flags, "--d", "1",
                           "--f", f, "--e", e)
        assert (code, json.loads(out)["report"]) == (0 if want else 1, {"regular": want}), f


def test_regularity_reads_terms_as_coefficient_maps(capsys):
    """How --elems and --f read their terms, over Z_2[[x]] (--p 2 --d 1)
    unless noted: an exponent at level 1 is read at level 0 (x^{2/2} is x,
    and x^{0/8} the constant); the coefficients of one exponent are summed
    (x + x = 2x is in m^2); a term of any degree is accepted, and only the
    constant and the linear coefficients are read (x + x^9 reads as x); a
    constant is read mod p^2 (6 has the class of p); an exponent outside
    the ring monoid, finer than it or of the wrong width, exits 2."""
    def x(*coeffs_at, level=0):
        return [{"exponent": [k], "level": level, "coeff": c} for k, c in coeffs_at]

    cases = [([2, x((2, 1), level=1)], True), ([2, x((1, 1), (1, 1))], False),
             ([2, x((1, 3))], True), ([2, x((1, 1), (9, 1))], True), ([6, x((1, 1))], True),
             ([x((0, 2), level=3), x((1, 1))], True)]
    for elems, want in cases:
        code, out, _ = run(capsys, "regularity", "maximal", "--p", "2", "--d", "1",
                           "--elems", json.dumps(elems))
        assert (code, json.loads(out)["report"]) == (0 if want else 1, {"maximal": want}), elems
    for elems, e in (([2, x((1, 1), level=1)], "<1>/2^1"),
                     ([[{"exponent": [1, 0], "coeff": 1}]], "<1,0>")):
        assert _one_line_exit_2(capsys, "regularity", "maximal", "--p", "2", "--d", "1",
                                "--elems", json.dumps(elems)) == (
            f"ptlab: exponent {e} is not in the ring monoid\n")
    # over Z_3[[x]], x + 2x = 3x is in m^2, x + x^9 reads as x and x^9 as 0,
    # and 4 x^{0/27} is the constant 4, with the class of p at e = 3
    for f, e, want in (([x((1, 1), (1, 2))], "3", False), ([x((1, 1), (9, 1))], "3", True),
                       ([x((9, 1))], "3", False), ([x((0, 4), level=3)], "3", True)):
        code, out, _ = run(capsys, "regularity", "kummer", "--p", "3", "--d", "1",
                           "--f", json.dumps(f), "--e", e)
        assert (code, json.loads(out)["report"]) == (0 if want else 1, {"regular": want}), f


def test_tilt_walks_no_level_past_D_p(capsys):
    """tower tilt counts every basis and compares them on quotient
    monomials, so the quadric at p = 7, depth 3 (about 1.08e8 top
    exponents) passes, and the walk the levels share stops at degree D p,
    where the mod-pillar isomorphism at home level 1 reads S_1."""
    from ptlab import monoid

    monoid.walk.cache_clear()
    code, out, err = run(capsys, "tower", "tilt", "--preset", "quadric", "--p", "7",
                         "--depth", "3")
    assert code == 0 and json.loads(out)["report"]["all_pass"], err
    top = build_tower(preset("quadric", 7), 3, 4, 2).levels[-1]
    assert top.cap == 4 * 7 ** 3 and top._walk.degree <= 4 * 7


# sha256 of the reports at the commit before the membership tests became
# per-ring closures; the large window's verify and exactstilt print them
QUADRIC_P5_DEPTH3 = {
    "verify": "6c562b98f46459007e6a0c684b5a600f39a145479ba5765b476c4a6aa71defd7",
    "exactstilt": "ae625bce8d4ca0902287066a065c3269ff4abc5900867bf3aa2a5b0010430514",
}


@pytest.mark.parametrize("action", sorted(QUADRIC_P5_DEPTH3))
def test_large_window_prints_the_pinned_report(capsys, action):
    code, out, err = run(capsys, "tower", action, "--preset", "quadric", "--p", "5",
                         "--depth", "3")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == QUADRIC_P5_DEPTH3[action]


def test_input_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "monoid", "check", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read" in err

    empty = tmp_path / "empty.json"
    empty.write_text("")
    code2, _, err2 = run(capsys, "monoid", "check", "--input", str(empty))
    assert code2 == 2 and "empty file" in err2

    broken = tmp_path / "broken.json"
    broken.write_text("{\n  \"ambient_rank\": ,\n}")
    code3, _, err3 = run(capsys, "monoid", "check", "--input", str(broken))
    assert code3 == 2 and ":2:" in err3

    code4, _, err4 = run(capsys, "tower", "verify", "--p", "6")
    assert code4 == 2 and "prime" in err4

    code5, _, _ = run(capsys, "tower", "verify", "--preset", "nosuch")
    assert code5 == 2

    code6, _, err6 = run(capsys, "monoid", "check")
    assert code6 == 2 and "provide" in err6

    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes("{}".encode("utf-16"))  # starts with the BOM \xff\xfe
    for group, action in (("monoid", "check"), ("tower", "verify")):
        code7, _, err7 = run(capsys, group, action, "--input", str(utf16))
        assert code7 == 2 and err7.startswith(f"ptlab: {utf16}: 'utf-8' codec"), err7


def test_composite_p_is_rejected(capsys):
    # 10201 = 101^2 has no prime factor below 100
    code, out, err = run(capsys, "monoid", "divide", "--preset", "Nd", "--p", "10201", "--d", "1")
    assert code == 2
    assert out == ""
    assert err == "ptlab: p must be a prime\n"


def test_prime_beyond_the_decided_range_is_rejected(tmp_path, capsys):
    big = 10**25 + 13
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ambient_rank": 1, "scale_base": big, "generators": [[1]]}))
    for argv in (("monoid", "check", "--preset", "Nd", "--p", str(big)),
                 ("monoid", "check", "--input", str(path))):
        err = _one_line_exit_2(capsys, *argv)
        assert err == "ptlab: primality is only decided below 3.3e24\n"


def test_custom_presentation_with_composite_p_is_rejected(tmp_path, capsys):
    P4 = {"monoid": {"ambient_rank": 0, "scale_base": 4, "level": 0, "generators": []},
          "free_rank": 2, "p": 4, "f": [{"exponent": [1, 0], "coeff": 1}]}
    path = tmp_path / "P4.json"
    path.write_text(json.dumps(P4))
    code, out, err = run(capsys, "tower", "verify", "--input", str(path),
                         "--depth", "1", "--cutoff", "2")
    assert code == 2
    assert out == ""
    assert err == "ptlab: p must be a prime\n"


def test_malformed_tower_term_exits_2(tmp_path, capsys):
    P = preset("unramified_rlr", 2).to_descriptor()
    P["f"][0]["coeff"] = "x"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(P))
    code, out, err = run(capsys, "tower", "verify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("ptlab: ") and err.count("\n") == 1 and "'x'" in err


def test_malformed_series_term_exits_2(capsys):
    elems = json.dumps([[{"exponent": [1, 0], "coeff": "x"}]])
    code, out, err = run(capsys, "regularity", "maximal", "--elems", elems)
    assert code == 2
    assert out == ""
    assert err.startswith("ptlab: series term") and err.count("\n") == 1


def test_load_descriptor_parses(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(NUMERIC) + "\n")
    assert load_descriptor(str(path)) == NUMERIC


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "monoid", "check", "--preset", "Nd",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["report"]["saturated"] is True


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    # exit 1 is a verification that ran and failed; an unwritable report is an input error
    missing = tmp_path / "nosuch" / "report.json"
    err = _one_line_exit_2(capsys, "monoid", "check", "--preset", "Nd", "--output", str(missing))
    assert err.startswith(f"ptlab: cannot write {missing}: ") and "No such file" in err
    err2 = _one_line_exit_2(capsys, "monoid", "check", "--preset", "Nd", "--output", str(tmp_path))
    assert err2.startswith(f"ptlab: cannot write {tmp_path}: ") and "directory" in err2


def test_process_entry_matches_in_process_main(tmp_path, capsys):
    """`python -m ptlab.cli` enters through run(), which flushes stdout and
    stderr and ends the process with os._exit, so no teardown and no atexit
    handler runs: each child prints, writes and exits as main() does in this
    process, and main() itself leaves the collector alone."""
    root = Path(__file__).resolve().parents[1]
    # block-buffered stdout, so the report reaches the pipe by _emit's own flush
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps(NUMERIC))
    report = tmp_path / "report.json"
    quadric = ("--preset", "quadric", "--p", "3")
    cases = [("tower", "verify", *quadric),
             ("tower", "tilt", *quadric),
             ("tower", "exactstilt", *quadric),
             ("monoid", "check", "--input", str(numeric)),  # not saturated: exit 1
             ("monoid", "check", "--input", str(tmp_path / "nope.json")),  # exit 2
             ("monoid", "saturate", "--input", str(numeric), "--output", str(report))]
    codes = []
    for argv in cases:
        own = run(capsys, *argv), report.read_bytes() if report.exists() else None
        report.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "ptlab.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        written = report.read_bytes() if report.exists() else None
        assert ((proc.returncode, proc.stdout, proc.stderr), written) == own, argv
        codes.append(proc.returncode)
    assert codes == [0, 0, 0, 1, 2, 0]
    assert written and json.loads(written)["command"] == "monoid saturate"
    assert gc.get_freeze_count() == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_that_cannot_be_written_exits_2():
    # a full device fails the write or its flush inside _emit, like --output;
    # exit 1 would claim a verification failed
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for unbuffered in ("", "1"):  # write fails, or only its flush does
        env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ptlab.cli", "monoid", "check",
                                   "--preset", "Nd"], cwd=root, env=env, stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("ptlab: cannot write")
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_help_on_a_stdout_that_cannot_be_written_exits_2(capsys, monkeypatch):
    """The usage text is written like a report: a stdout that refuses it
    gives one `ptlab: cannot write stdout` line and exit 2, not a traceback
    and exit 1, in process and in a child writing to a full device."""
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for flag in ("-h", "--help"):
        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["tower", flag]) == 2
        err = capsys.readouterr().err
        full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert err == f"ptlab: cannot write stdout: {full}\n"
    if not os.path.exists("/dev/full"):
        return
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ptlab.cli", "-h"], cwd=root, env=env,
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("ptlab: cannot write stdout")


def test_preset_choices_are_the_preset_tables(capsys):
    choices = {group: list(flags["--preset"][2]) for group, (_, flags) in GROUPS.items()
               if "--preset" in flags}
    assert choices == {"monoid": list(MONOID_PRESETS), "tower": list(PRESETS)}
    for p in ("2", "3"):
        for name in MONOID_PRESETS:
            code, out, err = run(capsys, "monoid", "check", "--preset", name, "--p", p)
            assert code == 0 and json.loads(out)["report"]["saturated"] is True, (name, err)
        for name in PRESETS:
            code, out, err = run(capsys, "tower", "build", "--preset", name, "--p", p,
                                 "--depth", "1")
            assert code == 0 and json.loads(out)["report"]["depth"] == 1, (name, err)
    # --d is taken by exactly the presets whose value it changes
    sized = [n for n in MONOID_PRESETS if monoid_preset(n, 2, 1) != monoid_preset(n, 2, 2)]
    sized += [n for n in PRESETS if preset(n, 2, 1) != preset(n, 2, 2)]
    assert sorted(sized) == sorted(_SIZED_PRESETS)


def _one_line_exit_2(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("ptlab: ") and err.count("\n") == 1, err
    return err


def test_float_constant_series_exits_2(capsys):
    # a float constant used to be truncated: [2.9] answered for 2 with exit 0
    err = _one_line_exit_2(capsys, "regularity", "kummer", "--p", "2", "--d", "0",
                           "--f", "[2.9]", "--e", "2")
    assert "2.9" in err


def test_float_generator_exits_2(capsys):
    desc = {"ambient_rank": 2, "scale_base": 2, "generators": [[1.7, 0], [0, 1]]}
    err = _one_line_exit_2(capsys, "monoid", "check", "--json", json.dumps(desc))
    assert "1.7" in err


def test_bool_generator_exits_2(capsys):
    desc = {"ambient_rank": 1, "scale_base": 2, "generators": [[True]]}
    err = _one_line_exit_2(capsys, "monoid", "check", "--json", json.dumps(desc))
    assert "True" in err


def test_negative_d_and_rank_exit_2(capsys):
    err = _one_line_exit_2(capsys, "monoid", "check", "--preset", "Nd", "--d", "-1")
    assert "d must be nonnegative" in err
    desc = {"ambient_rank": -2, "scale_base": 2, "generators": []}
    err2 = _one_line_exit_2(capsys, "monoid", "check", "--json", json.dumps(desc))
    assert "ambient rank" in err2


def test_non_sharp_monoid(capsys):
    Z = json.dumps({"ambient_rank": 1, "scale_base": 2, "generators": [[1], [-1]]})
    code, out, _ = run(capsys, "monoid", "check", "--json", Z)
    assert code == 1
    report = json.loads(out)["report"]
    assert report["sharp"] is False and report["saturated"] is None
    err = _one_line_exit_2(capsys, "monoid", "saturate", "--json", Z)
    assert "sharp" in err


def test_thin_cone_saturates_in_a_subprocess():
    """A fresh process, so a hang fails this test at the timeout instead of stalling the suite."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    desc = {"ambient_rank": 2, "scale_base": 2, "generators": [[1, 0], [1, 8], [2, 9]]}
    proc = subprocess.run([sys.executable, "-m", "ptlab.cli", "monoid", "saturate",
                           "--json", json.dumps(desc)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    gens = json.loads(proc.stdout)["report"]["generators"]
    assert sorted(map(tuple, gens)) == [(1, k) for k in range(9)]


@pytest.mark.parametrize("d, n, group", [(3, 6, "Z/6"), (4, 3, "Z/3"), (5, 3, "Z/3")])
def test_large_veronese_classgroup_in_a_subprocess(d, n, group):
    """V(d, n), generated by the degree-n monomials in d variables, has class
    group Z/n; a fresh process, with the hang guard of the thin cone above."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    gens = [list(c) for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n]
    desc = {"ambient_rank": d, "scale_base": 2, "generators": gens}
    proc = subprocess.run([sys.executable, "-m", "ptlab.cli", "monoid", "classgroup",
                           "--json", json.dumps(desc)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["group"] == group


def test_negative_division_index_exits_2(capsys):
    err = _one_line_exit_2(capsys, "monoid", "divide", "--preset", "A1", "--p", "2", "--i", "-1")
    assert err == "ptlab: division index must be nonnegative\n"


def test_exactstilt_needs_positive_depth(capsys):
    # at depth 0 the only home level is j = depth, where the check degenerates
    for name in ("unramified_rlr", "quadric"):
        err = _one_line_exit_2(capsys, "tower", "exactstilt", "--preset", name, "--depth", "0")
        assert err == "ptlab: exactstilt needs --depth >= 1\n"
    code, out, _ = run(capsys, "tower", "exactstilt", "--preset", "unramified_rlr", "--depth", "1")
    assert code == 0 and len(json.loads(out)["report"]["levels"]) == 1


def test_cutoff_has_one_parser(capsys):
    # a zero denominator or a non-number names the cutoff and exits 2; a
    # cutoff is ASCII -?N, -?N/M or -?N.M, so 1_0, a full-width 4, " 4", +4,
    # 4/1_0 and 1e1 are refused (Fraction() reads them as 10, 4, 4, 4, 2/5, 10)
    argv = ("tower", "verify", "--preset", "quadric", "--p", "3", "--cutoff")
    for bad in ("7/0", "1/0"):
        err = _one_line_exit_2(capsys, *argv, bad)
        assert err == f"ptlab: cutoff {bad!r} has a zero denominator\n"
    for bad in ("abc", "1_0", "\uff14", " 4", "+4", "4/1_0", "1e1"):
        err = _one_line_exit_2(capsys, *argv, bad)
        assert err == f"ptlab: cutoff {bad!r} is not a rational number\n"
    # a nonpositive cutoff or precision is refused by the ring descriptor
    for bad in ("0", "-1"):
        err = _one_line_exit_2(capsys, "tower", "verify", "--cutoff", bad)
        assert err == "ptlab: degree cutoff must be positive\n"
    err = _one_line_exit_2(capsys, "tower", "verify", "--precision", "0")
    assert err == "ptlab: precision must be >= 1\n"
    # the command line and a tower descriptor read "1.5" alike
    code, out, _ = run(capsys, "tower", "build", "--preset", "unramified_rlr", "--depth", "1",
                       "--cutoff", "1.5")
    assert code == 0
    report = json.loads(out)["report"]
    assert report == json.loads(run(capsys, "tower", "build", "--preset", "unramified_rlr",
                                    "--depth", "1", "--cutoff", "3/2")[1])["report"]
    for level in report["levels"]:
        level["cutoff"] = "1.5"
    T = TowerDesc.from_descriptor(report)
    assert T == build_tower(preset("unramified_rlr", 2), 1, Fraction(3, 2), 2)


def test_integral_cutoff_is_held_as_an_int(capsys):
    # every spelling of 4 gives one tower and one report, byte for byte
    P = preset("quadric", 3)
    towers = [build_tower(P, 1, c, 2) for c in (4, "4", "4/1", "4.0", Fraction(4))]
    assert all(T == towers[0] for T in towers)
    assert {type(R.cutoff) for T in towers for R in T.levels} == {int}
    assert len({json.dumps(T.to_descriptor(), sort_keys=True) for T in towers}) == 1
    argv = ("tower", "build", "--preset", "quadric", "--p", "3", "--depth", "1", "--cutoff")
    outs = {run(capsys, *argv, c)[:2] for c in ("4", "4/1", "4.0", "04")}
    assert len(outs) == 1 and next(iter(outs))[0] == 0
    # a cutoff that is not an integer is still a Fraction
    code, out, _ = run(capsys, "tower", "verify", "--preset", "quadric", "--p", "3",
                       "--depth", "1", "--cutoff", "7/2")
    assert code == 0 and json.loads(out)["report"]["cutoff"]["D"] == "7/2"


USAGE_ERRORS = [
    ([], "ptlab: the group must be one of monoid, tower, regularity\n"),
    (["groups"], "ptlab: the group must be one of monoid, tower, regularity, not 'groups'\n"),
    (["tower"], "ptlab: the tower action must be one of build, verify, tilt, exactstilt\n"),
    (["tower", "--depth", "1"], "ptlab: the tower action must be one of build, verify, tilt, "
                                "exactstilt\n"),
    (["monoid", "chek", "--preset", "A1"], "ptlab: the monoid action must be one of check, "
                                           "saturate, divide, embed, classgroup, not 'chek'\n"),
    (["monoid", "check", "--preset", "A1", "again"], "ptlab: unrecognized arguments: again\n"),
    (["monoid", "check", "--preset", "A1", "--depth", "2"],
     "ptlab: unrecognized arguments: --depth\n"),
    (["regularity", "omega", "--cutoff=3"], "ptlab: unrecognized arguments: --cutoff=3\n"),
    (["tower", "verify", "--prec", "2"], "ptlab: unrecognized arguments: --prec\n"),
    (["tower", "verify", "-p", "3"], "ptlab: unrecognized arguments: -p\n"),
    (["tower", "verify", "--p"], "ptlab: --p needs a value\n"),
    (["monoid", "check", "--preset"], "ptlab: --preset needs a value\n"),
    (["regularity", "omega", "--equal-char=yes"], "ptlab: --equal-char takes no value\n"),
    (["tower", "verify", "--preset", "nosuch"],
     "ptlab: --preset must be one of unramified_rlr, quadric, not 'nosuch'\n"),
    (["monoid", "check", "--preset=quadratic"],
     "ptlab: --preset must be one of quadric, Nd, A1, not 'quadratic'\n"),
    (["monoid", "check", "--preset", "Nd", "--p", "two"],
     "ptlab: --p must be an integer, not 'two'\n"),
    (["regularity", "omega", "--d=1.5"], "ptlab: --d must be an integer, not '1.5'\n"),
    (["monoid", "divide", "--preset", "A1", "--i", "x"],
     "ptlab: --i must be an integer, not 'x'\n"),
    (["tower", "build", "--depth", ""], "ptlab: --depth must be an integer, not ''\n"),
    (["tower", "build", "--precision", "2.0"],
     "ptlab: --precision must be an integer, not '2.0'\n"),
    # int() would read these as 10, 3, 2 and [3]
    (["regularity", "omega", "--d", "1_0"], "ptlab: --d must be an integer, not '1_0'\n"),
    (["regularity", "omega", "--p", "\uff13"], "ptlab: --p must be an integer, not '\uff13'\n"),
    (["tower", "build", "--depth", " 2"], "ptlab: --depth must be an integer, not ' 2'\n"),
    (["regularity", "kummer", "--d", "0", "--f", "[2]", "--e", "3,,"],
     "ptlab: --e entry must be an integer, not ''\n"),
    (["regularity", "kummer", "--d", "0", "--f", "[2]", "--e", "+3"],
     "ptlab: --e entry must be an integer, not '+3'\n"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_errors_are_one_line(capsys, argv, message):
    """A usage error is one `ptlab: ` line on stderr and exit 2, like every
    other input error: nothing is guessed from an abbreviation."""
    assert _one_line_exit_2(capsys, *argv) == message


def test_flags_go_anywhere_and_the_last_counts(capsys, monkeypatch):
    base = run(capsys, "monoid", "divide", "--preset", "A1", "--p", "3", "--i", "2")
    assert base[0] == 0
    for argv in (["monoid", "--i", "2", "divide", "--p=3", "--preset", "A1"],
                 ["monoid", "--preset=Nd", "--i", "1", "divide", "--preset", "A1", "--p", "3",
                  "--i=2"]):
        assert run(capsys, *argv) == base
    monkeypatch.setattr(sys, "argv", ["ptlab", "monoid", "divide", "--preset", "A1", "--p", "3",
                                      "--i", "2"])
    code = main()  # reads sys.argv[1:]
    assert (code, *capsys.readouterr()) == base


def test_help_names_the_whole_table(capsys):
    outs = [run(capsys, *argv) for argv in (["--help"], ["-h"], ["tower", "-h"],
                                             ["monoid", "check", "--help"])]
    assert all(o == outs[0] for o in outs)
    code, out, err = outs[0]
    assert code == 0 and err == "" and out.startswith("usage: ptlab GROUP ACTION")
    words = set(out.replace("|", " ").split())
    for group, (actions, flags) in GROUPS.items():
        assert {group, *actions, *flags} <= words, group
        if "--preset" in flags:
            assert set(flags["--preset"][2]) <= words


def test_tower_flags_are_refused_elsewhere(capsys):
    for argv in (["monoid", "check", "--preset", "Nd"], ["regularity", "omega"]):
        assert run(capsys, *argv)[0] == 0
        for flag in (["--depth", "1"], ["--cutoff", "3"], ["--precision", "3"]):
            code, out, err = run(capsys, *argv, *flag)
            assert code == 2 and out == "" and "unrecognized arguments" in err


def test_every_declared_flag_is_read(tmp_path, capsys):
    """Each option of each subcommand changes stdout or the exit code of one
    invocation when only that option is added, so no flag goes unread."""
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps(NUMERIC))
    presentation = tmp_path / "rlr_d1.json"
    presentation.write_text(json.dumps(preset("unramified_rlr", 2, d=1).to_descriptor()))
    report = str(tmp_path / "report.json")
    build = ["tower", "build", "--depth", "0"]
    table = {
        "monoid": {
            "--p": (["monoid", "saturate", "--preset", "Nd"], ["--p", "3"]),
            "--d": (["monoid", "check", "--preset", "Nd"], ["--d", "3"]),
            "--output": (["monoid", "check", "--preset", "Nd"], ["--output", report]),
            "--input": (["monoid", "check", "--preset", "Nd"], ["--input", str(numeric)]),
            "--json": (["monoid", "check", "--preset", "Nd"], ["--json", json.dumps(NUMERIC)]),
            "--preset": (["monoid", "check", "--preset", "Nd"], ["--preset", "quadric"]),
            "--i": (["monoid", "divide", "--preset", "A1"], ["--i", "2"]),
        },
        "tower": {
            "--p": (build, ["--p", "3"]),
            "--d": (build, ["--d", "1"]),
            "--output": (build, ["--output", report]),
            "--preset": (build, ["--preset", "quadric"]),
            "--input": (build, ["--input", str(presentation)]),
            "--depth": (build, ["--depth", "1"]),
            "--cutoff": (build, ["--cutoff", "3"]),
            "--precision": (build, ["--precision", "3"]),
        },
        "regularity": {
            "--p": (["regularity", "maximal", "--d", "0", "--elems", "[3]"], ["--p", "3"]),
            "--d": (["regularity", "omega"], ["--d", "1"]),
            "--output": (["regularity", "omega"], ["--output", report]),
            "--equal-char": (["regularity", "omega"], ["--equal-char"]),
            "--elems": (["regularity", "maximal", "--d", "0"], ["--elems", "[2]"]),
            "--f": (["regularity", "kummer", "--d", "0", "--e", "2"], ["--f", "[2]"]),
            "--e": (["regularity", "kummer", "--d", "0", "--f", "[2]"], ["--e", "2"]),
        },
    }
    assert set(GROUPS) == set(table)
    for group, (_, flags) in GROUPS.items():
        assert set(flags) == set(table[group]), group
        for flag, (argv, extra) in table[group].items():
            before = run(capsys, *argv)[:2]
            assert run(capsys, *argv, *extra)[:2] != before, (group, flag)


def test_generators_outside_Nd_exit_2_on_every_tower_action(tmp_path, capsys):
    # a sharp saturated Q whose generators leave N^2: the support walk needs
    # them in N^d, so the ring refuses the presentation before any action runs
    P = {"monoid": {"ambient_rank": 2, "scale_base": 2, "level": 0,
                    "generators": [[1, -1], [1, 1], [1, 0]]},
         "free_rank": 0, "p": 2, "f": [{"exponent": [1, 1], "coeff": 1}]}
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(P))
    for action in ("build", "verify", "tilt", "exactstilt"):
        err = _one_line_exit_2(capsys, "tower", action, "--input", str(path),
                               "--depth", "1", "--cutoff", "3")
        assert "N^d" in err and "monoid embed" in err


def test_monoid_descriptor_prime_is_the_run_prime(tmp_path, capsys):
    # A1 at scale base 3: Cl = Z/2, whose prime-to-3 part is all of it
    desc = {"ambient_rank": 2, "scale_base": 3, "level": 0, "generators": [[2, 0], [1, 1], [0, 2]]}
    path = tmp_path / "a1_p3.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "monoid", "classgroup", "--json", json.dumps(desc))
    assert code == 0
    assert json.loads(out)["report"]["prime_to_p"]["prime_to_p_order"] == 2
    assert run(capsys, "monoid", "classgroup", "--input", str(path), "--p", "3")[:2] == (0, out)
    for action in ("classgroup", "divide"):
        err = _one_line_exit_2(capsys, "monoid", action, "--input", str(path), "--p", "2")
        assert err == "ptlab: --p 2 differs from the descriptor's prime 3\n"
    # a preset still takes --p, 2 by default
    code, out, _ = run(capsys, "monoid", "divide", "--preset", "A1", "--p", "3")
    assert json.loads(out)["report"]["layer_quotient"]["order"] == 9
    code, out, _ = run(capsys, "monoid", "divide", "--preset", "A1")
    assert json.loads(out)["report"]["layer_quotient"]["order"] == 4


def test_presentation_prime_is_the_run_prime(tmp_path, capsys):
    path = tmp_path / "quadric_p3.json"
    path.write_text(json.dumps(preset("quadric", 3).to_descriptor()))
    window = ["--depth", "1", "--cutoff", "2"]
    code, out, _ = run(capsys, "tower", "tilt", "--input", str(path), *window)
    assert code == 0
    assert run(capsys, "tower", "tilt", "--input", str(path), "--p", "3", *window)[:2] == (0, out)
    for action in ("build", "verify", "tilt", "exactstilt"):
        for p in ("2", "5"):
            err = _one_line_exit_2(capsys, "tower", action, "--input", str(path), "--p", p,
                                   *window)
            assert err == f"ptlab: --p {p} differs from the descriptor's prime 3\n"


def _term(exponent, coeff, level=0):
    return {"exponent": exponent, "level": level, "coeff": coeff}


N0 = {"ambient_rank": 0, "scale_base": 2, "level": 0, "generators": []}
N1 = {"ambient_rank": 1, "scale_base": 2, "level": 0, "generators": [[1]]}
DEGENERATE = {
    # f in (p): R/(p, f) = R/(p), so I_0 = (0) and every action reports
    "f_zero_mod_p": {"monoid": N0, "free_rank": 2, "p": 2, "f": [_term([1, 0], 2)]},
    "f_coefficient_0": {"monoid": N0, "free_rank": 2, "p": 2, "f": [_term([1, 0], 0)]},
    "f_bar_two_terms": {"monoid": N0, "free_rank": 2, "p": 2,
                        "f": [_term([1, 0], 1), _term([0, 1], 3)]},
    # the second term of f-bar lies past the cutoff, so p is still a monomial
    "f_bar_two_terms_past_cutoff": {"monoid": N0, "free_rank": 2, "p": 2,
                                    "f": [_term([1, 0], 1), _term([0, 5], 1)]},
    "not_saturated": {"monoid": {**N1, "generators": [[2], [3]]}, "free_rank": 1, "p": 2,
                      "f": [_term([0, 1], 1)]},
    "not_sharp": {"monoid": {**N1, "generators": [[1], [-1]]}, "free_rank": 1, "p": 2,
                  "f": [_term([0, 1], 1)]},
    "generator_outside_Nd": {"monoid": {"ambient_rank": 2, "scale_base": 2, "level": 0,
                                        "generators": [[1, -1], [1, 1], [1, 0]]},
                             "free_rank": 0, "p": 2, "f": [_term([1, 1], 1)]},
    "f_degree_0": {"monoid": N0, "free_rank": 2, "p": 2, "f": [_term([0, 0], 1)]},
    "f_finer_than_level": {"monoid": N0, "free_rank": 2, "p": 2, "f": [_term([1, 0], 1, 1)]},
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_presentations_get_a_report_or_one_line(tmp_path, capsys, name):
    """Every tower action on a degenerate presentation gives a JSON report
    with exit 0 or 1, or exactly one `ptlab:` line with exit 2; a raised
    exception fails the test."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEGENERATE[name]))
    codes = {}
    for action in ("build", "verify", "tilt", "exactstilt"):
        argv = ("tower", action, "--input", str(path), "--depth", "1", "--cutoff", "3")
        code, out, err = run(capsys, *argv)
        if code == 2:
            assert out == "" and err.startswith("ptlab: ") and err.count("\n") == 1, err
        else:
            assert code in (0, 1) and err == ""
            assert json.loads(out)["command"] == f"tower {action}"
        codes[action] = code
    # the four actions admit the same presentations: build_tower checks f-bar
    assert len(set(codes.values())) == 1, codes
    if name in ("f_zero_mod_p", "f_coefficient_0"):
        assert codes == dict.fromkeys(codes, 0)


def test_every_input_error_exits_2_and_nothing_else_is_caught(tmp_path, capsys, monkeypatch):
    """Each input error class reaches main from a real command and gives exit
    2 with one `ptlab:` line; main catches them by their one base class,
    InputError, or, for a flag check such as a negative --depth, with the
    usage errors before the command runs.  A ValueError that is not an
    input error is a fault of the library and propagates out of main."""
    import ptlab.cli as cli
    import ptlab.logreg as logreg
    from ptlab.intlat import SubLatticeNotContained
    from ptlab.logreg import InvalidPresentation
    from ptlab.monoid import InputError, NotSaturated, NotSharp
    from ptlab.regularity import UnsupportedBase
    from ptlab.series import InvariantViolation, NonMonomialReduction
    from ptlab.tower import PillarNotFound

    two_terms = tmp_path / "f_bar_two_terms.json"
    two_terms.write_text(json.dumps(DEGENERATE["f_bar_two_terms"]))
    # f = x is no element of the A1 cone <(2,0),(1,1),(0,2)>
    outside = tmp_path / "f_outside_Q.json"
    outside.write_text(json.dumps({"monoid": {"ambient_rank": 2, "scale_base": 2,
                                              "generators": [[2, 0], [1, 1], [0, 2]]},
                                   "free_rank": 0, "p": 2, "f": [_term([1, 0], 1)]}))
    not_sharp = json.dumps({"ambient_rank": 2, "scale_base": 2,
                            "generators": [[1, 0], [-1, 0], [0, 1]]})
    x1 = '[{"exponent": [1], "coeff": 1}]'
    # a run reads one source, and --d sizes a preset only
    numeric, rlr = tmp_path / "V.json", tmp_path / "rlr.json"
    numeric.write_text(json.dumps(NUMERIC))
    rlr.write_text(json.dumps(preset("unramified_rlr", 2).to_descriptor()))
    two_sources = "ptlab: --input and {} are two sources; give one\n"
    cases = [
        (cli.ParseError, ["monoid", "check"], None),
        (cli.ParseError, ["monoid", "check", "--input", str(numeric), "--preset", "quadric",
                          "--d", "7"], two_sources.format("--preset")),
        (cli.ParseError, ["monoid", "check", "--json", json.dumps(NUMERIC),
                          "--input", str(numeric)], two_sources.format("--json")),
        (cli.ParseError, ["tower", "verify", "--input", str(rlr), "--preset", "quadric",
                          "--d", "9"], two_sources.format("--preset")),
        (cli.ParseError, ["monoid", "classgroup", "--json", json.dumps(NUMERIC), "--d", "3"],
         "ptlab: --d sizes a preset; --json fixes its own\n"),
        (cli.ParseError, ["tower", "build", "--input", str(rlr), "--d", "2"],
         "ptlab: --d sizes a preset; --input fixes its own\n"),
        (cli.ParseError, ["tower", "verify", "--depth", "-1"],
         "ptlab: depth must be nonnegative\n"),
        (cli.ParseError, ["monoid", "check", "--json", "{"],
         "ptlab: --json:1:2: Expecting property name enclosed in double quotes\n"),
        (cli.ParseError, ["regularity", "maximal", "--d", "1", "--elems", "["],
         "ptlab: series JSON: Expecting value\n"),
        (cli.ParseError, ["regularity", "maximal", "--d", "1", "--elems", "{}"],
         "ptlab: series list must be a JSON array\n"),
        (NotSharp, ["monoid", "saturate", "--json", not_sharp], None),
        (NotSaturated, ["monoid", "classgroup", "--json", json.dumps(NUMERIC)], None),
        (InvalidPresentation, ["tower", "build", "--preset", "unramified_rlr", "--d", "0"],
         None),
        (UnsupportedBase, ["regularity", "kummer", "--d", "1", "--f", f"[{x1}]", "--e", "2,3"],
         None),
        (UnsupportedBase, ["regularity", "maximal", "--d", "2",
                           "--elems", '[[{"exponent": [-1, 0], "coeff": 1}]]'],
         "ptlab: exponent <-1,0> is not in the ring monoid\n"),
        (InvariantViolation, ["tower", "verify", "--input", str(outside), "--depth", "1"],
         "ptlab: relation exponent outside the ring monoid\n"),
        (NonMonomialReduction, ["tower", "verify", "--input", str(two_terms), "--depth", "1"],
         None),
    ]
    # a flag that the action or the preset does not read
    unread = [
        (["monoid", "check", "--preset", "A1", "--i", "5"], "--i is read only by monoid divide"),
        (["regularity", "omega", "--elems", "[1]"], "--elems is read only by regularity maximal"),
        (["regularity", "maximal", "--d", "1", "--f", f"[{x1}]"],
         "--f is read only by regularity kummer"),
        (["regularity", "omega", "--e", "3"], "--e is read only by regularity kummer"),
        (["monoid", "check", "--preset", "A1", "--d", "5"],
         "--d sizes a preset; --preset A1 has one size"),
        (["monoid", "classgroup", "--preset", "quadric", "--d", "4"],
         "--d sizes a preset; --preset quadric has one size"),
        (["tower", "build", "--preset", "quadric", "--p", "3", "--depth", "1", "--d", "9"],
         "--d sizes a preset; --preset quadric has one size"),
    ]
    cases += [(cli.ParseError, argv, f"ptlab: {line}\n") for argv, line in unread]
    for cls, argv, line in cases:
        assert issubclass(cls, InputError)
        err = _one_line_exit_2(capsys, *argv)
        assert line in (None, err), err
        with monkeypatch.context() as m:  # main's handler off: the error itself surfaces
            m.setattr(cli, "InputError", ())
            with pytest.raises(cls):
                cli._check(cli._parse(argv))  # the flag checks main makes first
                main(argv)
        capsys.readouterr()
    for cls in (PillarNotFound, SubLatticeNotContained):
        assert issubclass(cls, ValueError) and not issubclass(cls, InputError)

    def fault(*args, **kwargs):
        raise ValueError("a fault of the library")

    monkeypatch.setattr(cli, "saturate", fault)
    monkeypatch.setattr(logreg, "build_tower", fault)
    for argv in (["monoid", "saturate", "--preset", "A1"], ["tower", "build", "--depth", "1"]):
        with pytest.raises(ValueError, match="a fault of the library"):
            main(argv)
    assert capsys.readouterr().err == ""
