"""Command-line front end: deterministic JSON reports over the library.

Exit codes: 0 all verifications passed, 1 some verification failed, 2 bad
input or usage.  Reports are emitted as sorted-key JSON with a trailing
newline so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .classgroup import class_group, prime_to_p_report
from .coeffring import require_prime
from .monoid import (
    AffineMonoid,
    InputError,
    MonoidElem,
    dimension,
    exact_embed_Nd,
    is_saturated,
    is_sharp,
    json_int,
    layer_quotient,
    p_divide,
    saturate,
    term_from_json,
)
from .monoid import PRESETS as MONOID_PRESETS
from .monoid import preset as monoid_preset

# The tower stack (logreg, series, tower) is imported inside the tower
# commands and the regularity toolkit inside the regularity command, so a
# monoid command loads neither and a regularity command no tower module.


class ParseError(InputError):
    pass


def _check(args) -> None:
    """Validate the flags and parse --cutoff; SeriesRingDesc rejects a
    nonpositive cutoff or precision.  Without a descriptor the run's prime
    is --p, 2 by default."""
    if args.p is None and not (getattr(args, "input", None) or getattr(args, "json", None)):
        args.p = 2
    if args.p is not None:
        require_prime(args.p, ParseError)
    if args.d < 0:
        raise ParseError("d must be nonnegative")
    if args.group == "tower":
        if args.depth < 0:
            raise ParseError("depth must be nonnegative")
        from .series import parse_cutoff

        args.cutoff = parse_cutoff(args.cutoff)


def _descriptor_prime(args, p: int) -> None:
    """The descriptor's prime p is the run's prime; a --p that differs is a usage error."""
    if args.p not in (None, p):
        raise ParseError(f"--p {args.p} differs from the descriptor's prime {p}")
    require_prime(p, ParseError)
    args.p = p


def load_descriptor(path: str) -> dict:
    """JSON descriptor from a file, with parse diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not text.strip():
        raise ParseError(f"{path}: empty file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _monoid_descriptor(payload, origin: str, args) -> AffineMonoid:
    try:
        Q = AffineMonoid.from_descriptor(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{origin}: bad monoid descriptor ({exc!r})") from exc
    _descriptor_prime(args, Q.scale_base)
    return Q


def _monoid_from_args(args) -> AffineMonoid:
    if args.input:
        return _monoid_descriptor(load_descriptor(args.input), args.input, args)
    if args.json:
        try:
            payload = json.loads(args.json)
        except json.JSONDecodeError as exc:
            raise ParseError(f"--json:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return _monoid_descriptor(payload, "--json", args)
    if args.preset:
        return monoid_preset(args.preset, args.p, args.d)
    raise ParseError("provide --input, --json, or --preset")


def _presentation_from_args(args):
    """The --input or --preset presentation (logreg.LogRegPresentation)."""
    from .logreg import InvalidPresentation, LogRegPresentation, preset

    if args.input:
        payload = load_descriptor(args.input)
        try:
            P = LogRegPresentation.from_descriptor(payload)
        except InvalidPresentation:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.input}: bad presentation descriptor ({exc!r})") from exc
        _descriptor_prime(args, P.p)
        return P
    return preset(args.preset, args.p, d=args.d)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.output)


def _write(text: str, path: str | None) -> None:
    """text to the file at path, or to stdout; ParseError when it cannot be written."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            # flushed here, so a failed write is this error, not one at exit
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not path:
            try:  # closed, the exit-time flush skips what the device refused
                sys.stdout.close()
            except OSError:
                pass
        raise ParseError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _cmd_monoid(args) -> int:
    Q = _monoid_from_args(args)
    if args.action == "check":
        sharp = is_sharp(Q)
        sat = is_saturated(Q) if sharp else None
        report = {
            "sharp": sharp,
            "saturated": sat,
            "dimension": dimension(Q),
            "generators": [list(g) for g in Q.generators],
        }
        _emit({"command": "monoid check", "report": report}, args)
        return 0 if (sharp and sat) else 1
    if args.action == "saturate":
        S = saturate(Q)
        _emit({"command": "monoid saturate", "report": S.to_descriptor()}, args)
        return 0
    if args.action == "divide":
        try:
            D = p_divide(Q, args.i)
        except ValueError as exc:  # a negative --i
            raise ParseError(str(exc)) from exc
        G = layer_quotient(Q)
        report = {
            "divided": D.to_descriptor(),
            "layer_quotient": {
                "group": G.describe(),
                "invariant_factors": list(G.invariant_factors),
                "order": G.torsion_order(),
            },
        }
        _emit({"command": "monoid divide", "report": report}, args)
        return 0
    if args.action == "embed":
        rows = exact_embed_Nd(Q)
        _emit({"command": "monoid embed",
               "report": {"facet_valuations": [list(r) for r in rows],
                          "target_rank": len(rows)}}, args)
        return 0
    rep = class_group(Q)
    payload = rep.to_json()
    payload["prime_to_p"] = prime_to_p_report(rep.group, args.p)
    _emit({"command": "monoid classgroup", "report": payload}, args)
    return 0


def _cmd_tower(args) -> int:
    # exactstilt's home levels j < depth have tilt depth >= 1; at j = depth no
    # compatibility constraint survives and the annihilator comparison degenerates
    if args.action == "exactstilt" and args.depth < 1:
        raise ParseError("exactstilt needs --depth >= 1")
    from .logreg import build_tower, verify_tilt
    from .tower import (
        frobenius_identities,
        inverse_perfection_is_perfect,
        tilt_mod_pillar_iso,
        verify_exactstilt,
        verify_perfectoid,
        verify_purely_inseparable,
    )

    P = _presentation_from_args(args)
    T = build_tower(P, args.depth, args.cutoff, args.precision)
    if args.action == "build":
        _emit({"command": "tower build", "report": T.to_descriptor()}, args)
        return 0
    if args.action == "verify":
        a = verify_purely_inseparable(T)
        b = verify_perfectoid(T)
        frob = [frobenius_identities(T, i) for i in range(args.depth)]
        report = {
            "axioms": a["axioms"] + b["axioms"],
            "frobenius_identities": [
                {"level": r["level"],
                 "pass": r["t_after_F_is_frobenius"] and r["F_after_t_is_frobenius"]}
                for r in frob
            ],
            "cutoff": T.cutoff_info(),
        }
        ok = a["all_pass"] and b["all_pass"] and all(r["pass"] for r in report["frobenius_identities"])
        report["all_pass"] = ok
        _emit({"command": "tower verify", "report": report}, args)
        return 0 if ok else 1
    if args.action == "tilt":
        rep = verify_tilt(P, T)
        isos = [tilt_mod_pillar_iso(T, j) for j in range(min(2, args.depth + 1))]
        rep["mod_pillar_iso"] = isos
        ok = rep["all_pass"] and all(x["bijective"] for x in isos)
        rep["all_pass"] = ok
        _emit({"command": "tower tilt", "report": rep}, args)
        return 0 if ok else 1
    rows = [verify_exactstilt(T, j) for j in range(args.depth)]
    inv = inverse_perfection_is_perfect(T)
    ok = all(r["all_pass"] for r in rows) and inv["all_pass"]
    report = {"levels": rows, "inverse_perfection": inv, "all_pass": ok,
              "cutoff": T.cutoff_info()}
    _emit({"command": "tower exactstilt", "report": report}, args)
    return 0 if ok else 1


def _series_list(arg: str, A) -> list[dict[tuple[int, ...], int]]:
    """The --elems or --f list as elements of A, a regularity.BaseRing
    (BaseRing.element); ParseError or UnsupportedBase for a bad entry."""
    try:
        data = json.loads(arg)
    except json.JSONDecodeError as exc:
        raise ParseError(f"series JSON: {exc.msg}") from exc
    out = []
    if not isinstance(data, list):
        raise ParseError("series list must be a JSON array")
    for item in data:
        try:
            if isinstance(item, list):
                terms = [term_from_json(t, A.p) for t in item]
            else:
                terms = [(MonoidElem((0,) * A.d, 0, A.p), json_int(item))]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"series term: expected an int or a list of "
                             f'{{"exponent", "coeff"}} objects ({exc!r})') from exc
        out.append(A.element(terms))
    return out


def _cmd_regularity(args) -> int:
    from .regularity import BaseRing, is_maximal_sequence, kummer_regularity, omega_basis

    A = BaseRing(p=args.p, d=args.d, mixed=not args.equal_char)
    if args.action == "omega":
        basis = omega_basis(A)
        _emit({"command": "regularity omega",
               "report": {"dimension": len(basis), "basis": list(basis), "mixed": A.mixed}},
              args)
        return 0
    if args.action == "maximal":
        elems = _series_list(args.elems, A)
        verdict = is_maximal_sequence(A, elems)
        _emit({"command": "regularity maximal", "report": {"maximal": verdict}}, args)
        return 0 if verdict else 1
    f_list = _series_list(args.f, A)
    e_list = [_decimal("--e entry", x) for x in args.e.split(",")] if args.e else []
    verdict = kummer_regularity(A, f_list, e_list)
    _emit({"command": "regularity kummer", "report": {"regular": verdict}}, args)
    return 0 if verdict else 1


class _TowerPresets:
    """The choices of `tower --preset`: the names of logreg.PRESETS, read
    when a tower --preset is parsed or the usage is printed."""

    def __iter__(self):
        from .logreg import PRESETS

        return iter(PRESETS)


_COMMON = {"--p": (int, None, None), "--d": (int, 2, None), "--output": (str, None, None)}
# The command line: group -> (actions, flags), a flag -> (type, default,
# choices); _parse reads argv by it and _usage prints it.
GROUPS = {
    "monoid": (("check", "saturate", "divide", "embed", "classgroup"), {
        "--input": (str, None, None), "--json": (str, None, None),
        "--preset": (str, None, tuple(MONOID_PRESETS)), "--i": (int, 1, None), **_COMMON}),
    "tower": (("build", "verify", "tilt", "exactstilt"), {
        "--preset": (str, "unramified_rlr", _TowerPresets()), "--input": (str, None, None),
        "--depth": (int, 2, None), "--cutoff": (str, "4", None), "--precision": (int, 2, None),
        **_COMMON}),
    "regularity": (("omega", "maximal", "kummer"), {
        "--equal-char": (bool, False, None), "--elems": (str, "[]", None),
        "--f": (str, "[]", None), "--e": (str, "", None), **_COMMON}),
}


# The flags that serve one action, and the presets that read --d: _parse
# refuses such a flag where the run would not read it.
_READ_BY = {"--i": "divide", "--elems": "maximal", "--f": "kummer", "--e": "kummer"}
_SIZED_PRESETS = ("Nd", "unramified_rlr")


def _decimal(what: str, text: str) -> int:
    """text as an int if it is ASCII decimal, -?[0-9]+; int() would also take
    '1_0', full-width digits and surrounding blanks."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} must be an integer, not {text!r}")
    return int(text)


def _pick(what: str, word, choices):
    """word if it is one of choices, else a ParseError that lists them."""
    if word in choices:
        return word
    got = "" if word is None else f", not {word!r}"
    raise ParseError(f"{what} must be one of {', '.join(choices)}{got}")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The flags of argv by GROUPS: before or after the action, `--flag value` or
    `--flag=value`, the last one counting; a value may begin with '-'.  A run
    reads one source, --input, --json or --preset, --d sizes only the presets
    of _SIZED_PRESETS, and a flag of _READ_BY serves its one action: a flag
    the run would not read is a ParseError."""
    words = iter(argv)
    given = set()
    group = _pick("the group", next(words, None), GROUPS)
    actions, flags = GROUPS[group]
    args = SimpleNamespace(group=group, action=None,
                           **{f[2:].replace("-", "_"): d for f, (_, d, _) in flags.items()})
    for word in words:
        if args.action is None and not word.startswith("-"):
            args.action = word
            continue
        flag, eq, value = word.partition("=")
        if flag not in flags:
            raise ParseError(f"unrecognized arguments: {word}")
        kind, _, choices = flags[flag]
        if kind is bool and eq:
            raise ParseError(f"{flag} takes no value")
        if kind is not bool and not eq and (value := next(words, None)) is None:
            raise ParseError(f"{flag} needs a value")
        if kind is bool:
            value = True
        elif kind is int:
            value = _decimal(flag, value)
        elif choices:
            value = _pick(flag, value, choices)
        setattr(args, flag[2:].replace("-", "_"), value)
        given.add(flag)
    args.action = _pick(f"the {group} action", args.action, actions)
    sources = [f for f in ("--input", "--json", "--preset") if f in given]
    if len(sources) > 1:
        raise ParseError(f"{sources[0]} and {sources[1]} are two sources; give one")
    if "--d" in given and sources in (["--input"], ["--json"]):
        raise ParseError(f"--d sizes a preset; {sources[0]} fixes its own")
    if "--d" in given and sources == ["--preset"] and args.preset not in _SIZED_PRESETS:
        raise ParseError(f"--d sizes a preset; --preset {args.preset} has one size")
    for flag, action in _READ_BY.items():
        if flag in given and args.action != action:
            raise ParseError(f"{flag} is read only by {group} {action}")
    return args


def _usage() -> str:
    out = ["usage: ptlab GROUP ACTION [--flag VALUE | --flag=VALUE] ...; -h, --help: this text"]
    for group, (actions, flags) in GROUPS.items():
        out.append(f"  {group} {'|'.join(actions)}")
        for flag, (kind, default, choices) in flags.items():
            value = "" if kind is bool else " " + ("|".join(choices or ()) or kind.__name__.upper())
            out.append(f"      {flag}{value}" + (f" (default {default})" if default else ""))
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            _write(_usage(), None)
            return 0
        args = _parse(argv)
        _check(args)
    except ValueError as exc:
        print(f"ptlab: {exc}", file=sys.stderr)
        return 2
    try:
        if args.group == "monoid":
            return _cmd_monoid(args)
        if args.group == "tower":
            return _cmd_tower(args)
        return _cmd_regularity(args)
    except InputError as exc:
        print(f"ptlab: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry of `ptlab` and `python -m ptlab.cli`: main(), then
    end the process with its code.  Nothing is decided after the report is
    written, so stdout and stderr are flushed and os._exit skips the
    interpreter's teardown: no atexit handler runs and no object is
    deallocated.  A stdout that _write closed after a failed write is left
    alone, and a flush that fails exits 2."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if not stream.closed:
                stream.flush()
    except OSError:
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
