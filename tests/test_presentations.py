"""The paper's theorem as a property over random presentations.

A presentation C(k)[[Q + N^r]]/(p - f) whose f-bar is one monomial c x^w
has I_0 = (p) = (x^w): f = c x^w + p h gives p (1 - h) = c x^w.  So every
tower action admits it, whatever the other terms of f, and its division
tower passes the axioms, the tilt correspondence and exactstilt, with the
same bytes on a rerun.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ptlab.cli import main
from ptlab.logreg import LogRegPresentation
from ptlab.monoid import AffineMonoid, term_json

MONOIDS = {
    "N^0": (0, ()),
    "<2>": (1, ((2,),)),
    "N": (1, ((1,),)),
    "A1": (2, ((2, 0), (1, 1), (0, 2))),
    "quadric": (4, ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0))),
}


@st.composite
def presentations(draw):
    """A presentation over Q in MONOIDS, r in 0..2 (at least 1 over N^0, so
    that f has a monomial) and p in {2, 3}, with f a unit multiple of one
    monomial plus multiples of p at other exponents of degree at most 3;
    and a window of depth 1 or 2 with cutoff 2, 5/2 or 3."""
    p = draw(st.sampled_from((2, 3)))
    rank, gens = MONOIDS[draw(st.sampled_from(sorted(MONOIDS)))]
    Q = AffineMonoid(rank, p, 0, gens)
    r = draw(st.integers(1 if rank == 0 else 0, 2))
    ring = LogRegPresentation(Q=Q, r=r, f_terms=()).ring(0, 3, 2)
    exps = st.sampled_from(ring.monomial_basis()[1:]).map(ring.elem)
    units = st.builds(lambda u, k: u + k * p, st.integers(1, p - 1), st.integers(-1, 2))
    lead = draw(st.tuples(exps, units))
    rest = draw(st.lists(st.tuples(exps, st.sampled_from((-2, -1, 1, 2)).map(p.__mul__)),
                         max_size=2))
    P = LogRegPresentation(Q=Q, r=r, f_terms=(lead, *rest))
    return P.to_descriptor(), draw(st.integers(1, 2)), draw(st.sampled_from(("2", "5/2", "3")))


def _run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _check(desc: dict, depth: int, cutoff: str) -> list:
    """Every tower action on the presentation desc exits 0, verify, tilt and
    exactstilt with all_pass and the same bytes on a rerun; returns the base
    ideal that build writes."""
    path = Path(tempfile.mkdtemp()) / "P.json"
    path.write_text(json.dumps(desc))
    window = ("--input", str(path), "--depth", str(depth), "--cutoff", cutoff)
    code, out = _run("tower", "build", *window)
    assert code == 0, desc
    for action in ("verify", "tilt", "exactstilt"):
        code, report = _run("tower", action, *window)
        assert code == 0 and json.loads(report)["report"]["all_pass"], (action, desc, report)
        assert _run("tower", action, *window) == (0, report)
    path.unlink()
    path.parent.rmdir()
    return json.loads(out)["report"]["base_ideal"]


def test_multi_term_p_has_the_f_bar_base_ideal():
    """Q = <2>, r = 1, f = x^2 + 2y at p = 2: p = x^2 (1 + y + y^2 + ...) has
    more than one base-p digit, and I_0 = (x^2)."""
    P = {"monoid": {"ambient_rank": 1, "scale_base": 2, "level": 0, "generators": [[2]]},
         "free_rank": 1, "p": 2,
         "f": [{"exponent": [2, 0], "coeff": 1}, {"exponent": [0, 1], "coeff": 2}]}
    assert _check(P, 1, "7/2") == [{"exponent": [2, 0], "level": 0, "coeff": 1}]


@settings(deadline=None, max_examples=100)
@given(presentations())
def test_random_presentations_pass_every_check(case):
    desc, depth, cutoff = case
    base = _check(desc, depth, cutoff)
    # the base ideal is f-bar's monomial within the cutoff, and (0) past it
    P = LogRegPresentation.from_descriptor(desc)
    w, c = P.f_terms[0]
    R0 = P.ring(0, cutoff, 2)
    assert base == ([term_json(w, c % P.p)] if R0._code(w) is not None else [])
