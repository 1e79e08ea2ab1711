"""The record decorator against the frozen-dataclass behaviour it replaces."""

import dataclasses
from fractions import Fraction
from functools import cached_property

import pytest

from ptlab.logreg import build_tower, preset
from ptlab.monoid import AffineMonoid, MonoidElem
from ptlab.record import FrozenInstanceError, record, replace
from ptlab.series import InvariantViolation, coeff_map, ideal_generator
from ptlab.tower import TowerDesc

from series_oracle import s_one


@record
class Point:
    x: int
    y: int = 0
    tag: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")
        object.__setattr__(self, "tag", self.tag.upper())

    @cached_property
    def norm(self) -> int:
        return self.x * self.x + self.y * self.y


@record
class Pair:
    x: int
    y: int = 0
    tag: str = "P"


@dataclasses.dataclass(frozen=True)
class DataPair:
    x: int
    y: int = 0
    tag: str = "P"


def test_defaults_and_binding():
    assert Point(1) == Point(1, 0, "p") == Point(x=1) == Point(1, tag="P")
    assert (Point(2, 3).x, Point(2, 3).y, Point(2, 3).tag) == (2, 3, "P")
    assert Point(y=5, x=1).y == 5
    assert Pair.__record_fields__ == ("x", "y", "tag")


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),                         # x missing
    ((1, 2, "a", 4), {}),             # one too many
    ((1,), {"z": 3}),                 # unknown keyword
    ((1,), {"x": 2}),                 # x twice
    ((), {"y": 2}),                   # x missing, y given
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_non_default_after_default_is_rejected():
    with pytest.raises(TypeError):
        @record
        class Bad:
            a: int = 0
            b: int


def test_post_init_runs_on_construction_and_on_replace():
    with pytest.raises(ValueError):
        Point(-1)
    p = Point(1, 2, "q")
    assert p.tag == "Q"
    q = replace(p, y=7)
    assert (q.x, q.y, q.tag) == (1, 7, "Q") and p.y == 2
    with pytest.raises(ValueError):
        replace(p, x=-1)
    with pytest.raises(TypeError):
        replace(p, z=1)


def test_replace_validates_library_records():
    with pytest.raises(ValueError):
        replace(AffineMonoid(1, 2, 0, ((1,),)), ambient_rank=-1)
    T = build_tower(preset("unramified_rlr", 2), 2, Fraction(4), 2)
    with pytest.raises(InvariantViolation):
        replace(T, levels=T.levels[:2])
    # the I_0 generator must be an exponent of R_0 = Z_2[[x1, x2]] within the cutoff
    for e in (MonoidElem((1,), 0, 2),          # the wrong width
              MonoidElem((1, 0), 1, 2),        # finer than R_0
              MonoidElem((-1, 1), 0, 2),       # outside R_0's monoid
              MonoidElem((5, 0), 0, 2)):       # past the cutoff D = 4
        with pytest.raises(InvariantViolation):
            replace(T, base_ideal=(e, 1))
    Q = build_tower(preset("quadric", 3), 1, Fraction(4), 2)
    with pytest.raises(InvariantViolation):    # in N^4, off the quadric's lattice
        replace(Q, base_ideal=(MonoidElem((1, 0, 0, 0), 0, 3), 1))
    # 3 = 1 + 2 = 1 + x1 has two terms in canonical form
    R0 = T.levels[0]
    with pytest.raises(InvariantViolation, match="monomial or zero"):
        replace(T, base_ideal=ideal_generator(R0, [(R0.zero_exp, 3)]))
    # the canonical generator is its own canonical form, and replace keeps it
    assert ideal_generator(R0, coeff_map(R0, [T.base_ideal])) == T.base_ideal
    assert replace(T, transitions=T.transitions) == T
    # a descriptor's depth must be the number of levels less one
    d = T.to_descriptor()
    assert TowerDesc.from_descriptor(d) == T
    with pytest.raises(InvariantViolation, match="levels must run R_0 .. R_depth"):
        TowerDesc.from_descriptor({**d, "depth": 3})


def test_equality_needs_the_same_class():
    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3)
    assert Point(1, 2, "P") != Pair(1, 2, "P")
    assert Pair(1, 2).__eq__(Point(1, 2)) is NotImplemented
    assert Pair(1) != (1, 0, "P")


def test_hash_agrees_with_equality_and_with_dataclasses():
    assert hash(Pair(1, 2)) == hash(Pair(1, 2))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    # the same field tuple hashes the same, so set and dict orders do not move
    assert hash(Pair(1, 2, "a")) == hash(DataPair(1, 2, "a")) == hash((1, 2, "a"))
    assert hash(MonoidElem((2, 4), 1, 2)) == hash(MonoidElem((1, 2), 0, 2))
    one = record(type("One", (), {"__annotations__": {"v": int}}))
    assert hash(one(3)) == hash((3,))
    empty = record(type("Empty", (), {}))
    assert empty() == empty() and hash(empty()) == hash(())


def test_assignment_and_deletion_raise():
    p = Point(1)
    with pytest.raises(FrozenInstanceError):
        p.x = 2
    with pytest.raises(FrozenInstanceError):
        p.other = 2
    with pytest.raises(AttributeError):
        del p.x
    assert p.x == 1


def test_cached_property_writes_the_instance_dict():
    p = Point(3, 4)
    assert p.norm == 25 and p.__dict__["norm"] == 25
    assert p == Point(3, 4)  # a cached value is not a field


def test_repr_matches_dataclasses():
    assert repr(Pair(1, 2, "a")) == repr(DataPair(1, 2, "a")).replace("DataPair", "Pair")


def test_class_defined_methods_survive():
    assert repr(MonoidElem((1, 0), 0, 2)) == "<1,0>"
    T = build_tower(preset("unramified_rlr", 2), 1, Fraction(2), 2)
    assert repr(s_one(T.levels[0])) == "1*e<0,0>"
    assert repr(T.base_ideal) == "(<1,0>, 1)"
