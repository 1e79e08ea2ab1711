"""A fixed pure-Python computation that measures the machine's current speed.

    python3 perfbench/calibrate.py

run.py starts this child between timed ptlab children.  It imports nothing
from ptlab, so no change to the program moves its time; only the machine
does.  The mix imitates ptlab's hot paths: Fraction arithmetic, small tuples,
dict accumulation, frozen dataclass construction and sorting by a key.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Elem:
    coords: tuple
    level: int


def work(n: int) -> int:
    acc: dict = {}
    total = Fraction(0)
    elems = []
    for i in range(1, n):
        e = Elem((i % 7, i % 11, i % 13), i % 3)
        key = tuple(x * 3 - 1 for x in e.coords)
        acc[key] = acc.get(key, 0) + i
        total += Fraction(i % 5, e.level + 1)
        elems.append(e)
    elems.sort(key=lambda e: (sum(e.coords), e.coords))
    return len(acc) + int(total) + len(elems)


if __name__ == "__main__":
    print(work(20000))
