"""Every report is byte-identical: sha256 of CLI stdout and of library reports.

The digests pin the exact JSON a user sees, so a change to the internal
representation (term encoding, support sets, caching) that alters any report
fails here.  A change that alters reports on purpose rewrites the digests
and says so in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from ptlab.cli import main
from ptlab.logreg import build_tower, predict_tilt, preset
from ptlab.tower import frobenius_identities

from fixtures import SABOTAGE, verify_axioms

# (action, preset, p) -> sha256 of stdout of
# `ptlab tower ACTION --preset PRESET --p P --d 2 --depth 2 --cutoff 4`
CLI_DIGESTS = {
    ("verify", "quadric", 2): "3b9a4d8d6d2183d83a71113417d42a23977efea2050669f8623d8f88293efe9f",
    ("tilt", "quadric", 2): "0189ebe580994b60cbce6dfac72dab8da45fe5092e628fbb1818cc97d30e4ee6",
    ("exactstilt", "quadric", 2): "837accd1b3d735e5359098065d478f35d2d2235a48403b57681852e50ca95cfa",
    ("verify", "quadric", 3): "3b9a4d8d6d2183d83a71113417d42a23977efea2050669f8623d8f88293efe9f",
    ("tilt", "quadric", 3): "7f4fb641701d220e7fcb2d9c116aaa12478d016038b337b543b2ac8eccf32ad2",
    ("exactstilt", "quadric", 3): "837accd1b3d735e5359098065d478f35d2d2235a48403b57681852e50ca95cfa",
    ("verify", "unramified_rlr", 2): "3b9a4d8d6d2183d83a71113417d42a23977efea2050669f8623d8f88293efe9f",
    ("tilt", "unramified_rlr", 2): "34627f9e37ccbe35304d3a76062b99d8f9aba580603f7ba601341d40d28b502d",
    ("exactstilt", "unramified_rlr", 2): "837accd1b3d735e5359098065d478f35d2d2235a48403b57681852e50ca95cfa",
    # cap 100: a packed exponent of this window (degree and four coordinate
    # fields) is wider than one 30-bit CPython digit
    ("verify", "quadric", 5): "3b9a4d8d6d2183d83a71113417d42a23977efea2050669f8623d8f88293efe9f",
    ("tilt", "quadric", 5): "7bcab119b4f4efd195d29b69cf47cc23203628c873cdeaf93d2370519d426eae",
    ("exactstilt", "quadric", 5): "837accd1b3d735e5359098065d478f35d2d2235a48403b57681852e50ca95cfa",
}

# sabotage letter -> sha256 of the tower descriptor, its axiom report (verify_axioms)
# and its Frobenius identities, as sorted-key JSON
SABOTAGE_DIGESTS = {
    "a": "b391ed76966e71ed9ff176c868f98ec2e0e8e6763403e8e642cc476055f83fc6",
    "b": "acc8cc8bd80da67dba8b3ea5fac7a47dc4f837492e48379a4d02a82eeb9de9ab",
    "c": "cc9b6d0bc81d78fb1487ca9321c28564c65245b8e876c939069b26549367dad8",
    "d": "888510be08265470c3d98acfe1af66c71a4dd46dd0bf335c960dbde4daff0e26",
    "e": "cf739e2076a3bf0ad03d968028703e6fa99a112b5697515dc05e320b04842b7b",
    "f": "1ee2784fa6210d8ddc42bc4be5b0431473df8fdfe63b268c3485799cf87a81e1",
    "g": "e072390048ccb27b48ce038997ccc3e465a8e7e20d161a637485c49126f55016",
}

# the predicted tilt of the quadric tower at p = 2, depth 2, D = 4
PREDICT_TILT_DIGEST = "c50a13d47c6815dc784a846a13c5c3b7c3021c9ad602c408329cdd69b48f1ce8"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True, separators=(",", ":")))


@pytest.mark.parametrize("action,name,p", sorted(CLI_DIGESTS))
def test_cli_report_digest(action, name, p, capsys):
    argv = ["tower", action, "--preset", name, "--p", str(p), "--d", "2",
            "--depth", "2", "--cutoff", "4"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[action, name, p]


@pytest.mark.parametrize("letter", sorted(SABOTAGE_DIGESTS))
def test_sabotage_report_digest(letter):
    T, _ = SABOTAGE[letter]()
    report = {
        "descriptor": T.to_descriptor(),
        "verify": verify_axioms(T),
        "frobenius_identities": [frobenius_identities(T, i) for i in range(T.depth)],
    }
    assert _json_sha(report) == SABOTAGE_DIGESTS[letter]


def test_predict_tilt_digest():
    Tp = predict_tilt(build_tower(preset("quadric", 2), 2, Fraction(4), 2))
    report = {"descriptor": Tp.to_descriptor(), "verify": verify_axioms(Tp)}
    assert _json_sha(report) == PREDICT_TILT_DIGEST
