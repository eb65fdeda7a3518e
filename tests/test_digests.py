"""Golden digests: the stdout of twenty-one CLI commands, byte for byte.

Each digest is the sha256 of the concatenated stdout of `cli.run` over one
range of its `{n}` placeholder.  A change that alters any of these outputs
must say so and record the new digest here.  The two `cover` csv entries
pin witness bytes on short ranges: N = 31..80, and `--theorem 5` for
N = 48..60, which takes the rescue path at (48, 413) and many oracle tails.
The four `witness` csv entries pin conjugated witnesses: of 500 to 1000
parts at n = 2001 and 2000 and, behind a head, on the quadratic segment at
1500, where every tail is linear; and every negative quadratic target at
n = 48 from -74 to -496, 360 of them oracle tails, with the rescue at -413.
The last nine entries pin every format a command renders on its own
path: `cover` in text and json, `conjecture` in text and csv, `spectrum
--witnesses` in text and csv, `witness` in text and `contains` in csv.
LONG_GOLDEN holds the full `cover` ranges (N = 31..300, and `--theorem 5`
for N = 48..300), which take about 4 s and 90 s.  pytest does not run
them; `PYTHONPATH=src python tests/test_digests.py` recomputes both and
exits 1 on a mismatch.

REGISTRY_DIGEST pins every family's shape, byte for byte, for every target
it serves at n = 1..400, far past the n <= 80 soundness sweeps, and
VERIFY_OUT_DIGEST the JSON artifacts that `verify --out` writes.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from tnspec.cli import run
from tnspec.families import FamilyId, build_family, family_targets

GOLDEN = [
    (
        ["verify", "--format", "csv"],
        [None],
        "60c62bf1b19a413710287e5262b396abe3d0b915366079ec955388f6146e0a3a",
    ),
    (
        ["conjecture", "{n}", "--format", "json"],
        range(31, 51),
        "10a484d8f6642a6655e5634328eb6e19af8d5c0505dfb5c24ace382f4764aa02",
    ),
    (
        ["spectrum", "{n}", "--witnesses", "--format", "json"],
        range(1, 46),
        "942fe2dc7e352f239b5e81fd52d1a541315a7b50e805f4dd74271669515e0fbf",
    ),
    (
        ["spectrum", "{n}", "--format", "csv"],
        range(1, 46),
        "36e3463588669d401b86d4967438d9d203bd1d6b96883cf255b240ba62639663",
    ),
    (
        ["cayley", "{n}", "--format", "json"],
        range(1, 7),
        "7b524a5ab24cbc40a61135881b343ddabcdb251b74b1fe8ecba865de964997ce",
    ),
    (
        ["cayley", "{n}"],
        range(1, 7),
        "dfa3b051c9ffe3aaaab7100b504b027acc5b11bb509513dede1cae48d385ac1e",
    ),
    (
        ["cover", "{n}", "--format", "csv"],
        range(31, 81),
        "ea894e928768c1ea61ec511210517a4c2c9bd610722ae0a0e8413a5692da4f1e",
    ),
    (
        ["cover", "--theorem", "5", "{n}", "--format", "csv"],
        range(48, 61),
        "9296a6e7f833f18f5a10c3ac8ef158759a4dec39c8f45f58390b2cd926b9b3a8",
    ),
    (
        ["witness", "2001", "-{n}", "--format", "csv"],
        range(0, 2002, 23),
        "076194b116872fd3126ae6ef88b5be2b2ae036bb4082c8ef9773f569bb6eebd6",
    ),
    (
        ["witness", "2000", "-{n}", "--format", "csv"],
        range(1, 2001, 23),
        "77d438c9dfa704e64b6b85c5614ec8663fdd3fdb4659a1c95977f88934d88f55",
    ),
    (
        ["witness", "--theorem", "5", "1500", "-{n}", "--format", "csv"],
        range(123252, 499501, 4001),
        "6f54683a177162da27e323f65c3ad7cb4e8caff971d5a3179ae5119193eb0513",
    ),
    (
        ["witness", "--theorem", "5", "48", "-{n}", "--format", "csv"],
        range(74, 497),
        "5c6163bb1d52521f8c0a3c0a9e2b81d62b116281c72fa0e3fafdb2af607a2a84",
    ),
    (
        ["cover", "{n}"],
        range(31, 81),
        "2ab6b957ddeb3fa93d2d3d55dd89604f3d96d68225c76a83b3e9f2a71a965f69",
    ),
    (
        ["cover", "{n}", "--format", "json"],
        range(31, 81),
        "87d1f2cc002afbd5141dd1c64a28b61e016727723e5e0aa56decad77b94f4780",
    ),
    (
        ["cover", "--theorem", "5", "{n}"],
        range(48, 61),
        "05c99aa1b7ec9239d91b540a8a4777f62cd9a6df7f0ca62d65bea8549265fd7f",
    ),
    (
        ["conjecture", "{n}"],
        range(31, 51),
        "4fe1dfca4b00e4c9a6e6a1729a1f8acb6128417e1d1c09120c4878961878ccfc",
    ),
    (
        ["conjecture", "{n}", "--format", "csv"],
        range(31, 51),
        "f9b041d0125d11086a3bb1b9d0e29e5e4b26b309ed14edba97a291221fc8b8a5",
    ),
    (
        ["spectrum", "{n}", "--witnesses"],
        range(1, 46),
        "463427c9df0e1ab01c7a2803e7214d5b9180d2576285aca4be7b784b5d8811c4",
    ),
    (
        ["spectrum", "{n}", "--witnesses", "--format", "csv"],
        range(1, 46),
        "3e67bdeba2ab44f374b4fe1f0cfdfa3eb6dd364ea658877bcc657577ffba1c0d",
    ),
    (
        ["witness", "2000", "-{n}"],
        range(1, 2001, 23),
        "38499679ab7d09c1f768ac0309ce0c7299366b03c4549d943e483c156f361499",
    ),
    (
        ["contains", "{n}", "16", "--format", "csv"],
        range(1, 46),
        "0e9528f909354a2263039efb326c5c946a82c64548a07200e38bbb3e56e35a63",
    ),
]


LONG_GOLDEN = [
    (
        ["cover", "{n}", "--format", "csv"],
        range(31, 301),
        "26fecf2ae7569baa6fdd84a86273d36fc243a2c74d63cc6a8fc2a565db1bcec2",
    ),
    (
        ["cover", "--theorem", "5", "{n}", "--format", "csv"],
        range(48, 301),
        "5edc4ffc170fe802cbd64bb93cb7e05af6070fd8318bffdedb746cc02f3362ff",
    ),
]


@pytest.mark.parametrize(
    "argv, ns, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_stdout_digest(capsys, argv, ns, digest):
    out = []
    for n in ns:
        assert run([arg.format(n=n) for arg in argv]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


# One line "family n lam head... twos ones" per (family, n, lam), families in
# FamilyId order, n = 1..400, lam in family_targets order: 81 898 lines.
REGISTRY_DIGEST = "6c2d841485f27a8f4e2d2de6223d773600f0049005c28f2fc7b82353f8640587"


def test_registry_digest():
    lines = []
    for family in FamilyId:
        for n in range(1, 401):
            for lam in family_targets(family, n):
                c = build_family(family, n, lam)
                head = " ".join(map(str, c.head))
                lines.append(f"{family.value} {n} {lam} {head} {c.twos} {c.ones}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == REGISTRY_DIGEST


# sha256 over the files in sorted name order, each fed as its name, a
# newline, then its bytes.
VERIFY_OUT_FILES = 39
VERIFY_OUT_DIGEST = "77e92cb8180e8bf7ab2176e0bf941322ce3fd1e8c82322ba2c486ae5b3cd945a"


def test_verify_out_digest(tmp_path):
    assert run(["verify", "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.iterdir())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert (len(files), digest.hexdigest()) == (VERIFY_OUT_FILES, VERIFY_OUT_DIGEST)


def _stdout_digest(argv, ns):
    """test_stdout_digest's digest, outside pytest's capture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for n in ns:
            assert run([arg.format(n=n) for arg in argv]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    failed = 0
    for argv, ns, digest in LONG_GOLDEN:
        actual = _stdout_digest(argv, ns)
        ok = actual == digest
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH'} {' '.join(argv)} "
              f"n={ns.start}..{ns.stop - 1} {actual}")
    sys.exit(1 if failed else 0)
