"""The five demos, run in process, print exactly their pinned output.

Demo 02 prints exact distances and demo 05 bounded verdicts, so a drift
in either layer shows here as a changed digest. To re-pin after an
intended change of a demo's text, print `_stdout_digest(name)`.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "01_sandpile_relaxation.py": "4dadb76b1141be917c1e040500dce67d282be4de35eb8fcc51ca4280854b5c6b",
    "02_distance_and_topology.py": "1c98ee763c0936805f93146a11ed5277201521db760c46e0c4cec0b48c3ac2a4",
    "03_reversing_the_sandpile.py": "d52ba01f4532a05f03201f69cfd9c3af3316a415a58fb4bda99fe27e568b360f",
    "04_building_preimages.py": "ef41a257c4016d6027560376726d163c06f670d9ba5c6777c0d333f6ae05426f",
    "05_bounded_verification.py": "85010e811e31275686af666eea64e57236e82bb31b39e2dc0e22230d5f43e394",
}


def _stdout_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_output_is_unchanged(name):
    assert _stdout_digest(name) == PINNED[name]
