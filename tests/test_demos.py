"""Every demo prints exactly the output it printed before: the sha256 of its
stdout, run as a script with PYTHONPATH=src, is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_gluing_walkthrough.py": "40545e7af6bf06266cc66a3ec0de36d8435a9cea4a8c652d98cbc9440f3a2b11",
    "02_extremal_tables.py": "88494200b639c756691dda42452589dc72e576daf85045de19ec46ed38c5b137",
    "03_exponents_and_thresholds.py": "8068b85eed8f34f95a8201ecbcf1795b0656ca1637b818aac94d2a057fc76c1d",
    "04_deletion_construction.py": "a2e2fcc8b1a3b01f2b592eff1db48924af4d18b71d28d26bd6757eeb55ef23e5",
    "05_balanced_families.py": "ed325dac91a7c1f96be45c9f5b3d4131d9ed230fec4bf41e72d4cb83d6efab18",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, check=True
    ).stdout
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[name]
