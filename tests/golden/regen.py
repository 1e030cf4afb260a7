"""Rewrite the golden CLI payloads from the current code.

    python3 tests/golden/regen.py

Runs every case of ``tests/test_golden_payloads.py`` in order in a fresh
temporary directory, removes the volatile ``meta`` block and writes each
payload next to this script in the stored format. Rerunning it on unchanged
code reproduces every file byte for byte; ``git diff tests/golden`` then
shows exactly what a change did to the reports.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN.parents[1] / "src"), str(GOLDEN.parent)]

from obstructions.cli import main  # noqa: E402
from test_golden_payloads import CASES  # noqa: E402


def regenerate() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, argv in CASES:
                out = Path(f"{name}.out.json")
                if main([*argv, "-o", out.name]) not in (0, 1):
                    raise SystemExit(f"{name}: the CLI refused {argv}")
                payload = json.loads(out.read_text())
                payload.pop("meta")
                (GOLDEN / f"{name}.json").write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    regenerate()
