"""Golden outputs: `vrrjump compare --dump-grid` on a small box at the three
reference angles reproduces the committed CSVs in tests/golden/ cell for
cell.

A change that moves numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md how many cells moved and by how much.
"""

import csv
import importlib.resources
import json
import math
import sys
from pathlib import Path

from vrrjump.cli import main

GOLDEN = Path(__file__).parent / "golden"
BOX = {"r_mm": [29.0, 74.0, 3.0], "s0_mm": [100.0, 250.0, 25.0],
       "delta_theta_deg": [0.0, 0.0, 1.0], "k_fixed": [11.0, 39.0, 4.0]}
"""16 x 7 VRR and 8 FRR candidates per angle, with the reference design
(47, 150) mm and the -2.618 optimum (50, 100) mm among them."""


def write_outputs(tmp: Path) -> Path:
    """Run compare on BOX into tmp/out; return that directory."""
    doc = json.loads(importlib.resources.files("vrrjump.configs")
                     .joinpath("fullscale.json").read_text())
    doc["search"] = BOX
    cfg = tmp / "golden_box.json"
    cfg.write_text(json.dumps(doc))
    out = tmp / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out),
                 "--dump-grid"]) == 0
    return out


def golden_names(out: Path) -> list[str]:
    return ["summary.csv"] + sorted(p.name for p in out.glob("grid_*.csv"))


def _rel(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def diff(want: Path, got: Path) -> str | None:
    """None when the two CSVs are equal; else the file, the number of
    differing cells and the largest relative difference."""
    if not got.exists():
        return f"{want.name}: not written"
    with want.open(newline="") as fa, got.open(newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return (f"{want.name}: shape differs ({len(a)} rows golden, "
                f"{len(b)} written)")
    cells = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x != y]
    if not cells:
        return None
    worst = max(_rel(x, y) for x, y in cells)
    return (f"{want.name}: {len(cells)} cells differ, largest relative "
            f"difference {worst:.3g}")


def test_compare_outputs_match_golden(tmp_path, capsys):
    out = write_outputs(tmp_path)
    capsys.readouterr()
    names = golden_names(out)
    assert sorted(p.name for p in GOLDEN.glob("*.csv")) == sorted(names)
    problems = [d for d in (diff(GOLDEN / n, out / n) for n in names) if d]
    assert not problems, "\n".join(problems)


def test_diff_names_cells_and_size(tmp_path):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    want.write_text("a,b\n1,2\n3,4\n")
    got.write_text("a,b\n1,2.5\n3,4\n")
    assert diff(want, got) == ("want.csv: 1 cells differ, largest relative "
                               "difference 0.2")
    got.write_text("a,b\n3,4\n1,2\n")
    assert diff(want, got).startswith("want.csv: 4 cells differ")
    got.write_text("a,b\n1,2\n")
    assert "shape differs" in diff(want, got)
    assert diff(want, want) is None


if __name__ == "__main__":
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out = write_outputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.glob("*.csv"):
            old.unlink()
        for name in golden_names(out):
            shutil.copyfile(out / name, GOLDEN / name)
            print(GOLDEN / name, file=sys.stderr)
