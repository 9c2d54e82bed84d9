"""tools/lockstep.py: two trees timed side by side on one workload."""

import shutil
import subprocess
import sys
from pathlib import Path

import orbitkit

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(orbitkit.__file__).resolve().parent
# two copies of one tree: the sums of per-job minima agree within this factor
SAME_TREE_BOUND = 1.5
SLEEP_S = 0.01


def copy_tree(dest: Path, sleep_in_cofib_check: bool = False) -> Path:
    shutil.copytree(SRC, dest / "orbitkit", ignore=shutil.ignore_patterns("__pycache__"))
    if sleep_in_cofib_check:
        cli = dest / "orbitkit" / "cli.py"
        text = cli.read_text()
        head = "def cmd_cofib_check(args) -> int:\n"
        assert head in text
        cli.write_text(text.replace(head, f"{head}    __import__('time').sleep({SLEEP_S})\n"))
    return dest


def lockstep(old: Path, new: Path, rounds: int) -> list[str]:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "lockstep.py"), str(old),
                           str(new), "--workload", "lattice", "--seed", "3", "--rounds",
                           str(rounds), "--filter", "Sk1 C"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def ratio(lines) -> float:
    return float(next(line for line in lines if line.startswith("ratio new/old")).split()[2])


def moved(lines) -> list[str]:
    """The job names of the 'moved most' lines, in order."""
    start = lines.index("jobs that moved most (new/old, old -> new ms):") + 1
    return [line.split(None, 4)[4] for line in lines[start:] if line.startswith("  ")]


def test_two_copies_of_one_tree_agree(tmp_path):
    lines = lockstep(copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b"), rounds=4)
    assert 1 / SAME_TREE_BOUND < ratio(lines) < SAME_TREE_BOUND, lines
    assert lines[-1].startswith("same-tree spread (even rounds against odd rounds): old ")
    assert "14 jobs" in lines[0]  # cells and cofib-check on Sk1 for seven groups


def test_the_jobs_of_a_slowed_verb_move_most(tmp_path):
    lines = lockstep(copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b", True), rounds=2)
    names = moved(lines)
    assert len(names) == 10
    assert all(name.startswith("cofib-check Sk1 ") for name in names[:7]), lines
    assert ratio(lines) > 1, lines
