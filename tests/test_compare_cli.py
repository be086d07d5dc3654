"""tools/compare_cli.py: the byte comparison of two source trees' CLI."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "compare_cli.py"
SRC = REPO / "src"


def compare(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_a_tree_matches_itself_on_the_help_corpus():
    proc = compare(SRC, SRC)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "21 calls, 0 differ\n", "")


def test_a_changed_help_text_is_printed_in_full(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "gaussmoments", changed / "gaussmoments",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "gaussmoments" / "cli.py"
    text = cli.read_text()
    assert text.count('"cumulant vector"') == 1
    cli.write_text(text.replace('"cumulant vector"', '"cumulants of it"'))
    proc = compare(SRC, changed)
    assert proc.returncode == 1
    # only the top-level help lists the subcommands' help
    assert proc.stdout.count("differs: ") == 1
    assert "differs: gaussmoments --help\n" in proc.stdout
    assert "    cumulants           cumulant vector\n" in proc.stdout
    assert "    cumulants           cumulants of it\n" in proc.stdout
    assert proc.stdout.endswith("21 calls, 1 differ\n")
