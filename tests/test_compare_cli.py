"""tools/compare_cli.py: the byte comparison of two source trees' CLI."""

import json
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


def test_a_changed_check_witness_differs_on_the_seeded_calls(tmp_path):
    # the benchmark runs no check; the seeded corpus runs each method on
    # a Gaussian and a mixture for n = 1, 2, 3, and on a Gaussian of order
    # 4..8 and the same with its top moment raised
    changed = tmp_path / "src"
    shutil.copytree(SRC / "gaussmoments", changed / "gaussmoments",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "gaussmoments" / "cli.py"
    text = cli.read_text()
    assert text.count('"bound": mv.n + 1') == 1
    cli.write_text(text.replace('"bound": mv.n + 1', '"bound": mv.n + 2'))
    proc = compare(SRC, changed, "--seeds", "1")
    assert proc.returncode == 1
    differ = [line for line in proc.stdout.splitlines()
              if line.startswith("differs: ")]
    assert len(differ) == 8
    assert all(" check --moments " in line and line.endswith(
        " --method willink") for line in differ)
    assert proc.stdout.endswith("119 calls, 8 differ\n")


def test_the_seeded_corpus_covers_the_subcommands_the_benchmark_skips(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import compare_cli

    calls = compare_cli.cli_corpus([1], tmp_path)
    option = lambda argv, flag: (argv[argv.index(flag) + 1]
                                 if flag in argv else None)
    kinds = {(argv[0], option(argv, "--method") or option(argv, "--which"),
              "--moments" in argv) for argv in calls}
    for method in ("gd", "willink", "cumulant"):
        assert ("check", method, True) in kinds
    # only the Willink matrix takes --n and --moments
    assert {("matrix", "gd", False), ("matrix", "hb", False),
            ("matrix", "willink", False), ("matrix", "willink", True)} <= kinds
    for argv in calls:
        if argv[0] == "matrix" and argv[2] != "willink":
            assert argv[3:] == ["--d", option(argv, "--d")], argv
    for argv in compare_cli.LARGEST_MATRICES:
        assert ["matrix", "--which", *argv] in calls
    assert {("moments", None, False), ("cumulants", None, False),
            ("cumulants", None, True)} <= kinds
    assert {argv[1] for argv in calls if argv[0] == "formulas"} == {
        "--deg-sec2-g1", "--deg-sec2-x", "--deg-sec3-x", "--dim-d3",
        "--defect-d3", "--conj-eleven"}
    assert {argv[0] for argv in calls} == {
        "moments", "cumulants", "check", "formulas", "matrix"}
    # every input file is written, and the Gaussian's moments are a member
    # of the moment variety by each method that applies, the mixture's not
    results = compare_cli.run_tree(str(SRC), calls, str(tmp_path))
    for argv, (code, out, err) in zip(calls, results):
        if argv[0] != "check":
            assert code == 0, (argv, err)
        elif argv[-1] == "gd" and "-n1-" not in argv[2]:
            assert (code, out) == (1, ""), argv
        else:
            member = json.loads(out)["member"]
            assert (code, member) == (0, "gaussian" in argv[2]), argv


def test_the_rank_corpus_covers_each_limb_count_at_orders_4_and_5(
        monkeypatch):
    # _drop_second's order >= 4 product runs at every limb count
    monkeypatch.syspath_prepend(str(TOOL.parent))
    import compare_cli
    from gaussmoments.linalg import _limbs
    from gaussmoments.secant import DEFAULT_PRIME

    calls = compare_cli.rank_corpus([1, 2])
    option = lambda argv, flag: (argv[argv.index(flag) + 1]
                                 if flag in argv else None)
    kinds = {(argv[0], argv[argv.index("--d") + 1],
              _limbs(int(option(argv, "--prime") or DEFAULT_PRIME))[0])
             for argv in calls}
    assert kinds == {(cmd, d, limbs) for cmd in ("census", "dim")
                     for d in ("4", "5") for limbs in (1, 2, 3)}
    assert len(calls) == 2 * len(kinds)
    for argv in calls:
        n = option(argv, "--n")
        assert n == "2..6" if argv[0] == "census" else 2 <= int(n) <= 6
