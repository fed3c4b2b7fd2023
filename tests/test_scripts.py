import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# sha256 of each CSV that scripts/width_curves.py writes
WIDTH_CURVE_FILES = {
    "accuracy_at_campaign_sizes.csv":
        "805a60969a237eb53b16058ccca4839f2d7ca0e8d21d2394d4708bbe2bb012f0",
    "width_over_alias.csv": "3c457f07c458f482b546471aaa6ff48d3a427bf79a2c1141211743a9ec561f17",
    "width_over_devices.csv": "136a175cee07c244fa57e8057dcdc047bf175e1c4bab2b1ce5f35bcb1b1b36d5",
}


def test_width_curves_csv_bytes(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "width_curves.py"), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == WIDTH_CURVE_FILES


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN = ROOT / "tests" / "cli_corpus.jsonl"
GOLDEN_LINES = {line["id"]: line for line in map(json.loads, GOLDEN.read_text().splitlines())}
PYTHON = "%d.%d" % sys.version_info[:2]


def _assert_golden(lines):
    """Each line equals the golden file's line of its id, a help id's only on
    the Python minor version that wrote it."""
    differing = sorted(line["id"] for line in lines
                       if GOLDEN_LINES[line["id"]].get("python", PYTHON) == PYTHON
                       and line != GOLDEN_LINES[line["id"]])
    assert not differing, f"{len(differing)} ids differ: {', '.join(differing)}"


@pytest.fixture(scope="module")
def corpus_lines(tmp_path_factory):
    """The line of every corpus id, all run in process in one seeded shuffled
    order; a shuffled order shows that no state leaks from one id to the next."""
    corpus = _script("cli_corpus")
    out = tmp_path_factory.mktemp("corpus")
    runs = corpus.invocations()
    random.Random(41).shuffle(runs)
    corpus.write_fixtures(out / "fixtures")
    return [corpus.run_in_process(out, ident, argv) for ident, argv in runs]


def test_cli_corpus_runs_each_golden_id_once(corpus_lines):
    assert sorted(line["id"] for line in corpus_lines) == sorted(GOLDEN_LINES)


# rewritten by `python scripts/cli_corpus.py OUT > tests/cli_corpus.jsonl`
@pytest.mark.parametrize("ident", list(GOLDEN_LINES))
def test_cli_corpus_in_process_matches_the_golden_file(corpus_lines, ident):
    golden = GOLDEN_LINES[ident]
    if golden.get("python", PYTHON) != PYTHON:
        pytest.skip(f"argparse's help layout is pinned on Python {golden['python']}")
    assert [line for line in corpus_lines if line["id"] == ident] == [golden]


def test_cli_corpus_children_print_the_golden_lines(tmp_path):
    ids = ["analyze-out-json", "check-accept", "help-plan-frr"]  # in corpus order
    proc = subprocess.run([sys.executable, str(SCRIPTS / "cli_corpus.py"), str(tmp_path), *ids],
                          capture_output=True, text=True, env={**os.environ, "COLUMNS": "50"})
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [line["id"] for line in lines] == ids
    _assert_golden(lines)


def children(*args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / "children.py"), *args], cwd=cwd,
                          capture_output=True, text=True)


def test_children_measure_returns_exit_times_rss_and_output():
    module = _script("children")
    code, wall, cpu, rss, output, digest = module.measure(["check", "--x", "300", "--n", "680"])
    assert code == 1 and output.startswith("x=300 n=680")
    assert wall > 0 and cpu > 0 and rss > 0
    assert module.measure(["check", "--x", "300", "--n", "680"])[5] == digest


# A: 10 to 19, with quartiles 12.25 and 16.75, so an interquartile range of 4.5
_A = [float(v) for v in range(10, 20)]


@pytest.mark.parametrize("b, word", [
    ([v - 5 for v in _A], "gain"),  # lower in 10 of 10, medians 5 apart
    ([v + 5 for v in _A], "loss"),
    ([v - 5 for v in _A[:9]] + [30.0], "gain"),  # lower in 9 of 10
    ([v - 5 for v in _A[:8]] + [30.0, 30.0], "unresolved"),  # lower in 8 of 10
    ([v - 4.5 for v in _A], "unresolved"),  # medians exactly the range apart
    ([v - 1 for v in _A], "unresolved"),
    (_A, "unresolved"),
], ids=["gain", "loss", "gain-9-of-10", "8-of-10", "gap-at-range", "small-gap", "same"])
def test_children_ab_verdict(b, word):
    assert _script("children").verdict(_A, b) == word


# Each check runs children.py as its own process: Linux counts a parent's
# peak RSS in each child's, so children of pytest itself would show no gap.
@pytest.mark.parametrize("check, gaps", [
    ("validate", ["validate peak RSS growth"]),
    ("simulate", ["CSV over binary peak RSS", "6 over 1 repeats peak RSS"]),
    ("files", ["binary analyze peak RSS growth", "csv analyze peak RSS growth"]),
], ids=["validate", "simulate", "files"])
def test_children_bounds(tmp_path, check, gaps):
    proc = children("bounds", check, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()[-len(gaps):]
    assert [line.split(": ")[0] for line in lines] == gaps
    assert all(line.endswith(" MB (limit 4 MB)") for line in lines)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["bounds", "nothing"], "children.py bounds"), (["bounds"], "children.py bounds"),
    (["ab", "."], "children.py ab"), ([], "children.py ab"),
    (["ab", "nowhere", "nowhere", "--help"], "no src/bitalias under "),
])
def test_children_usage_exits_two(tmp_path, args, message):
    proc = children(*args, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "") and message in proc.stderr


def test_children_ab_of_one_tree_with_itself(tmp_path):
    tree = str(SCRIPTS.parent)
    proc = children("ab", tree, tree, "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[3:6]] == ["wall_s", "cpu_s", "peak_rss_mb"]
    assert all(re.search(r" of 10, (gain|loss|unresolved)$", line) for line in lines[3:6])
    assert lines[6:] == ["outputs: same, exit 0"]


def test_readme_library_quick_start(capsys):
    # the python block under "## Library quick start", run as a reader pastes it
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "7 of 256 positions accepted"


def test_plan_devices_prints_the_counts_that_readme_quotes():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "plan_devices.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # normal approximation, Wilson, Clopper-Pearson, then the FRR plan
    assert re.findall(r"(\d+) devices", proc.stdout) == ["664", "658", "680", "6653"]


def test_mc_validation_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "mc_validation.py")],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_workflow_names_only_scripts_that_exist():
    # the workflow runs only on a CI host, where a renamed script would fail unseen
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = set(re.findall(r"\b(?:scripts|perfbench)/\w+\.py", workflow))
    assert named and sorted(path for path in named if not (ROOT / path).is_file()) == []
