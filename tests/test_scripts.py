"""The example scripts still run against the library, so an API change
cannot break them silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    path = [str(REPO_ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=REPO_ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args):
    return run_python(str(REPO_ROOT / "scripts" / name), *args)


@pytest.mark.parametrize("module", ["qmeasure", "qmeasure.cli"])
def test_the_cli_runs_as_a_module(module, golden_dir):
    proc = run_python("-m", module, "validate", "corpus/projectors_n2.json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (golden_dir / "validate_projectors_n2.txt").read_text(encoding="utf-8")


def test_make_corpus_reproduces_bundled_corpus(tmp_path, corpus):
    proc = run_script("make_corpus.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in corpus.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (corpus / name).read_bytes(), name


@pytest.mark.parametrize("name,args", [
    ("mirror_sweep.py", ["--grid", "3", "--states", "4"]),
    ("truth_demo.py", ["--trials", "3"]),
    ("superposition_demo.py", ["--families", "5"]),
])
def test_demo_script_exits_0(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
