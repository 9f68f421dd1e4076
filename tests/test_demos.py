import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ripforge
from ripforge.cli import run

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(Path(ripforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # a demo that warns fails, as a test that warns does
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _readme_block(heading: str, lang: str) -> str:
    """The first fenced block of the given language under a README heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_readme_block("Quick start (library)", "python"), "README.md", "exec"), {})
    commands = [shlex.split(line, comments=True)
                for line in _readme_block("Command line", "sh").splitlines() if line]
    assert len(commands) == 20
    for argv in commands:  # each after its "ripforge", as `python -m ripforge` runs it too
        assert run(argv[argv.index("ripforge") + 1:]) == 0, argv
    capsys.readouterr()
