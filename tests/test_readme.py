"""The README's piped CLI examples print what the README shows under them."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from numitn.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
_EXAMPLE_RE = re.compile(r"^\$ printf '([^'%]*)' \| numitn (.+)$")


def _examples():
    """(argv, stdin, expected stdout) for each "$ printf '…' | numitn …" line.

    A command may continue over lines ending in a backslash; its output is
    the lines under it up to a blank line, the next command or the fence.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    at = 0
    while at < len(lines):
        command = lines[at]
        while command.endswith("\\"):
            at += 1
            command = command[:-1].rstrip() + " " + lines[at].strip()
        at += 1
        m = _EXAMPLE_RE.match(command)
        if not m:
            continue
        output = []
        while at < len(lines) and lines[at] and not lines[at].startswith(("$ ", "```")):
            output.append(lines[at] + "\n")
            at += 1
        yield shlex.split(m.group(2)), m.group(1).replace("\\n", "\n"), "".join(output)


def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch):
    examples = list(_examples())
    assert [argv[0] for argv, _, _ in examples] == ["normalize", "normalize", "verbalize",
                                                     "extract"]
    for argv, stdin, expected in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def _oldest_python():
    """The newest installed pyenv build of the oldest Python ``pyproject.toml`` declares."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = re.search(r'^requires-python = ">=(\d+\.\d+)"$', pyproject, re.M).group(1)
    builds = sorted(Path.home().glob(f".pyenv/versions/{oldest}.*/bin/python"),
                    key=lambda path: int(path.parts[-3].rsplit(".", 1)[1]))
    return builds[-1] if builds else None


OLDEST_PYTHON = _oldest_python()


@pytest.mark.skipif(OLDEST_PYTHON is None, reason="no pyenv build of the oldest declared Python")
def test_readme_examples_run_under_the_oldest_declared_python():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUTF8": "1"}
    examples = list(_examples())
    assert len(examples) == 4
    for argv, stdin, expected in examples:
        done = subprocess.run([str(OLDEST_PYTHON), "-m", "numitn.cli", *argv], input=stdin,
                              capture_output=True, text=True, encoding="utf-8", env=env,
                              check=False)
        assert (done.returncode, done.stdout) == (0, expected), (argv, done.stderr)
