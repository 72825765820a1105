"""The README's piped CLI examples print what the README shows under them."""

import io
import re
import shlex
import sys
from pathlib import Path

from numitn.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
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
