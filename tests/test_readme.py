"""The command-line transcripts in README.md are what the commands print.

Each ``$ flagrecon ...`` line runs in process through ``main``, one pipeline
stage at a time, each stage reading the previous stage's output; the final
output must equal the lines shown under the command.
"""

import io
import shlex
from pathlib import Path

import pytest

from flagrecon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts() -> list[tuple[str, str]]:
    """(command line, expected output) for every ``$ flagrecon`` line."""
    found: list[tuple[str, list[str]]] = []
    shown = None  # the output lines of the command being read, if any
    for line in README.read_text().splitlines():
        if line.startswith("$ flagrecon "):
            shown = []
            found.append((line[2:], shown))
        elif line.startswith(("$", "```")):
            shown = None
        elif shown is not None:
            shown.append(line)
    return [(cmd, "".join(f"{ln}\n" for ln in out)) for cmd, out in found]


def test_the_readme_has_transcripts():
    assert len(transcripts()) >= 3


@pytest.mark.parametrize("command,expected", transcripts(), ids=[c for c, _ in transcripts()])
def test_readme_transcript_matches_the_cli(monkeypatch, capsys, command, expected):
    out = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "flagrecon"
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        main(argv[1:])
        out, err = capsys.readouterr()
        assert err == "", stage
    assert out == expected
