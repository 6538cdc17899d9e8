"""README.md's command line section says what the commands do, and its
library block runs.

Each ``$ flagrecon ...`` line runs in process through ``main``, one pipeline
stage at a time, each stage reading the previous stage's output; the final
output must equal the lines shown under the command.  The flags the section
names are the parser's flags.  The python block under ``## Library`` runs
as it stands, so a changed signature fails here.
"""

import argparse
import io
import re
import shlex
from pathlib import Path

import pytest

from flagrecon.cli import _build_parser, main

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


def section(title: str) -> str:
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def command_line_section() -> str:
    return section("Command line")


def test_the_library_block_runs():
    text = section("Library")
    start = text.index("```python\n") + len("```python\n")
    code = text[start : text.index("```", start)]
    assert "import flagrecon" in code
    exec(compile(code, "README.md", "exec"), {})


def subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's option strings, ``-h``/``--help`` aside."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def command_bullets() -> dict[str, str]:
    """The text of each ``- `flagrecon <cmd> ...``` bullet, continuation lines included."""
    bullets: dict[str, str] = {}
    for item in re.split(r"\n(?=\S)", command_line_section()):
        m = re.match(r"- `flagrecon (\w+)", item)
        if m:
            bullets[m.group(1)] = item
    return bullets


def test_every_subcommand_has_a_bullet():
    assert command_bullets().keys() == subcommand_options().keys()


def test_the_flags_a_bullet_names_are_its_subcommands_own():
    options = subcommand_options()
    for cmd, text in command_bullets().items():
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
        assert named <= options[cmd], (cmd, named - options[cmd])


def test_every_parser_option_is_in_the_section():
    section = command_line_section()
    for cmd, opts in subcommand_options().items():
        for opt in opts:
            assert re.search(rf"(?<![\w-]){opt}(?![\w-])", section), (cmd, opt)
