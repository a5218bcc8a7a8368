"""The documented examples run as written."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import dcbasis.laurent
from dcbasis.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_laurent_doctests():
    result = doctest.testmod(dcbasis.laurent)
    assert result.attempted > 0
    assert result.failed == 0


def _console_examples() -> list[tuple[str, str]]:
    """(command line, output shown) for each ``$`` line of README's console
    blocks; the output runs to the next ``$`` line or the end of the
    block."""
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", README.read_text(),
                            flags=re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output))
    return examples


CONSOLE_EXAMPLES = _console_examples()


def test_readme_has_one_console_example_per_subcommand():
    assert sorted(shlex.split(command)[1]
                  for command, _ in CONSOLE_EXAMPLES) == [
        "dcb", "decompose", "irred", "minor", "scan", "verify"]


@pytest.mark.parametrize("command, shown", CONSOLE_EXAMPLES,
                         ids=[c for c, _ in CONSOLE_EXAMPLES])
def test_readme_console_example(capsys, command, shown):
    command, pipe, filter_ = command.partition(" | ")
    argv = shlex.split(command)
    assert argv[0] == "dcbasis"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out
    if pipe:
        assert filter_ == "tail -1"
        out = out.splitlines()[-1] + "\n"
    assert out == shown
