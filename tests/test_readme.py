"""The README's examples run as written, and its usage block lists every
command-line option."""

import argparse
import re
from pathlib import Path

from ipldecide.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out == "non-valid; minimal countermodel height 1\n"


def _parser_options(parser, words=()):
    """``{command words: option strings}`` for each command of ``parser``,
    such as ``("gen", "random")``, with ``--help`` left out."""
    options = {o for a in parser._actions for o in a.option_strings if a.dest != "help"}
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        return {words: options}
    commands = {}
    for name, sub in subcommands[0].choices.items():
        for path, more in _parser_options(sub, words + (name,)).items():
            commands[path] = options | more
    return commands


def _readme_options():
    """The same map, read off the README's "Command line" block: a line
    starting with ``ipldecide`` names a command by its lower-case words, and
    it and the indented lines after it list its options."""
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
    commands = {}
    for line in block.group(1).splitlines():
        if line.startswith("ipldecide "):
            words = []
            for token in line.split()[1:]:
                if not re.fullmatch(r"[a-z]+", token):
                    break
                words.append(token)
            options = commands.setdefault(tuple(words), set())
        options.update(re.findall(r"--[a-z][a-z-]*", line))
    return commands


def test_readme_usage_lists_exactly_the_parser_options():
    documented = _readme_options()
    assert set(documented) == {("decide",), ("gen", "nishimura"), ("gen", "random"),
                               ("audit",)}
    assert documented == _parser_options(build_parser())
