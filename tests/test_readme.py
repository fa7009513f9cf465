"""README.md states the command-line contract: it names every option of
every `rainfit` command and every exit code `cli` can return."""

import argparse
import ast
import re
from pathlib import Path

from rainfit import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
EXIT_CODES = (0, 2, 3, 4, 120, 130)


def option_strings() -> list[str]:
    """Every option string of the `rainfit` parser and of each subcommand's."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *commands.choices.values()]
    return list(dict.fromkeys(o for p in parsers for a in p._actions for o in a.option_strings))


def missing_from(text: str) -> list[str]:
    """The option strings, and the exit codes of the "Exit codes" section's
    table, that text does not name."""
    named = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text))
    exit_section = text.split("\n## Exit codes\n", 1)[-1].split("\n## ", 1)[0]
    codes = set(re.findall(r"^\| `(\d+)` \|", exit_section, re.MULTILINE))
    return [o for o in option_strings() if o not in named] + [str(c) for c in EXIT_CODES if str(c) not in codes]


def test_the_exit_codes_are_those_cli_returns():
    # Each `return N` and `code = N` in cli.py, and argparse's 2 for a bad flag.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    returned = {node.value.value for node in ast.walk(tree)
                if isinstance(node, (ast.Return, ast.Assign)) and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int}
    assert sorted(returned | {2}) == list(EXIT_CODES)


def test_readme_names_every_option_and_exit_code():
    assert "--min-wet" in option_strings() and "--help" in option_strings()
    assert missing_from(README) == []


def test_a_readme_without_a_flag_or_an_exit_code_fails():
    assert missing_from(README.replace("--min-wet", "--min_wet")) == ["--min-wet"]
    assert missing_from(README.replace("| `120` |", "| 120 |")) == ["120"]
