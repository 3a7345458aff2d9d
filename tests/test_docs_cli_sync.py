"""README's CLI table is a contract, not prose.

Builds the real argparse parser, enumerates every subcommand and its
long flags, and asserts both directions of sync against the CLI table
in ``README.md``: every subcommand has a row listing *all* of its
flags, and the table names no command or flag the parser doesn't
have.
"""

import argparse
import pathlib
import re

from repro.cli import _build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

_TABLE_ROW = re.compile(r"^\|\s*`(?P<command>[a-z0-9]+)[^`]*`\s*\|")
_FLAG = re.compile(r"`(--[a-z0-9-]+)")


def parser_commands():
    """command → set of canonical long flags, straight from argparse."""
    parser = _build_parser()
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    commands = {}
    for name, subparser in sub.choices.items():
        flags = set()
        for action in subparser._actions:
            longs = [o for o in action.option_strings if o.startswith("--")]
            if not longs or "--help" in longs:
                continue
            flags.add(longs[0])
        commands[name] = flags
    return commands


def readme_commands():
    """command → set of flags named in its README CLI table row."""
    commands = {}
    in_table = False
    for line in README.read_text().splitlines():
        if line.startswith("| command |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            match = _TABLE_ROW.match(line)
            if not match:
                continue  # separator row
            assert match.group("command") not in commands, (
                f"{match.group('command')} has two README rows"
            )
            # flags live in the last column; the description may
            # legitimately mention other commands' flags in passing
            flags_cell = line.rstrip("|").rsplit("|", 1)[-1]
            commands[match.group("command")] = set(_FLAG.findall(flags_cell))
    return commands


def test_readme_cli_table_matches_parser():
    from_parser = parser_commands()
    from_readme = readme_commands()
    assert from_readme, "no CLI table rows parsed from README.md"

    missing_rows = sorted(set(from_parser) - set(from_readme))
    unknown_rows = sorted(set(from_readme) - set(from_parser))
    assert not missing_rows, f"subcommands missing from README CLI table: {missing_rows}"
    assert not unknown_rows, f"README CLI table names unknown subcommands: {unknown_rows}"

    for command in from_parser:
        documented = from_readme[command]
        actual = from_parser[command]
        missing = sorted(actual - documented)
        stale = sorted(documented - actual)
        assert not missing, f"`{command}` row is missing flags: {missing}"
        assert not stale, f"`{command}` row lists unknown flags: {stale}"
