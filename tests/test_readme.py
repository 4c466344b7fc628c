"""Every `il-lab ...` command in README.md parses with cli.build_parser():
a flag that is deleted or renamed cannot survive in the docs. The commands
are parsed only, never run."""

import re
import shlex
from pathlib import Path

from il_lab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def shell_commands(text):
    """The il-lab commands of text's fenced code blocks, each as its argv
    without the program name. A command continues over a line that ends in
    a backslash or leaves a quote open; a # comment is dropped."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if not line.startswith("il-lab "):
                continue
            while True:
                if line.endswith("\\"):
                    line = line[:-1] + next(lines)
                    continue
                try:
                    commands.append(shlex.split(line, comments=True)[1:])
                    break
                except ValueError:  # a quote left open
                    line += "\n" + next(lines)
    return commands


def parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def test_every_readme_command_parses():
    commands = shell_commands(README.read_text())
    assert [argv for argv in commands if not parses(argv)] == []
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(subcommands)


def test_continuations_join_and_a_bad_flag_is_caught(capsys):
    text = ("```\nil-lab probe-events --n-exp 4 \\\n    --H 4 --datasets 100"
            "   # note\nil-lab gen-instance --config '{\"family\":\n"
            "    \"mm-lb\"}' --H 4 --out x\nnot il-lab\n```\n"
            "il-lab outside a block\n"
            "```\nil-lab probe-events --n-exp 4 --H 4 --datasets 100 "
            "--coeff 0.5\n```\n")
    commands = shell_commands(text)
    assert commands == [
        ["probe-events", "--n-exp", "4", "--H", "4", "--datasets", "100"],
        ["gen-instance", "--config", '{"family":\n    "mm-lb"}', "--H", "4",
         "--out", "x"],
        ["probe-events", "--n-exp", "4", "--H", "4", "--datasets", "100",
         "--coeff", "0.5"]]
    assert [parses(argv) for argv in commands] == [True, True, False]
    assert "unrecognized arguments: --coeff 0.5" in capsys.readouterr().err
