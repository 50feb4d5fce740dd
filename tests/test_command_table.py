"""The command table in `geocon.cli` is the whole command-line contract.

Each command accepts exactly the options its table row lists; any other
option, and every other usage error, is a tool error: exit code 1 and one
`geocon: error:` line, no usage dump.  Exit code 2 is kept for verdicts.
The README's option table must say the same as the command table.
"""

import re
from pathlib import Path

import pytest

from geocon import cli
from geocon.cli import COMMANDS, UsageError, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = str(ROOT / "scenarios" / "martinet.json")
VALUES = {
    "--out": ("report.json", "report.json"),
    "--covector": ("0,0,1", "0,0,1"),
    "--time": ("0.5", 0.5),
    "--step": ("0.01", 0.01),
    "--template": ("needle", "needle"),
    "--input": ("2", 2),
    "--u1": ("1,1", "1,1"),
    "--l1": ("0.5", 0.5),
    "--s-max": ("0.2", 0.2),
    "--samples": ("5", 5),
    "--seed": ("4", 4),
}
READ = [(command, flag) for command, spec in COMMANDS.items() for flag in spec.options]
UNREAD = [(command, flag) for command, spec in COMMANDS.items() for flag in VALUES if flag not in spec.options]


def test_every_option_is_known_and_none_is_new():
    assert {flag for _, flag in READ} == set(VALUES) - {"--seed"}
    assert len(READ) == 28
    for spec in COMMANDS.values():
        assert ("--time" in spec.options) == (spec.time is not None)


@pytest.mark.parametrize("command, flag", READ)
def test_a_command_accepts_every_option_it_reads(command, flag):
    text, value = VALUES[flag]
    args, extras = build_parser().parse_known_args([command, SCENARIO, flag, text])
    assert extras == []
    assert getattr(args, flag[2:].replace("-", "_")) == value


@pytest.mark.parametrize("command, flag", UNREAD)
def test_a_command_rejects_every_option_it_does_not_read(capsys, command, flag):
    assert main([command, SCENARIO, flag, VALUES[flag][0]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"geocon: error: {flag} is not an option of {command}\n"


def test_an_unread_option_is_named_in_its_joined_form_too(capsys):
    assert main(["pca", SCENARIO, "--time=0.3"]) == 1
    assert capsys.readouterr().err == "geocon: error: --time is not an option of pca\n"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["frobnicate", SCENARIO], "invalid choice: 'frobnicate'"),
        (["pca"], "required: scenario"),
        ([], "required: command"),
        (["pca", SCENARIO, SCENARIO], "unrecognized arguments: "),
        (["cone", SCENARIO, "--ti", "0.5"], "--ti is not an option of cone"),
        (["flow", SCENARIO, "--step", "fast"], "argument --step: invalid float value: 'fast'"),
        (["variation", SCENARIO, "--template", "loop"], "argument --template: invalid choice: 'loop'"),
    ],
)
def test_a_usage_error_is_one_tool_error_line(capsys, argv, fragment):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("geocon: error: ") and fragment in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_options_of_the_table_row(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z0-9][a-z0-9-]*", capsys.readouterr().out))
    assert listed == {"--help", *COMMANDS[command].options}


def parsed(capsys, parser, argv):
    """(namespace, extras), the usage error or the exit code of `argv`, with
    what the parser printed."""
    try:
        args, extras = parser.parse_known_args(argv)
        outcome = vars(args), extras
    except UsageError as exc:
        outcome = "usage error", str(exc)
    except SystemExit as done:
        outcome = "exit", done.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_parser_parses_as_the_whole_table(capsys, command):
    options = [word for flag in COMMANDS[command].options for word in (flag, VALUES[flag][0])]
    unread = next(flag for flag in VALUES if flag not in COMMANDS[command].options)
    for argv in (
        [command, SCENARIO],
        [command, SCENARIO, *options],
        [command, SCENARIO, *options, unread, VALUES[unread][0], "extra"],
        [command, "--step", "fast", SCENARIO] if "--step" in options else [command],
        [command, "--help"],
    ):
        assert parsed(capsys, build_parser(command), argv) == parsed(capsys, build_parser(), argv)
    assert parsed(capsys, build_parser(command), [command, "--help"])[1].out.startswith(f"usage: geocon {command} ")
    assert list(build_parser(command)._subparsers._group_actions[0].choices) == [command]


@pytest.mark.parametrize("argv", [["frobnicate", SCENARIO], ["--version"], [], ["--help"]])
def test_a_parser_for_no_command_of_the_table_is_the_whole_table(capsys, argv):
    assert parsed(capsys, build_parser(argv[0] if argv else None), argv) == parsed(capsys, build_parser(), argv)
    assert list(build_parser("frobnicate")._subparsers._group_actions[0].choices) == list(COMMANDS)


def test_main_builds_the_parser_of_its_command_only(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: asked.append(command) or build_parser(command))
    assert main(["bracket", SCENARIO]) == 0
    assert main(["frobnicate", SCENARIO]) == 1
    monkeypatch.setattr(cli.sys, "argv", ["geocon", "pca", SCENARIO, "--time", "0.5"])
    assert main() == 1
    assert asked == ["bracket", "frobnicate", "pca"]
    errors = capsys.readouterr().err.splitlines()[-2:]
    unknown = parsed(capsys, build_parser(), ["frobnicate", SCENARIO])[0]
    assert unknown[0] == "usage error" and "(choose from 'bracket', 'flow', " in unknown[1]
    assert errors == [f"geocon: error: {unknown[1]}", "geocon: error: --time is not an option of pca"]


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("geocon ")


def readme_option_table() -> dict:
    """command -> (options, --time rule) from the README's option table."""
    text = (ROOT / "README.md").read_text()
    header = re.search(r"^\| command \| options \|.*$", text, re.M)
    lines = text[header.start() :].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        name, options, time = [cell.strip() for cell in line.strip("|").split("|")]
        rule = "cone" if "cone time" in time else "sample" if "sample time" in time else None
        rows[name.strip("`")] = (tuple(re.findall(r"`(--[a-z0-9-]+)`", options)), rule)
    return rows


def test_readme_option_table_matches_the_command_table():
    assert readme_option_table() == {name: (spec.options, spec.time) for name, spec in COMMANDS.items()}
