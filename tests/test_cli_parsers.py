"""Per-action parsers: each leaf action takes only the flags its handler reads."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from lucaskit import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
EXTENDED = str(GOLDEN / "extended-7-5-2.json")
PARTIAL = str(GOLDEN / "partial-catalan-3.json")

# One small argv per leaf action, every action once.
LEAF_ARGVS = [
    ["lucas", "--n", "3"],
    ["lucastorial", "--n", "3"],
    ["lucasnomial", "--n", "3", "--k", "1"],
    ["dlucasnomial", "--n", "2", "--k", "1", "--d", "2"],
    ["catalan", "--n", "2"],
    ["fuss", "--n", "2", "--k", "2"],
    ["narayana", "--n", "3", "--k", "1"],
    ["rational", "--a", "3", "--b", "5"],
    ["coxeter", "--type", "A", "--n", "2"],
    ["analyze", "--expr", "lucas:3"],
    ["tilings", "enumerate", "--shape", "delta:3"],
    ["tilings", "partition", "--variant", "catalan", "--n", "2"],
    ["tilings", "render", "--input", PARTIAL],
    ["involution", "apply", "--input", EXTENDED],
    ["involution", "verify", "--max-n", "2"],
    *(["verify", check, "--max-n", "2"] for check in cli.VERIFICATIONS),
    ["verify", "involution", "--n", "2", "--k", "1", "--r", "0"],
    *(["findings", name, f"--{flag.replace('_', '-')}", "2"] for name, (_, flag, _) in cli.FINDINGS.items()),
]
NESTED = ("tilings", "involution", "verify", "findings")
LEAF_IDS = [" ".join(argv[: 2 if argv[0] in NESTED else 1]) for argv in LEAF_ARGVS]


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def test_every_leaf_action_has_one_argv():
    leaves = [
        f"{name} {action}" if child._subparsers else name
        for name, child in _subcommands(cli.build_parser()).items()
        for action in (_subcommands(child) if child._subparsers else [None])
    ]
    assert sorted(leaves) == sorted(LEAF_IDS) and len(leaves) == 28


class _Recording(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", LEAF_ARGVS, ids=LEAF_IDS)
def test_handler_reads_every_declared_flag(capsys, monkeypatch, argv):
    parse_args = argparse.ArgumentParser.parse_args
    recorded = []

    def recording(self, args=None, namespace=None):
        namespace = _Recording(_read=set(), **vars(parse_args(self, args)))
        recorded.append(namespace)
        return namespace

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    assert cli.main(argv) == cli.PASS
    (namespace,) = recorded
    declared = set(vars(parse_args(cli.build_parser(), argv))) - {"func", "command", "action"}
    unread = declared - object.__getattribute__(namespace, "_read")
    # Of render's exclusive --input/--shape pair only the given side is read.
    assert unread == ({"shape"} if argv[:2] == ["tilings", "render"] else set())


@pytest.mark.parametrize("leaf", LEAF_IDS)
def test_help_on_every_leaf_action(capsys, leaf):
    assert cli.main([*leaf.split(), "--help"]) == cli.PASS
    assert capsys.readouterr().out.startswith("usage: lucaskit ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "recursion", "--max-n", "3", "--max-k", "7"],
        ["verify", "cheby", "--n", "3"],
        ["verify", "involution", "--verbose"],
        ["verify", "--max-n", "3", "recursion"],
        ["findings", "narayana", "--max-ab", "3"],
        ["findings", "rational", "--format", "json"],
        ["tilings", "enumerate", "--shape", "delta:3", "--variant", "binomial"],
        ["tilings", "enumerate"],
        ["tilings", "partition", "--n", "3"],
        ["tilings", "render", "--input", PARTIAL, "--shape", "delta:3"],
        ["tilings", "render"],
        ["tilings", "render", "--shape", "delta:3", "--format", "json"],
        ["involution", "apply", "--input", EXTENDED, "--n", "3"],
        ["involution", "apply"],
        ["lucasnomial", "--n", "3", "--k", "1", "--format", "svg"],
        ["coxeter", "--type", "H3", "--format", "ascii"],
        ["analyze", "--expr", "lucas:3", "--format", "svg"],
    ],
    ids=lambda argv: " ".join(Path(arg).name for arg in argv),
)
def test_flag_the_action_does_not_take_is_refused(capsys, argv):
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


@pytest.mark.parametrize(
    "variant, flags, message",
    [
        ("catalan", ["--n", "2", "--k", "5"], "--variant catalan takes no --k"),
        ("binomial", ["--n", "4", "--k", "2", "--d", "1"], "--variant binomial takes no --d"),
        ("fuss", ["--n", "2"], "--variant fuss needs --k"),
        ("ddivisible", ["--n", "3", "--k", "1"], "--variant ddivisible needs --d"),
    ],
)
def test_partition_takes_exactly_its_variants_integers(capsys, variant, flags, message):
    assert cli.main(["tilings", "partition", "--variant", variant, *flags]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_choices_are_the_table_and_involution():
    verify = _subcommands(cli.build_parser())["verify"]
    assert list(_subcommands(verify)) == [*cli.VERIFICATIONS, "involution"]


def _readme_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines() if line.startswith("lucaskit ")]


def test_readme_lists_every_command():
    assert len(_readme_commands()) == 28


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    program, *argv = shlex.split(command)
    assert program == "lucaskit"
    cli.build_parser().parse_args(argv)
