"""The command line parses with the named subcommand's parser alone.

`cli.main` builds the full parser, all eight subcommands, only for help,
an error or a name that is not a command.  Whatever the argv, it must
print the same stdout and stderr, exit with the same code and, on valid
input, parse the same namespace as the full parser.  The full parser is
built here, on the running Python: argparse's texts differ between Python
versions, so no stored text is compared.  The handlers are swapped for a
recorder, so only the parse is run; the commands' own output is pinned in
test_cli.py.
"""

import contextlib
import io

import pytest

from pirlab import cli

_CORPUS = [
    # no command, help, a name that is not a command
    [], ["-h"], ["--help"], ["nosuch"], ["frobnicate", "--n", "4"],
    ["BUILD", "--n", "4"], ["--n", "4", "build"], ["-h", "build"],
    # a command's help, and errors the command's parser reports
    ["build", "-h"], ["build", "--help"], ["build", "--n", "4", "-h"],
    ["build", "--help=x"], ["build", "--n", "x"], ["build", "--n"],
    ["build"], ["audit", "--family", "k3"], ["bounds", "--format", "json"],
    ["simulate", "--scheme", "s.json", "--trials", "nan"],
    ["audit", "--family", "k3", "--mode", "statistical", "--epsilon", "x"],
    # errors the top-level parser reports, with every command in its usage
    ["build", "--n", "4", "--bogus"], ["build", "--n", "4", "extra"],
    ["build", "--n", "4", "--", "x"], ["sequences", "--n", "4", "-x"],
    ["bounds", "--max", "5", "--out", "a", "b"],
    # valid input, spelled as test_cli.py and test_fuzz_cli.py spell it
    ["bounds"], ["bounds", "--max", "4"],
    ["bounds", "--max", "5", "--format", "markdown"],
    ["bounds", "--min", "500", "--max", "500"], ["bounds", "--max", "2"],
    ["bounds", "--min", "-3"], ["sequences", "--n", "4"],
    ["sequences", "--n", "501", "--out", "seq.json"],
    ["build", "--n", "4", "--out", "k4.json"],
    ["build", "--n", "3", "--theta", "1,3"],
    ["build", "--n", "3", "--theta", "7"],
    ["build", "--n=4"], ["build", "--th", "1", "--n", "3"],
    ["build", "--n", "4", "--n", "5"], ["build", "--n", "100000"],
    ["extract", "--scheme", "k3_scheme.json"],
    ["transform", "--scheme", "k3_scheme.json", "--out", "prob.json"],
    ["general", "--graph", "edges:1-2,1-3,2-3,1-4", "--enumerate"],
    ["general", "--graph", "complete:3", "--theta", "0", "--seed", "5",
     "--q", "257"],
    ["general", "--graph", "complete:3", "--r", "2", "--enumerate"],
    ["general", "--graph", "edges:1-2", "--theta", "5"],
    ["general", "--graph", "complete:3", "--theta", "1,x", "--seed", "1"],
    ["general", "--graph", "complete:3", "--r", "100000000", "--enumerate"],
    ["general", "--graph", "complete:3", "--theta", "0", "--seed", "1",
     "--q", str(2 ** 70)],
    ["simulate", "--scheme", "k4.json", "--seed", "1"],
    ["simulate", "--scheme", "prob.json", "--trials", "-3", "--seed", "1"],
    ["simulate", "--scheme", "prob.json", "--trials", "0", "--seed", "1"],
    ["simulate", "--scheme", "k4.json", "--q", "0"],
    ["audit", "--family", "k4", "--mode", "structural"],
    ["audit", "--family", "transform:k3", "--mode", "distributional"],
    ["audit", "--family", "general:star:3", "--mode", "statistical",
     "--trials", "5", "--seed", "1", "--epsilon", "nan"],
    ["audit", "--family", "general:star:3", "--mode", "statistical",
     "--trials", "20", "--seed", "1", "--epsilon", "1e999"],
    ["audit", "--family", "wheel:5", "--mode", "structural"],
]


@pytest.fixture
def recorded(monkeypatch):
    """Replace every handler by one that records the parsed namespace."""
    seen = []

    def record(args):
        seen.append(repr(vars(args)))  # repr: nan == nan
        return 0

    for name, (help_text, _, flags) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (help_text, record, flags))
    return seen


def _outcome(argv, seen):
    """Exit code, stdout, stderr and parsed namespace of `main(argv)`."""
    seen.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), list(seen)


@pytest.mark.parametrize("argv", _CORPUS, ids=" ".join)
def test_main_matches_the_full_parser(argv, recorded, monkeypatch):
    lean = _outcome(argv, recorded)
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli._build_parser().parse_args(argv))
    assert lean == _outcome(argv, recorded)


def test_the_corpus_names_every_command():
    assert {argv[0] for argv in _CORPUS if argv} >= set(cli._COMMANDS)


def test_top_level_errors_list_every_command(recorded):
    code, out, err, seen = _outcome(["build", "--n", "4", "--bogus"],
                                    recorded)
    assert (code, out, seen) == (2, "", [])
    assert "{" + ",".join(cli._COMMANDS) + "}" in " ".join(err.split())
    assert err.endswith("pirlab: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv,shapes", [
    (["build", "--n", "4"], [("build",)]),
    (["extract", "--scheme", "k4.json"], [("extract",)]),
    (["build", "--n", "x"], [("build",), "full"]),
    (["build", "--n", "4", "--bogus"], [("build",), "full"]),
    (["build", "-h"], [("build",), "full"]),
    (["nosuch"], ["full"]),
    ([], ["full"]),
])
def test_only_the_named_command_is_built(argv, shapes, recorded,
                                         monkeypatch):
    built = []
    build = cli._build_parser

    def counting(*shape):
        built.append(shape[0] if shape else "full")
        return build(*shape)

    monkeypatch.setattr(cli, "_build_parser", counting)
    _outcome(argv, recorded)
    assert built == shapes
