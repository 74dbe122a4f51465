"""Golden CLI corpus: every report in tests/golden/ must come back byte for byte.

Each case runs one argv through ``cli.main`` in-process.  Its stdout must
be exactly one JSON object in the CLI's own layout (two-space indent,
sorted keys); every ``elapsed_us`` key is then removed at any depth, and
the argv, the exit code and the remaining report are compared byte for
byte against ``tests/golden/<name>.json``.  The corpus covers every
``--help`` text, every README example, and usage and contract errors for
each family of subcommands.

Help texts depend on the terminal width, so the test pins ``COLUMNS=80``.
They and argparse's own error messages match on Python 3.10.13, 3.11.7,
3.12.1, 3.13.0 and 3.13.13: the CLI writes its top-level usage line and
the choices after an invalid subcommand itself, as argparse lays them out
differently from 3.13 on.

A deliberate change to a report rewrites the corpus in the same change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from liep import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SUBCOMMANDS = [
    "basis", "critical", "coxeter", "roots", "minheight", "goodprime", "parabolic",
    "height", "lowheight", "glheight", "reduce", "exp", "log", "tpower", "bch",
    "cycle", "pgl-lift", "heisenberg", "weightdemo", "selftest",
]

_E = ["--type", "E", "--rank", "8"]
_A2 = ["--type", "A", "--rank", "2"]
_NIL3 = "[[0,1,0],[0,0,1],[0,0,0]]"

CASES = {
    "help": ["--help"],
    **{f"help-{cmd}": [cmd, "--help"] for cmd in SUBCOMMANDS},
    "help-basis-after-flags": ["basis", "--type", "A", "-h"],
    # README "Command line" examples.
    "readme-coxeter": ["coxeter", *_E],
    "readme-roots": ["roots", "--type", "G", "--rank", "2"],
    "readme-goodprime": ["goodprime", *_E, "--p", "7"],
    "readme-parabolic": ["parabolic", "--type", "A", "--rank", "3", "--subset", "1,3"],
    "readme-height": ["height", "--type", "A", "--rank", "4", "--weight", "1,0,0,1"],
    "readme-lowheight": ["lowheight", "--type", "A", "--rank", "4", "--weight", "1,0,0,1",
                         "--p", "11"],
    "readme-minheight": ["minheight", "--type", "F", "--rank", "4"],
    "readme-glheight": ["glheight", "--dims", "4,3", "--ms", "2,1", "--p", "7"],
    "readme-basis": ["basis", *_A2, "--phi", "1/9,1/9", "--oracle"],
    "readme-critical": ["critical", *_A2, "--phi", "1/3,1/3"],
    "readme-reduce": ["reduce", *_A2, "--point", "4/3,1/3"],
    "readme-reduce-leading-minus": ["reduce", "--type", "A", "--rank", "1", "--point=-1/4"],
    "readme-exp": ["exp", "--p", "5", "--matrix", _NIL3],
    "readme-log": ["log", "--p", "5", "--matrix", "[[1,1,3],[0,1,1],[0,0,1]]"],
    "readme-tpower": ["tpower", "--p", "3", "--matrix", "[[1,1],[0,1]]", "--t", "5"],
    "readme-bch": ["bch", "--p", "5", "--degree", "4"],
    "readme-cycle": ["cycle", "--p", "3", "--t", "1,2,1"],
    "readme-pgl-lift": ["pgl-lift", "--p", "3", "--matrix", "[[0,1,0],[0,0,1],[1,0,0]]"],
    "readme-heisenberg": ["heisenberg", "--p", "5"],
    "readme-weightdemo": ["weightdemo", "--p", "3"],
    "readme-selftest-trials-10": ["selftest", "--trials", "10"],
    # Further successes.
    "selftest-trials-1": ["selftest", "--trials", "1"],
    "bch-applied": ["bch", "--p", "5", "--degree", "4", "--x", _NIL3,
                    "--y", "[[0,2,1],[0,0,3],[0,0,0]]"],
    "tpower-multiple-of-p": ["tpower", "--p", "3", "--matrix", "[[1,1],[0,1]]", "--t", "6"],
    "tpower-negative-t": ["tpower", "--p", "5", "--matrix", "[[1,2],[0,1]]", "--t=-7"],
    "tpower-p101": ["tpower", "--p", "101", "--matrix", "[[1,3,7],[0,1,5],[0,0,1]]",
                    "--t", "1000"],
    "glheight-no-p": ["glheight", "--dims", "5", "--ms", "2"],
    "parabolic-maximal": ["parabolic", "--type", "B", "--rank", "3", "--subset", "1,2"],
    # Usage errors (exit 1) and contract errors (exit 2), family by family.
    "usage-no-subcommand": [],
    "usage-unknown-subcommand": ["frobnicate"],
    "usage-unknown-flag": ["basis", *_A2, "--phi", "1/9,1/9", "--bogus"],
    "usage-coxeter-missing-rank": ["coxeter", "--type", "E"],
    "usage-roots-no-such-system": ["roots", "--type", "D", "--rank", "3"],
    "usage-goodprime-nonprime-p": ["goodprime", *_E, "--p", "9"],
    "usage-goodprime-p-not-int": ["goodprime", *_E, "--p", "seven"],
    "usage-parabolic-index-out-of-range": ["parabolic", "--type", "A", "--rank", "3",
                                           "--subset", "5"],
    "usage-height-wrong-arity": ["height", "--type", "A", "--rank", "4", "--weight", "1,0"],
    "usage-height-leading-minus-without-equals": ["height", *_A2, "--weight", "-1,0"],
    "contract-height-not-dominant": ["height", *_A2, "--weight=-1,0"],
    "usage-lowheight-nonprime-p": ["lowheight", *_A2, "--weight", "1,0", "--p", "8"],
    "usage-glheight-lengths-differ": ["glheight", "--dims", "4,3", "--ms", "2"],
    "contract-glheight-wedge-degree": ["glheight", "--dims", "4,3", "--ms", "5,1"],
    "usage-basis-malformed-rational": ["basis", *_A2, "--phi", "1/0,1/9"],
    "usage-basis-oracle-rank": ["basis", "--type", "B", "--rank", "4",
                                "--phi", "1/9,1/9,1/9,1/9", "--oracle"],
    "usage-critical-wrong-arity": ["critical", *_A2, "--phi", "1/3"],
    "usage-reduce-wrong-arity": ["reduce", *_A2, "--point", "1/3"],
    "usage-exp-malformed-json": ["exp", "--p", "5", "--matrix", "[[0,1],[0,0]"],
    "usage-exp-not-2d": ["exp", "--p", "5", "--matrix", "[1,2]"],
    "usage-exp-nonprime-p": ["exp", "--p", "4", "--matrix", "[[0]]"],
    "contract-exp-not-nilpotent": ["exp", "--p", "5", "--matrix", "[[1,0],[0,0]]"],
    "contract-log-p3-4x4-unipotent": ["log", "--p", "3", "--matrix",
                                      "[[1,1,0,0],[0,1,1,0],[0,0,1,1],[0,0,0,1]]"],
    "usage-tpower-t-not-int": ["tpower", "--p", "5", "--matrix", "[[1,1],[0,1]]", "--t", "x"],
    "contract-tpower-not-unipotent": ["tpower", "--p", "5", "--matrix", "[[2,0],[0,1]]",
                                      "--t", "3"],
    "usage-bch-x-without-y": ["bch", "--p", "5", "--degree", "3", "--x", "[[0,1],[0,0]]"],
    "usage-bch-degree-reaches-p": ["bch", "--p", "5", "--degree", "7"],
    "contract-bch-not-upper-triangular": ["bch", "--p", "5", "--degree", "3",
                                          "--x", "[[0,1],[0,0]]", "--y", "[[0,0],[1,0]]"],
    "usage-cycle-wrong-arity": ["cycle", "--p", "3", "--t", "1,2"],
    "contract-cycle-zero-weight": ["cycle", "--p", "3", "--t", "1,0,1"],
    "usage-pgl-lift-wrong-size": ["pgl-lift", "--p", "3", "--matrix", "[[1,0],[0,1]]"],
    "contract-pgl-lift-not-liftable": ["pgl-lift", "--p", "3", "--matrix",
                                       "[[1,0,0],[0,2,0],[0,0,0]]"],
    "usage-heisenberg-nonprime-p": ["heisenberg", "--p", "4"],
    "usage-weightdemo-even-p": ["weightdemo", "--p", "6"],
    "usage-selftest-trials-zero": ["selftest", "--trials", "0"],
    "usage-selftest-seed-not-int": ["selftest", "--seed", "x"],
}


def _dumps(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


def _drop_elapsed(x):
    if isinstance(x, dict):
        return {k: _drop_elapsed(v) for k, v in x.items() if k != "elapsed_us"}
    if isinstance(x, list):
        return [_drop_elapsed(v) for v in x]
    return x


def golden_text(argv, code: int, stdout: str) -> str:
    """The text the golden file of argv must hold, given what cli.main did."""
    report = json.loads(stdout)
    assert stdout == _dumps(report) + "\n", "stdout is not one report in the CLI layout"
    return _dumps({"argv": argv, "exit_code": code, "report": _drop_elapsed(report)}) + "\n"


def test_corpus_holds_exactly_the_cases():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(list(CASES[name]))
    text = golden_text(CASES[name], code, capsys.readouterr().out)
    assert text == (GOLDEN_DIR / f"{name}.json").read_text()


def test_invalid_choice_lists_the_subcommands_as_the_golden_does():
    # argparse after 3.13.0 lists the choices unquoted; the report keeps them quoted
    golden = json.loads((GOLDEN_DIR / "usage-unknown-subcommand.json").read_text())
    unquoted = ("argument command: invalid choice: 'frobnicate' (choose from "
                + ", ".join(cli._COMMANDS) + ")")
    with pytest.raises(ValueError) as caught:
        cli._parser().error(unquoted)
    assert str(caught.value) == golden["report"]["error"]["message"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        stale.unlink()
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        (GOLDEN_DIR / f"{name}.json").write_text(golden_text(argv, code, out.getvalue()))
    print(f"wrote {len(CASES)} reports to {GOLDEN_DIR}")
