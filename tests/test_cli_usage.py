"""The command line's usage, help and parse-error output, pinned byte for
byte, and the number of parsers one call builds."""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nabext import cli

GOLDEN_USAGE = Path(__file__).parent / "golden" / "cli_usage.json"
# argparse wraps help and usage to the terminal width it reads from COLUMNS
COLUMNS = "80"

# placeholder values for each verb's required arguments; every argv below
# fails to parse or prints help before a file is read
REQUIRED = {
    "check-assoc": ["alg.json"],
    "hochschild-delta": ["map.json", "alg.json"],
    "bracket": ["left.json", "right.json"],
    "mc-check": ["cocycle.json"],
    "build-extension": ["cocycle.json"],
    "extract-cocycle": ["ext.json"],
    "gauge": ["cocycle.json", "beta.json"],
    "equiv-check": ["first.json", "second.json", "--witness", "w.json"],
    "census": [],
    "abelianize": ["cocycle.json"],
}


def usage_argvs():
    argvs = [[], ["-h"], ["frobnicate"]]
    for verb, required in REQUIRED.items():
        argvs.append([verb, "-h"])
        argvs.append([verb, *required, "--bogus"])
        # census has no positional; its missing value is an option's
        argvs.append([verb] if required else [verb, "--field"])
    argvs.append(["gauge", *REQUIRED["gauge"], "--method", "taylor"])
    argvs.append(["census", "--jobs", "two"])
    return argvs


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


GOLDEN = json.loads(GOLDEN_USAGE.read_text())


def test_golden_usage_covers_every_case():
    assert [g["argv"] for g in GOLDEN] == usage_argvs()


@pytest.mark.parametrize("golden", GOLDEN, ids=[" ".join(g["argv"]) or "<none>" for g in GOLDEN])
def test_cli_usage_matches_golden(golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run_cli(golden["argv"]) == golden


@pytest.mark.parametrize("verb", list(REQUIRED))
def test_a_verb_builds_only_its_own_parser(verb, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # subparsers are ArgumentParser instances too
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = [verb, *(REQUIRED[verb] or ["--A", "a.json", "--B", "b.json"])]
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]  # none exists
    result = run_cli(argv)
    assert result["exit"] == 2 and "cannot read" in result["stderr"], result
    assert len(built) <= 2, built
