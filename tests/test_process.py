"""``lwheel`` as a separate process, for what only a process shows: the
commands of README's CLI block run as written, a failed check, two input
errors and two usage errors end with their exit codes, and no run prints
a traceback.  Every other behaviour of the commands is tested in-process,
in ``test_cli.py``."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import layered_wheels

from conftest import orphan_record

# the child imports the package that this test run imports
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
    os.path.abspath(layered_wheels.__file__))))

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def launch(cwd, args):
    """Run ``python -m layered_wheels.cli`` with the words of ``args`` in
    ``cwd`` and assert that it prints no traceback.  Returns the exit
    code, stdout and stderr."""
    proc = subprocess.run([sys.executable, "-m", "layered_wheels.cli"]
                          + args, cwd=cwd, env=ENV, capture_output=True,
                          text=True)
    assert "Traceback" not in proc.stdout + proc.stderr, (args, proc.stderr)
    return proc.returncode, proc.stdout, proc.stderr


def readme_commands():
    """The words after ``lwheel`` on each line of README's CLI block."""
    with open(README) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("lwheel ")]


def test_readme_commands(tmp_path):
    # in order, in one directory, so verify and separate read the file
    # that build wrote; a command with --out writes its file and nothing
    # to stdout, any other prints its JSON report
    commands = readme_commands()
    assert commands
    for args in commands:
        code, out, err = launch(tmp_path, args)
        assert code == 0, (args, err)
        if "--out" in args:
            assert out == ""
            assert (tmp_path / args[args.index("--out") + 1]).stat().st_size
        else:
            json.loads(out)


@pytest.fixture()
def d(tmp_path):
    """A record that fails rule 4 and JSON nested too deeply to parse."""
    (tmp_path / "orphan.json").write_text(json.dumps(orphan_record()))
    (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
    return tmp_path


# a failing report on stdout, and no error line
@pytest.mark.parametrize("args", ["verify --in orphan.json --rules"],
                         ids=["null-parent"])
def test_failed_check(d, args):
    code, out, err = launch(d, args.split())
    assert (code, err) == (1, "") and '"passed": false' in out


# a fresh process has its own recursion limit: each loader turns the
# too-deep JSON into one error line
@pytest.mark.parametrize("args", [
    "verify --in nested.json", "separate --in nested.json",
], ids=["nested-verify", "nested-separate"])
def test_input_error(d, args):
    code, out, err = launch(d, args.split())
    assert (code, out) == (1, "")
    assert len(re.findall("^error:", err, re.M)) == 1, err


@pytest.mark.parametrize("args, mark", [
    # the removed --chordal-samples
    ("verify --in orphan.json --chordal-samples 5",
     "unrecognized arguments: --chordal-samples 5"),
    # another demo's option
    ("demo question84 --samples 3", "unrecognized arguments: --samples 3"),
], ids=["chordal-samples", "demo-option"])
def test_usage_error(d, args, mark):
    code, out, err = launch(d, args.split())
    assert (code, out) == (2, "") and mark in err
