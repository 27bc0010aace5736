"""The examples of README.md: each fenced python block run as a doctest,
and each line of the sh block of `cyclat` commands run through
`cli.main`."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from cyclat import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# the body of each ```python block, without its fences, and its first line
BLOCKS = [(match.group(1), TEXT.count("\n", 0, match.start(1)))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]
SH_BLOCKS = [match.group(1).splitlines()
             for match in re.finditer(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)]
# the lines of the sh blocks that hold only `cyclat` commands
COMMANDS = [line for lines in SH_BLOCKS
            if all(command.startswith("cyclat ") for command in lines)
            for line in lines]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_python_block(k):
    body, lineno = BLOCKS[k]
    test = doctest.DocTestParser().get_doctest(body, {}, f"README.md block {k}",
                                               str(README), lineno)
    assert test.examples
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)


def test_readme_has_command_examples():
    assert sum("# -> " in line for line in COMMANDS) >= 7


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_command_line(line, tmp_path, monkeypatch, capsys):
    # a command exits 0 and, where its comment reads "# -> X", prints X;
    # an --out file lands in tmp_path
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert argv[0] == "cyclat"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if "# -> " in line:
        assert out == line.split("# -> ", 1)[1].strip() + "\n"
