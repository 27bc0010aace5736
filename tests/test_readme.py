"""The python examples of README.md, each fenced block run as a doctest."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# the body of each ```python block, without its fences, and its first line
BLOCKS = [(match.group(1), TEXT.count("\n", 0, match.start(1)))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


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
