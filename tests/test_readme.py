"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"
#: Each fenced ```python block of the README, in order.
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
#: What each block prints, in the same order.
PRINTED = ["high_risk high_risk_critical_infrastructure\n"]


def test_every_block_has_its_expected_output():
    assert len(BLOCKS) == len(PRINTED)


@pytest.mark.parametrize("block, printed", [
    pytest.param(block, printed, id=f"block-{i}")
    for i, (block, printed) in enumerate(zip(BLOCKS, PRINTED), 1)])
def test_block_runs_and_prints(block, printed, capsys):
    exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out == printed
