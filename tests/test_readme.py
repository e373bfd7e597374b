"""The README's library sketch runs and gives the values its comments state."""

import math
import re
from pathlib import Path

import pytest

from ewm.errors import IndexOutOfRangeError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def sketch_lines():
    """``(code, comment)`` for each line of the python block under "Library sketch"."""
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", README, re.S).group(1)
    return [tuple(part.strip() for part in line.partition("#")[::2])
            for line in block.splitlines() if line.strip()]


def test_the_library_sketch_gives_the_values_in_its_comments():
    *lines, (last, last_comment) = sketch_lines()
    namespace, said = {}, {}
    for code, comment in lines:
        try:  # an expression's value, or what an assignment bound, under its comment
            said[comment] = eval(code, namespace)
        except SyntaxError:
            exec(code, namespace)
            if "=" in code:
                said[comment] = eval(code.split("=")[0], namespace)
    assert f"{said['0.494632 nats']:.6f}" == "0.494632"
    assert said["== 1.0 over the whole ball"] == 1.0
    assert said["True: no cycle beats the diagonal"] is True
    assert said["threshold log(50)"].threshold == math.log(50)
    assert namespace["state"].running and namespace["state"].steps == 1
    assert last_comment.startswith("IndexOutOfRangeError")
    with pytest.raises(IndexOutOfRangeError):
        exec(last, namespace)
