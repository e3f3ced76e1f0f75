"""The README's python examples run, in order, and print what their comments say.

Every ```python block of README.md is executed in one shared namespace, in
the order the blocks appear.  A line of the form ``print(expr)  # value``
checks that ``str(expr)`` is ``value``; the comment's text after a double
space (such as ``# 4  (= unit rank of the base field)``) is a remark and is
not compared.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
PRINTED = re.compile(r"^print\((.*)\)\s+#\s*(.*?)(?:\s{2,}.*)?$")


def _checked(source):
    """The block with each commented print turned into a value check."""
    lines = []
    for line in source.splitlines():
        match = PRINTED.match(line)
        if match:
            expr, value = match.groups()
            line = f"_check({expr}, {value!r})"
        lines.append(line)
    return "\n".join(lines)


def test_readme_blocks_run_and_print_their_values():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks, "README has no python blocks"
    seen = []

    def check(obj, value):
        seen.append(value)
        assert str(obj) == value

    namespace = {"_check": check}
    for block in blocks:
        exec(compile(_checked(block), str(README), "exec"), namespace)
    commented = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert seen and len(seen) == len(commented)
