"""``tools/code_lines.py``'s count, on a small sample module."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import math  # a trailing comment keeps its line


class Box:
    """One line."""

    size = 2


def area(r):
    """A function docstring,

    with a blank line inside."""
    text = """a string that is
not a docstring"""
    return (math.pi
            * r ** 2)
'''


def test_sample_module_counts_only_code_lines():
    # import, class, size, def, the two lines of text, the two of return
    assert code_lines.code_lines(SAMPLE) == 8


def test_main_prints_each_module_and_the_total(capsys):
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(count) for name, count in (line.rsplit(" ", 1) for line in lines)}
    total = counts.pop("total")
    assert "src/digitprod/evaluator.py" in counts
    assert total == sum(counts.values())
