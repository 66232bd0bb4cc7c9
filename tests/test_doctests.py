import contextlib
import doctest
import io
import pathlib
import re

import twistalex.laurent

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_laurent_doctests():
    failures, _ = doctest.testmod(twistalex.laurent)
    assert failures == 0


def test_readme_library_example():
    # the python block under "## Library" prints, line for line, what the
    # trailing comments of its print calls say
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = [line.rsplit("# ", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
