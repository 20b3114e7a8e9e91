"""The library example in README.md runs and prints what it says."""
import contextlib
import io
import re
from pathlib import Path

from twistor_spectra.ktypes import label_dirac

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, namespace)
    assert out.getvalue().splitlines()[0] == "1/2"
    n, table = namespace["params"].n, namespace["cal"].table
    assert table
    assert all(L == label_dirac(n, int(2 * j), eps) for (j, eps), L in table.items())
