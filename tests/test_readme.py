"""The README's library example runs as written.

The test reads ``README.md`` next to the ``tests`` directory and imports
``nccanon`` from wherever the interpreter finds it, so it also runs against
an installed package: ``python -m pytest -p no:cacheprovider
<checkout>/tests/test_readme.py`` from outside the checkout, with no
``PYTHONPATH``.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    # the one block, under "Library example"; none found would pass vacuously
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:library-example", "exec"), {})
