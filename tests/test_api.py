"""The package's public names resolve, and the README's library example runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

import primexp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_once():
    assert len(primexp.__all__) == len(set(primexp.__all__))
    missing = [name for name in primexp.__all__ if not hasattr(primexp, name)]
    assert missing == []


def test_library_at_a_glance_gives_its_commented_values():
    # Each expression line's comment opens with its value: "34, with ...".
    section = README.read_text().split("## Library at a glance", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            compiled = compile(code, "README", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        expected = re.match(r"\s*(\w+)", comment).group(1)
        value = eval(compiled, namespace)
        assert repr(value) == expected, line
        checked.append(value)
    assert checked == [3, 34, 16, 18, 34, True]
