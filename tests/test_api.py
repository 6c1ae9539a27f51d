"""The package's public names resolve, its modules import nothing they leave
unused, and the README's library example runs as documented."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import primexp

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(primexp.__file__).resolve().parent


def test_every_public_name_resolves_once():
    assert len(primexp.__all__) == len(set(primexp.__all__))
    missing = [name for name in primexp.__all__ if not hasattr(primexp, name)]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's imports that no expression reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_check_sees_every_import_form():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path\nimport json as j\n"
                     "from math import gcd, lcm as l\nfrom . import sibling\n"
                     "print(os.sep, gcd)\n")
    assert _unused_imports(tree) == ["j", "l", "sibling"]


def test_every_module_uses_every_name_it_imports():
    # The package's __init__ imports names to re-export them.
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(modules) >= 9
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


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
