import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# id -> path: package modules by file name, tests and tools with their folder
MODULES = {p.name: p for p in sorted((ROOT / "src" / "stfr").glob("*.py"))
           if p.name != "__init__.py"}
MODULES.update({f"{d}/{p.name}": p for d in ("tests", "tools")
                for p in sorted((ROOT / d).glob("*.py"))})


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_keeps_used():
    src = ("import math\nimport os.path\nfrom a import b as c, d\n"
           "def f():\n    from e import g\n    return os.path.join(d)\n")
    assert unused_imports(src) == ["c (line 3)", "g (line 5)", "math (line 1)"]


@pytest.mark.parametrize("path", list(MODULES.values()), ids=list(MODULES))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
