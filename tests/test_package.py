import ast
from pathlib import Path

import symplitz

SRC = Path(symplitz.__file__).parent


def test_src_modules_use_every_import():
    """Every module-level import of a library module (the package's __init__
    re-exports, so it is left out) is read somewhere in that module."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    assert unused == []
