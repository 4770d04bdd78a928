"""The package imports nothing outside the standard library.

Every absolute import in ``src/wavebroker`` must name a top-level module in
``sys.stdlib_module_names``; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wavebroker"


def absolute_imports(path: Path):
    """``(line, top-level module)`` for every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_absolute_import_is_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 10
    found = [(path.name, line, top) for path in sources for line, top in absolute_imports(path)]
    assert found
    outside = [f"{name}:{line}: {top}" for name, line, top in found if top not in sys.stdlib_module_names]
    assert outside == []
