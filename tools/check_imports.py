#!/usr/bin/env python
"""List imports a module never uses.

    python tools/check_imports.py src/ tests/ benchmarks/ examples/ tools/

Standard-library ``ast`` only.  A name is used if the module reads it
anywhere, a quoted annotation included, or lists it in ``__all__``;
``__init__.py`` files (re-exports) and ``from __future__`` are exempt.
Prints ``path:line: name`` per unused import and exits 1 if any.
"""

import ast
import sys
from pathlib import Path


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    imported, used, quoted = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and "__all__" in [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]:
            quoted.append(node.value)
    # Strings in annotations and __all__ name what they mention.
    for root in quoted:
        for n in ast.walk(root):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                try:
                    text = ast.parse(n.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {m.id for m in ast.walk(text) if isinstance(m, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(roots) -> int:
    found = [
        f"{path}:{line}: {name}"
        for root in roots
        for path in sorted(Path(root).rglob("*.py")) if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["."]))
