"""The modules of k3verify use each other's public names only, but for the
listed exceptions."""
import ast
from pathlib import Path

import k3verify

# eliminate runs its subresultant chain on wpoly's packed-monomial kernel
ALLOWED = {("eliminate", "wpoly", "_Kernel")}


def test_no_module_imports_a_private_name_of_another():
    found = set()
    for path in sorted(Path(k3verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, alias.name)
                          for alias in node.names if alias.name.startswith("_")}
    assert found <= ALLOWED
