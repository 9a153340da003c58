import ast
from pathlib import Path

import charmat

SRC = Path(charmat.__file__).parent


def _private_functions_without_a_caller(src: Path) -> list[str]:
    # module-level private functions that no Name or attribute access in the package reads
    defined, used = {}, set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                defined[node.name] = f"{path.name}:{node.lineno} {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in used)


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper kept alive only by tests is dead code
    assert _private_functions_without_a_caller(SRC) == []


def test_dead_helper_guard_sees_a_helper_only_tests_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used(x):\n    return x\n\n\n"
        "def _dead(x):\n    return x\n\n\n"
        "def public(x):\n    return _used(x)\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import _dead\n", encoding="utf-8")
    assert _private_functions_without_a_caller(tmp_path) == ["a.py:5 _dead"]
