"""No module of ``src/repro`` imports a name it never uses.

No linter runs in CI, so this is the check: every module-level
``import`` and ``from ... import`` (``from __future__`` and the imports
under ``if TYPE_CHECKING:`` aside) must bind a name the module reads —
as a name anywhere in its code, as an entry of its ``__all__``, or
inside a string annotation.  Package ``__init__.py`` files re-export
what they import and are not checked.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _imported(tree: ast.Module):
    """``(bound name, line)`` of every checked module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0],
                       node.lineno)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree: ast.Module):
    """Every annotation in the module, string ones parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            found = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = [node.returns]
        else:
            continue
        for annotation in found:
            for part in ast.walk(annotation) if annotation else ():
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    yield ast.parse(part.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    for parsed in _annotations(tree):
        names |= {node.id for node in ast.walk(parsed)
                  if isinstance(node, ast.Name)}
    return names | _exported(tree)


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_module_imports_an_unused_name():
    unused = [entry for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for entry in unused_imports(path)]
    assert not unused, "\n".join(unused)
