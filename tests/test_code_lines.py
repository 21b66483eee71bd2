"""``tools/code_lines.py``: what counts as a code line, and which files
a directory argument names.  Also a guard over the package's own
source: no unused import and no private definition that nothing
references."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_directory_counts_its_python_files(tmp_path, capsys):
    """A directory stands for its ``*.py`` files, in name order; blank
    lines, comments and docstrings are not code, and neither other
    files nor subdirectories are counted."""
    (tmp_path / "b.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nx = 1\n\n\n'
        'def f():\n    """Doc."""\n    return x\n'
    )
    (tmp_path / "a.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("z = 3\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("z = 3\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py",
        "     3  b.py",
        "     4  total",
    ]


def _package_trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(code_lines.PACKAGE.glob("*.py"))
    }


def _exported(tree):
    """The strings of a module's ``__all__`` list, if it spells one."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            and isinstance(node.value, ast.List)
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def test_every_import_is_used_or_exported():
    """No module of the package imports at top level a name that it
    never uses and does not list in ``__all__``."""
    unused = []
    for name, tree in _package_trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound != "*" and bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _private_definitions(tree):
    """``(name, first line, last line)`` of each module-level function
    or class, and each method, whose name starts with one underscore."""
    nodes = list(tree.body)
    nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for node in nodes:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ):
            yield node.name, node.lineno, node.end_lineno


def test_every_private_definition_is_referenced():
    """Each private function, class or method of the package is named
    somewhere in the package outside its own definition: code that
    nothing reads is deleted."""
    trees = _package_trees()
    references = [
        (module, node.lineno, name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    unreferenced = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, first, last in _private_definitions(tree)
        if not any(
            ref == name and not (where == module and first <= line <= last)
            for where, line, ref in references
        )
    ]
    assert unreferenced == []
