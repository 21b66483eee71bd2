"""``tools/code_lines.py``: what counts as a code line, and which files
a directory argument names."""

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
