"""The repository's tools, loaded from their files."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSrcLines:
    def test_each_line_counts_once_by_the_rule(self):
        source = (
            '"""Module docstring.\n'  # 1 docstring
            "\n"  # 2 docstring: blank, but inside the docstring
            '# not a comment here"""\n'  # 3 docstring
            "\n"  # 4 blank
            "#: a comment\n"  # 5 comment
            "class A:\n"  # 6 code
            '    """One line."""\n'  # 7 docstring
            "    x = '''\n"  # 8 code: a string, but not a docstring
            "    text\n"  # 9 code, inside that string
            "    '''  # trailing\n"  # 10 code
            "    def f(self):\n"  # 11 code
            "        # indented comment\n"  # 12 comment
            "        y = 1\n"  # 13 code
            '        """Not first: a string statement, not a docstring."""\n'  # 14 code
            "   \n"  # 15 blank
        )
        counts = _load("src_lines").line_kinds(source)
        assert counts == {"code": 7, "docstring": 4, "comment": 2, "blank": 2}

    def test_every_line_of_src_counts_once(self, capsys):
        src_lines = _load("src_lines")
        package = TOOLS.parent / "src" / "runvec"
        for path in package.glob("*.py"):
            source = path.read_text()
            assert sum(src_lines.line_kinds(source).values()) == len(source.splitlines())
        assert src_lines.main([str(package)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split() == ["module", "code", "docstring", "comment", "blank", "total"]
        assert [row.split()[0] for row in rows[1:]] == [
            "__init__.py", "cli.py", "lemmalab.py", "search.py", "seqcore.py", "total"
        ]
