"""The public surface: ``__all__``, the names the benchmark's spans wrap,
and imports that nothing in the package reads."""

import ast
import importlib.util
from pathlib import Path

import runvec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "runvec"


def _load_spans():
    """``perfbench/spans.py``, loaded from its file without touching it."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (as a name or an attribute
    root) and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


class TestPublicSurface:
    def test_all_is_sorted(self):
        assert runvec.__all__ == sorted(runvec.__all__)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from runvec import *", namespace)
        assert [name for name in runvec.__all__ if name not in namespace] == []

    def test_span_names_resolve_to_callables(self):
        spans = _load_spans()
        missing = [
            f"{layer}.{name}"
            for layer, names in spans.LAYER_FUNCTIONS.items()
            for name in names
            if not callable(getattr(importlib.import_module(f"runvec.{layer}"), name, None))
        ]
        assert missing == []


class TestImports:
    def test_no_unused_imports(self):
        found = {
            path.name: unused_imports(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
        }
        assert {name: names for name, names in found.items() if names} == {}
        assert "seqcore.py" in found and "__init__.py" in found

    def test_the_check_flags_an_unused_import(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\nimport sys\nfrom .a import b, c as d, e\n"
            "__all__ = ['e']\n"
            "print(sys.argv, d)\n"
        )
        assert unused_imports(source) == ["os", "b"]
