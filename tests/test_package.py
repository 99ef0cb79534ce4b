"""The package's public surface (``claimflow.__all__``) and its imports."""
import ast
import inspect
from pathlib import Path

import claimflow


def test_all_is_sorted_unique_and_resolves():
    names = claimflow.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(claimflow, name)] == []


def test_every_public_import_is_exported():
    public = {name for name, value in vars(claimflow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(claimflow.__all__)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_module_level_imports_are_used():
    package = Path(claimflow.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_gate_sees_an_unused_name():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["field (line 1)"]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no module
    of ``sources`` (name -> source) reads, imports or reaches as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name} (line {line})" for module, name, line in defined if name not in used]


def test_module_level_private_names_are_used():
    package = Path(claimflow.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_dead_name_gate_sees_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE = 4\n\ndef _helper():\n    return _LIMIT\n\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _helper\n\nvalue = _helper()\n",
    }
    assert _dead_private_names(sources) == ["a.py: _SPARE (line 2)", "a.py: _Gone (line 7)"]


def test_readme_python_example_runs_as_written(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "passed=True" in capsys.readouterr().out
