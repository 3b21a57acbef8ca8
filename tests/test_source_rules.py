"""Rules every module of the package keeps, read from its syntax tree:
no floating point (no float name, call or literal), exceptions caught
narrowly (no bare except, no except Exception or BaseException), and no
import of dataclasses or typing, which would make every run pay for
generated code and the modules behind it at start-up."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).parent.parent / "src"
SRC = sorted((SRC_ROOT / "dtflat").glob("*.py"))
BROAD = {"Exception", "BaseException"}
SLOW_IMPORTS = {"dataclasses", "typing"}


def violations(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float name"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = (caught.elts if isinstance(caught, ast.Tuple)
                     else [caught])
            if caught is None:
                found.append((node.lineno, "bare except"))
            elif any(isinstance(n, ast.Name) and n.id in BROAD
                     for n in names):
                found.append((node.lineno, "except of a broad class"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names]
                       if isinstance(node, ast.Import) else [node.module])
            for module in modules:
                if module and module.split(".")[0] in SLOW_IMPORTS:
                    found.append((node.lineno, f"import of {module}"))
    return found


def test_the_package_has_modules():
    assert Path(SRC[0]).name == "__init__.py" and len(SRC) > 5


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_module_keeps_the_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert violations(tree) == [], path.name


@pytest.mark.parametrize("source, rule", [
    ("x = float(y)", "float name"),
    ("def f(p: float): pass", "float name"),
    ("x = 0.5", "float literal 0.5"),
    ("try:\n    f()\nexcept:\n    pass", "bare except"),
    ("try:\n    f()\nexcept Exception:\n    pass", "except of a broad class"),
    ("try:\n    f()\nexcept (ValueError, BaseException):\n    pass",
     "except of a broad class"),
    ("from dataclasses import dataclass", "import of dataclasses"),
    ("import typing", "import of typing"),
    ("from typing import Mapping", "import of typing"),
])
def test_each_rule_is_seen(source, rule):
    assert [r for _, r in violations(ast.parse(source))] == [rule]


def test_narrow_code_passes():
    source = ("try:\n    f(1, 2)\nexcept (ValueError, KeyError) as exc:\n"
              "    raise RuntimeError(str(exc)) from None\n")
    assert violations(ast.parse(source)) == []


def test_cli_import_loads_no_code_generator():
    # -S: no site-packages, so only the standard library and the package
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dtflat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC_ROOT)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
