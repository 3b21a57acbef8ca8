"""Rules every module of the package keeps, read from its syntax tree:
no floating point (no float name, call or literal), exceptions caught
narrowly (no bare except, no except Exception or BaseException), no
import of dataclasses or typing, which would make every run pay for
generated code and the modules behind it at start-up, and no written-out
__init__ that only copies its parameters into attributes: that is the work
of the records' one initializer, dtflat.records.Record."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).parent.parent / "src"
SRC = sorted((SRC_ROOT / "dtflat").glob("*.py"))
BROAD = {"Exception", "BaseException"}
SLOW_IMPORTS = {"dataclasses", "typing"}


def copies_parameters(func: ast.FunctionDef) -> bool:
    """Whether the body, docstring aside, only assigns two or more of the
    function's parameters to attributes of the same name (self.a = a)."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    if len(names) < 3 or len(body) < 2:
        return False
    owner, params = names[0], set(names[1:])
    for stmt in body:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            return False
        target, value = stmt.targets[0], stmt.value
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == owner
                and isinstance(value, ast.Name) and value.id in params
                and value.id == target.attr):
            return False
    return True


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
        elif (isinstance(node, ast.FunctionDef) and node.name == "__init__"
              and copies_parameters(node)):
            found.append((node.lineno, "written-out __init__"))
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
    ("class A:\n    def __init__(self, a, b):\n        self.a = a\n"
     "        self.b = b", "written-out __init__"),
    ("class A:\n    def __init__(self, a, *, b=None):\n        \"\"\"A.\"\"\"\n"
     "        self.b = b\n        self.a = a", "written-out __init__"),
])
def test_each_rule_is_seen(source, rule):
    assert [r for _, r in violations(ast.parse(source))] == [rule]


def test_narrow_code_passes():
    source = ("try:\n    f(1, 2)\nexcept (ValueError, KeyError) as exc:\n"
              "    raise RuntimeError(str(exc)) from None\n")
    assert violations(ast.parse(source)) == []


@pytest.mark.parametrize("body", [
    "self.terms = terms",                       # one field, as Poly's
    "self.a = a\n        self.b = b\n        self.n = 0",
    "self.a = a\n        self.b = [] if b is None else b",
    "self.a = a\n        self.c = b",
    "super().__init__(a)\n        self.a = a\n        self.b = b",
], ids=["one-field", "more-state", "default", "renamed", "super"])
def test_initializers_that_do_more_pass(body):
    source = ("class A:\n    def __init__(self, a, b=None, terms=None):\n"
              f"        {body}\n")
    assert violations(ast.parse(source)) == []


def test_cli_import_loads_no_code_generator():
    # -S: no site-packages, so only the standard library and the package
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dtflat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC_ROOT)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
