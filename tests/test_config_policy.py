"""Static checks of the Config policy, by the standard-library ast only.

Config is the one record of the values a run can set: a function takes a
`config` parameter only if it reads a field or hands `config` on to code
that does, every field is read somewhere, and nothing bypasses the
parameter: DEFAULT_CONFIG is read only as a parameter default.
"""

import ast
from pathlib import Path

from chamberflow.linalg_core import Config

SRC = Path(__file__).resolve().parents[1] / "src" / "chamberflow"
FIELDS = set(Config.__dataclass_fields__)


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _params(fn):
    args = fn.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_config(node):
    return isinstance(node, ast.Name) and node.id == "config"


def _config_uses(fn):
    """(fields read as config.<field>, callees handed `config` as an argument)."""
    reads, forwards = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and _is_config(node.value):
            reads.add(node.attr)
        elif isinstance(node, ast.Call):
            passed = list(node.args) + [kw.value for kw in node.keywords]
            if any(_is_config(arg) for arg in passed):
                forwards.add(_callee(node))
    return reads, forwards


def test_every_config_parameter_is_read_or_forwarded_to_a_reader():
    takers = {}
    for module, tree in _modules().items():
        for fn in _functions(tree):
            if "config" in _params(fn):
                takers[f"{module}.{fn.name}"] = _config_uses(fn)
    assert takers
    # handing `config` to code that takes no `config` parameter of ours, such
    # as dataclasses.asdict or a suite bound to a loop variable, is a read
    own = {name.split(".")[1] for name in takers}
    readers = {name for name, (reads, fwd) in takers.items() if reads or fwd - own}
    # a function that forwards `config` to a reader is a reader, to a fixpoint
    while True:
        bare = {name.split(".")[1] for name in readers}
        grown = readers | {name for name, (_, fwd) in takers.items() if fwd & bare}
        if grown == readers:
            break
        readers = grown
    assert sorted(set(takers) - readers) == []


def test_every_config_field_is_read_outside_the_class():
    read = set()
    for tree in _modules().values():
        skip = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Config"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and id(node) not in skip and node.attr in FIELDS:
                read.add(node.attr)
    assert sorted(FIELDS - read) == []


def test_no_module_reads_default_config_fields():
    offenders = [
        f"{module}:{node.lineno}"
        for module, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "DEFAULT_CONFIG"
    ]
    assert offenders == []


def _default_config_outside_defaults(trees):
    """module:line of each read of DEFAULT_CONFIG that is not a parameter
    default, such as an argument that overrides a caller's config."""
    offenders = []
    for module, tree in trees.items():
        defaults = {
            id(node)
            for fn in _functions(tree)
            for node in fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
        }
        offenders += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and node.id == "DEFAULT_CONFIG"
            and isinstance(node.ctx, ast.Load)
            and id(node) not in defaults
        ]
    return offenders


def test_default_config_is_read_only_as_a_parameter_default():
    assert _default_config_outside_defaults(_modules()) == []


def test_the_check_sees_default_config_passed_as_an_argument():
    tree = ast.parse(
        "DEFAULT_CONFIG = Config()\n\n"
        "def f(x, config=DEFAULT_CONFIG, *, strict=DEFAULT_CONFIG):\n"
        "    return g(x, DEFAULT_CONFIG)\n\n"
        "def h(x):\n"
        "    return g(x, config=DEFAULT_CONFIG)\n"
    )
    assert _default_config_outside_defaults({"a": tree}) == ["a:4", "a:7"]
