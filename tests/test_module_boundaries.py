"""The gaze6d modules use each other only through public names."""

import ast
import builtins
import json
import types
from pathlib import Path

import gaze6d
from gaze6d.errors import BAD_INPUT

PACKAGE_DIR = Path(gaze6d.__file__).parent
MODULES = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The gaze6d module a `from ... import` statement reads from, if any."""
    if node.level == 1 and node.module in MODULES:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("gaze6d."):
        return node.module.split(".", 1)[1]
    return None


def private_cross_module_uses(path: Path) -> list[str]:
    """`module._name` accesses and `from .module import _name` imports of
    another gaze6d module's privates in the source file at `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _sibling(node)
            for a in node.names:
                package = (node.level, node.module) in ((1, None), (0, "gaze6d"))
                if package and a.name in MODULES:
                    aliases[a.asname or a.name] = a.name  # from . import model as _model
                elif module is not None and _is_private(a.name):
                    found.append(f"{path.name}:{node.lineno}: {module}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("gaze6d.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _is_private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {aliases[node.value.id]}.{node.attr}")
    return found


def test_no_module_uses_another_modules_privates():
    found = [use for path in sorted(PACKAGE_DIR.glob("*.py"))
             for use in private_cross_module_uses(path)]
    assert found == []


def test_the_check_sees_attribute_and_import_forms(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from . import model as _model\n"
                   "from .synth import _split, load_dataset\n"
                   "x = _model._forward(1)\n"
                   "y = _model.forward(1)\n")
    assert private_cross_module_uses(src) == ["probe.py:2: synth._split",
                                              "probe.py:3: model._forward"]


def _catches_bad_input(name: str) -> bool:
    """Whether the builtin or json exception `name` is one of BAD_INPUT, or a
    subclass (JSONDecodeError) or base (Exception) of one."""
    exc = getattr(builtins, name, None) or getattr(json, name, None)
    return isinstance(exc, type) and any(issubclass(exc, b) or issubclass(b, exc) for b in BAD_INPUT)


def bad_input_catches(path: Path) -> list[str]:
    """`except` clauses in the source file at `path` that name a bad-input
    exception, rather than leave it to gaze6d.errors."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for n in named:
                name = n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "")
                if _catches_bad_input(name):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_errors_py_decides_what_bad_input_is():
    found = [catch for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "errors.py"
             for catch in bad_input_catches(path)]
    assert found == []


def test_the_bad_input_check_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("try:\n    pass\n"
                   "except (ConfigError, KeyError):\n    pass\n"
                   "except json.JSONDecodeError:\n    pass\n"
                   "except Exception:\n    pass\n"
                   "except (OSError, RayParallelError, BAD_INPUT):\n    pass\n")
    assert bad_input_catches(src) == ["probe.py:3: KeyError", "probe.py:5: JSONDecodeError",
                                      "probe.py:7: Exception"]


def test_all_is_exactly_the_public_names_of_the_package():
    exported = gaze6d.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    missing = [name for name in exported if not hasattr(gaze6d, name)]
    assert missing == [], "entries of __all__ that gaze6d does not define"
    public = {name for name, value in vars(gaze6d).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public
