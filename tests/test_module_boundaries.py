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


def orjson_imports(path: Path) -> list[str]:
    """`import orjson` and `from orjson import ...` statements in the source
    file at `path`: the fast line decoder, which belongs to gaze6d.jsonl."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "orjson" for m in modules):
            found.append(f"{path.name}:{node.lineno}: orjson")
    return found


def test_only_jsonl_py_decodes_with_orjson():
    found = [imp for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "jsonl.py"
             for imp in orjson_imports(path)]
    assert found == []


def test_the_orjson_check_sees_both_import_forms(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import json, orjson\n"
                   "from orjson import loads\n"
                   "import orjsonic\n"
                   "from .jsonl import decode_line\n"
                   "import orjson as fast\n")
    assert orjson_imports(src) == ["probe.py:1: orjson", "probe.py:2: orjson", "probe.py:5: orjson"]


# the stdlib JSON decoders, which gaze6d.jsonl.decode_json alone uses
JSON_DECODERS = {"load", "loads", "JSONDecoder"}


def json_decoder_uses(path: Path) -> list[str]:
    """`json.load`, `json.loads` and `json.JSONDecoder` in the source file at
    `path`, and imports of them from json: a JSON file read otherwise than
    through gaze6d.jsonl.decode_json, which refuses NaN and Infinity."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "json":
            used = [a.name for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
            used = [node.attr]
        else:
            continue
        found += [(node.lineno, f"{path.name}:{node.lineno}: json.{n}") for n in used if n in JSON_DECODERS]
    return [use for _, use in sorted(found)]


def test_only_jsonl_py_decodes_json_with_the_stdlib():
    found = [use for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "jsonl.py"
             for use in json_decoder_uses(path)]
    assert found == []


def test_the_json_decoder_check_sees_the_attribute_and_import_forms(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import json\n"
                   "from json import loads as parse, dumps\n"
                   "cfg = json.load(f)\n"
                   "doc = json.loads(text)\n"
                   "decoder = json.JSONDecoder(parse_constant=reject)\n"
                   "from json import JSONDecoder, load\n"
                   "text = json.dumps(doc)\n"
                   "doc = decode_json(text)\n")
    assert json_decoder_uses(src) == ["probe.py:2: json.loads", "probe.py:3: json.load", "probe.py:4: json.loads",
                                      "probe.py:5: json.JSONDecoder", "probe.py:6: json.JSONDecoder",
                                      "probe.py:6: json.load"]


# the column check of gaze6d.jsonl.read_block, the one block loop
BLOCK_LOOP_PARTS = {"number_columns"}


def name_uses(path: Path, names: set) -> list[str]:
    """Imports of, and references to, any of `names` in the source file at
    `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            used = [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            used = [node.attr]
        elif isinstance(node, ast.Name):
            used = [node.id]
        else:
            continue
        found += [(node.lineno, f"{path.name}:{node.lineno}: {n}") for n in used if n in names]
    return [use for _, use in sorted(found)]


def test_only_jsonl_py_decodes_lines_and_checks_columns():
    """A block loop of its own, where every JSONL reader goes through gaze6d.jsonl.read_block."""
    found = [use for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "jsonl.py"
             for use in name_uses(path, BLOCK_LOOP_PARTS)]
    assert found == []


def test_only_jsonl_py_tests_for_json_numbers():
    """JSON_NUMBERS, defined in gaze6d.errors, is the JSON-number test of the
    one value rule, gaze6d.jsonl.find_fault and number_columns: no other
    module writes that rule again."""
    found = [use for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name not in ("errors.py", "jsonl.py")
             for use in name_uses(path, {"JSON_NUMBERS"})]
    assert found == []


def test_the_block_loop_check_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from .jsonl import number_columns, read_block\n"
                   "from gaze6d.jsonl import number_columns as columns\n"
                   "cols = jsonl.number_columns(values, 5)\n"
                   "cols = _jsonl.number_columns(values, 5)\n"
                   "rows = read_block(lines, read, fields, rule, check)\n"
                   "number_columns = None\n")
    assert name_uses(src, BLOCK_LOOP_PARTS) == ["probe.py:1: number_columns", "probe.py:2: number_columns",
                                                "probe.py:3: number_columns", "probe.py:4: number_columns",
                                                "probe.py:6: number_columns"]


def per_line_dumps(path: Path) -> list[str]:
    """`json.dumps(..., sort_keys=True)` calls with default separators and no
    indent in the source file at `path`: JSONL line encodings, which belong
    to gaze6d.jsonl.LINE_ENCODER."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            keywords = {k.arg: k.value for k in node.keywords}
            sort_keys = keywords.get("sort_keys")
            if (name == "dumps" and isinstance(sort_keys, ast.Constant) and sort_keys.value is True
                    and not {"indent", "separators"} & set(keywords)):
                found.append((node.lineno, f"{path.name}:{node.lineno}: dumps"))
    return [call for _, call in sorted(found)]


def test_every_jsonl_line_goes_through_the_shared_encoder():
    found = [call for path in sorted(PACKAGE_DIR.glob("*.py")) for call in per_line_dumps(path)]
    assert found == []


def test_the_line_encoder_check_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("f.write(json.dumps(row, sort_keys=True) + '\\n')\n"
                   "line = dumps({'a': 1}, sort_keys=True)\n"
                   "blob = json.dumps(cfg, sort_keys=True, separators=(',', ':'))\n"
                   "text = json.dumps(doc, indent=2, sort_keys=True)\n"
                   "plain = json.dumps(rec)\n"
                   "line = LINE_ENCODER.encode(row)\n")
    assert per_line_dumps(src) == ["probe.py:1: dumps", "probe.py:2: dumps"]


# the wordings of a setting's range, which gaze6d.errors.check_ranges alone writes
RANGE_WORDINGS = ("must be >=", "must be positive", "must be in [", "must be finite and", "must be finite,")
# value rules that are no setting's: jsonl.find_fault's of the lists of rows and
# records, and the checks run on every frame of a box side and a depth
RANGE_WORDING_EXEMPT = {"jsonl.py:find_fault", "camera.py:BoundingBox.__post_init__", "camera.py:backproject"}


def range_wordings(path: Path) -> list[str]:
    """String literals in the source file at `path`, docstrings aside, that
    word a range, with the function or class that writes each."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, scopes):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str) and id(child) not in docstrings
                  and any(w in child.value for w in RANGE_WORDINGS)):
                found.append(f"{path.name}:{scope}")
            else:
                visit(child, scope)

    visit(tree, "")
    return found


def test_only_errors_py_words_a_range():
    found = [use for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "errors.py"
             for use in range_wordings(path) if use not in RANGE_WORDING_EXEMPT]
    assert found == []


def test_the_range_wording_check_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text('''"""A docstring: x must be >= 0."""
LIMIT = "n must be >= 0"


class Config:
    """seed must be >= 0"""

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")


def check(k):
    message = f"k must be in [0, {MAX}], got {k}"
    return lambda v: f"v must be finite, got {v}" + "size must be positive"
''')
    assert range_wordings(src) == ["probe.py:", "probe.py:Config.__post_init__", "probe.py:check",
                                   "probe.py:check", "probe.py:check"]


def test_all_is_exactly_the_public_names_of_the_package():
    exported = gaze6d.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    missing = [name for name in exported if not hasattr(gaze6d, name)]
    assert missing == [], "entries of __all__ that gaze6d does not define"
    public = {name for name, value in vars(gaze6d).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public
