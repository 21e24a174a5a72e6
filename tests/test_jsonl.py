"""The one JSONL block reader, jsonl.read_block: orjson reads each line, and
the stdlib decoder reads again, once, and answers for, any line orjson
refuses or nests too deep for, or whose value a reader rejects.  Every
dataset and convert input must load, convert and fail as it does with the
stdlib decoder alone.  The one value rule,
jsonl.find_fault, words each fault alike in a row, a record and a
transform.  The one number writer, jsonl.number_rows, writes repr's text of
every float, a block of rows per orjson call."""

import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fuzz import FUZZ, json_values
from gaze6d import cli, jsonl
from gaze6d.easy_norm import Rotation3
from gaze6d.errors import ConfigError
from gaze6d.jsonl import decode_json
from gaze6d.pogz import RigidTransform, convert_lines
from gaze6d.synth import (SceneConfig, Subject, dataset_header, frame_rng, generate_dataset, load_dataset,
                          make_subjects, sample_frame)

_CFG = SceneConfig(seed=21)
HEADER = json.dumps(dataset_header(_CFG, [Subject(0)], 2, "general"))
ROW = sample_frame(Subject(0), _CFG, frame_rng(21, 0, 0)).to_dict()
RECORD = {"point": [35.5, -120.25], "gaze": [0.1, -0.2, -1.0]}
DEEP = "[" * 5000 + "]" * 5000   # valid JSON nested beyond json's recursion limit


def refuse(line):
    raise ValueError("refused")


def as_shipped_and_by_json(outcome):
    """outcome(), once with read_block as shipped and once with orjson
    refusing every line, so that the stdlib decoder reads each one."""
    shipped = outcome()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jsonl, "orjson", SimpleNamespace(loads=refuse))
        return shipped, outcome()


def edited(doc: dict, key: str, index: int, literal: str) -> str:
    """The JSON text of `doc` with value `index` of `key` written as `literal`."""
    values = list(doc[key])
    values[index] = 12345.5
    return json.dumps({**doc, key: values}).replace("12345.5", literal)


# integers at the ends of orjson's range: beyond it, orjson gives a float
BIG_INTS = {"2**63": 2**63, "-2**63": -2**63, "-2**63-1": -2**63 - 1, "2**64": 2**64, "2**64-1": 2**64 - 1}


def special_lines(doc: dict, key: str) -> dict:
    """Lines that orjson refuses or reads otherwise than json, or that
    str.strip() blanks, each made from the JSON object `doc` and its list
    field `key`.  A lone surrogate stands for a byte that is not UTF-8."""
    text = json.dumps(doc)
    return {**{f"{key}-{name}": edited(doc, key, 0, str(v)) for name, v in BIG_INTS.items()},
            # a message that prints the field: its int as json reads it
            f"{key}-2**64-and-true": json.dumps({**doc, key: [2**64, True, *doc[key][2:]]}),
            "1e999": edited(doc, key, 0, "1e999"),
            "NaN": edited(doc, key, 0, "NaN"),
            "surrogate-escape": text[:-1] + ', "note": "\\ud800"}',
            "not-utf8": text[:-1] + ', "note": "\udcff"}',
            "duplicated-key": text[:-1] + f', "{key}": {json.dumps(doc[key][::-1])}}}',
            "bad-then-good-duplicate": f'{{"{key}": "x", ' + text[1:],
            "bom": "\ufeff" + text,
            "x1c-only": "\x1c",
            "ideographic-space-only": "\u3000",
            "deep-extra-key": text[:-1] + f', "note": {DEEP}}}',
            "deep-duplicated-key": f'{{"{key}": {DEEP}, ' + text[1:]}


ROW_LINES = {**special_lines(ROW, "features"),
             **{f"subject-{name}": json.dumps({**ROW, "subject": v}) for name, v in BIG_INTS.items()}}
RECORD_LINES = {**special_lines(RECORD, "gaze"),
                **{f"point-{name}": edited(RECORD, "point", 1, str(v)) for name, v in BIG_INTS.items()}}


def write_lines(path, lines):
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))


def loaded(path) -> tuple:
    """What load_dataset gives for `path`: the bits of its columns, or its error."""
    try:
        d = load_dataset(path)
    except ConfigError as exc:
        return ("error", str(exc))
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in (d.features, d.labels, d.boxes, d.subjects))


def assert_loads_alike(path, line):
    write_lines(path, [HEADER, json.dumps(ROW), line, json.dumps(ROW)])
    shipped, by_json = as_shipped_and_by_json(lambda: loaded(path))
    assert shipped == by_json


@pytest.mark.parametrize("case", sorted(ROW_LINES))
def test_load_dataset_reads_a_special_row_as_json_does(tmp_path, case):
    assert_loads_alike(tmp_path / "d.jsonl", ROW_LINES[case])


@FUZZ
@given(field=st.sampled_from(sorted(ROW) + ["note"]), value=json_values)
def test_load_dataset_reads_a_fuzzed_row_as_json_does(fuzz_dir, field, value):
    assert_loads_alike(fuzz_dir / "d.jsonl", json.dumps({**ROW, field: value}))


def assert_converts_alike(path, line):
    """convert, both ways, gives the same output for `line` between two valid records."""
    transform = path.with_suffix(".transform.json")
    c, s = math.cos(0.3), math.sin(0.3)   # a camera tilted 0.3 rad about x, 18 cm below the screen
    transform.write_text(json.dumps({"R": [1, 0, 0, 0, c, -s, 0, s, c], "t": [20.0, 180.0, -15.0]}))
    write_lines(path, [json.dumps(RECORD), line, json.dumps(RECORD)])
    out = path.with_suffix(".out")
    for direction in ("pogz2pog", "pog2pogz"):
        def converted():
            code = cli.main(["convert", "--dir", direction, "--transform", str(transform),
                             "--input", str(path), "--output", str(out)])
            return code, out.read_text()
        shipped, by_json = as_shipped_and_by_json(converted)
        assert shipped == by_json, direction


@pytest.mark.parametrize("case", sorted(RECORD_LINES))
def test_convert_reads_a_special_record_as_json_does(tmp_path, case):
    assert_converts_alike(tmp_path / "in.jsonl", RECORD_LINES[case])


@FUZZ
@given(field=st.sampled_from(["point", "gaze", "behind", "note"]), value=json_values)
def test_convert_reads_a_fuzzed_record_as_json_does(fuzz_dir, field, value):
    assert_converts_alike(fuzz_dir / "in.jsonl", json.dumps({**RECORD, field: value}))


def test_read_block_decodes_with_json_once_only_what_orjson_cannot_answer_for(monkeypatch):
    """orjson reads every line; decode_json reads, once each, only a line
    orjson refuses (NaN, 1e999), one nested past one object and a list per
    field, one `read` rejects, and one whose values fail the columns, and
    gives each its fault or, passing, its own value."""
    decoded = []
    def spy(text):
        decoded.append(text)
        return decode_json(text)
    monkeypatch.setattr(jsonl, "decode_json", spy)
    def read(d):
        if d["v"] == [2]:
            raise ValueError("rejected")
        return (d["v"],), d.get("id")
    lines = ['{"v": [1.5], "id": 0}',
             '{"v": [NaN]}',
             '{"v": [1e999]}',                    # orjson refuses it; json reads inf
             '{"v": [[1]]}',                      # one list too many
             '{"v": [2]}',                        # read rejects it
             '{"v": [true]}',                     # fails the columns
             '{"v": [2.5], "id": 6}',
             '{"v": [3.5], "id": 7, "x": [[]]}']  # nested past the gate, yet a valid row
    rows, columns, passed, faults = jsonl.read_block(enumerate(lines), read, {"v": 1})
    assert decoded == lines[1:6] + lines[7:]
    assert passed.tolist() == [True, False, False, False, False, False, True, True]
    assert [(i, own) for (i, own, _), ok in zip(rows, passed) if ok] == [(0, 0), (6, 6), (7, 7)]
    assert columns[passed].tolist() == [[1.5], [2.5], [3.5]]
    assert [(i, str(exc)) for i, exc in faults] == [
        (1, "non-finite value NaN"), (2, "v must be finite, got [inf]"),
        (3, "v must be a flat list of 1 JSON numbers, got [[1]]"), (4, "rejected"),
        (5, "v must be a flat list of 1 JSON numbers, got [True]")]


def test_a_rejected_line_is_reported_with_the_values_json_reads(tmp_path):
    """orjson reads 2**64 as a float; the message shows json's integer."""
    data = tmp_path / "d.jsonl"
    write_lines(data, [HEADER, ROW_LINES["features-2**64-and-true"]])
    with pytest.raises(ConfigError) as info:
        load_dataset(data)
    assert str(info.value) == (f"{data}:2: features must be a flat list of 7 JSON numbers, "
                               f"got {[2**64, True, *ROW['features'][2:]]!r}")
    assert_converts_alike(tmp_path / "in.jsonl", RECORD_LINES["gaze-2**64-and-true"])
    error = json.loads((tmp_path / "in.out").read_text().splitlines()[1])
    assert error == {"error": "gaze must be a flat list of 3 JSON numbers, got [18446744073709551616, True, -1.0]",
                     "line": 1}


def test_a_value_that_is_no_json_number_rereads_only_its_own_row(tmp_path, monkeypatch):
    """A `true` in one row of a 256-line block fails that row alone in the
    column check: the stdlib decoder reads only that line again, in a
    dataset and in `convert`."""
    rereads = []
    def spy(text):
        rereads.append(text)
        return decode_json(text)
    monkeypatch.setattr(jsonl, "decode_json", spy)
    bad_row = json.dumps({**ROW, "g_n": [True, 0.0]})
    data = tmp_path / "d.jsonl"
    write_lines(data, [HEADER] + [json.dumps(ROW)] * 100 + [bad_row] + [json.dumps(ROW)] * 155)
    with pytest.raises(ConfigError) as info:
        load_dataset(data)
    assert str(info.value) == f"{data}:102: g_n must be a flat list of 2 JSON numbers, got [True, 0.0]"
    assert rereads == [bad_row + "\n"]

    rereads.clear()
    bad_record = json.dumps({**RECORD, "point": [35.5, True]})
    lines = [json.dumps(RECORD)] * 100 + [bad_record] + [json.dumps(RECORD)] * 155
    out = convert_lines(list(enumerate(lines)), "pogz2pog", RigidTransform(Rotation3(np.eye(3)), np.zeros(3)))
    assert out.splitlines()[100] == json.dumps({"error": "point must be a flat list of 2 JSON numbers, got [35.5, True]",
                                                "line": 100}, sort_keys=True)
    assert rereads == [bad_record]


# each fault kind of the value rule: a JSON literal put first in a 3-value
# field, or the field's text, and the message it gives, `name` the field
VALUE_FAULTS = {
    "nested-list": ("[[1.0], 0.0, 600.0]", "{name} must be a flat list of 3 JSON numbers, got [[1.0], 0.0, 600.0]"),
    "bool": ("[true, 0.0, 600.0]", "{name} must be a flat list of 3 JSON numbers, got [True, 0.0, 600.0]"),
    "string": ('["1", 0.0, 600.0]', "{name} must be a flat list of 3 JSON numbers, got ['1', 0.0, 600.0]"),
    "null": ("[null, 0.0, 600.0]", "{name} must be a flat list of 3 JSON numbers, got [None, 0.0, 600.0]"),
    "int-10**400": (f"[{10**400}, 0.0, 600.0]",
                    f"{{name}} has an integer too large for a float, got [{10**400}, 0.0, 600.0]"),
    # refused as it is parsed, before any field is known
    "NaN": ("[NaN, 0.0, 600.0]", "non-finite value NaN"),
    "1e999": ("[1e999, 0.0, 600.0]", "{name} must be finite, got [inf, 0.0, 600.0]"),
    "2e9": ("[2e9, 0.0, 600.0]", "{name} values must be at most 1e+09 in magnitude, got [2000000000.0, 0.0, 600.0]"),
    "wrong-length": ("[0.0, 600.0]", "{name} has 2 values, expected 3"),
}


def with_field(doc: dict, key: str, text: str) -> str:
    """The JSON text of `doc` with field `key` written as `text`."""
    return json.dumps({**doc, key: "@"}).replace('"@"', text)


@pytest.mark.parametrize("kind", sorted(VALUE_FAULTS))
def test_a_row_a_record_and_a_transform_word_each_value_fault_alike(tmp_path, kind):
    """The same bad field in a dataset row's `o_face`, a convert record's
    `gaze` and a transform's `t` gives one message, naming its own field."""
    text, template = VALUE_FAULTS[kind]
    data = tmp_path / "d.jsonl"
    write_lines(data, [HEADER, with_field(ROW, "o_face", text)])
    with pytest.raises(ConfigError) as info:
        load_dataset(data)
    assert str(info.value) == f"{data}:2: {template.format(name='o_face')}"

    transform = RigidTransform(Rotation3(np.eye(3)), np.zeros(3))
    out = convert_lines([(0, with_field(RECORD, "gaze", text))], "pogz2pog", transform)
    assert json.loads(out) == {"error": template.format(name="gaze"), "line": 0}

    path = tmp_path / "t.json"
    path.write_text(with_field({"R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]}, "t", text))
    with pytest.raises(ConfigError) as info:
        RigidTransform.load(path)
    assert str(info.value) == f"{path}: {template.format(name='t')}"


@pytest.mark.parametrize("line", ["\u3000", "\x1c", "\x0c", "\x85", "\u2028"])
def test_only_a_line_of_json_whitespace_is_blank(tmp_path, line):
    """A line of space, tab and "\\r" gives no record and no row; a line of
    any other whitespace is read, and fails as JSON, in convert and in a
    dataset alike."""
    message = "Expecting value: line 1 column 1 (char 0)"
    transform = RigidTransform(Rotation3(np.eye(3)), np.zeros(3))
    out = convert_lines([(0, json.dumps(RECORD) + "\n"), (1, " \t\r\n"), (2, line + "\n")], "pogz2pog", transform)
    assert [json.loads(text) for text in out.splitlines()][1:] == [{"error": message, "line": 2}]
    data = tmp_path / "d.jsonl"
    write_lines(data, [HEADER, json.dumps(ROW), " \t\r", line, json.dumps(ROW)])
    with pytest.raises(ConfigError) as info:
        load_dataset(data)
    assert str(info.value) == f"{data}:4: {message}"


def repr_rows(A: np.ndarray) -> list[str]:
    return [", ".join(map(repr, row)) for row in A.tolist()]


@FUZZ
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_number_rows_writes_each_rows_reprs(A):
    assert jsonl.number_rows(A) == repr_rows(A)


# the ends of the range where orjson's text is repr's, and the extremes
EDGES = [1e-4, np.nextafter(1e-4, 0.0), 9999999999999998.0, 1e16, 0.0, -0.0, 5e-324, sys.float_info.max]


def test_number_rows_writes_a_million_values_as_repr_does():
    """Log-uniform magnitudes on both sides of the range where orjson's text is
    taken, random bit patterns and the edges, each in a row alone; a part of
    them four to a row, and in a non-contiguous view."""
    rng = np.random.default_rng(23)
    magnitudes = 10.0 ** rng.uniform(-6.0, 18.0, 900_000)
    bits = rng.integers(0, 2**64, 120_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([EDGES, np.negative(EDGES), magnitudes * rng.choice([-1.0, 1.0], len(magnitudes)),
                             bits[np.isfinite(bits)]])
    assert len(values) >= 10**6
    low, high = jsonl.FAST_MAGNITUDES
    assert ((np.abs(values) >= low) & (np.abs(values) < high)).mean() > 0.5   # most take orjson's text
    assert jsonl.number_rows(values[:, None]) == list(map(repr, values.tolist()))
    four = np.concatenate([values[:40_000], values[-40_000:]]).reshape(-1, 4)
    assert not four[:, ::2].flags.c_contiguous
    for A in (four, four[:, ::2]):
        assert jsonl.number_rows(A) == repr_rows(A)


def test_number_rows_writes_no_row_and_non_finite_values_as_json_does():
    assert jsonl.number_rows(np.zeros((0, 3))) == []
    assert jsonl.number_rows(np.zeros((2, 0))) == ["", ""]
    A = np.array([[math.nan, 1.0], [2.0, -math.inf]])
    assert jsonl.number_rows(A) == [jsonl.LINE_ENCODER.encode(row)[1:-1] for row in A.tolist()]


def test_orjson_writes_a_block_of_rows_per_call(tmp_path, monkeypatch):
    """convert_lines formats a block's gazes and its points in one call each,
    generate_dataset each of a block's 7 float fields in one call: the calls
    per block are fixed, not one per record or row."""
    sizes, dumps = [], jsonl._dumps
    def spy(A, **kwargs):
        sizes.append(len(A))
        return dumps(A, **kwargs)
    monkeypatch.setattr(jsonl, "_dumps", spy)
    transform = RigidTransform(Rotation3(np.eye(3)), np.array([0.0, 0.0, 10.0]))
    lines = [json.dumps(RECORD) + "\n"] * (2 * jsonl.BLOCK_LINES + 5)
    for start in range(0, len(lines), jsonl.BLOCK_LINES):
        convert_lines(enumerate(lines[start:start + jsonl.BLOCK_LINES], start), "pog2pogz", transform)
    assert sizes == [jsonl.BLOCK_LINES] * 4 + [5] * 2
    sizes.clear()
    generate_dataset(SceneConfig(seed=5), make_subjects(2, seed=5), 200, "general", tmp_path / "d.jsonl")
    assert sizes == [jsonl.BLOCK_LINES] * 7 + [400 - jsonl.BLOCK_LINES] * 7
