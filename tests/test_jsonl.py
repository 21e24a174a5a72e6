"""The one JSONL line decoder: orjson reads a line, and the stdlib decoder
reads again, and answers for, any line orjson refuses or whose value a
reader rejects.  Every dataset and convert input must load, convert and fail
as it does with the stdlib decoder alone."""

import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzz import FUZZ, json_values
from gaze6d import cli, jsonl
from gaze6d.errors import ConfigError
from gaze6d.synth import SceneConfig, Subject, dataset_header, frame_rng, load_dataset, sample_frame

_CFG = SceneConfig(seed=21)
HEADER = json.dumps(dataset_header(_CFG, [Subject(0)], 2, "general"))
ROW = sample_frame(Subject(0), _CFG, frame_rng(21, 0, 0)).to_dict()
RECORD = {"point": [35.5, -120.25], "gaze": [0.1, -0.2, -1.0]}
DEEP = "[" * 5000 + "]" * 5000   # valid JSON nested beyond json's recursion limit


def refuse(line):
    raise ValueError("refused")


def as_shipped_and_by_json(outcome):
    """outcome(), once with decode_line as shipped and once with orjson
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


def test_decode_line_reads_with_json_only_what_orjson_cannot_answer_for():
    decoded = []
    def decode(line):
        decoded.append(line)
        return json.loads(line)
    def read(value):
        if value == [2]:
            raise ValueError("rejected")
        return value
    assert jsonl.decode_line("[1.5, 10]", read, decode, 1) == [1.5, 10]
    assert math.isnan(jsonl.decode_line("[NaN]", read, decode, 1)[0])   # orjson refuses NaN
    assert jsonl.decode_line("[[1]]", read, decode, 1) == [[1]]          # one container too many
    with pytest.raises(ValueError, match="rejected"):
        jsonl.decode_line("[2]", read, decode, 1)
    assert decoded == ["[NaN]", "[[1]]", "[2]"]


def test_a_rejected_line_is_reported_with_the_values_json_reads(tmp_path):
    """orjson reads 2**64 as a float; the message shows json's integer."""
    data = tmp_path / "d.jsonl"
    write_lines(data, [HEADER, ROW_LINES["features-2**64-and-true"]])
    with pytest.raises(ConfigError, match=r":2: features must be a flat list of 7 numbers, "
                                          r"got \[18446744073709551616, True, "):
        load_dataset(data)
    assert_converts_alike(tmp_path / "in.jsonl", RECORD_LINES["gaze-2**64-and-true"])
    error = json.loads((tmp_path / "in.out").read_text().splitlines()[1])
    assert error["line"] == 1 and "gaze [18446744073709551616, True, -1.0]" in error["error"]
