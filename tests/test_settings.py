"""The config dataclasses have one dict form, dataclasses.asdict, and one
reader, errors.from_dict, which types every field through errors.cast: in
`--config`, at every depth of gen's scene, and in a dataset header's
intrinsics."""

import argparse
import dataclasses
import json
import math
import typing
from dataclasses import asdict, dataclass

import pytest

import oracles

from gaze6d import cli
from gaze6d.camera import CameraIntrinsics
from gaze6d.errors import (BAD_INPUT, COUNT, ConfigError, InvalidIntrinsicsError, cast, field_types, from_dict,
                           range_bounds)
from gaze6d.model import LossWeights, TrainConfig, init_params, save_params
from gaze6d.synth import (DEFAULT_INTRINSICS, ClippedGaussian, SceneConfig, Subject, generate_dataset,
                          load_dataset, make_subjects)

OTHER_INTRINSICS = CameraIntrinsics(focal_px=700.0, cx=330.5, cy=250.0, k_mm_per_px=0.004, width=660, height=500)
OTHER_WEIGHTS = LossWeights(g_n=0.5, g_o=0.25, pogz=0.0, r_on=1.5, face=2.0)

# a default and a non-default instance of each config dataclass
INSTANCES = {
    "gaussian-default": SceneConfig().gaze_yaw,
    "gaussian-other": ClippedGaussian(-0.2, 0.5, -1.25, 1.5),
    "subject-default": Subject(0),
    "subject-other": Subject(7, kappa_yaw=0.05, kappa_pitch=-0.125, noise_sigma=0.01),
    "scene-default": SceneConfig(),
    "scene-other": SceneConfig(gaze_yaw=ClippedGaussian(0.1, 0.2, -0.5, 0.75),
                               gaze_pitch=ClippedGaussian(-0.05, 0.15, -0.4, 0.6),
                               head_yaw=ClippedGaussian(0.0, 0.3, -1.0, 1.0),
                               head_pitch=ClippedGaussian(0.02, 0.1, -0.5, 0.5),
                               depth_lo=450.0, depth_hi=750.0, face_size_mm=150.0,
                               intrinsics=OTHER_INTRINSICS, seed=11),
    "intrinsics-default": DEFAULT_INTRINSICS,
    "intrinsics-other": OTHER_INTRINSICS,
    "weights-default": LossWeights(),
    "weights-other": OTHER_WEIGHTS,
    "train-default": TrainConfig(),
    "train-other": TrainConfig(lr=3e-4, batch_size=32, epochs=7, seed=9, weights=OTHER_WEIGHTS, val_fraction=0.25,
                               finetune_lr=2e-5, finetune_steps=40, finetune_batch=4, calibration_fraction=0.5),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_asdict_writes_the_bytes_of_the_reference_dict_form(name):
    obj = INSTANCES[name]
    want = oracles.reference_config_dict(obj)
    assert json.dumps(asdict(obj), sort_keys=True) == json.dumps(want, sort_keys=True)
    assert json.dumps(asdict(obj)) == json.dumps(want)   # the key order too


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_from_dict_reads_back_what_asdict_wrote(name):
    obj = INSTANCES[name]
    assert from_dict(type(obj), asdict(obj), name) == obj
    back = from_dict(type(obj), json.loads(json.dumps(asdict(obj))), name)
    assert back == obj and asdict(back) == asdict(obj)


def test_from_dict_resolves_each_class_s_field_types_once(monkeypatch):
    from_dict(TrainConfig, asdict(TrainConfig()), "train")

    def no_resolving(*args, **kwargs):
        raise AssertionError("field types resolved again")

    monkeypatch.setattr(typing, "get_type_hints", no_resolving)
    assert from_dict(TrainConfig, asdict(INSTANCES["train-other"]), "train") == INSTANCES["train-other"]


@pytest.mark.parametrize("kind, value, want", [
    (float, 600, 600.0), (float, "600", 600.0), (float, 1e-3, 1e-3),
    (int, 640.0, 640), (int, "640", 640), (int, 640, 640), (str, "a", "a"),
])
def test_cast_takes_a_number_or_a_numeric_string(kind, value, want):
    got = cast(kind, value)
    assert got == want and type(got) is kind


@pytest.mark.parametrize("kind, value, message", [
    (float, True, "expected a number, got True"),
    (int, False, "expected a number, got False"),
    (int, 640.7, "expected an integer, got 640.7"),
    (float, "abc", "could not convert string to float: 'abc'"),
    (float, None, "float() argument must be"),
    (str, 1, "expected a string, got 1"),
])
def test_cast_rejects_a_bool_a_fraction_for_an_int_and_a_non_number(kind, value, message):
    with pytest.raises(BAD_INPUT) as info:
        cast(kind, value)
    assert str(info.value).startswith(message)


def test_from_dict_names_a_missing_or_bad_field_by_its_key_path():
    scene = asdict(SceneConfig())
    del scene["intrinsics"]["height"]
    with pytest.raises(ConfigError, match=r"^scene\.intrinsics: missing key 'height'$"):
        from_dict(SceneConfig, scene, "scene")
    scene = asdict(SceneConfig())
    scene["gaze_pitch"]["lo"] = "low"
    with pytest.raises(ConfigError, match=r"^scene\.gaze_pitch\.lo: could not convert string to float: 'low'$"):
        from_dict(SceneConfig, scene, "scene")
    scene["gaze_pitch"]["lo"] = 2.0
    with pytest.raises(ConfigError, match=r"^scene\.gaze_pitch: empty range \[2\.0, 0\.84\]$"):
        from_dict(SceneConfig, scene, "scene")


# ---------------------------------------------------------------------------
# the one range rule: each numeric field of a config dataclass states its range


# a valid instance of each config dataclass, from which each field can reach
# either end of its range alone: a principal point at the origin lies in an
# image of any size
RANGED = {
    ClippedGaussian: ClippedGaussian(0.0, 1.0, -1.0, 1.0), Subject: Subject(0), SceneConfig: SceneConfig(),
    CameraIntrinsics: CameraIntrinsics(600.0, 0.0, 0.0, 0.005, 640, 480), LossWeights: LossWeights(),
    TrainConfig: TrainConfig(),
}


@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in RANGED for f in dataclasses.fields(cls) if field_types(cls)[f.name] in (int, float)])
def test_every_numeric_setting_states_its_range_and_holds_its_ends(cls, field):
    """NaN, a value just past each end (an open end itself) and, where the
    range says finite, each infinity raise the class's error naming the
    field; each closed end constructs."""
    assert "range" in field.metadata, f"{cls.__name__}.{field.name} states no range"
    rule, kind = field.metadata["range"], field_types(cls)[field.name]
    finite, lo, lo_open, hi, hi_open = range_bounds(rule)
    error = InvalidIntrinsicsError if cls is CameraIntrinsics else ConfigError
    bad = [math.nan] + ([-math.inf, math.inf] if finite else [])
    for end, is_open, outward in ((lo, lo_open, -1), (hi, hi_open, 1)):
        if math.isinf(end):
            continue
        end = kind(end)
        if is_open:
            bad.append(end)
            continue
        assert getattr(dataclasses.replace(RANGED[cls], **{field.name: end}), field.name) == end
        bad.append(end + outward if kind is int else math.nextafter(end, outward * math.inf))
    for value in bad:
        with pytest.raises(error) as info:
            dataclasses.replace(RANGED[cls], **{field.name: value})
        assert str(info.value) == f"{field.name} must be {rule}, got {value}"


# ---------------------------------------------------------------------------
# a dataset header's intrinsics


def header_with_intrinsic(tmp_path, key, value):
    path = tmp_path / "data.jsonl"
    generate_dataset(SceneConfig(seed=14), make_subjects(1, seed=14), 2, "general", path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["intrinsics"][key] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return path


@pytest.mark.parametrize("key, value, message", [
    ("focal_px", True, "config.intrinsics.focal_px: expected a number, got True"),
    ("width", 640.7, "config.intrinsics.width: expected an integer, got 640.7"),
    ("cx", "abc", "config.intrinsics.cx: could not convert string to float: 'abc'"),
    ("height", False, "config.intrinsics.height: expected a number, got False"),
])
def test_a_header_intrinsic_of_the_wrong_type_names_line_1(tmp_path, key, value, message):
    path = header_with_intrinsic(tmp_path, key, value)
    with pytest.raises(ConfigError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("key, value, want", [
    ("focal_px", "600", 600.0), ("focal_px", 600, 600.0), ("width", 640.0, 640), ("width", "640", 640),
])
def test_a_header_intrinsic_loads_from_a_number_or_a_numeric_string(tmp_path, key, value, want):
    intr = load_dataset(header_with_intrinsic(tmp_path, key, value)).intrinsics
    assert getattr(intr, key) == want and type(getattr(intr, key)) is type(want)
    assert intr == DEFAULT_INTRINSICS


# ---------------------------------------------------------------------------
# gen's scene: a nested setting, merged key by key and read through the same rule


def run(*argv):
    return cli.main([str(a) for a in argv])


def full_scene(path, value):
    """A complete scene config, every key present, with the key path `path` set to `value`."""
    scene = asdict(SceneConfig())
    inner = scene
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return {"scene": scene}


@pytest.mark.parametrize("path, value, message", [
    (("face_size_mm",), True, "scene.face_size_mm: expected a number, got True"),
    (("intrinsics", "width"), 640.9, "scene.intrinsics.width: expected an integer, got 640.9"),
    (("gaze_yaw", "mean"), "x", "scene.gaze_yaw.mean: could not convert string to float: 'x'"),
    (("seed",), 1.5, "scene.seed: expected an integer, got 1.5"),
    (("depth_lo",), 900.0, "scene: bad depth range [900.0, 800.0]"),
    # NaN and Infinity are refused as the file is parsed, before any file is written
    pytest.param(("depth_hi",), math.inf, "non-finite value Infinity",
                 id="path5-inf-scene: depth_hi must be finite, got inf"),
    pytest.param(("gaze_yaw", "std"), math.nan, "non-finite value NaN",
                 id="path6-nan-scene.gaze_yaw: std must be finite, got nan"),
    pytest.param(("intrinsics", "focal_px"), math.inf, "non-finite value Infinity",
                 id="path7-inf-scene.intrinsics: focal_px must be finite, got inf"),
    # a JSON integer too large for a float would reach the first draw, after config.json
    (("intrinsics", "width"), 10**400, "scene.intrinsics: int too large to convert to float"),
])
def test_a_bad_scene_value_exits_2_naming_the_key_before_the_snapshot(tmp_path, capsys, path, value, message):
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(full_scene(path, value)))
    out = tmp_path / "run"
    assert run("gen", "--subjects", "1", "--frames", "2", "--config", config, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {config}: {message}\n" and captured.out == ""
    assert not out.exists()


# refused as the header is parsed; the ids are those of the message each gave
# when a header was read by json.loads
@pytest.mark.parametrize("key, value, message", [
    pytest.param("focal_px", math.inf, "non-finite value Infinity",
                 id="focal_px-inf-config.intrinsics: focal_px must be finite, got inf"),
    pytest.param("k_mm_per_px", math.nan, "non-finite value NaN",
                 id="k_mm_per_px-nan-config.intrinsics: k_mm_per_px must be finite, got nan"),
])
def test_a_non_finite_header_intrinsic_names_line_1(tmp_path, key, value, message):
    path = header_with_intrinsic(tmp_path, key, value)
    with pytest.raises(ConfigError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:1: {message}"


@dataclass(frozen=True)
class IntDefault:
    rate: float = 1   # a float field whose default is written as an int


def test_a_dataclass_setting_takes_its_field_type_not_its_default_s():
    """--config types a config dataclass's setting as from_dict does, by its
    field's annotation, at the top level and nested."""
    defaults = {"rate": 1, "nested": asdict(IntDefault()), "count": 1}
    cfg = {"rate": 0.5, "nested": {"rate": "0.25"}, "count": "2"}
    got = cli._settings(argparse.Namespace(), cfg, defaults,
                        dataclasses.make_dataclass("Outer", [("rate", float), ("nested", IntDefault)]))
    assert got == {"rate": 0.5, "nested": {"rate": 0.25}, "count": 2}
    assert type(got["count"]) is int   # no field: its default's type
    with pytest.raises(ConfigError, match=r"^count: expected an integer, got 1\.5$"):
        cli._settings(argparse.Namespace(), {"count": 1.5}, defaults,
                      dataclasses.make_dataclass("Outer", [("rate", float), ("nested", IntDefault)]))


def test_a_partial_scene_merges_over_the_defaults_and_runs_with_gen_s_seed(tmp_path):
    config = tmp_path / "scene.json"
    config.write_text(json.dumps({"seed": 3, "scene": {"depth_lo": 450, "intrinsics": {"focal_px": "650"},
                                                       "seed": 99}}))
    out = tmp_path / "run"
    assert run("gen", "--subjects", "1", "--frames", "2", "--config", config, "--out", out) == 0
    ran = SceneConfig(depth_lo=450.0, intrinsics=CameraIntrinsics(650.0, 320.0, 240.0, 0.005, 640, 480), seed=3)
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["scene"] == asdict(ran)
    assert load_dataset(out / "dataset.jsonl").header["config"] == asdict(ran)
    # the snapshot replays the run
    assert run("gen", "--config", out / "config.json", "--out", tmp_path / "replay") == 0
    for name in ("config.json", "dataset.jsonl"):
        assert (tmp_path / "replay" / name).read_bytes() == (out / name).read_bytes(), name


# ---------------------------------------------------------------------------
# the source rule: every setting is checked where the command reads its
# settings, before the run directory; a fault in a value from the --config
# file names the file, one in a flag's value reads as the flag's alone


@pytest.fixture(scope="module")
def valid_argv(tmp_path_factory):
    """Each command's flags for a run that would succeed: a 3-row dataset, a
    2-row calibration set of the same subject, and untrained params."""
    root = tmp_path_factory.mktemp("inputs")
    run("gen", "--subjects", "1", "--frames", "3", "--seed", "2", "--out", root / "gen")
    run("gen", "--mode", "calibration", "--subjects", "1", "--frames", "2", "--seed", "2", "--out", root / "calib")
    save_params(init_params(seed=0), root / "params.json")
    flags = {"gen": {"--subjects": 1, "--frames": 2},
             "train": {"--data": root / "gen" / "dataset.jsonl", "--epochs": 1},
             "finetune": {"--params": root / "params.json", "--calib": root / "calib" / "dataset.jsonl",
                          "--finetune-steps": 1}}

    def argv(command, without=None):
        """The command and its flags, but for the flag `without`, so that the file may set its setting."""
        return [command, *(a for flag, value in flags[command].items() if flag != without for a in (flag, value))]

    return argv


def run_faulty(tmp_path, capsys, argv, config=None) -> str:
    """The stderr of a run of `argv` with the --config object `config`, given
    as text or as an object, which must exit 2 before its run directory."""
    out = tmp_path / "run"
    if config is not None:
        path = tmp_path / "c.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = [*argv, "--config", path]
    capsys.readouterr()
    assert run(*argv, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("command, text, message", [
    ("train", '{"command": NaN, "epochs": 1}', "non-finite value NaN"),
    ("train", '{"lr": NaN}', "non-finite value NaN"),
    ("train", '{"lr": -1}', "lr must be finite and >= 0, got -1.0"),
    ("train", '{"weights": {"g_n": -1}}', "weights: g_n must be finite and >= 0, got -1.0"),
    ("train", '{"folds": -1}', "folds must be in [0, 2147483647], got -1"),
    ("gen", '{"frames": -1}', "frames must be in [0, 2147483647], got -1"),
    ("gen", '{"scene": {"face_size_mm": -1}}', "scene: face_size_mm must be finite and > 0, got -1.0"),
    ("train", '{"data": 3}', "data: expected a string, got 3"),
    ("gen", '{"mode": "bogus"}', "mode: expected 'general' or 'calibration', got 'bogus'"),
    # a snapshot's command key must be the command that replays it
    ("train", '{"command": "eval", "seed": 4}', "command: expected 'train', got 'eval'"),
    ("train", '{"command": 5}', "command: expected 'train', got 5"),
    ("finetune", '{"command": "train"}', "command: expected 'finetune', got 'train'"),
])
def test_a_bad_config_value_exits_2_naming_the_file_before_the_run_directory(tmp_path, capsys, valid_argv,
                                                                              command, text, message):
    argv = valid_argv(command, without=f"--{next(iter(json.loads(text)))}")
    assert run_faulty(tmp_path, capsys, argv, text) == f"error: {tmp_path / 'c.json'}: {message}\n"


def number_settings(defaults, cls=None, path=()):
    """(key path, type, range) of each number setting in a SETTINGS table at
    any depth: a field's of the config dataclass `cls`, else its default's
    type and its cli.RULES entry."""
    fields = {f.name: f for f in dataclasses.fields(cls)} if cls else {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from number_settings(default, field_types(cls)[key] if key in fields else cli.RULES[key],
                                       path + (key,))
        elif key in fields:
            yield path + (key,), field_types(cls)[key], fields[key].metadata.get("range")
        elif type(default) in (int, float):
            yield path + (key,), type(default), cli.RULES.get(key)


NUMBER_SETTINGS = [(command, *setting) for command in ("gen", "train", "finetune")
                   for setting in number_settings(cli.SETTINGS[command], TrainConfig if command != "gen" else None)]


def outside(kind, rule):
    """A finite value of type `kind` just outside the range `rule` words, or
    None where the range has no finite end."""
    finite, lo, lo_open, hi, hi_open = range_bounds(rule)
    for end, is_open, outward in ((lo, lo_open, -1), (hi, hi_open, 1)):
        if math.isfinite(end):
            end = kind(end)
            return end if is_open else end + outward if kind is int else math.nextafter(end, outward * math.inf)
    return None


def flag_of(command, key):
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command").choices[command]
    return next((a.option_strings[0] for a in sub._actions if a.dest == key and a.option_strings), None)


@pytest.mark.parametrize("command, path, kind, rule", [
    pytest.param(*setting, id=f"{setting[0]}-{'.'.join(setting[1])}") for setting in NUMBER_SETTINGS])
def test_a_setting_out_of_its_range_is_named_by_its_source(tmp_path, capsys, valid_argv, command, path, kind, rule):
    """Every number setting states a range.  A finite value just outside it
    gives the range fault, `[<parent path>: ]<key> must be <range>, got
    <value>`: as it is through the setting's flag, after `<file>: ` through
    --config, and as the flag's where both give it.  1e999 in the file reads
    as inf, which no number setting takes, and is named with the file."""
    assert isinstance(rule, str), f"{command} {'.'.join(path)} states no range"
    # a scene field has no flag of its own: the scene's seed is gen's --seed
    flag = flag_of(command, path[-1]) if path[0] != "scene" else None
    argv, config = valid_argv(command, without=flag), tmp_path / "c.json"
    value = outside(kind, rule)
    if value is not None:
        parent = ".".join(path[:-1])
        message = f"{parent + ': ' if parent else ''}{path[-1]} must be {rule}, got {value}"
        assert run_faulty(tmp_path, capsys, argv, nested(path, value)) == f"error: {config}: {message}\n"
        if flag is not None:
            flagged = [*argv, f"{flag}={value}"]
            assert run_faulty(tmp_path, capsys, flagged) == f"error: {message}\n"
            assert run_faulty(tmp_path, capsys, flagged, nested(path, value)) == f"error: {message}\n"
    text = json.dumps(nested(path, 12345.5)).replace("12345.5", "1e999")
    err = run_faulty(tmp_path, capsys, argv, text)
    assert err.startswith(f"error: {config}: ") and "inf" in err, err


COUNT_SETTINGS = [setting for setting in NUMBER_SETTINGS if setting[3] == COUNT]


def test_the_count_settings_are_the_counts_of_gen_train_and_finetune():
    flagged = {("gen", "subjects"), ("gen", "frames"), ("train", "epochs"), ("train", "folds"),
               ("finetune", "finetune_steps")}
    assert {(command, ".".join(path)) for command, path, _, _ in COUNT_SETTINGS} >= flagged
    assert all(flag_of(command, key) is not None for command, key in flagged)
    assert all(kind is int for _, _, kind, _ in COUNT_SETTINGS)
    assert range_bounds(COUNT) == (False, 0.0, False, 2147483647.0, False)


@pytest.mark.parametrize("value", [2147483648, 10**30], ids=["one-past", "1e30"])
@pytest.mark.parametrize("command, path, kind, rule", [
    pytest.param(*setting, id=f"{setting[0]}-{'.'.join(setting[1])}") for setting in COUNT_SETTINGS])
def test_a_count_past_its_upper_bound_exits_2_by_flag_and_by_file(tmp_path, capsys, valid_argv,
                                                                    command, path, kind, rule, value):
    """A count (frames, subjects, epochs, steps, folds) is at most 2147483647.
    One past that, or 10**30, exits 2 before the run directory: after
    `<file>: ` through --config, and as the flag's own text through its
    flag, where the command has one."""
    flag = flag_of(command, path[-1])
    argv, config = valid_argv(command, without=flag), tmp_path / "c.json"
    message = f"{path[-1]} must be in [0, 2147483647], got {value}"
    assert run_faulty(tmp_path, capsys, argv, nested(path, value)) == f"error: {config}: {message}\n"
    if flag is not None:
        assert run_faulty(tmp_path, capsys, [*argv, f"{flag}={value}"]) == f"error: {message}\n"


def nested(path, value):
    """The config object that sets the key path `path` to `value`."""
    for key in reversed(path):
        value = {key: value}
    return value
