"""Config ingestion: strict schema and defaults."""

import json
import math

import pytest

from freespectra import Nonlinearity
from freespectra.config import ConfigError, load_config, parse_run_config

MINIMAL = {"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0}]}}
LAYER = MINIMAL["network"]["layers"][0]


def with_layer(**fields):
    return {"network": {"layers": [dict(LAYER, **fields)]}}


def with_section(key, value):
    return dict(MINIMAL) | {key: value}


def test_defaults_fill_in():
    cfg = parse_run_config(MINIMAL)
    assert cfg.grid.points == 200 and cfg.grid.log_spaced is True
    assert cfg.grid.x_min is None and cfg.grid.x_max is None
    assert cfg.y == 1e-6
    assert cfg.probs == tuple(round(0.1 * k, 1) for k in range(1, 10))
    assert cfg.mc.n0 == 1000 and cfg.mc.enabled is True
    assert cfg.output.format == "csv" and cfg.output.path is None
    net = cfg.network
    assert net.layers[0].nonlinearity is Nonlinearity.RELU


def test_lambda_key_maps_to_width_ratio():
    payload = {
        "network": {
            "layers": [{"nonlinearity": "linear", "sigma_w_sq": 1.0, "lambda": 2.0}]
        }
    }
    cfg = parse_run_config(payload)
    assert cfg.network.layers[0].width_ratio == 2.0


def test_network_required_for_solves():
    # every command solves a net, so a run configuration always holds one
    from freespectra.config import RunConfig

    with pytest.raises(TypeError, match="network"):
        RunConfig()
    with pytest.raises(ConfigError, match="network"):
        parse_run_config({"y": 1e-6})


def test_bool_is_not_a_number():
    payload = {"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": True}]}}
    with pytest.raises(ConfigError, match="sigma_w_sq"):
        parse_run_config(payload)


def test_error_paths_name_the_field():
    payload = {"network": {"layers": [{"nonlinearity": "relu"}]}}
    with pytest.raises(ConfigError, match=r"network\.layers\[0\]"):
        parse_run_config(payload)
    with pytest.raises(ConfigError, match="unknown field"):
        parse_run_config(dict(MINIMAL) | {"grids": {}})
    with pytest.raises(ConfigError, match="y must be positive"):
        parse_run_config(dict(MINIMAL) | {"y": 0.0})
    with pytest.raises(ConfigError, match="probs"):
        parse_run_config(dict(MINIMAL) | {"probs": [0.5, "0.9"]})
    with pytest.raises(ConfigError, match="format"):
        parse_run_config(dict(MINIMAL) | {"output": {"format": "xml"}})


def test_solver_section_is_an_unknown_field():
    # the solver's tolerance and caps are constants of the method
    with pytest.raises(ConfigError) as info:
        parse_run_config(dict(MINIMAL) | {"solver": {"epsilon": 1e-10}})
    assert str(info.value) == "config: solver: unknown field"


# One case per section and failure class: not an object, an unknown key, a
# missing required key, a wrong type, and a ValueError of the constructed
# dataclass.  The messages are compared byte for byte.
ERROR_MESSAGES = [
    ("root-object", [1], "config: <root>: expected an object, got list"),
    ("root-unknown", with_section("grids", {}), "config: grids: unknown field"),
    ("root-required", {"y": 1e-6}, "config: network: required"),
    ("root-type-y", with_section("y", "small"), "config: y: expected a number, got 'small'"),
    ("root-type-probs", with_section("probs", 0.5), "config: probs: expected an array, got float"),
    (
        "root-type-probs-item",
        with_section("probs", [0.5, "0.9"]),
        "config: probs[1]: expected a number, got '0.9'",
    ),
    ("root-empty-probs", with_section("probs", []), "config: probs: must be nonempty"),
    ("root-value-y", with_section("y", 0.0), "config: y: y must be positive"),
    (
        "root-value-y-nan",
        with_section("y", math.nan),
        "config: y: y must be positive and finite, got nan",
    ),
    (
        "root-value-y-inf",
        with_section("y", math.inf),
        "config: y: y must be positive and finite, got inf",
    ),
    (
        "root-value-probs",
        with_section("probs", [0.5, 1.0]),
        "config: probs: must lie strictly inside (0, 1), got 1.0",
    ),
    ("network-object", {"network": []}, "config: network: expected an object, got list"),
    (
        "network-unknown",
        {"network": {"layers": [LAYER], "depth": 3}},
        "config: network.depth: unknown field",
    ),
    (
        "network-required",
        {"network": {"input_mean_square": 1.0}},
        "config: network.layers: required",
    ),
    (
        "network-type-layers",
        {"network": {"layers": {}}},
        "config: network.layers: expected an array, got dict",
    ),
    (
        "network-type-input",
        {"network": {"layers": [LAYER], "input_mean_square": "1"}},
        "config: network.input_mean_square: expected a number, got '1'",
    ),
    (
        "network-value-empty",
        {"network": {"layers": []}},
        "config: network: a network needs at least one layer",
    ),
    (
        "network-value-input",
        {"network": {"layers": [LAYER], "input_mean_square": -1.0}},
        "config: network: input_mean_square must be a positive finite real, got -1.0",
    ),
    (
        "layer-object",
        {"network": {"layers": [3]}},
        "config: network.layers[0]: expected an object, got int",
    ),
    (
        "layer-unknown",
        with_layer(activation="relu"),
        "config: network.layers[0].activation: unknown field",
    ),
    (
        "layer-required-nonlinearity",
        {"network": {"layers": [{"sigma_w_sq": 2.0}]}},
        "config: network.layers[0].nonlinearity: required",
    ),
    (
        "layer-required-sigma_w_sq",
        {"network": {"layers": [{"nonlinearity": "relu"}]}},
        "config: network.layers[0].sigma_w_sq: required",
    ),
    (
        "layer-type-nonlinearity",
        with_layer(nonlinearity=3),
        "config: network.layers[0].nonlinearity: expected a string, got 3",
    ),
    (
        "layer-type-sigma_w_sq",
        with_layer(sigma_w_sq=True),
        "config: network.layers[0].sigma_w_sq: expected a number, got True",
    ),
    (
        "layer-type-sigma_b_sq",
        with_layer(sigma_b_sq="0"),
        "config: network.layers[0].sigma_b_sq: expected a number, got '0'",
    ),
    (
        "layer-type-lambda",
        with_layer(**{"lambda": None}),
        "config: network.layers[0].lambda: expected a number, got None",
    ),
    (
        "layer-value-nonlinearity",
        with_layer(nonlinearity="tanh"),
        "config: network.layers[0].nonlinearity: unknown nonlinearity 'tanh' "
        "(expected one of hard_sine, hard_tanh, linear, relu)",
    ),
    (
        "layer-value-sigma_w_sq",
        with_layer(sigma_w_sq=-1.0),
        "config: network.layers[0]: sigma_w_sq must be a positive finite real, got -1.0",
    ),
    (
        "layer-value-lambda",
        with_layer(**{"lambda": 0.0}),
        "config: network.layers[0]: width_ratio must be a positive finite real, got 0.0",
    ),
    ("grid-object", with_section("grid", 400), "config: grid: expected an object, got int"),
    ("grid-unknown", with_section("grid", {"point": 400}), "config: grid.point: unknown field"),
    (
        "grid-type-x_min",
        with_section("grid", {"x_min": "0"}),
        "config: grid.x_min: expected a number, got '0'",
    ),
    (
        "grid-type-points",
        with_section("grid", {"points": 2.5}),
        "config: grid.points: expected an integer, got 2.5",
    ),
    (
        "grid-type-log_spaced",
        with_section("grid", {"log_spaced": 1}),
        "config: grid.log_spaced: expected true or false, got 1",
    ),
    (
        "grid-value-points",
        with_section("grid", {"points": 1}),
        "config: grid.points: must be at least 2",
    ),
    (
        "grid-value-x_max",
        with_section("grid", {"x_max": -1.0}),
        "config: grid.x_max: must be positive",
    ),
    (
        "grid-value-x_min-nan",
        with_section("grid", {"x_min": math.nan}),
        "config: grid.x_min: must be positive and finite, got nan",
    ),
    (
        "grid-value-x_max-inf",
        with_section("grid", {"x_max": math.inf}),
        "config: grid.x_max: must be positive and finite, got inf",
    ),
    (
        "grid-value-bracket",
        with_section("grid", {"x_min": 2.0, "x_max": 1.0}),
        "config: grid.x_min: must be below grid.x_max",
    ),
    ("mc-object", with_section("mc", True), "config: mc: expected an object, got bool"),
    ("mc-unknown", with_section("mc", {"n": 10}), "config: mc.n: unknown field"),
    ("mc-type-n0", with_section("mc", {"n0": 1.5}), "config: mc.n0: expected an integer, got 1.5"),
    ("mc-type-seed", with_section("mc", {"seed": "1"}), "config: mc.seed: expected an integer, got '1'"),
    (
        "mc-type-enabled",
        with_section("mc", {"enabled": "yes"}),
        "config: mc.enabled: expected true or false, got 'yes'",
    ),
    ("mc-value-n0", with_section("mc", {"n0": 3}), "config: mc.n0: must be at least 4"),
    ("output-object", with_section("output", "csv"), "config: output: expected an object, got str"),
    ("output-unknown", with_section("output", {"fmt": "csv"}), "config: output.fmt: unknown field"),
    (
        "output-type-format",
        with_section("output", {"format": 3}),
        "config: output.format: expected a string, got 3",
    ),
    (
        "output-type-path",
        with_section("output", {"path": 3}),
        "config: output.path: expected a string, got 3",
    ),
    (
        "output-value-format",
        with_section("output", {"format": "xml"}),
        "config: output.format: must be 'csv' or 'json', got 'xml'",
    ),
]


@pytest.mark.parametrize(
    "payload, message", [case[1:] for case in ERROR_MESSAGES], ids=[case[0] for case in ERROR_MESSAGES]
)
def test_error_messages_are_exact(payload, message):
    with pytest.raises(ConfigError) as info:
        parse_run_config(payload)
    assert str(info.value) == message


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="config"):
        load_config(str(tmp_path / "absent.json"))
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(MINIMAL))
    assert load_config(str(ok)).network.depth == 1


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0}]},'
         ' "y": 1e-6, "y": 1e-3}', "y"),
        ('{"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0,'
         ' "sigma_w_sq": 1.0}]}}', "sigma_w_sq"),
    ],
    ids=["top-level", "layer"],
)
def test_load_config_refuses_a_repeated_key(tmp_path, text, key):
    # json.load alone keeps the last value of a repeated key
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
        load_config(str(path))
