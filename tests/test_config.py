import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from voxalign.cli import ANALYZE_SCHEMA, MODEL_SCHEMA, SYNTH_SCHEMA, TRAIN_SCHEMA, AnalyzeConfig
from voxalign.config import read_config_file, resolve, write_resolved
from voxalign.data import SynthConfig
from voxalign.errors import DegenerateInput
from voxalign.model import desk_config
from voxalign.training import TrainConfig

# Every config dataclass with its defaults and the schema its files are read through.
CONFIGS = {
    "synth": (SynthConfig(), SYNTH_SCHEMA),
    "train": (TrainConfig(), TRAIN_SCHEMA),
    "model": (desk_config(), MODEL_SCHEMA),
    "analyze": (AnalyzeConfig(), ANALYZE_SCHEMA),
}


def _domain(f) -> dict:
    return f.metadata.get("domain", {})


def _values(f):
    """Values inside a field's declared domain; a string without choices stays fixed."""
    domain = _domain(f)
    if "choices" in domain:
        return st.sampled_from(domain["choices"])
    if f.type == "bool":
        return st.booleans()
    if f.type == "int":
        values = st.integers(domain.get("low", -10**9), domain.get("high", 10**9))
        return values if f.default is not None else st.none() | values
    if f.type == "float":
        return st.floats(
            domain.get("low", domain.get("above")), domain.get("high", domain.get("below")),
            exclude_min="above" in domain, exclude_max="below" in domain,
            allow_nan=False, allow_infinity=False,
        )
    return st.just(f.default)


@st.composite
def configs(draw, name):
    """A config whose schema fields are drawn from their declared domains,
    with the cross-field rules of alpha_schedule and the detail layer range kept."""
    defaults, schema = CONFIGS[name]
    values = {f.name: draw(_values(f)) for f in fields(defaults) if f.name in schema}
    if "alpha_schedule" in values:
        values["n_layers"] = n_layers = draw(st.integers(1, 8))
        alphas = draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            min_size=n_layers - 1, max_size=n_layers - 1, unique=True,
        ))
        values["alpha_schedule"] = tuple(sorted(alphas, reverse=True)) + (0.0,)
    if "detail_layer_lo" in values:
        values["detail_layer_hi"] = None if values["detail_layer_lo"] is None else draw(st.integers(-10**9, 10**9))
    return replace(defaults, **values)


def _round_trip(cfg, schema):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resolved.cfg"
        write_resolved({key: getattr(cfg, key) for key in schema}, path)
        return replace(cfg, **resolve(read_config_file(path), schema))


def test_schemas_cover_every_field_but_seed():
    for name, (defaults, schema) in CONFIGS.items():
        expected = {f.name for f in fields(defaults)} - {"seed"}
        if name == "model":  # the dataset gives the model's shape
            expected -= {"n_semantic_voxels", "n_detail_voxels", "text_tokens", "text_dim",
                         "image_tokens", "image_dim"}
        assert set(schema) == expected
        assert replace(defaults, **resolve({}, schema)) == defaults


@settings(max_examples=60, deadline=None)
@given(configs("synth"))
def test_synth_config_round_trips(cfg):
    assert _round_trip(cfg, SYNTH_SCHEMA) == cfg


@settings(max_examples=60, deadline=None)
@given(configs("train"))
def test_train_config_round_trips(cfg):
    assert _round_trip(cfg, TRAIN_SCHEMA) == cfg


@settings(max_examples=60, deadline=None)
@given(configs("model"))
def test_model_config_round_trips(cfg):
    assert _round_trip(cfg, MODEL_SCHEMA) == cfg


@settings(max_examples=60, deadline=None)
@given(configs("analyze"))
def test_analyze_config_round_trips(cfg):
    assert _round_trip(cfg, ANALYZE_SCHEMA) == cfg


def _just_past(f):
    """One value just outside each bound or choice list the field declares."""
    domain, is_int = _domain(f), f.type == "int"
    past = {
        "low": lambda b: b - 1 if is_int else math.nextafter(b, -math.inf),
        "above": lambda b: b,
        "high": lambda b: b + 1 if is_int else math.nextafter(b, math.inf),
        "below": lambda b: b,
        "choices": lambda choices: "not-" + choices[0],
    }
    for key, bound in domain.items():
        value = past[key](bound)
        yield key, (value,) if f.type == "tuple" else value


PAST_BOUNDS = [
    pytest.param(name, f.name, value, id=f"{name}.{f.name}-{key}")
    for name, (defaults, _) in CONFIGS.items()
    for f in fields(defaults)
    for key, value in _just_past(f)
]


@pytest.mark.parametrize("name,key,value", PAST_BOUNDS)
def test_value_just_past_a_bound_names_the_field(name, key, value):
    defaults, _ = CONFIGS[name]
    with pytest.raises(DegenerateInput, match=f"^{key} must .*, got "):
        replace(defaults, **{key: value})


@pytest.mark.parametrize("name", CONFIGS)
def test_non_finite_float_names_the_field(name):
    defaults, _ = CONFIGS[name]
    for f in fields(defaults):
        if f.type == "float":
            with pytest.raises(DegenerateInput, match=f"^{f.name}: expected a finite number, got nan"):
                replace(defaults, **{f.name: math.nan})
