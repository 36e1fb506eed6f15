import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings, strategies as st

from voxalign.cli import SYNTH_SCHEMA, TRAIN_SCHEMA
from voxalign.config import read_config_file, resolve, write_resolved
from voxalign.data import SynthConfig
from voxalign.losses import ANCHOR_MODES
from voxalign.training import TrainConfig


def _values(default):
    """Values a field of this default's type may take; strings stay fixed."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(1, 10**9)
    if isinstance(default, float):
        return st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    if default is None:
        return st.none() | st.integers(1, 10**9)
    return st.just(default)


@st.composite
def synth_configs(draw):
    values = {f.name: draw(_values(f.default)) for f in fields(SynthConfig)}
    n_layers = draw(st.integers(1, 8))
    alphas = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        min_size=n_layers - 1, max_size=n_layers - 1, unique=True,
    ))
    values["n_layers"] = n_layers
    values["alpha_schedule"] = tuple(sorted(alphas, reverse=True)) + (0.0,)
    return SynthConfig(**values)


@st.composite
def train_configs(draw):
    values = {f.name: draw(_values(f.default)) for f in fields(TrainConfig)}
    values["anchor_mode"] = draw(st.sampled_from(ANCHOR_MODES))
    values["eval_similarity"] = draw(st.sampled_from(("pearson", "cosine")))
    for name in ("beta1", "beta2"):
        values[name] = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    values["epsilon"] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    if values["detail_layer_lo"] is None:
        values["detail_layer_hi"] = None
    else:
        values["detail_layer_hi"] = draw(st.integers(1, 10**9))
    return TrainConfig(**values)


def _round_trip(cfg, schema):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resolved.cfg"
        write_resolved({key: getattr(cfg, key) for key in schema}, path)
        return type(cfg)(**resolve(read_config_file(path), schema), seed=cfg.seed)


def test_schemas_cover_every_field_but_seed():
    for cls, schema in ((SynthConfig, SYNTH_SCHEMA), (TrainConfig, TRAIN_SCHEMA)):
        assert set(schema) == {f.name for f in fields(cls)} - {"seed"}
        assert cls(**resolve({}, schema)) == cls()


@settings(max_examples=60, deadline=None)
@given(synth_configs())
def test_synth_config_round_trips(cfg):
    assert _round_trip(cfg, SYNTH_SCHEMA) == cfg


@settings(max_examples=60, deadline=None)
@given(train_configs())
def test_train_config_round_trips(cfg):
    assert _round_trip(cfg, TRAIN_SCHEMA) == cfg
