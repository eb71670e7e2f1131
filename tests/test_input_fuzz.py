"""Fuzz the input readers: whatever they are given, the only exception
that may leave them is InputError (which the CLI turns into exit 2)."""

import json
import struct
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isinglearn import (ExperimentManifest, InputError, IsingModel,
                        SampleSet, manifest_from_dict, model_from_json,
                        read_samples_binary, read_samples_text)

FUZZ = settings(max_examples=150, deadline=None)

# Any value json.loads can return, big integers and NaN included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _returns_or_input_error(read, arg, expect, touch=()):
    """Reading, then reading the named attributes of the result (which
    may be computed on first access), raises nothing but InputError."""
    try:
        result = read(arg)
        for name in touch:
            getattr(result, name)
    except InputError:
        return
    assert isinstance(result, expect)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


# Text files: arbitrary bytes, and bytes behind a plausible header.
sample_text = st.binary(max_size=64) | st.builds(
    lambda p, n, body: f"{p} {n}\n".encode("ascii") + body,
    st.integers(-2, 4), st.integers(-2, 4), st.binary(max_size=40))

# Binary files: arbitrary bytes, and arbitrary sizes and payload behind
# the right magic.
sample_binary = st.binary(max_size=64) | st.builds(
    lambda p, n, payload: b"ISNG" + struct.pack("<IQ", p, n) + payload,
    st.integers(0, 2 ** 32 - 1) | st.integers(0, 9),
    st.integers(0, 2 ** 64 - 1) | st.integers(0, 9),
    st.binary(max_size=16))


@FUZZ
@given(data=sample_text)
def test_read_samples_text_raises_only_input_error(scratch, data):
    scratch.write_bytes(data)
    _returns_or_input_error(read_samples_text, scratch, SampleSet,
                            touch=("tally", "data"))


@FUZZ
@given(data=sample_binary)
def test_read_samples_binary_raises_only_input_error(scratch, data):
    scratch.write_bytes(data)
    _returns_or_input_error(read_samples_binary, scratch, SampleSet,
                            touch=("tally", "data"))


edge_entries = st.fixed_dictionaries(
    {"i": json_values | st.integers(-1, 4), "j": json_values | st.integers(-1, 4),
     "theta": json_values})
model_trees = st.fixed_dictionaries(
    {"p": json_values | st.integers(-1, 5),
     "edges": st.lists(edge_entries | json_values, max_size=4)})


@FUZZ
@given(text=st.text(max_size=80))
def test_model_from_json_text_raises_only_input_error(text):
    _returns_or_input_error(model_from_json, text, IsingModel)


@FUZZ
@given(tree=model_trees | json_values)
def test_model_from_json_tree_raises_only_input_error(tree):
    _returns_or_input_error(model_from_json, json.dumps(tree), IsingModel)


# A valid manifest with some fields dropped and up to two replaced by
# arbitrary values, so most examples get past the first check.
VALID_MANIFEST = dict(
    kind="nmin_vs_beta", seed=1, family="spin_glass", side=3, sides=[3],
    beta=0.5, betas=[0.5], ns=[100], trials=2, epsilon=0.05, n_start=10,
    n_max=100, rel_width=0.5, sampler="glauber", burn_in_sweeps=5,
    thinning_sweeps=1, kkt_tolerance=1e-6, max_iterations=10,
    out="out.csv")
manifest_dicts = st.builds(
    lambda drop, changes: {**{k: v for k, v in VALID_MANIFEST.items()
                              if k not in drop}, **changes},
    st.sets(st.sampled_from(sorted(VALID_MANIFEST)), max_size=2),
    st.dictionaries(st.sampled_from([f.name for f in
                                     fields(ExperimentManifest)]),
                    json_values, max_size=2))


@FUZZ
@given(obj=manifest_dicts | st.dictionaries(st.text(max_size=8), json_values))
def test_manifest_from_dict_raises_only_input_error(obj):
    _returns_or_input_error(manifest_from_dict, obj, ExperimentManifest)
