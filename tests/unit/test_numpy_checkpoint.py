"""Numpy-backend checkpoints: round trip and typed failure on bad files.

A numpy checkpoint is an ``.npz`` archive of a whole fused batch.  It
crosses a disk boundary, so every way it can be damaged — truncated,
tagged with the wrong format or backend, written for other configs,
carrying arrays of the wrong shape or dtype — must raise a
:class:`~repro.errors.ConfigurationError` that names the file, never a
numpy or zipfile traceback.
"""

from __future__ import annotations

import json

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import ConfigurationError  # noqa: E402
from repro.kernel.numpy_kernel import NumpyKernel  # noqa: E402
from repro.network.simulator import (  # noqa: E402
    NetworkConfig,
    load_checkpoint,
    resume_batch,
    resume_run,
    simulate,
)

WARMUP, MEASURE, EVERY = 20, 60, 25

CONFIGS = [
    NetworkConfig(num_ports=16, radix=4, buffer_kind=kind, seed=seed,
                  offered_load=0.7)
    for kind, seed in (("FIFO", 5), ("DAMQ", 6))
]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A mid-run checkpoint of a two-member batch, as raw bytes."""
    path = tmp_path_factory.mktemp("numpy-ckpt") / "batch.ckpt"
    NumpyKernel.batch(CONFIGS).run_batch(
        WARMUP, MEASURE, checkpoint_every=EVERY, checkpoint_path=path
    )
    return path.read_bytes()


def rewrite(path, saved, **changes):
    """Write ``saved`` back to ``path`` with arrays/header entries changed."""
    with np.load(_write(path, saved), allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays["header"].tobytes().decode())
    for name, value in changes.items():
        if name in arrays and name != "header":
            arrays[name] = value
        else:
            header[name] = value
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path


def _write(path, data):
    path.write_bytes(data)
    return path


def test_resume_matches_the_uninterrupted_batch(tmp_path, saved):
    path = _write(tmp_path / "ok.ckpt", saved)
    document = load_checkpoint(path)
    assert document["backend"] == "numpy"
    assert document["state"]["cycle"] == 75
    want = [simulate(c, WARMUP, MEASURE, backend="reference") for c in CONFIGS]
    got = resume_batch(path)
    assert [r.to_state() for r in got] == [r.to_state() for r in want]


@settings(max_examples=25, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=0.999))
def test_truncated_file_is_a_typed_error(tmp_path_factory, saved, fraction):
    path = tmp_path_factory.mktemp("truncated") / "cut.ckpt"
    _write(path, saved[: int(len(saved) * fraction)])
    with pytest.raises(ConfigurationError, match="cut.ckpt"):
        resume_batch(path)


def test_garbage_bytes_are_a_typed_error(tmp_path):
    path = _write(tmp_path / "garbage.ckpt", bytes(range(256)) * 4)
    with pytest.raises(ConfigurationError, match="garbage.ckpt"):
        load_checkpoint(path)


def test_missing_file_is_a_typed_error(tmp_path):
    with pytest.raises(ConfigurationError, match="absent.ckpt"):
        load_checkpoint(tmp_path / "absent.ckpt")


@pytest.mark.parametrize(
    "changes",
    [dict(format=99), dict(backend="reference"), dict(cycle="75"),
     dict(meters=[])],
    ids=["format", "backend", "cycle-type", "meters-count"],
)
def test_wrong_header_is_a_typed_error(tmp_path, saved, changes):
    path = rewrite(tmp_path / "header.ckpt", saved, **changes)
    with pytest.raises(ConfigurationError, match="header.ckpt"):
        resume_batch(path)


def test_json_checkpoint_claiming_numpy_is_refused(tmp_path):
    path = tmp_path / "claims.ckpt"
    path.write_text(json.dumps({"format": 1, "backend": "numpy"}))
    with pytest.raises(ConfigurationError, match="claims.ckpt"):
        load_checkpoint(path)


def test_config_mismatch_is_a_typed_error(tmp_path, saved):
    path = _write(tmp_path / "other.ckpt", saved)
    document = load_checkpoint(path)
    other = NumpyKernel.batch([c.with_overrides(seed=99) for c in CONFIGS])
    with pytest.raises(ConfigurationError, match="other.ckpt"):
        other.restore(document, path)


def test_unrunnable_configs_are_a_typed_error(tmp_path, saved):
    configs = [c.with_overrides(num_ports=64).to_state() for c in CONFIGS]
    configs[1]["radix"] = 8
    path = rewrite(tmp_path / "mixed.ckpt", saved, configs=configs)
    with pytest.raises(ConfigurationError, match="mixed.ckpt"):
        resume_batch(path)


@pytest.mark.parametrize(
    "name, make",
    [
        ("qlen", lambda a: a[:-1]),
        ("qlen", lambda a: a.astype(np.int32)),
        ("pk_dest", lambda a: a.astype(np.int64)),
        ("pk_created", lambda a: a[:-1]),
        ("pool_sizes", lambda a: a[:1]),
        ("pool_sizes", lambda a: -a),
    ],
    ids=["shape", "dtype", "pool-dtype", "pool-shape", "sizes-shape",
         "sizes-negative"],
)
def test_array_mismatch_is_a_typed_error(tmp_path, saved, name, make):
    path = _write(tmp_path / "arrays.ckpt", saved)
    with np.load(path, allow_pickle=False) as archive:
        original = archive[name]
    rewrite(path, saved, **{name: make(original)})
    with pytest.raises(ConfigurationError, match="arrays.ckpt"):
        resume_batch(path)


def test_missing_array_is_a_typed_error(tmp_path, saved):
    path = _write(tmp_path / "partial.ckpt", saved)
    with np.load(path, allow_pickle=False) as archive:
        arrays = {n: archive[n] for n in archive.files if n != "stale"}
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(ConfigurationError, match="partial.ckpt"):
        resume_batch(path)


def test_batch_checkpoint_needs_resume_batch(tmp_path, saved):
    path = _write(tmp_path / "batch.ckpt", saved)
    with pytest.raises(ConfigurationError, match="resume_batch"):
        resume_run(path)


def test_resuming_under_the_sanitizer_names_the_reference_backend(
    tmp_path, saved
):
    path = _write(tmp_path / "observed.ckpt", saved)
    with pytest.raises(ConfigurationError, match='backend="reference"'):
        resume_batch(path, sanitize=True)
