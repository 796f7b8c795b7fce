"""Parameter-container, config-validation, and persistence tests."""

import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdtm.corpus import Corpus, Document, Vocabulary
from cdtm.model import (
    MODEL_FORMAT_VERSION,
    ConfigError,
    ModelParams,
    TrainConfig,
    init_model,
    load_model,
    load_model_binary,
    load_model_json,
    save_model,
    save_model_binary,
    save_model_json,
)


def tiny_corpus(vocab_size=10, n_docs=4, doc_len=6, seed=1):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(["v%d" % j for j in range(vocab_size)])
    docs = [
        Document("m%d" % d, rng.integers(0, vocab_size, size=doc_len))
        for d in range(n_docs)
    ]
    return Corpus(vocab, docs)


# ---------------------------------------------------------------------------
# init_model


def test_init_model_shapes_and_normalization():
    corpus = tiny_corpus()
    model = init_model(corpus, TrainConfig(K=2, seed=5))
    assert model.eta.shape == (2, 10)
    assert np.allclose(model.eta.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(model.eta > 0)
    assert np.allclose(model.zeta, 0.5)  # symmetric 1/K default


def test_init_model_deterministic_under_seed():
    corpus = tiny_corpus()
    a = init_model(corpus, TrainConfig(K=3, seed=9))
    b = init_model(corpus, TrainConfig(K=3, seed=9))
    c = init_model(corpus, TrainConfig(K=3, seed=10))
    assert np.array_equal(a.eta, b.eta)
    assert not np.array_equal(a.eta, c.eta)


def test_init_model_zeta_override_stored():
    corpus = tiny_corpus()
    zeta = np.full(2, 0.5)
    model = init_model(corpus, TrainConfig(K=2, zeta=zeta))
    assert model.zeta.tolist() == [0.5, 0.5]


def test_init_model_vocab_smaller_than_k():
    corpus = tiny_corpus(vocab_size=3)
    with pytest.raises(ValueError):
        init_model(corpus, TrainConfig(K=5))


# ---------------------------------------------------------------------------
# ModelParams validation


def test_model_params_validation():
    eta = np.full((2, 4), 0.25)
    with pytest.raises(ValueError):
        ModelParams(eta, np.array([1.0]))  # zeta length mismatch
    with pytest.raises(ValueError):
        ModelParams(eta, np.array([1.0, 0.0]))  # non-positive zeta
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ModelParams(eta, np.array([bad, 1.0]))  # non-finite zeta
    with pytest.raises(ValueError):
        ModelParams(np.ones(4), np.array([1.0]))  # not a matrix
    model = ModelParams(eta, np.array([0.5, 0.5]))
    assert (model.K, model.V) == (2, 4)


# ---------------------------------------------------------------------------
# TrainConfig validation


def test_config_defaults_valid():
    TrainConfig().validate()


@pytest.mark.parametrize(
    "kw",
    [
        dict(K=1),
        dict(K=2.5),
        dict(lam=-1.0),
        dict(lam=[1.0, -2.0]),
        dict(lam=float("nan")),
        dict(zeta=[1.0]),  # wrong length for K=10 default
        dict(zeta=np.zeros(10)),
        dict(em_rel_tol=0.0),
        dict(newton_tol=-1e-5),
        dict(phi_tol=0.0),
        dict(em_max_iters=0),
        dict(estep_max_iters=0),
        dict(em_max_iters=2.5),
        dict(estep_max_iters=float("nan")),
        dict(seed=1.5),
        dict(K=2, zeta=[float("nan"), 1.0]),
        dict(K=2, zeta=[float("inf"), 1.0]),
        dict(em_rel_tol=float("nan")),
        dict(newton_tol=float("nan")),
        dict(phi_tol=float("nan")),
    ],
)
def test_config_rejects_invalid_fields(kw):
    with pytest.raises(ConfigError):
        TrainConfig(**kw).validate()


def test_config_lam_helpers():
    cfg = TrainConfig(K=2, lam=[1.0, 2.0, 3.0])
    assert cfg.doc_lams(3).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError):
        cfg.doc_lams(4)
    with pytest.raises(ConfigError):
        cfg.homogeneous_lam()
    scalar = TrainConfig(K=2, lam=7.0)
    assert scalar.doc_lams(6).tolist() == [7.0] * 6
    assert scalar.homogeneous_lam() == 7.0


def test_config_resolved_zeta():
    assert np.allclose(TrainConfig(K=4).resolved_zeta(), 0.25)
    override = TrainConfig(K=2, zeta=[0.3, 0.7]).resolved_zeta()
    assert override.tolist() == [0.3, 0.7]


# ---------------------------------------------------------------------------
# Persistence


def random_model(seed=3, K=3, V=7):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.01, 1.0, size=(K, V))
    eta /= eta.sum(axis=1, keepdims=True)
    return ModelParams(eta, rng.uniform(0.1, 1.0, size=K))


def test_json_round_trip_is_exact(tmp_path):
    model = random_model()
    path = tmp_path / "model.json"
    save_model_json(model, 35.0, path)
    loaded, lam = load_model_json(path)
    assert lam == 35.0
    assert np.array_equal(loaded.eta, model.eta)
    assert np.array_equal(loaded.zeta, model.zeta)


def test_json_file_is_the_streamed_encoding_of_the_payload(tmp_path):
    # save_model_json encodes with json.dumps; its file must hold the text
    # json.dump streams for the same payload, plus a newline.
    model = random_model(seed=7)
    path = tmp_path / "model.json"
    save_model_json(model, 35.0, path)
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "K": model.K,
        "V": model.V,
        "zeta": model.zeta.tolist(),
        "lambda": 35.0,
        "eta": model.eta.tolist(),
    }
    streamed = io.StringIO()
    json.dump(payload, streamed)
    assert path.read_bytes() == (streamed.getvalue() + "\n").encode("utf-8")


def test_binary_round_trip_is_exact(tmp_path):
    model = random_model(seed=4)
    path = tmp_path / "model.bin"
    save_model_binary(model, 5.5, path)
    loaded, lam = load_model_binary(path)
    assert lam == 5.5
    assert np.array_equal(loaded.eta, model.eta)
    assert np.array_equal(loaded.zeta, model.zeta)


def test_save_model_dispatch_and_sniffing(tmp_path):
    model = random_model(seed=5)
    jpath, bpath = tmp_path / "m.json", tmp_path / "m.bin"
    save_model(model, 0.0, jpath)
    save_model(model, 0.0, bpath)
    assert jpath.read_bytes()[:1] == b"{"
    assert bpath.read_bytes()[:8] == b"CDTM0001"
    for path in (jpath, bpath):
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.eta, model.eta)


def test_load_model_rejects_corrupt_files(tmp_path):
    bad_magic = tmp_path / "bad.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_model_binary(bad_magic)

    bad_version = tmp_path / "bad.json"
    bad_version.write_text('{"version": 99, "K": 1, "V": 1, "zeta": [1], "lambda": 0, "eta": [[1]]}')
    with pytest.raises(ValueError):
        load_model_json(bad_version)

    bad_shape = tmp_path / "shape.json"
    bad_shape.write_text('{"version": 1, "K": 2, "V": 2, "zeta": [1, 1], "lambda": 0, "eta": [[1, 0]]}')
    with pytest.raises(ValueError):
        load_model_json(bad_shape)


def write_json_payload(path, **changes):
    """A valid model JSON with some payload fields replaced."""
    save_model_json(random_model(seed=6, K=2, V=3), 5.0, path)
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity literally
    return path


@pytest.mark.parametrize(
    "changes",
    [
        dict(eta=[[0.5, float("nan"), 0.5], [0.2, 0.3, 0.5]]),  # NaN in eta
        dict(eta=[[1.0, 1.0, 1.0], [0.2, 0.3, 0.5]]),  # a row summing to 3
        dict(eta=[[1.5, -0.5, 0.0], [0.2, 0.3, 0.5]]),  # negative entry
        dict(zeta=[float("nan"), 0.5]),
        dict(zeta=[float("inf"), 0.5]),
        dict(zeta=[0.0, 0.5]),
        dict(**{"lambda": float("nan")}),
        dict(**{"lambda": float("inf")}),
        dict(**{"lambda": -1.0}),
    ],
)
def test_load_model_json_rejects_invalid_parameters(tmp_path, changes):
    path = write_json_payload(tmp_path / "m.json", **changes)
    with pytest.raises(ValueError):
        load_model_json(path)


def test_load_model_json_rejects_missing_key(tmp_path):
    path = write_json_payload(tmp_path / "m.json")
    payload = json.loads(path.read_text())
    del payload["zeta"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="zeta"):
        load_model_json(path)


def binary_bytes(tmp_path, model=None, lam=5.0):
    path = tmp_path / "ok.bin"
    save_model_binary(random_model(seed=7) if model is None else model, lam, path)
    return path.read_bytes()


def test_load_model_binary_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(binary_bytes(tmp_path) + b"\x00")
    with pytest.raises(ValueError, match="bytes"):
        load_model_binary(path)


@pytest.mark.parametrize("keep", [8, 20, 31, 32 + 8, -1])
def test_load_model_binary_rejects_truncation(tmp_path, keep):
    # Cut inside the header (20, 31), right after the magic (8), inside
    # zeta (40), and one byte short of the end.
    path = tmp_path / "m.bin"
    path.write_bytes(binary_bytes(tmp_path)[:keep])
    with pytest.raises(ValueError):
        load_model_binary(path)


@pytest.mark.parametrize(
    "eta, zeta, lam",
    [
        ([[0.5, float("nan")], [0.5, 0.5]], [0.5, 0.5], 1.0),
        ([[1.0, 2.0], [0.5, 0.5]], [0.5, 0.5], 1.0),
        ([[0.5, 0.5], [0.5, 0.5]], [float("nan"), 0.5], 1.0),
        ([[0.5, 0.5], [0.5, 0.5]], [float("inf"), 0.5], 1.0),
        ([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], float("nan")),
        ([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], -2.0),
    ],
)
def test_load_model_binary_rejects_invalid_parameters(tmp_path, eta, zeta, lam):
    # Write the layout by hand: ModelParams itself would refuse some of these.
    path = tmp_path / "m.bin"
    path.write_bytes(
        b"CDTM0001"
        + struct.pack("<QQd", 2, 2, lam)
        + np.asarray(zeta, dtype="<f8").tobytes()
        + np.asarray(eta, dtype="<f8").tobytes()
    )
    with pytest.raises(ValueError):
        load_model_binary(path)


@st.composite
def valid_models(draw):
    K = draw(st.integers(2, 6))
    V = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    eta = rng.dirichlet(np.full(V, draw(st.floats(0.05, 5.0))), size=K)
    zeta = np.exp(rng.uniform(-20.0, 5.0, size=K))
    lam = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    return ModelParams(eta, zeta), lam


@settings(max_examples=60, deadline=None)
@given(valid_models(), st.sampled_from(["m.json", "m.bin"]))
def test_save_load_round_trip_property(tmp_path_factory, drawn, name):
    model, lam = drawn
    path = tmp_path_factory.mktemp("rt") / name
    save_model(model, lam, path)
    loaded, loaded_lam = load_model(path)
    assert loaded_lam == lam
    assert np.array_equal(loaded.eta, model.eta)
    assert np.array_equal(loaded.zeta, model.zeta)
