"""Parameter containers, their validity rules, and model persistence."""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

MODEL_FORMAT_VERSION = 1
BINARY_MAGIC = b"CDTM0001"
ETA_FLOOR = 1e-12  # added to every eta entry before normalizing, so none is exactly zero


class ConfigError(ValueError):
    """Raised when a TrainConfig (or CLI configuration) fails validation."""


@dataclass
class ModelParams:
    """Global model state: topic-word distributions and the Dirichlet prior.

    eta is K x V with rows on the simplex; zeta is the length-K Dirichlet
    hyperparameter (held fixed during training).
    """

    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=np.float64)
        self.zeta = np.asarray(self.zeta, dtype=np.float64)
        if self.eta.ndim != 2:
            raise ValueError("eta must be a K x V matrix")
        if self.zeta.shape != (self.eta.shape[0],):
            raise ValueError("zeta length must equal the number of topics")
        if not np.all(np.isfinite(self.zeta) & (self.zeta > 0)):
            raise ValueError("all zeta entries must be finite and positive")

    @property
    def K(self):
        return self.eta.shape[0]

    @property
    def V(self):
        return self.eta.shape[1]


@dataclass
class DocVariational:
    """Per-document variational state: Dirichlet parameter and word assignments."""

    gamma: np.ndarray  # (K,) positive
    phi: np.ndarray  # (N_d, K) rows on the simplex


@dataclass
class TrainConfig:
    """Settings for the penalized variational EM fit.

    lam is the entropy-penalty weight: a single float applied to every
    document, or a length-D array of per-document weights.  lam=0 recovers
    plain LDA.  zeta=None means the symmetric prior 1/K.  The rest are
    the EM and E-step caps and tolerances, and the seed of init_model; the
    line-search constants and numeric floors are module constants of
    cdtm.inference and cdtm.model.
    """

    K: int = 10
    lam: object = 0.0
    zeta: object = None
    em_max_iters: int = 200
    em_rel_tol: float = 1e-6
    estep_max_iters: int = 100
    newton_tol: float = 1e-5  # epsilon: stop once no gamma coordinate moves this far
    phi_tol: float = 1e-5  # mean |delta phi| threshold for E-step convergence
    seed: int = 0

    def validate(self):
        if not isinstance(self.K, (int, np.integer)) or self.K < 2:
            raise ConfigError("K must be an integer >= 2")
        lam = np.atleast_1d(np.asarray(self.lam, dtype=np.float64))
        if lam.ndim != 1 or not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ConfigError("lambda weights must be finite and >= 0")
        if self.zeta is not None:
            z = np.asarray(self.zeta, dtype=np.float64)
            if z.shape != (self.K,) or not np.all(np.isfinite(z) & (z > 0)):
                raise ConfigError("zeta override must be a finite, positive length-K vector")
        for name in ("em_rel_tol", "newton_tol", "phi_tol"):
            if not getattr(self, name) > 0:  # NaN fails this too
                raise ConfigError("%s must be > 0" % name)
        for name in ("em_max_iters", "estep_max_iters"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigError("%s must be an integer >= 1" % name)
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigError("seed must be an integer")
        return self

    def resolved_zeta(self):
        if self.zeta is None:
            return np.full(self.K, 1.0 / self.K)
        return np.asarray(self.zeta, dtype=np.float64).copy()

    def doc_lams(self, n_docs):
        """The lambda weight of each of n_docs documents, as a length-n_docs array."""
        lam = np.atleast_1d(np.asarray(self.lam, dtype=np.float64))
        if lam.shape[0] not in (1, n_docs):
            raise ConfigError(
                "per-document lambda must have length D=%d, got %d"
                % (n_docs, lam.shape[0])
            )
        return np.broadcast_to(lam, (n_docs,)).copy()

    def homogeneous_lam(self):
        """The scalar lambda, for persistence; errors on per-document weights."""
        lam = np.atleast_1d(np.asarray(self.lam, dtype=np.float64))
        if lam.shape[0] != 1:
            raise ConfigError("model persistence stores a single homogeneous lambda")
        return float(lam[0])


def init_model(corpus, config, seed=None):
    """Seeded model initialization.

    zeta defaults to the symmetric prior 1/K.  Each eta row is the corpus
    word-frequency vector under multiplicative Gamma(100, 1/100) jitter,
    floored and renormalized, so topics start near the corpus distribution
    but not identical.
    """
    config.validate()
    K, V = config.K, corpus.n_words
    if V < K:
        raise ValueError("vocabulary size %d is smaller than K=%d" % (V, K))
    rng = np.random.default_rng(config.seed if seed is None else seed)
    freq = corpus.word_counts().astype(np.float64)
    freq /= freq.sum()
    eta = freq[None, :] * rng.gamma(100.0, 1.0 / 100.0, size=(K, V))
    eta += ETA_FLOOR
    eta /= eta.sum(axis=1, keepdims=True)
    return ModelParams(eta, config.resolved_zeta())


# ---------------------------------------------------------------------------
# Persistence: versioned JSON and a compact binary layout.
#
# Binary layout (little-endian): 8-byte magic "CDTM0001", uint64 K, uint64 V,
# float64 lambda, K float64 zeta entries, K*V float64 eta entries row-major.

_BINARY_HEADER = struct.Struct("<QQd")


def _checked_model(eta, zeta, lam):
    """(ModelParams, lambda) from loaded arrays; ValueError if they are not a model."""
    if not np.all(np.isfinite(eta)) or np.any(eta < 0):
        raise ValueError("model eta holds non-finite or negative entries")
    if not np.all(np.abs(eta.sum(axis=1) - 1.0) <= 1e-9):
        raise ValueError("model eta rows do not sum to 1")
    if not np.all(np.isfinite(zeta)) or np.any(zeta <= 0):
        raise ValueError("model zeta holds non-finite or non-positive entries")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError("model lambda %r is not finite and >= 0" % lam)
    return ModelParams(eta, zeta), lam


def save_model_json(model, lam, path):
    payload = {
        "version": MODEL_FORMAT_VERSION,
        "K": model.K,
        "V": model.V,
        "zeta": model.zeta.tolist(),
        "lambda": float(lam),
        "eta": model.eta.tolist(),
    }
    # json.dumps runs the C encoder; json.dump streams through the Python one.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_model_json(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError("unsupported model format version %r" % payload.get("version"))
    try:
        eta = np.asarray(payload["eta"], dtype=np.float64)
        shape = (payload["K"], payload["V"])
        zeta = np.asarray(payload["zeta"], dtype=np.float64)
        lam = float(payload["lambda"])
    except KeyError as exc:
        raise ValueError("model file lacks the key %s" % exc)
    if eta.shape != shape:
        raise ValueError("eta shape does not match the declared K and V")
    return _checked_model(eta, zeta, lam)


def save_model_binary(model, lam, path):
    K, V = model.K, model.V
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(_BINARY_HEADER.pack(K, V, float(lam)))
        fh.write(np.ascontiguousarray(model.zeta, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.eta, dtype="<f8").tobytes())


def load_model_binary(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:8]
    if magic != BINARY_MAGIC:
        raise ValueError("not a model binary: bad magic %r" % magic)
    start = 8 + _BINARY_HEADER.size
    if len(data) < start:
        raise ValueError("model binary truncated inside its header")
    K, V, lam = _BINARY_HEADER.unpack_from(data, 8)
    size = start + 8 * (K + K * V)
    if len(data) != size:
        raise ValueError(
            "model binary holds %d bytes; K=%d, V=%d needs %d" % (len(data), K, V, size)
        )
    floats = np.frombuffer(data, dtype="<f8", offset=start).astype(np.float64)
    return _checked_model(floats[K:].reshape(K, V), floats[:K], lam)


def save_model(model, lam, path):
    """Dispatch on extension: .json for the JSON container, anything else binary."""
    if str(path).endswith(".json"):
        save_model_json(model, lam, path)
    else:
        save_model_binary(model, lam, path)


def load_model(path):
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head == BINARY_MAGIC:
        return load_model_binary(path)
    return load_model_json(path)
