"""Command-line entry point for reproducible runs with on-disk artifacts.

Subcommands: train, infer, coherence, entropy-stats, grid, split.  Every
command writes a manifest.json recording the effective configuration,
input/output paths, seed, and per-phase timings, so a run can be repeated
exactly.  Setting precedence: CLI flags > config file (key=value lines,
'#' comments) > built-in defaults.  The CDTM_LOG environment variable sets
log verbosity (DEBUG/INFO/WARNING/ERROR).

Exit codes: 0 success, 2 configuration or missing-file errors, 1 runtime
or numerical failures.
"""

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .corpus import (
    DEFAULT_STOPWORDS,
    CorpusConfig,
    Corpus,
    Document,
    build_corpus,
    read_encoded_corpus,
    read_raw_docs,
    read_vocabulary_tsv,
    split_corpus,
    tokenize,
    write_encoded_corpus,
    write_vocabulary_tsv,
)
from .evaluate import (
    DEFAULT_TOP_N,
    DEFAULT_WINDOW_SIZE,
    coherence_report,
    entropy,
    entropy_stats,
    grid_select,
    write_coherence_csv,
    write_entropy_csv,
    write_entropy_stats_json,
    write_grid_csv,
)
from .inference import (
    NumericalError,
    estep_batch,
    fit,
    read_gamma_tsv,
    write_elbo_trace_csv,
    write_gamma_tsv,
)
from .model import ConfigError, TrainConfig, load_model, save_model

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


# ---------------------------------------------------------------------------
# Configuration plumbing


# Every key some command reads from a config file.
CONFIG_KEYS = frozenset(
    (
        "lowercase", "min_token_len", "stopwords", "min_doc_freq", "max_doc_fraction",
        "k", "lambda", "zeta", "em_max_iters", "em_rel_tol", "estep_max_iters",
        "newton_tol", "phi_tol", "armijo_delta", "backtrack_rho", "max_backtracks",
        "gamma_floor", "eta_floor", "seed",
        "k_grid", "lambda_grid", "folds",
    )
)


def _read_config_file(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key=value" % (path, lineno))
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
            out[key] = val.strip()
    return out


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % raw)


def _parse_float_list(raw):
    return [float(v) for v in raw.replace(",", " ").split()]


def _parse_int_list(raw):
    return [int(v) for v in raw.replace(",", " ").split()]


def _pick(flag_val, file_cfg, key, parse, default):
    if flag_val is not None:
        return flag_val
    if key in file_cfg:
        raw = file_cfg[key]
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError("config key %s: cannot parse %r" % (key, raw))
    return default


def _resolve_stopwords(value):
    if value is None or value == "default":
        return DEFAULT_STOPWORDS
    if value == "none":
        return frozenset()
    with open(value, encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def _corpus_config(args, file_cfg):
    base = CorpusConfig()
    cfg = CorpusConfig(
        lowercase=_pick(getattr(args, "lowercase", None), file_cfg, "lowercase", _parse_bool, base.lowercase),
        min_token_len=_pick(getattr(args, "min_token_len", None), file_cfg, "min_token_len", int, base.min_token_len),
        stopwords=_resolve_stopwords(
            _pick(getattr(args, "stopwords", None), file_cfg, "stopwords", str, None)
        ),
        min_doc_freq=_pick(getattr(args, "min_doc_freq", None), file_cfg, "min_doc_freq", int, base.min_doc_freq),
        max_doc_fraction=_pick(
            getattr(args, "max_doc_fraction", None), file_cfg, "max_doc_fraction", float, base.max_doc_fraction
        ),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def _train_config(args, file_cfg):
    base = TrainConfig()

    def pick(attr, key, parse, default):
        return _pick(getattr(args, attr, None), file_cfg, key, parse, default)

    cfg = TrainConfig(
        K=pick("k", "k", int, base.K),
        lam=pick("lam", "lambda", float, base.lam),
        zeta=pick("zeta", "zeta", _parse_float_list, None),
        em_max_iters=pick("em_max_iters", "em_max_iters", int, base.em_max_iters),
        em_rel_tol=pick("em_rel_tol", "em_rel_tol", float, base.em_rel_tol),
        estep_max_iters=pick("estep_max_iters", "estep_max_iters", int, base.estep_max_iters),
        newton_tol=pick("newton_tol", "newton_tol", float, base.newton_tol),
        phi_tol=pick("phi_tol", "phi_tol", float, base.phi_tol),
        armijo_delta=pick("armijo_delta", "armijo_delta", float, base.armijo_delta),
        backtrack_rho=pick("backtrack_rho", "backtrack_rho", float, base.backtrack_rho),
        max_backtracks=pick("max_backtracks", "max_backtracks", int, base.max_backtracks),
        gamma_floor=pick("gamma_floor", "gamma_floor", float, base.gamma_floor),
        eta_floor=pick("eta_floor", "eta_floor", float, base.eta_floor),
        seed=pick("seed", "seed", int, base.seed),
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Run manifests


@dataclass
class RunManifest:
    version: str
    command: str
    seed: int
    config: dict
    inputs: dict
    outputs: dict
    timings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def save_manifest(manifest, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return RunManifest(**json.load(fh))


def _corpus_cfg_dict(cfg):
    return {
        "lowercase": cfg.lowercase,
        "min_token_len": cfg.min_token_len,
        "stopwords": sorted(cfg.stopwords),
        "min_doc_freq": cfg.min_doc_freq,
        "max_doc_fraction": cfg.max_doc_fraction,
    }


def _train_cfg_dict(cfg):
    lam = np.atleast_1d(np.asarray(cfg.lam, dtype=np.float64))
    return {
        "K": int(cfg.K),
        "lambda": float(lam[0]) if lam.shape[0] == 1 else [float(v) for v in lam],
        "zeta": None if cfg.zeta is None else [float(v) for v in np.asarray(cfg.zeta)],
        "em_max_iters": cfg.em_max_iters,
        "em_rel_tol": cfg.em_rel_tol,
        "estep_max_iters": cfg.estep_max_iters,
        "newton_tol": cfg.newton_tol,
        "phi_tol": cfg.phi_tol,
        "armijo_delta": cfg.armijo_delta,
        "backtrack_rho": cfg.backtrack_rho,
        "max_backtracks": cfg.max_backtracks,
        "gamma_floor": cfg.gamma_floor,
        "eta_floor": cfg.eta_floor,
        "seed": int(cfg.seed),
    }


# ---------------------------------------------------------------------------
# Input loading


def _load_corpus(input_path, corpus_cfg, input_format):
    fmt = input_format
    if fmt == "auto":
        if os.path.isdir(input_path) and os.path.isfile(
            os.path.join(input_path, "vocab.tsv")
        ):
            fmt = "encoded"
        else:
            fmt = "text"
    if fmt == "encoded":
        vocab = read_vocabulary_tsv(os.path.join(input_path, "vocab.tsv"))
        return read_encoded_corpus(os.path.join(input_path, "corpus.tsv"), vocab)
    return build_corpus(read_raw_docs(input_path), corpus_cfg)


def _load_docs_for_model(input_path, vocabulary, corpus_cfg, input_format):
    """Documents encoded against a trained model's vocabulary (unknowns dropped)."""
    fmt = input_format
    if fmt == "auto":
        fmt = (
            "encoded"
            if os.path.isdir(input_path)
            and os.path.isfile(os.path.join(input_path, "vocab.tsv"))
            else "text"
        )
    if fmt == "encoded":
        vocab = read_vocabulary_tsv(os.path.join(input_path, "vocab.tsv"))
        if vocab.terms != vocabulary.terms:
            raise ValueError("encoded input vocabulary differs from the model vocabulary")
        return read_encoded_corpus(os.path.join(input_path, "corpus.tsv"), vocab).documents
    docs = []
    for doc_id, text in read_raw_docs(input_path):
        ids = vocabulary.encode(tokenize(text, corpus_cfg), drop_unknown=True)
        docs.append(Document(str(doc_id), ids))
    return docs


def _model_vocabulary(args, model):
    vocab_path = args.vocab or os.path.join(os.path.dirname(args.model) or ".", "vocab.tsv")
    vocab = read_vocabulary_tsv(vocab_path)
    if len(vocab) != model.V:
        raise ValueError(
            "vocabulary size %d does not match model V=%d" % (len(vocab), model.V)
        )
    return vocab_path, vocab


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    train_cfg = _train_config(args, file_cfg)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0
    logger.info("corpus: %d documents, %d vocabulary terms", corpus.n_docs, corpus.n_words)

    t0 = time.perf_counter()
    result = fit(corpus, train_cfg)
    t_fit = time.perf_counter() - t0

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    model_name = "model.bin" if args.model_format == "binary" else "model.json"
    model_path = os.path.join(args.out, model_name)
    save_model(result.model, train_cfg.homogeneous_lam(), model_path)
    vocab_path = os.path.join(args.out, "vocab.tsv")
    write_vocabulary_tsv(corpus, vocab_path)
    gamma_path = os.path.join(args.out, "gamma.tsv")
    write_gamma_tsv(corpus, result.per_doc, gamma_path)
    trace_path = os.path.join(args.out, "elbo_trace.csv")
    write_elbo_trace_csv(result.elbo_trace, trace_path)
    t_write = time.perf_counter() - t0

    manifest = RunManifest(
        version=__version__,
        command="train",
        seed=int(train_cfg.seed),
        config={"train": _train_cfg_dict(train_cfg), "corpus": _corpus_cfg_dict(corpus_cfg)},
        inputs={"corpus": args.input},
        outputs={
            "model": model_path,
            "vocabulary": vocab_path,
            "gamma": gamma_path,
            "elbo_trace": trace_path,
        },
        timings={"load_seconds": t_load, "fit_seconds": t_fit, "write_seconds": t_write},
        # E-steps of the last EM iteration that hit estep_max_iters.
        diagnostics={"unconverged_esteps": result.unconverged_esteps[-1]},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print(
        "trained K=%d lambda=%g on %d documents: %d EM iterations, final elbo %.6f%s"
        % (
            train_cfg.K,
            train_cfg.homogeneous_lam(),
            corpus.n_docs,
            result.iterations_run,
            result.elbo_trace[-1].total,
            "" if result.converged else " (iteration cap reached)",
        )
    )
    return EXIT_OK


def cmd_infer(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    model, stored_lam = load_model(args.model)
    vocab_path, vocab = _model_vocabulary(args, model)
    lam = args.lam if args.lam is not None else stored_lam

    train_cfg = _train_config(args, file_cfg)
    train_cfg.K = model.K
    train_cfg.lam = lam
    train_cfg.zeta = model.zeta
    train_cfg.validate()

    t0 = time.perf_counter()
    docs = _load_docs_for_model(args.input, vocab, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    kept = []
    for doc in docs:
        if len(doc) == 0:
            logger.warning("document %s has no in-vocabulary tokens; skipped", doc.id)
            continue
        kept.append(doc)
    skipped = len(docs) - len(kept)
    if not kept:
        raise ValueError("all %d documents were skipped as out-of-vocabulary" % skipped)
    per_doc, _ = estep_batch(kept, model, [lam] * len(kept), train_cfg)
    rows = []
    for doc, vp in zip(kept, per_doc):
        theta = vp.gamma / float(np.sum(vp.gamma))
        rows.append((doc.id, theta, entropy(theta)))
    t_infer = time.perf_counter() - t0

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    theta_path = os.path.join(args.out, "theta.tsv")
    with open(theta_path, "w", encoding="utf-8") as fh:
        for doc_id, theta, _ent in rows:
            fh.write("%s\t%s\n" % (doc_id, "\t".join("%.17g" % v for v in theta)))
    entropy_path = os.path.join(args.out, "entropy.csv")
    write_entropy_csv([r[0] for r in rows], [r[2] for r in rows], entropy_path)
    t_write = time.perf_counter() - t0

    manifest = RunManifest(
        version=__version__,
        command="infer",
        seed=int(train_cfg.seed),
        config={
            "train": _train_cfg_dict(train_cfg),
            "corpus": _corpus_cfg_dict(corpus_cfg),
        },
        inputs={"model": args.model, "vocabulary": vocab_path, "documents": args.input},
        outputs={"theta": theta_path, "entropy": entropy_path},
        timings={"load_seconds": t_load, "infer_seconds": t_infer, "write_seconds": t_write},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("inferred %d documents (%d skipped) with lambda=%g" % (len(rows), skipped, lam))
    return EXIT_OK


def cmd_coherence(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    model, _ = load_model(args.model)
    vocab_path, vocab = _model_vocabulary(args, model)

    t0 = time.perf_counter()
    docs = _load_docs_for_model(args.input, vocab, corpus_cfg, args.input_format)
    reference = Corpus(vocab, docs)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = coherence_report(model, reference, args.top_n, args.window_size)
    t_score = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "coherence.csv")
    write_coherence_csv(report, vocab, csv_path)
    manifest = RunManifest(
        version=__version__,
        command="coherence",
        seed=0,
        config={
            "corpus": _corpus_cfg_dict(corpus_cfg),
            "coherence": {"top_n": args.top_n, "window_size": args.window_size},
        },
        inputs={"model": args.model, "vocabulary": vocab_path, "reference": args.input},
        outputs={"coherence": csv_path},
        timings={"load_seconds": t_load, "score_seconds": t_score},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("mean_cv %.17g" % report.mean_cv)
    return EXIT_OK


def cmd_entropy_stats(args):
    t0 = time.perf_counter()
    doc_ids, gammas = read_gamma_tsv(args.input)
    stats = entropy_stats(list(gammas))
    t_compute = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    entropy_path = os.path.join(args.out, "entropy.csv")
    write_entropy_csv(doc_ids, stats.entropies, entropy_path)
    stats_path = os.path.join(args.out, "entropy_stats.json")
    write_entropy_stats_json(stats, stats_path)
    manifest = RunManifest(
        version=__version__,
        command="entropy-stats",
        seed=0,
        config={},
        inputs={"gamma": args.input},
        outputs={"entropy": entropy_path, "entropy_stats": stats_path},
        timings={"compute_seconds": t_compute},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print(
        "entropy over %d documents: mean %.17g variance %.17g"
        % (len(doc_ids), stats.mean, stats.variance)
    )
    return EXIT_OK


def cmd_grid(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    train_cfg = _train_config(args, file_cfg)
    k_grid = _pick(args.k_grid, file_cfg, "k_grid", _parse_int_list, None)
    lambda_grid = _pick(args.lambda_grid, file_cfg, "lambda_grid", _parse_float_list, None)
    if not k_grid or not lambda_grid:
        raise ConfigError("grid requires --k-grid and --lambda-grid")
    folds = _pick(args.folds, file_cfg, "folds", int, 5)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        best_k, best_lam, rows = grid_select(
            corpus,
            k_grid,
            lambda_grid,
            folds,
            train_cfg,
            coherence_on=args.coherence_on,
            top_n=args.top_n,
            window_size=args.window_size,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    t_select = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    grid_path = os.path.join(args.out, "grid.csv")
    write_grid_csv(rows, grid_path)
    manifest = RunManifest(
        version=__version__,
        command="grid",
        seed=int(train_cfg.seed),
        config={
            "train": _train_cfg_dict(train_cfg),
            "corpus": _corpus_cfg_dict(corpus_cfg),
            "grid": {
                "k_grid": [int(k) for k in k_grid],
                "lambda_grid": [float(v) for v in lambda_grid],
                "folds": folds,
                "coherence_on": args.coherence_on,
                "top_n": args.top_n,
                "window_size": args.window_size,
            },
        },
        inputs={"corpus": args.input},
        outputs={"grid": grid_path},
        timings={"load_seconds": t_load, "select_seconds": t_select},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print("selected K=%d lambda=%.17g" % (best_k, best_lam))
    return EXIT_OK


def cmd_split(args):
    file_cfg = _read_config_file(args.config) if args.config else {}
    corpus_cfg = _corpus_config(args, file_cfg)
    seed = _pick(args.seed, file_cfg, "seed", int, 0)

    t0 = time.perf_counter()
    corpus = _load_corpus(args.input, corpus_cfg, args.input_format)
    train_c, test_c = split_corpus(corpus, args.train_fraction, seed)
    t_split = time.perf_counter() - t0

    outputs = {}
    for name, half in (("train", train_c), ("test", test_c)):
        half_dir = os.path.join(args.out, name)
        os.makedirs(half_dir, exist_ok=True)
        write_vocabulary_tsv(half, os.path.join(half_dir, "vocab.tsv"))
        write_encoded_corpus(half, os.path.join(half_dir, "corpus.tsv"))
        outputs[name] = half_dir
    manifest = RunManifest(
        version=__version__,
        command="split",
        seed=seed,
        config={
            "corpus": _corpus_cfg_dict(corpus_cfg),
            "split": {"train_fraction": args.train_fraction},
        },
        inputs={"corpus": args.input},
        outputs=outputs,
        timings={"split_seconds": t_split},
    )
    save_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print(
        "split %d documents into %d train / %d test (V=%d)"
        % (corpus.n_docs, train_c.n_docs, test_c.n_docs, train_c.n_words)
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common_flags(p):
    p.add_argument("--input", required=True, help="input path (see the subcommand help)")
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--seed", type=int, default=None, help="random seed")
    p.add_argument("--config", default=None, help="key=value config file")


def _add_corpus_flags(p):
    p.add_argument("--input-format", choices=("auto", "text", "encoded"), default="auto")
    p.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--min-token-len", type=int, default=None)
    p.add_argument("--min-doc-freq", type=int, default=None)
    p.add_argument("--max-doc-fraction", type=float, default=None)
    p.add_argument("--stopwords", default=None, help="'default', 'none', or a word-list file")


def _add_train_flags(p):
    p.add_argument("--k", type=int, default=None, help="number of topics")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="entropy-penalty weight")
    p.add_argument("--zeta", type=_parse_float_list, default=None, help="comma-separated Dirichlet prior")
    p.add_argument("--em-max-iters", type=int, default=None)
    p.add_argument("--em-rel-tol", type=float, default=None)
    p.add_argument("--estep-max-iters", type=int, default=None)
    p.add_argument("--newton-tol", type=float, default=None)
    p.add_argument("--phi-tol", type=float, default=None)
    p.add_argument("--armijo-delta", type=float, default=None)
    p.add_argument("--backtrack-rho", type=float, default=None)
    p.add_argument("--max-backtracks", type=int, default=None)
    p.add_argument("--gamma-floor", type=float, default=None)
    p.add_argument("--eta-floor", type=float, default=None)


def _add_coherence_flags(p):
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    p.add_argument("--window-size", type=int, default=DEFAULT_WINDOW_SIZE)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdtm",
        description="Entropy-penalized topic modeling: train, infer, and evaluate.",
    )
    parser.add_argument("--version", action="version", version="cdtm %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write its artifacts")
    _add_common_flags(p)
    _add_corpus_flags(p)
    _add_train_flags(p)
    p.add_argument("--model-format", choices=("json", "binary"), default="json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="per-document topic distributions under a trained model")
    _add_common_flags(p)
    _add_corpus_flags(p)
    _add_train_flags(p)
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--vocab", default=None, help="vocab.tsv (default: next to the model)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("coherence", help="C_V coherence of a model against a reference corpus")
    _add_common_flags(p)
    _add_corpus_flags(p)
    _add_coherence_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", default=None)
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("entropy-stats", help="entropy summary of a gamma.tsv file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_entropy_stats)

    p = sub.add_parser("grid", help="two-stage cross-validated selection of K and lambda")
    _add_common_flags(p)
    _add_corpus_flags(p)
    _add_train_flags(p)
    _add_coherence_flags(p)
    p.add_argument("--k-grid", type=_parse_int_list, default=None, help="comma-separated topic counts")
    p.add_argument("--lambda-grid", type=_parse_float_list, default=None, help="comma-separated penalty weights")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--coherence-on", choices=("validation", "train"), default="validation")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("split", help="deterministic train/test split of a corpus")
    _add_common_flags(p)
    _add_corpus_flags(p)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=cmd_split)

    return parser


def _setup_logging():
    level_name = os.environ.get("CDTM_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
