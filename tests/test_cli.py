"""End-to-end command-line tests: real files in, exit codes and artifacts out."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cdtm_subprocess_env
from cdtm import __version__
from cdtm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    _load_docs_for_model,
    _read_config_file,
    _Run,
    main,
    read_gamma_tsv,
)
from cdtm.corpus import CorpusConfig, read_encoded_corpus, read_vocabulary_tsv
from cdtm.evaluate import entropy
from cdtm.inference import estep_batch
from cdtm.model import TrainConfig, load_model

FRUIT = ["apple", "banana", "cherry", "plum", "grape"]
METAL = ["iron", "copper", "zinc", "nickel", "cobalt"]


def write_corpus_file(directory):
    """A line-per-document text file with two visible word blocks."""
    rng = np.random.default_rng(99)
    lines = []
    for d in range(12):
        block = FRUIT if d % 2 == 0 else METAL
        words = [block[int(j)] for j in rng.integers(0, 5, size=18)]
        lines.append(" ".join(words))
    path = directory / "docs.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def corpus_file(tmp_path):
    return write_corpus_file(tmp_path)


def loose_corpus_flags():
    return [
        "--min-doc-freq", "1",
        "--stopwords", "none",
        "--max-doc-fraction", "1.0",
    ]


def tokenizer_flags():
    """The corpus flags of infer and coherence, which build no vocabulary."""
    return ["--stopwords", "none"]


def train_argv(corpus_file, out_dir, *extra):
    return [
        "train",
        "--input", str(corpus_file),
        "--out", str(out_dir),
        "--k", "2",
        "--em-max-iters", "5",
        *loose_corpus_flags(),
        *extra,
    ]


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(tmp_path, corpus_file, capsys):
    out = tmp_path / "run"
    assert main(train_argv(corpus_file, out)) == EXIT_OK
    for name in ("model.json", "vocab.tsv", "gamma.tsv", "elbo_trace.csv", "manifest.json"):
        assert (out / name).exists(), name
    assert capsys.readouterr().out.startswith("trained K=2")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["train"]["K"] == 2
    assert manifest["config"]["train"]["lambda"] == 0.0
    assert set(manifest["timings"]) == {"load_seconds", "fit_seconds", "write_seconds"}
    assert 0 <= manifest["diagnostics"]["unconverged_esteps"] <= 12

    ids, gammas = read_gamma_tsv(out / "gamma.tsv")
    assert len(ids) == 12
    assert gammas.shape == (12, 2)


def test_train_reruns_byte_identical(tmp_path, corpus_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(train_argv(corpus_file, out1, "--seed", "7")) == EXIT_OK
    assert main(train_argv(corpus_file, out2, "--seed", "7")) == EXIT_OK
    for name in ("model.json", "gamma.tsv", "elbo_trace.csv", "vocab.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_train_binary_model_format(tmp_path, corpus_file):
    out = tmp_path / "run"
    assert main(train_argv(corpus_file, out, "--model-format", "binary")) == EXIT_OK
    assert (out / "model.bin").exists()
    assert not (out / "model.json").exists()


def test_train_rejects_negative_lambda(tmp_path, corpus_file):
    out = tmp_path / "run"
    assert main(train_argv(corpus_file, out, "--lambda", "-1")) == EXIT_CONFIG


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--newton-tol", "nan"], "newton_tol must be > 0"),
        (["--zeta", "nan,1"], "zeta override must be a finite, positive length-K vector"),
    ],
    ids=["newton-tol-nan", "zeta-nan"],
)
def test_train_rejects_nan_settings(tmp_path, corpus_file, capsys, flags, message):
    # A NaN tolerance or prior is a configuration error, found before the fit.
    assert main(train_argv(corpus_file, tmp_path / "run", *flags)) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "error: " + message


def test_train_missing_input_is_config_error(tmp_path):
    argv = train_argv(tmp_path / "nope.txt", tmp_path / "run")
    assert main(argv) == EXIT_CONFIG


def test_train_malformed_config_file(tmp_path, corpus_file):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n", encoding="utf-8")
    argv = train_argv(corpus_file, tmp_path / "run", "--config", str(cfg))
    assert main(argv) == EXIT_CONFIG


def test_train_rejects_unknown_config_key(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("lamda = 35\n", encoding="utf-8")
    argv = train_argv(corpus_file, tmp_path / "run", "--config", str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert "lamda" in capsys.readouterr().err


def test_train_rejects_removed_newton_max_iters_key(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("newton_max_iters = 50\n", encoding="utf-8")
    argv = train_argv(corpus_file, tmp_path / "run", "--config", str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert "newton_max_iters" in capsys.readouterr().err


# Former settings, each now an error as a flag or a config key: the worker
# count, and the line-search constants and floors that are module constants.
REMOVED_SETTINGS = ["threads", "armijo_delta", "backtrack_rho", "max_backtracks", "gamma_floor", "eta_floor"]


@pytest.mark.parametrize("name", REMOVED_SETTINGS)
def test_train_rejects_removed_threads_flag_and_key(tmp_path, corpus_file, capsys, name):
    flag = "--" + name.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(train_argv(corpus_file, tmp_path / "run", flag, "1"))
    assert exc.value.code == EXIT_CONFIG
    infer = ["infer", "--input", str(corpus_file), "--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        main(infer + ["--model", str(tmp_path / "model.json"), flag, "1"])
    assert exc.value.code == EXIT_CONFIG
    capsys.readouterr()
    cfg = tmp_path / "old.cfg"
    cfg.write_text("%s = 1\n" % name, encoding="utf-8")
    argv = train_argv(corpus_file, tmp_path / "run", "--config", str(cfg))
    assert main(argv) == EXIT_CONFIG
    assert "unknown config key %r" % name in capsys.readouterr().err


positive = st.floats(min_value=1e-300, max_value=1.0)
# config-file key -> (TrainConfig field, strategy for its value)
TRAIN_KEYS = {
    "lambda": ("lam", st.floats(0.0, 1e6)),
    "em_max_iters": ("em_max_iters", st.integers(1, 10_000)),
    "em_rel_tol": ("em_rel_tol", positive),
    "estep_max_iters": ("estep_max_iters", st.integers(1, 10_000)),
    "newton_tol": ("newton_tol", positive),
    "phi_tol": ("phi_tol", positive),
    "seed": ("seed", st.integers(0, 2**63 - 1)),
}


@st.composite
def train_config_files(draw):
    """(config-file text, expected raw mapping, expected TrainConfig fields)."""
    k = draw(st.integers(2, 8))
    values = {"k": k}
    if draw(st.booleans()):
        values["zeta"] = draw(st.lists(st.floats(1e-6, 1e3), min_size=k, max_size=k))
    for key in draw(st.lists(st.sampled_from(sorted(TRAIN_KEYS)), unique=True)):
        values[key] = draw(TRAIN_KEYS[key][1])
    raw, lines = {}, ["# a comment line", ""]
    for key, value in values.items():
        text = ",".join(repr(v) for v in value) if key == "zeta" else repr(value)
        raw[key] = text
        pad = draw(st.sampled_from(["", " ", "  "]))
        comment = draw(st.sampled_from(["", "  # why", "#"]))
        lines.append("%s%s=%s%s%s" % (pad, key, pad, text, comment))
        if draw(st.booleans()):
            lines.append("")
    fields = {"K": k}
    for key, value in values.items():
        if key in TRAIN_KEYS:
            fields[TRAIN_KEYS[key][0]] = value
    if "zeta" in values:
        fields["zeta"] = values["zeta"]
    return "\n".join(lines) + "\n", raw, fields


@settings(max_examples=80, deadline=None)
@given(train_config_files())
def test_config_file_round_trip_property(tmp_path_factory, drawn):
    text, raw, fields = drawn
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(text, encoding="utf-8")
    parsed = _read_config_file(path)
    assert parsed == raw
    cfg = _Run(argparse.Namespace(config=str(path))).config(TrainConfig())
    for name, value in fields.items():
        assert getattr(cfg, name) == value, name


def test_config_file_precedence(tmp_path, corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\nlambda = 5.0  # picked up from the file\n", encoding="utf-8")
    out = tmp_path / "run"
    argv = train_argv(corpus_file, out, "--config", str(cfg))  # --k 2 flag present
    assert main(argv) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["K"] == 2  # flag beats file
    assert manifest["config"]["train"]["lambda"] == 5.0  # file beats default


# ---------------------------------------------------------------------------
# infer


def deep_train(tmp_path, corpus_file, lam):
    out = tmp_path / ("model_lam%g" % lam)
    argv = train_argv(
        corpus_file, out,
        "--lambda", str(lam),
        "--em-max-iters", "60",
        "--em-rel-tol", "1e-10",
        "--newton-tol", "1e-8",
        "--phi-tol", "1e-8",
        "--estep-max-iters", "150",
    )
    assert main(argv) == EXIT_OK
    return out


def test_infer_reproduces_training_theta(tmp_path, corpus_file):
    model_dir = deep_train(tmp_path, corpus_file, 35.0)
    out = tmp_path / "inferred"
    argv = [
        "infer",
        "--input", str(corpus_file),
        "--out", str(out),
        "--model", str(model_dir / "model.json"),
        "--newton-tol", "1e-8",
        "--phi-tol", "1e-8",
        "--estep-max-iters", "150",
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_OK

    _, gammas = read_gamma_tsv(model_dir / "gamma.tsv")
    thetas = {}
    for line in (out / "theta.tsv").read_text().strip().split("\n"):
        parts = line.split("\t")
        thetas[parts[0]] = np.array([float(v) for v in parts[1:]])
    assert len(thetas) == gammas.shape[0]
    worst = 0.0
    for row, (doc_id, theta) in zip(gammas, sorted(thetas.items())):
        assert theta.sum() == pytest.approx(1.0, abs=1e-12)
        worst = max(worst, float(np.abs(theta - row / row.sum()).max()))
    assert worst < 1e-4
    assert (out / "entropy.csv").exists()


def test_infer_skips_oov_documents(tmp_path, corpus_file, capsys):
    model_dir = deep_train(tmp_path, corpus_file, 0.0)
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("apple banana cherry\nqqqq wwww eeee\n", encoding="utf-8")
    out = tmp_path / "inferred"
    argv = [
        "infer",
        "--input", str(mixed),
        "--out", str(out),
        "--model", str(model_dir / "model.json"),
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_OK
    lines = (out / "theta.tsv").read_text().strip().split("\n")
    assert len(lines) == 1  # the all-unknown document was skipped
    assert "1 skipped" in capsys.readouterr().out


def test_infer_theta_and_entropy_bytes(tmp_path, corpus_file):
    # theta.tsv has no header: per document its id, then each theta_k as
    # %.17g, tab-separated.  entropy.csv is a headed CSV of H(theta).
    model_dir = tmp_path / "run"
    assert main(train_argv(corpus_file, model_dir, "--lambda", "35")) == EXIT_OK
    out = tmp_path / "inferred"
    argv = ["infer", "--input", str(corpus_file), "--out", str(out), "--model", str(model_dir / "model.json")]
    assert main(argv + tokenizer_flags()) == EXIT_OK

    model, lam = load_model(model_dir / "model.json")
    vocab = read_vocabulary_tsv(model_dir / "vocab.tsv")
    docs = _load_docs_for_model(str(corpus_file), vocab, CorpusConfig(stopwords=frozenset()))
    config = TrainConfig(K=model.K, lam=lam, zeta=model.zeta)
    per_doc, _ = estep_batch(docs, model, [lam] * len(docs), config)
    thetas = [vp.gamma / float(np.sum(vp.gamma)) for vp in per_doc]
    expected = ["%s\t%s\n" % (d.id, "\t".join("%.17g" % v for v in t)) for d, t in zip(docs, thetas)]
    assert (out / "theta.tsv").read_text(encoding="utf-8") == "".join(expected)
    expected = ["%s,%.17g\n" % (d.id, entropy(t)) for d, t in zip(docs, thetas)]
    assert (out / "entropy.csv").read_text(encoding="utf-8") == "doc_id,entropy\n" + "".join(expected)


def test_infer_all_oov_is_runtime_error(tmp_path, corpus_file):
    model_dir = deep_train(tmp_path, corpus_file, 0.0)
    bad = tmp_path / "bad.txt"
    bad.write_text("qqqq wwww\nzzzz xxxx\n", encoding="utf-8")
    argv = [
        "infer",
        "--input", str(bad),
        "--out", str(tmp_path / "inferred"),
        "--model", str(model_dir / "model.json"),
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_RUNTIME


def test_infer_rejects_threads_flag(tmp_path, corpus_file):
    # The E-step runs in one process; no command takes a worker count.
    argv = [
        "infer",
        "--input", str(corpus_file),
        "--out", str(tmp_path / "x"),
        "--model", str(tmp_path / "model.json"),
        "--threads", "2",
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG


# Flags each command used to accept and then ignore or overwrite.
UNREAD_FLAGS = [
    ("infer", "--k", "2"),  # K and zeta come from the model
    ("infer", "--zeta", "0.5,0.5"),
    ("infer", "--em-max-iters", "3"),  # infer runs E-steps only
    ("infer", "--em-rel-tol", "1e-4"),
    ("infer", "--eta-floor", "1e-9"),
    ("infer", "--seed", "1"),
    ("infer", "--min-doc-freq", "1"),  # no vocabulary is built
    ("infer", "--max-doc-fraction", "1.0"),
    ("coherence", "--seed", "1"),
    ("coherence", "--min-doc-freq", "1"),
    ("coherence", "--max-doc-fraction", "1.0"),
    ("entropy-stats", "--seed", "1"),
    ("entropy-stats", "--config", "run.cfg"),
    ("grid", "--k", "2"),  # the grids set K and lambda
    ("grid", "--lambda", "5"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_command_rejects_flag_it_does_not_read(tmp_path, command, flag, value, capsys):
    argv = [command, "--input", str(tmp_path / "in"), "--out", str(tmp_path / "out")]
    if command in ("infer", "coherence"):
        argv += ["--model", str(tmp_path / "model.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_one_config_file_serves_infer_and_coherence(tmp_path, corpus_file):
    # Keys a command does not read (here K, em_max_iters and min_doc_freq
    # for infer and coherence) are ignored, so train's file can be reused,
    # and left out of its manifest.
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "k = 2\nem_max_iters = 5\nmin_doc_freq = 1\nstopwords = none\nmax_doc_fraction = 1.0\n",
        encoding="utf-8",
    )
    model_dir = tmp_path / "run"
    argv = ["train", "--input", str(corpus_file), "--out", str(model_dir), "--config", str(cfg)]
    assert main(argv) == EXIT_OK
    model = str(model_dir / "model.json")
    for command, extra in (("infer", []), ("coherence", ["--top-n", "3"])):
        out = tmp_path / command
        argv = [command, "--input", str(corpus_file), "--out", str(out), "--model", model]
        assert main(argv + ["--config", str(cfg), *extra]) == EXIT_OK, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["corpus"]["stopwords"] == []
        assert "min_doc_freq" not in manifest["config"]["corpus"]
    manifest = json.loads((tmp_path / "infer" / "manifest.json").read_text())
    assert "K" not in manifest["config"]["train"]  # infer takes K from the model
    assert "em_max_iters" not in manifest["config"]["train"]


def test_train_manifest_records_every_field_set_by_its_flag(tmp_path, corpus_file):
    stop = tmp_path / "stop.txt"
    stop.write_text("apple\n", encoding="utf-8")
    # manifest name -> (flag and value, value recorded in the manifest)
    train = {
        "K": (["--k", "3"], 3),
        "lambda": (["--lambda", "2.5"], 2.5),
        "zeta": (["--zeta", "0.2,0.3,0.4"], [0.2, 0.3, 0.4]),
        "em_max_iters": (["--em-max-iters", "4"], 4),
        "em_rel_tol": (["--em-rel-tol", "1e-5"], 1e-5),
        "estep_max_iters": (["--estep-max-iters", "50"], 50),
        "newton_tol": (["--newton-tol", "1e-6"], 1e-6),
        "phi_tol": (["--phi-tol", "1e-6"], 1e-6),
        "seed": (["--seed", "3"], 3),
    }
    corpus = {
        "lowercase": (["--no-lowercase"], False),
        "min_token_len": (["--min-token-len", "3"], 3),
        "stopwords": (["--stopwords", str(stop)], ["apple"]),
        "min_doc_freq": (["--min-doc-freq", "1"], 1),
        "max_doc_fraction": (["--max-doc-fraction", "0.9"], 0.9),
    }
    argv = ["train", "--input", str(corpus_file), "--out", str(tmp_path / "run")]
    for flags, _ in [*train.values(), *corpus.values()]:
        argv += flags
    assert main(argv) == EXIT_OK
    config = json.loads((tmp_path / "run" / "manifest.json").read_text())["config"]

    names = {"K": "K", "lam": "lambda"}
    assert set(config["train"]) == {names.get(f.name, f.name) for f in fields(TrainConfig)}
    assert set(config["corpus"]) == {f.name for f in fields(CorpusConfig)}
    assert set(train) == set(config["train"])
    assert set(corpus) == set(config["corpus"])
    for section, expected in (("train", train), ("corpus", corpus)):
        for name, (_, value) in expected.items():
            assert config[section][name] == value, name
            assert type(config[section][name]) is type(value), name


def test_infer_truncated_binary_model_is_runtime_error(tmp_path, corpus_file, capsys):
    model_dir = tmp_path / "run"
    assert main(train_argv(corpus_file, model_dir, "--model-format", "binary")) == EXIT_OK
    model_path = model_dir / "model.bin"
    model_path.write_bytes(model_path.read_bytes()[:20])  # cut inside the header
    argv = [
        "infer",
        "--input", str(corpus_file),
        "--out", str(tmp_path / "inferred"),
        "--model", str(model_path),
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_RUNTIME
    assert "truncated" in capsys.readouterr().err


def test_infer_malformed_json_model_is_runtime_error(tmp_path, corpus_file, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("[1, 2]")
    argv = [
        "infer",
        "--input", str(corpus_file),
        "--out", str(tmp_path / "inferred"),
        "--model", str(model_path),
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_RUNTIME
    assert "does not hold a JSON object" in capsys.readouterr().err


def test_infer_missing_model_is_config_error(tmp_path, corpus_file):
    argv = [
        "infer",
        "--input", str(corpus_file),
        "--out", str(tmp_path / "x"),
        "--model", str(tmp_path / "missing.json"),
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# coherence


def test_coherence_stdout_matches_csv(tmp_path, corpus_file, capsys):
    model_dir = deep_train(tmp_path, corpus_file, 0.0)
    capsys.readouterr()  # drop the training banner
    out = tmp_path / "coh"
    argv = [
        "coherence",
        "--input", str(corpus_file),
        "--out", str(out),
        "--model", str(model_dir / "model.json"),
        "--top-n", "3",
        "--window-size", "10",
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("mean_cv ")
    stdout_val = float(printed.split()[1])
    lines = (out / "coherence.csv").read_text().strip().split("\n")
    assert lines[0] == "topic_id,top_words,cv_score"
    mean_line = lines[-1].split(",")
    assert mean_line[0] == "mean"
    assert float(mean_line[2]) == stdout_val
    assert len(lines) == 1 + 2 + 1  # header, one row per topic, mean row


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "--top-n 20 exceeds the model vocabulary size 10"),
        (["--top-n", "1"], "--top-n must be >= 2, got 1"),
        (["--top-n", "3", "--window-size", "1"], "--window-size must be >= 2, got 1"),
    ],
    ids=["top-n-above-vocabulary", "top-n-below-2", "window-size-below-2"],
)
def test_coherence_bad_setting_is_config_error(tmp_path, corpus_file, capsys, flags, message):
    # A setting out of range for the model is a configuration error (exit 2),
    # found before the reference corpus is read: the missing --input file is
    # never opened.
    model_dir = tmp_path / "run"
    assert main(train_argv(corpus_file, model_dir)) == EXIT_OK
    capsys.readouterr()  # drop the training banner
    out = tmp_path / "coh"
    argv = [
        "coherence",
        "--input", str(tmp_path / "missing.txt"),
        "--out", str(out),
        "--model", str(model_dir / "model.json"),
        *flags,
        *tokenizer_flags(),
    ]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.strip() == "error: " + message
    assert not out.exists()


# ---------------------------------------------------------------------------
# entropy-stats


def test_entropy_stats_on_uniform_gammas(tmp_path):
    gamma_path = tmp_path / "gamma.tsv"
    gamma_path.write_text(
        "d0\t2\t2\t2\nd1\t7\t7\t7\nd2\t0.5\t0.5\t0.5\n", encoding="utf-8"
    )
    out = tmp_path / "stats"
    argv = ["entropy-stats", "--input", str(gamma_path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    payload = json.loads((out / "entropy_stats.json").read_text())
    assert payload["K"] == 3
    assert payload["mean"] == pytest.approx(math.log(3), abs=1e-12)
    assert payload["variance"] == pytest.approx(0.0, abs=1e-24)
    lines = (out / "entropy.csv").read_text().strip().split("\n")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "text, line, width",
    [
        ("d0\t1\t2\t3\nd1\t1\t2\n", 2, 4),
        ("d0\t1\t2\n\nd1\t1\t2\nd2\t1\t2\t3\n", 4, 3),
        ("d0\t1\t2\nd1\n", 2, 3),
        ("d0\nd1\t1\t2\n", 1, 2),
    ],
)
def test_entropy_stats_rejects_ragged_gamma_rows(tmp_path, capsys, text, line, width):
    gamma_path = tmp_path / "gamma.tsv"
    gamma_path.write_text(text, encoding="utf-8")
    argv = ["entropy-stats", "--input", str(gamma_path), "--out", str(tmp_path / "stats")]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "%s line %d: expected %d tab-separated columns" % (gamma_path, line, width) in err


def test_entropy_stats_rejects_gamma_cells_that_are_not_numbers(tmp_path, capsys):
    gamma_path = tmp_path / "gamma.tsv"
    gamma_path.write_text("d0\t1\t2\nd1\t1.0\tx\n", encoding="utf-8")
    argv = ["entropy-stats", "--input", str(gamma_path), "--out", str(tmp_path / "stats")]
    assert main(argv) == EXIT_RUNTIME
    assert "%s line 2: could not convert string to float: 'x'" % gamma_path in capsys.readouterr().err


@pytest.mark.parametrize("row", ["nan\t1", "0\t0"])
def test_entropy_stats_rejects_rows_off_the_simplex(tmp_path, capsys, row):
    gamma_path = tmp_path / "gamma.tsv"
    gamma_path.write_text("d0\t1\t2\nd1\t%s\n" % row, encoding="utf-8")
    argv = ["entropy-stats", "--input", str(gamma_path), "--out", str(tmp_path / "stats")]
    assert main(argv) == EXIT_RUNTIME
    assert "gamma row 1 needs finite entries >= 0 with a positive sum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# split and encoded-input training


def test_split_then_train_encoded(tmp_path, corpus_file):
    split_out = tmp_path / "halves"
    argv = [
        "split",
        "--input", str(corpus_file),
        "--out", str(split_out),
        "--train-fraction", "0.75",
        "--seed", "3",
        *loose_corpus_flags(),
    ]
    assert main(argv) == EXIT_OK
    train_dir, test_dir = split_out / "train", split_out / "test"
    for half in (train_dir, test_dir):
        assert (half / "vocab.tsv").exists()
        assert (half / "corpus.tsv").exists()
    vocab = read_vocabulary_tsv(train_dir / "vocab.tsv")
    train_c = read_encoded_corpus(train_dir / "corpus.tsv", vocab)
    assert train_c.n_docs == 9  # floor(12 * 0.75)

    # The encoded output round-trips straight back into training.
    out = tmp_path / "run"
    argv = [
        "train",
        "--input", str(train_dir),
        "--out", str(out),
        "--k", "2",
        "--em-max-iters", "3",
    ]
    assert main(argv) == EXIT_OK
    assert (out / "model.json").exists()


def test_train_encoded_negative_word_id_is_runtime_error(tmp_path, capsys):
    enc = tmp_path / "enc"
    enc.mkdir()
    (enc / "vocab.tsv").write_text("0\ta\t1\n1\tb\t1\n")
    (enc / "corpus.tsv").write_text("d0\t3\t0 1 -1\n")
    argv = ["train", "--input", str(enc), "--out", str(tmp_path / "run"), "--k", "2"]
    assert main(argv) == EXIT_RUNTIME
    assert "'d0'" in capsys.readouterr().err


def test_removed_input_format_flag_exits_2(tmp_path, corpus_file, capsys):
    # A directory holding vocab.tsv is read as an encoded corpus, any other input as text.
    with pytest.raises(SystemExit) as exc:
        main(train_argv(corpus_file, tmp_path / "run", "--input-format", "auto"))
    assert exc.value.code == EXIT_CONFIG
    assert "--input-format" in capsys.readouterr().err


def test_removed_coherence_on_flag_exits_2(tmp_path, corpus_file, capsys):
    # grid always scores coherence on the validation fold.
    argv = ["grid", "--input", str(corpus_file), "--out", str(tmp_path / "g"), "--k-grid", "2",
            "--lambda-grid", "0", "--folds", "2", "--coherence-on", "validation"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "--coherence-on" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid


def test_grid_small_search(tmp_path, corpus_file, capsys):
    out = tmp_path / "grid"
    argv = [
        "grid",
        "--input", str(corpus_file),
        "--out", str(out),
        "--k-grid", "2,3",
        "--lambda-grid", "0,5",
        "--folds", "2",
        "--em-max-iters", "2",
        "--top-n", "2",
        "--window-size", "5",
        *loose_corpus_flags(),
    ]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("selected K=")
    lines = (out / "grid.csv").read_text().strip().split("\n")
    assert lines[0] == "K,lambda,fold,metric_name,value"
    assert len(lines) == 1 + 2 * 2 + 2 * 2  # header + stage-1 rows + stage-2 rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"]["k_grid"] == [2, 3]
    assert manifest["config"]["grid"]["folds"] == 2
    assert set(manifest["config"]["grid"]) == {"k_grid", "lambda_grid", "folds", "top_n", "window_size"}
    # The grids set K and lambda per fit, so config.train records neither.
    assert "K" not in manifest["config"]["train"] and "lambda" not in manifest["config"]["train"]


def test_grid_requires_grids(tmp_path, corpus_file):
    argv = [
        "grid",
        "--input", str(corpus_file),
        "--out", str(tmp_path / "g"),
        "--k-grid", "2",
        *loose_corpus_flags(),
    ]
    assert main(argv) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# every command


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--k", "500"], "--k 500 exceeds the vocabulary size 10"),
        (["grid", "--k-grid", "500", "--lambda-grid", "0", "--folds", "2"], "is smaller than K=500"),
        (["split", "--train-fraction", "1.5"], "--train-fraction must lie strictly in (0, 1), got 1.5"),
    ],
    ids=["train-k-above-vocabulary", "grid-k-above-vocabulary", "split-fraction-above-1"],
)
def test_setting_out_of_range_for_input_is_config_error(tmp_path, corpus_file, capsys, argv, message):
    # The corpus has 10 distinct words.
    command, *flags = argv
    full = [command, "--input", str(corpus_file), "--out", str(tmp_path / "out"), *flags]
    assert main(full + loose_corpus_flags()) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A corpus file and the train outputs of it, shared by the manifest tests."""
    base = tmp_path_factory.mktemp("trained")
    corpus = write_corpus_file(base)
    assert main(train_argv(corpus, base / "run", "--em-max-iters", "2")) == EXIT_OK
    return corpus, base / "run"


# command -> (its flags, given the corpus file and train's output directory;
# seed; inputs keys; outputs keys; timed phases)
MANIFEST_CONTRACT = {
    "train": (
        lambda corpus, run: ["--input", corpus, "--k", "2", "--em-max-iters", "2", "--seed", "5"] + loose_corpus_flags(),
        5, {"corpus"}, {"model", "vocabulary", "gamma", "elbo_trace"}, {"load", "fit", "write"},
    ),
    "infer": (
        lambda corpus, run: ["--input", corpus, "--model", str(run / "model.json")] + tokenizer_flags(),
        0, {"model", "vocabulary", "documents"}, {"theta", "entropy"}, {"load", "infer", "write"},
    ),
    "coherence": (
        lambda corpus, run: ["--input", corpus, "--model", str(run / "model.json"), "--top-n", "3"] + tokenizer_flags(),
        0, {"model", "vocabulary", "reference"}, {"coherence"}, {"load", "score"},
    ),
    "entropy-stats": (
        lambda corpus, run: ["--input", str(run / "gamma.tsv")],
        0, {"gamma"}, {"entropy", "entropy_stats"}, {"compute"},
    ),
    "grid": (
        lambda corpus, run: [
            "--input", corpus, "--k-grid", "2", "--lambda-grid", "0,5", "--folds", "2",
            "--em-max-iters", "2", "--top-n", "2", "--window-size", "5", "--seed", "5",
        ] + loose_corpus_flags(),
        5, {"corpus"}, {"grid"}, {"load", "select"},
    ),
    "split": (
        lambda corpus, run: ["--input", corpus, "--train-fraction", "0.75", "--seed", "5"] + loose_corpus_flags(),
        5, {"corpus"}, {"train", "test"}, {"split"},
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CONTRACT))
def test_command_manifest_contract(tmp_path, trained_dir, command):
    flags, seed, inputs, outputs, phases = MANIFEST_CONTRACT[command]
    corpus, run = trained_dir
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *flags(str(corpus), run)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"version", "command", "seed", "config", "inputs", "outputs", "timings", "diagnostics"}
    assert (manifest["version"], manifest["command"], manifest["seed"]) == (__version__, command, seed)
    assert set(manifest["inputs"]) == inputs
    assert set(manifest["outputs"]) == outputs
    for path in manifest["outputs"].values():
        assert path.startswith(str(out)) and os.path.exists(path), path
    assert set(manifest["timings"]) == {phase + "_seconds" for phase in phases}
    assert all(t >= 0 for t in manifest["timings"].values())


# ---------------------------------------------------------------------------
# process-level entry point


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_subprocess_entry_point(tmp_path, corpus_file):
    out = tmp_path / "run"
    code = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from cdtm.cli import main; sys.exit(main(sys.argv[1:]))",
            *train_argv(corpus_file, out),
        ],
        capture_output=True,
        text=True,
        env=cdtm_subprocess_env(),
    )
    assert code.returncode == EXIT_OK, code.stderr
    assert "trained K=2" in code.stdout
    assert (out / "model.json").exists()
