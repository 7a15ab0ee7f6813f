"""End-to-end command behavior: files written, replay identity, errors."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import bayesdict
from bayesdict import ModelConfig, cli, patches, vb
from bayesdict.cli import ENGINES, main
from bayesdict.fileio import load_matrix, load_pgm, save_matrix, save_pgm
from bayesdict.synthetic import SyntheticSpec, generate_synthetic
import bench_inputs
import oracles


def run_cli(*argv):
    return main(list(argv))


def write_bench_cfg(path, engine="gibbs"):
    path.write_text(
        "engine = {}\n"
        "M = 6\n"
        "num_atoms = 8\n"
        "L_grid = 40\n"
        "snr_grid = 20.0\n"
        "k_grid = 2\n"
        "trials = 2\n"
        "iters = 15\n".format(engine))


def make_image(path, q=24, seed=0):
    rng = np.random.default_rng(seed)
    base = np.add.outer(np.linspace(0, 200, q), np.linspace(0, 40, q))
    img = base + 10.0 * rng.standard_normal((q, q))
    save_pgm(img, path)
    return load_pgm(path)


def read_files(out_dir, names):
    return {n: (out_dir / n).read_bytes() for n in names}


def assert_report_layout(out_dir, metric_keys, artifacts):
    """report.txt is exactly [config] (the echo), [metrics] in the given
    key order and [artifacts], ending with the echo and the report."""
    blocks = (out_dir / "report.txt").read_text().split("\n\n")
    assert [b.split("\n", 1)[0] for b in blocks] \
        == ["[config]", "[metrics]", "[artifacts]"]
    config, metrics, files = (b.rstrip("\n").split("\n")[1:] for b in blocks)
    assert config == (out_dir / "config_echo.cfg").read_text().splitlines()
    assert [line.split("\t")[0] for line in metrics] == metric_keys
    assert files == artifacts + ["config_echo.cfg", "report.txt"]


GIBBS_TRAIN_METRICS = ["iterations_run", "final_residual",
                       "dense_fallback_columns", "signals"]
VB_TRAIN_METRICS = ["iterations_run", "converged", "elbo_final",
                    "final_residual", "jitter_fallback_columns",
                    "jitter_fallback_dictionary", "signals"]


# ---------------------------------------------------------------------------
# bench-synthetic


def test_bench_writes_tables_and_report(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg)
    out = tmp_path / "run"
    rc = run_cli("bench-synthetic", "--config", str(cfg), "--out", str(out))
    assert rc == 0

    table = (out / "bench_table.tsv").read_text().strip().split("\n")
    assert table[0].split("\t") == ["engine", "L", "snr_db", "K", "trials",
                                    "completed", "mean_success_rate"]
    row = table[1].split("\t")
    assert row[:4] == ["gibbs", "40", "20.0", "2"]
    assert row[4] == row[5] == "2"
    assert 0.0 <= float(row[6]) <= 1.0

    trials = (out / "bench_trials.tsv").read_text().strip().split("\n")
    assert len(trials) == 3  # header + 2 trials
    seeds = [line.split("\t")[5] for line in trials[1:]]
    assert seeds == ["0", "1"]  # trial seeds are base seed + index

    report = (out / "report.txt").read_text()
    assert_report_layout(
        out, ["success_rate", "cells", "trials_total", "trials_failed"],
        ["bench_table.tsv", "bench_trials.tsv"])
    assert "wall" not in report  # timing must never enter the report file

    echoed = (out / "config_echo.cfg").read_text()
    assert "engine = gibbs" in echoed
    assert "beta = 1.0" in echoed  # engine-dependent default resolved

    printed = capsys.readouterr().out
    assert "wall_time_seconds" in printed


def test_bench_records_diverged_gibbs_trial_as_nonfinite(tmp_path,
                                                       monkeypatch):
    from bayesdict import gibbs

    def nan_gamma(state, data, cfg):
        state.gamma = float("nan")

    monkeypatch.setattr(gibbs, "sample_gamma", nan_gamma)
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg)
    out = tmp_path / "run"
    assert run_cli("bench-synthetic", "--config", str(cfg),
                   "--out", str(out)) == 0
    trials = (out / "bench_trials.tsv").read_text().strip().split("\n")[1:]
    assert [t.split("\t")[6] for t in trials] == ["error:NonFinite"] * 2
    assert "trials_failed\t2" in (out / "report.txt").read_text()


def test_bench_engine_default_beta_for_vb(tmp_path):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg, engine="vb-full")
    out = tmp_path / "run"
    assert run_cli("bench-synthetic", "--config", str(cfg),
                   "--out", str(out)) == 0
    echoed = (out / "config_echo.cfg").read_text()
    assert "beta = 100000000.0" in echoed
    assert "engine = vb-full" in echoed


def test_bench_gibbs_default_chain_length(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("engine = gibbs\nM = 2\nnum_atoms = 2\nL_grid = 4\n"
                   "snr_grid = 20.0\nk_grid = 1\ntrials = 1\n")
    out = tmp_path / "run"
    assert run_cli("bench-synthetic", "--config", str(cfg),
                   "--out", str(out)) == 0
    echoed = (out / "config_echo.cfg").read_text()
    assert "iters = 300" in echoed


DEFAULT_BENCH_ECHO = {
    "gibbs": """\
L_grid = 4
M = 20
a = 0.5
b = 1e-06
beta = 1.0
c = 0.5
d = 1e-06
dict_estimate_mode = last_sample
engine = gibbs
iters = 300
k_grid = 2
num_atoms = 50
seed = 0
snr_grid = 20.0
success_threshold = 0.01
trials = 5
""",
    "vb-full": """\
L_grid = 4
M = 20
a = 0.5
b = 1e-06
beta = 100000000.0
c = 0.5
d = 1e-06
engine = vb-full
iters = 500
k_grid = 2
num_atoms = 50
seed = 0
snr_grid = 20.0
success_threshold = 0.01
tol = 1e-06
trials = 5
""",
}


@pytest.mark.parametrize("engine, beta, iters", [
    ("gibbs", "1.0", "300"),
    ("vb-full", "100000000.0", "500"),
])
def test_bench_echoes_every_default(tmp_path, engine, beta, iters):
    """With only the grid set, the echo is every default the engine
    reads, formatted."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("L_grid = 4\nsnr_grid = 20.0\nk_grid = 2\n")
    out = tmp_path / "run"
    assert run_cli("bench-synthetic", "--config", str(cfg),
                   "--engine", engine, "--out", str(out)) == 0
    echoed = (out / "config_echo.cfg").read_text()
    assert echoed == DEFAULT_BENCH_ECHO[engine]
    assert f"beta = {beta}\n" in echoed and f"iters = {iters}\n" in echoed


@pytest.mark.parametrize("engine, line", [
    *((engine, line) for engine in ("vb-full", "vb-atomwise")
      for line in ("burn_in = 1", "thinning = 2",
                   "dict_estimate_mode = average_tail(2)")),
    ("gibbs", "tol = 0.001"),
    ("gibbs", "burn_in = 1"),
    ("gibbs", "thinning = 2"),
])
def test_engine_rejects_keys_it_does_not_read(tmp_path, capsys, engine,
                                              line):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg, engine)
    cfg.write_text(cfg.read_text() + line + "\n")
    rc = run_cli("bench-synthetic", "--config", str(cfg),
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_keys_are_model_config_fields(engine):
    """Each ModelConfig field the engine reads is a key under its own
    name, so a ModelConfig error names the key a user set."""
    unread = "tol" if engine == "gibbs" else "dict_estimate_mode"
    assert set(cli._engine_schema(engine)) == {
        "engine", *(f.name for f in fields(ModelConfig)
                    if f.name not in ("num_atoms", unread))}


def test_bench_rejects_bad_grid(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("L_grid =\n")
    rc = run_cli("bench-synthetic", "--config", str(cfg),
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_unknown_engine(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("engine = ksvd\n")
    rc = run_cli("bench-synthetic", "--config", str(cfg),
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "engine" in capsys.readouterr().err


def test_bench_rejects_negative_seed(tmp_path, capsys):
    """Caught before any trial by ModelConfig, with the message train
    prints (test_train_reports_a_bad_engine_setting_by_its_key): no raw
    ValueError from numpy's generator, and nothing written."""
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg)
    rc = run_cli("bench-synthetic", "--config", str(cfg), "--seed", "-1",
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("edit, message", [
    (("iters = 15\n", "iters = 15\na = -1\n"),
     "a must be finite and positive, got -1.0"),
    (("L_grid = 40\n", "L_grid = 40 0\n"),
     "L must be a positive integer, got 0"),
    (("k_grid = 2\n", "k_grid = 2 9\n"),
     "sparsity must be at most N=8, got 9"),
    (("snr_grid = 20.0\n", "snr_grid = 20.0 -inf\n"),
     "snr_db must be a number or +inf, got -inf"),
    (("k_grid = 2\n", "k_grid = 2 0\n"),
     "sparsity must be a valid sparsity or (lo, hi) range, got 0"),
    (("iters = 15\n", "iters = 15\ndict_estimate_mode = average_tail(16)\n"),
     "average_tail(16) averages 16 sweeps, a chain of iters=15 has 15"),
    # an atom distance lies in [0, 1], so these fixed the score at 1 and 0
    (("iters = 15\n", "iters = 15\nsuccess_threshold = 5\n"),
     "success_threshold must be in (0, 1], got 5.0"),
    (("iters = 15\n", "iters = 15\nsuccess_threshold = -1\n"),
     "success_threshold must be in (0, 1], got -1.0"),
], ids=["a", "L_grid", "k_grid_above_num_atoms", "snr_grid_minus_inf",
        "k_grid_zero", "tail_above_iters", "success_threshold_5",
        "success_threshold_minus_1"])
def test_bench_rejects_model_settings_before_any_trial(tmp_path, capsys, edit,
                                                       message):
    """A setting train would reject up front, or a grid value no trial
    can use, fails the run as a whole before the first trial, also when
    a valid cell comes before it: not as an error row in every trial of
    an exit-0 run with success_rate nan."""
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg)
    cfg.write_text(cfg.read_text().replace(*edit))
    rc = run_cli("bench-synthetic", "--config", str(cfg),
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, argv, message", [
    ("bench-synthetic", ("--config", "trials0.cfg"), "trials must be >= 1"),
    ("denoise", ("--config", "den.cfg", "--sigma", "-1"),
     "sigma must be >= 0"),
    ("denoise", ("--config", "den.cfg", "--sigma", "10", "--gain", "0"),
     "gain must be > 0"),
])
def test_out_of_range_settings_are_rejected(tmp_path, capsys, command, argv,
                                            message):
    """Each is caught before any file is read or written."""
    (tmp_path / "trials0.cfg").write_text("trials = 0\n")
    (tmp_path / "den.cfg").write_text("dictionary = d.txt\ninput = n.pgm\n")
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    rc = run_cli(command, *argv, "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# train


def make_matrix_input(tmp_path, seed=0):
    spec = SyntheticSpec(M=8, N=10, L=60, sparsity=2, snr_db=25.0, seed=seed)
    _, _, Y, _ = generate_synthetic(spec)
    path = tmp_path / "train_data.txt"
    save_matrix(Y, path)
    return path


def test_train_gibbs_on_matrix(tmp_path):
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\niters = 10\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0

    D = load_matrix(out / "dictionary.txt")
    assert D.shape == (8, 10)
    trace = (out / "trace.tsv").read_text().strip().split("\n")
    assert trace[0] == "iter\tresidual\tgamma"
    assert len(trace) == 11

    assert_report_layout(out, GIBBS_TRAIN_METRICS,
                         ["dictionary.txt", "trace.tsv"])
    assert "signals\t60" in (out / "report.txt").read_text()


@pytest.mark.parametrize("engine", ["vb-full", "vb-atomwise"])
def test_train_vb_metrics(tmp_path, engine):
    data_path = make_matrix_input(tmp_path)
    out = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\n")
    assert run_cli("train", "--config", str(cfg), "--engine", engine,
                   "--iters", "12", "--out", str(out)) == 0
    assert_report_layout(out, VB_TRAIN_METRICS,
                         ["dictionary.txt", "trace.tsv"])
    report = (out / "report.txt").read_text()
    assert "jitter_fallback_columns\t0" in report
    assert "jitter_fallback_dictionary\t0" in report
    assert f"engine = {engine}" in (out / "config_echo.cfg").read_text()
    trace = (out / "trace.tsv").read_text().strip().split("\n")
    assert trace[0] == "iter\telbo\tdict_change"
    elbos = [float(line.split("\t")[1]) for line in trace[1:]]
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(elbos, elbos[1:]))


def test_train_vb_full_counts_dictionary_jitter_per_sweep(tmp_path,
                                                          monkeypatch):
    """jitter_fallback_dictionary sums what update_dictionary_full
    returns over the sweeps; here every sweep reports one fallback."""
    real = vb.update_dictionary_full

    def jittered(*args):
        real(*args)
        return 1

    monkeypatch.setattr(vb, "update_dictionary_full", jittered)
    data_path = make_matrix_input(tmp_path)
    out = tmp_path / "run"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\ntol = 0\n")
    assert run_cli("train", "--config", str(cfg), "--engine", "vb-full",
                   "--iters", "5", "--out", str(out)) == 0
    assert "jitter_fallback_dictionary\t5" in (out / "report.txt").read_text()


def test_train_on_image_patches(tmp_path):
    img_path = tmp_path / "img.pgm"
    make_image(img_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {img_path}\nnum_atoms = 20\niters = 4\n"
                   "stride = 4\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
    D = load_matrix(out / "dictionary.txt")
    assert D.shape == (64, 20)
    # 24x24 image, stride 4: offsets 0,4,8,12,16 -> 25 patches
    assert "signals\t25" in (out / "report.txt").read_text()


def test_train_stride_flag_sets_the_patch_grid(tmp_path):
    img_path = tmp_path / "img.pgm"
    make_image(img_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {img_path}\nnum_atoms = 20\niters = 2\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--stride", "4",
                   "--out", str(out)) == 0
    assert "signals\t25" in (out / "report.txt").read_text()
    assert "stride = 4\n" in (out / "config_echo.cfg").read_text()


def test_train_reads_an_upper_case_pgm_suffix_as_an_image(tmp_path):
    img_path = tmp_path / "img.PGM"
    make_image(img_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {img_path}\nnum_atoms = 20\niters = 2\n"
                   "stride = 4\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
    assert load_matrix(out / "dictionary.txt").shape == (64, 20)
    assert "signals\t25" in (out / "report.txt").read_text()


@pytest.mark.parametrize("flags, line", [((), "stride = 2\n"),
                                         (("--stride", "2"), "")])
def test_train_on_matrix_input_rejects_stride(tmp_path, capsys, flags, line):
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\n{line}")
    rc = run_cli("train", "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "stride does not apply to matrix input" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_on_matrix_input_echoes_no_stride(tmp_path):
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\niters = 2\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
    assert "stride" not in (out / "config_echo.cfg").read_text()


def test_train_missing_input_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("input = /nonexistent/file.txt\n")
    rc = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("stride", ["0", "-2"])
def test_train_rejects_non_positive_stride(tmp_path, capsys, stride):
    img_path = tmp_path / "img.pgm"
    make_image(img_path, q=16)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {img_path}\nnum_atoms = 4\niters = 2\n"
                   f"stride = {stride}\n")
    rc = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: stride must be a positive integer, got {stride}" in err


@pytest.mark.parametrize("line, flags, message", [
    ("", ("--iters", "0"), "iters must be a positive integer, got 0"),
    ("dict_estimate_mode = average_tail(5)\n", ("--iters", "4"),
     "average_tail(5) averages 5 sweeps, a chain of iters=4 has 4"),
    ("", ("--seed", "-1"), "seed must be non-negative, got -1"),
], ids=["iters_zero", "tail_above_iters", "negative_seed"])
def test_train_reports_a_bad_engine_setting_by_its_key(tmp_path, capsys,
                                                       line, flags, message):
    """ModelConfig's check is the only one, and it names the key; the
    seed message is bench-synthetic's too. Nothing is written."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {make_matrix_input(tmp_path)}\n"
                   f"num_atoms = 10\n{line}")
    rc = run_cli("train", "--config", str(cfg), *flags,
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["missing.txt", "missing.pgm"])
def test_train_checks_its_settings_before_reading_the_input(tmp_path, capsys,
                                                            name):
    """A bad engine setting is reported even when the input, a matrix or
    an image, cannot be read: ModelConfig is built first."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {tmp_path / name}\nnum_atoms = 10\n")
    rc = run_cli("train", "--config", str(cfg), "--iters", "0",
                 "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err \
        == "error: iters must be a positive integer, got 0\n"
    assert not (tmp_path / "x").exists()


def test_train_requires_input_key(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("num_atoms = 10\n")
    rc = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "input" in capsys.readouterr().err


def test_train_trace_parses_when_gamma_is_clamped(tmp_path):
    """d = 1.7e308 on a 1 x 3 input makes every gamma draw smaller than
    the smallest normal double, so the chain clamps it there; the trace
    still holds plain numbers."""
    data_path = tmp_path / "tiny.txt"
    save_matrix(np.array([[0.3, -1.2, 0.7]]), data_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 2\niters = 3\n"
                   "d = 1.7e308\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
    rows = [line.split("\t") for line
            in (out / "trace.tsv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(float(field) >= 0 for row in rows for field in row)
    assert {float(row[2]) for row in rows} == {np.finfo(np.float64).tiny}


def test_train_with_a_diverged_chain_writes_nothing(tmp_path, monkeypatch,
                                                    capsys):
    from bayesdict import gibbs

    def nan_gamma(state, data, cfg):
        state.gamma = float("nan")

    monkeypatch.setattr(gibbs, "sample_gamma", nan_gamma)
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\niters = 4\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_train_remove_dc_trains_on_the_centred_matrix(tmp_path):
    """remove_dc = true gives, byte for byte, the dictionary that
    remove_dc = false gives on the column-centred matrix saved to a file."""
    data_path = make_matrix_input(tmp_path)
    Y = load_matrix(data_path)
    centred = tmp_path / "centred.txt"
    save_matrix(Y - Y.mean(axis=0, keepdims=True), centred)
    dictionaries = []
    for name, path, remove_dc in (("dc", data_path, "true"),
                                  ("ref", centred, "false")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"input = {path}\nnum_atoms = 10\niters = 6\n"
                       f"remove_dc = {remove_dc}\n")
        assert run_cli("train", "--config", str(cfg),
                       "--out", str(tmp_path / name)) == 0
        dictionaries.append((tmp_path / name / "dictionary.txt").read_bytes())
    assert dictionaries[0] == dictionaries[1]


# ---------------------------------------------------------------------------
# denoise


def trained_dictionary(tmp_path):
    img_path = tmp_path / "clean.pgm"
    clean = make_image(img_path, q=24, seed=1)
    noisy = clean + 20.0 * np.random.default_rng(2).standard_normal(clean.shape)
    noisy_path = tmp_path / "noisy.pgm"
    save_pgm(noisy, noisy_path)

    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {noisy_path}\nnum_atoms = 40\niters = 5\n")
    train_out = tmp_path / "train_run"
    assert run_cli("train", "--config", str(cfg), "--out",
                   str(train_out)) == 0
    return train_out / "dictionary.txt", noisy_path, img_path


def test_denoise_end_to_end(tmp_path):
    dict_path, noisy_path, clean_path = trained_dictionary(tmp_path)
    out = tmp_path / "den"
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy_path}\n")
    rc = run_cli("denoise", "--config", str(cfg), "--sigma", "20",
                 "--clean", str(clean_path), "--out", str(out))
    assert rc == 0
    den = load_pgm(out / "denoised.pgm")
    assert den.shape == (24, 24)
    assert_report_layout(
        out, ["patches_coded", "mean_support", "psnr", "psnr_noisy",
              "psnr_conventional", "psnr_conventional_noisy", "psnr_gain_db"],
        ["denoised.pgm"])
    report = (out / "report.txt").read_text()
    assert "patches_coded\t289" in report  # (24-8+1)^2 stride-1 patches


def test_denoise_without_clean_reports_no_psnr(tmp_path):
    dict_path, noisy_path, _ = trained_dictionary(tmp_path)
    out = tmp_path / "den"
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy_path}\n"
                   "sigma = 20.0\n")
    assert run_cli("denoise", "--config", str(cfg), "--out", str(out)) == 0
    assert_report_layout(out, ["patches_coded", "mean_support"],
                         ["denoised.pgm"])
    report = (out / "report.txt").read_text()
    assert "psnr" not in report


@pytest.mark.parametrize("clean_side, message", [
    (None, "cannot read"), (12, "--clean image is (12, 12), input is (16, 16)")],
    ids=["missing", "other-shape"])
def test_denoise_writes_nothing_on_a_bad_clean_reference(
        tmp_path, capsys, clean_side, message):
    """A missing --clean file or one of another shape fails before any
    patch is coded, so no denoised.pgm is left without its report."""
    dict_path = tmp_path / "d.txt"
    save_matrix(np.random.default_rng(8).standard_normal((16, 32)),
                dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    clean = tmp_path / "c.pgm"
    if clean_side is not None:
        make_image(clean, q=clean_side)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n")
    out = tmp_path / "x"
    rc = run_cli("denoise", "--config", str(cfg), "--sigma", "10",
                 "--clean", str(clean), "--out", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_denoise_rejects_training_flags(tmp_path, capsys):
    for flag, value in (("--engine", "gibbs"), ("--iters", "5"),
                        ("--seed", "1")):
        rc = run_cli("denoise", flag, value, "--sigma", "20",
                     "--out", str(tmp_path / "x"))
        assert rc == 1
        assert "does not apply" in capsys.readouterr().err


def test_denoise_requires_sigma(tmp_path, capsys):
    dict_path, noisy_path, _ = trained_dictionary(tmp_path)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy_path}\n")
    rc = run_cli("denoise", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


def test_denoise_sigma_zero_leaves_clean_input_intact(tmp_path):
    """Threshold 0 forces near-exact coding: no damage on noiseless data."""
    rng = np.random.default_rng(5)
    img = np.add.outer(np.linspace(10, 240, 16), np.linspace(0, 15, 16)) \
        + 8.0 * rng.standard_normal((16, 16))
    img_path = tmp_path / "img.pgm"
    save_pgm(img, img_path)
    clean = load_pgm(img_path)

    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"input = {img_path}\nnum_atoms = 70\niters = 6\n")
    assert run_cli("train", "--config", str(cfg),
                   "--out", str(tmp_path / "tr")) == 0

    den_cfg = tmp_path / "d.cfg"
    den_cfg.write_text(f"dictionary = {tmp_path / 'tr' / 'dictionary.txt'}\n"
                       f"input = {img_path}\nsigma = 0.0\n")
    assert run_cli("denoise", "--config", str(den_cfg),
                   "--out", str(tmp_path / "dn")) == 0
    out = load_pgm(tmp_path / "dn" / "denoised.pgm")
    np.testing.assert_array_equal(out, clean)


def test_denoise_rejects_wrong_patch_dimension(tmp_path, capsys):
    bad_dict = tmp_path / "d.txt"
    save_matrix(np.eye(32), bad_dict)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {bad_dict}\ninput = {noisy}\nsigma = 10\n")
    rc = run_cli("denoise", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "64" in capsys.readouterr().err


def test_denoise_takes_patch_side_from_dictionary(tmp_path):
    """A 16-row dictionary codes 4x4 patches: (16-4+1)^2 of them."""
    rng = np.random.default_rng(6)
    dict_path = tmp_path / "d.txt"
    save_matrix(rng.standard_normal((16, 24)), dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n"
                   "sigma = 10\n")
    out = tmp_path / "den"
    assert run_cli("denoise", "--config", str(cfg), "--out", str(out)) == 0
    assert load_pgm(out / "denoised.pgm").shape == (16, 16)
    assert "patches_coded\t169" in (out / "report.txt").read_text()


def test_import_and_denoise_load_no_scipy(tmp_path):
    """Only the inference engines call scipy, and each imports it inside
    the function that calls it: importing the package and the CLI and
    running a denoise in a fresh interpreter leave scipy unloaded. Nor
    does any of it draw a random number or evaluate an annotation naming
    np.random, so numpy.random stays unloaded too."""
    dict_path = tmp_path / "d.txt"
    save_matrix(np.random.default_rng(7).standard_normal((16, 24)), dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\nsigma = 10\n")
    probe = (
        "import sys\n"
        "import bayesdict, bayesdict.cli\n"
        f"rc = bayesdict.cli.main(['denoise', '--config', {str(cfg)!r},"
        f" '--out', {str(tmp_path / 'den')!r}])\n"
        "assert rc == 0, rc\n"
        "assert 'scipy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('scipy'))[:5]\n"
        "assert 'numpy.random' not in sys.modules\n")
    src = str(Path(bayesdict.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "den" / "denoised.pgm").exists()


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes",
              "mkdir"}


def test_only_fileio_touches_the_file_system():
    """fileio._read and fileio._write are the package's one file
    boundary: no other module opens, reads, writes or makes a file or
    directory itself, so every I/O failure becomes an IoFailure."""
    package = Path(bayesdict.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) \
                    else getattr(func, "attr", None)
                if name in FILE_CALLS:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def test_only_from_matrix_builds_a_training_set():
    """No module of the package calls TrainingSet(...) by name, so
    from_matrix, which rejects an empty, non-2-d or non-finite matrix,
    stays the one way a TrainingSet is built."""
    package = Path(bayesdict.__file__).parent
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "TrainingSet"]
    assert calls == []


def test_every_error_type_is_raised_somewhere():
    """Every class errors.py defines, but the base class, is raised by
    some module of the package: a type nothing raises is dead code that
    callers may still catch."""
    package = Path(bayesdict.__file__).parent
    defined = {node.name for node in ast.parse(
        (package / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)} - {"BayesdictError"}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name)
                           else getattr(exc, "attr", None))
    assert sorted(defined - raised) == []


def unreadable_inputs(tmp_path):
    """PGM bytes in each of the three places that take a text file, with
    the file that does not decode. train reads an input named .pgm, in
    any case, as an image, so its text input is x.bin."""
    pgm = tmp_path / "x.PGM"
    save_pgm(np.full((16, 16), 255.0), pgm)  # 0xff never starts UTF-8
    binary = tmp_path / "x.bin"
    binary.write_bytes(pgm.read_bytes())
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    den = tmp_path / "den.cfg"
    den.write_text(f"dictionary = {pgm}\ninput = {noisy}\nsigma = 10\n")
    train = tmp_path / "train.cfg"
    train.write_text(f"input = {binary}\nnum_atoms = 4\niters = 2\n")
    return {"denoise-dictionary": (("denoise", "--config", str(den)), pgm),
            "train-input": (("train", "--config", str(train)), binary),
            "config": (("train", "--config", str(pgm)), pgm)}


@pytest.mark.parametrize("case", ["denoise-dictionary", "train-input",
                                  "config"])
def test_a_file_that_does_not_decode_is_an_io_failure(tmp_path, capsys,
                                                      case):
    argv, bad = unreadable_inputs(tmp_path)[case]
    rc = run_cli(*argv, "--out", str(tmp_path / "x"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["bench-synthetic", "train", "denoise"])
def test_an_out_that_names_a_file_is_an_io_failure(tmp_path, capsys,
                                                   command):
    if command == "bench-synthetic":
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("M = 2\nnum_atoms = 2\nL_grid = 4\nk_grid = 1\n"
                       "trials = 1\niters = 2\n")
    elif command == "train":
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"input = {make_matrix_input(tmp_path)}\n"
                       "num_atoms = 4\niters = 2\n")
    else:
        dict_path = tmp_path / "d.txt"
        save_matrix(np.random.default_rng(8).standard_normal((16, 32)),
                    dict_path)
        noisy = tmp_path / "n.pgm"
        make_image(noisy, q=16)
        cfg = tmp_path / "den.cfg"
        cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n"
                       "sigma = 10\n")
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    rc = run_cli(command, "--config", str(cfg), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}/")
    assert out.read_text() == "a file, not a directory\n"


def test_denoise_rejects_non_square_atom_length(tmp_path, capsys):
    dict_path = tmp_path / "d.txt"
    save_matrix(np.random.default_rng(7).standard_normal((48, 10)),
                dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n"
                   "sigma = 10\n")
    rc = run_cli("denoise", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has 48" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("D", [np.zeros((16, 0)), np.zeros((16, 5))],
                         ids=["no-atoms", "all-zero"])
def test_denoise_rejects_a_dictionary_with_no_nonzero_atom(tmp_path, capsys,
                                                           D):
    """Coding every patch with no atom would write a black image."""
    dict_path = tmp_path / "d.txt"
    save_matrix(D, dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n"
                   "sigma = 10\n")
    rc = run_cli("denoise", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: dictionary has no nonzero atom")
    assert not (tmp_path / "x").exists()


def test_denoise_rejects_non_finite_dictionary(tmp_path, capsys):
    """One nan atom entry is an error, not a black image with exit 0."""
    D = bench_inputs.overcomplete_dct()
    D[5, 7] = np.nan
    dict_path = tmp_path / "d.txt"
    save_matrix(D, dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n"
                   "sigma = 10\n")
    rc = run_cli("denoise", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dictionary" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("sigma, gain", [("inf", "1.15"), ("25", "inf"),
                                         ("1e308", "10")])
def test_denoise_rejects_non_finite_threshold(tmp_path, capsys, sigma, gain):
    """An infinite OMP threshold (1e308 * 10 * 4 overflows to inf) would
    code every patch with no atom and write the patch-mean image."""
    dict_path = tmp_path / "d.txt"
    save_matrix(np.random.default_rng(8).standard_normal((16, 32)),
                dict_path)
    noisy = tmp_path / "n.pgm"
    make_image(noisy, q=16)
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy}\n")
    rc = run_cli("denoise", "--config", str(cfg), "--sigma", sigma,
                 "--gain", gain, "--out", str(tmp_path / "x"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not finite" in err
    assert not (tmp_path / "x").exists()


def atoms_4x4():
    """A 16 x 36 dictionary for 4 x 4 patches: the separable 2-D DCT-II
    of 6 frequencies per axis, as the 64 x 256 one is built."""
    k = np.arange(6)[None, :]
    A = np.cos(np.arange(4)[:, None] * k * np.pi / 6)
    A[:, 1:] -= A[:, 1:].mean(axis=0)
    A /= np.linalg.norm(A, axis=0)
    return np.kron(A, A)


@pytest.mark.parametrize("side, atoms, remove_dc, band", [
    (128, "dct", False, 2048), (128, "dct", True, 2048),
    (100, "dct", False, 2048), (100, "dct", True, 2048),
    (38, "dct", False, 2048), (38, "dct", True, 2048),
    (100, "4x4", False, 2048), (38, "4x4", True, 2048),
    (24, "dct", False, 1), (24, "dct", True, 1),
])
def test_banded_denoise_matches_whole_image_oracle(monkeypatch, side, atoms,
                                                   remove_dc, band):
    """Coding one band of patch rows at a time gives the whole-grid
    pipeline's image, patches_coded and mean_support bit for bit. 128 and
    100 take several bands, 100 ending in a short one (93 patch rows at
    8 x 8, 97 at 4 x 4); 38 fits in one band; a band of one patch still
    holds a whole patch row."""
    monkeypatch.setattr(patches, "_BAND_PATCHES", band)
    D = bench_inputs.overcomplete_dct() if atoms == "dct" else atoms_4x4()
    p = math.isqrt(D.shape[0])
    noisy = bench_inputs.noisy_image(bench_inputs.clean_image(side, seed=3),
                                     25.0, seed=3)
    threshold = 1.15 * 25.0 * p
    bands = []
    encode = cli.batch_encode
    monkeypatch.setattr(cli, "batch_encode", lambda D, Y, stop: (
        bands.append(Y.shape[1]) or encode(D, Y, stop)))
    image, metrics = cli._denoise(noisy, D, threshold, remove_dc)
    ref_image, ref_metrics = oracles.denoise_whole_image(noisy, D, threshold,
                                                         remove_dc)
    np.testing.assert_array_equal(image, ref_image)
    assert metrics == ref_metrics
    n = side - p + 1
    rows = max(1, band // n)
    assert bands == [rows * n] * (n // rows) + [n % rows * n] * (n % rows > 0)


def test_denoise_memory_is_set_by_the_band_not_the_image():
    """Denoising a 256 x 256 image: its 62 001 stride-1 patches would take
    31.7 MB as one matrix, as much again rebuilt. Measured peak traced
    allocation with bands of 2048 patches: 7.2 MiB, against 67.8 MiB for
    the whole-grid oracle."""
    D = bench_inputs.overcomplete_dct()
    noisy = bench_inputs.noisy_image(bench_inputs.clean_image(256, seed=5),
                                     25.0, seed=5)
    tracemalloc.start()
    try:
        image, metrics = cli._denoise(noisy, D, 230.0, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert image.shape == (256, 256)
    assert metrics["patches_coded"] == 249 ** 2


def test_denoise_help_lists_only_denoise_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("denoise", "--help")
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--config", "--out", "--sigma", "--gain", "--clean"):
        assert flag in text
    for flag in ("--seed", "--engine", "--iters", "--burn-in"):
        assert flag not in text


# ---------------------------------------------------------------------------
# replay determinism (fast versions; the acceptance suite runs these at
# benchmark scale)


def test_bench_replay_is_byte_identical(tmp_path):
    cfg = tmp_path / "bench.cfg"
    write_bench_cfg(cfg)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("bench-synthetic", "--config", str(cfg), "--seed", "3",
                   "--out", str(out1)) == 0
    assert run_cli("bench-synthetic", "--config",
                   str(out1 / "config_echo.cfg"), "--out", str(out2)) == 0
    names = ["bench_table.tsv", "bench_trials.tsv", "report.txt",
             "config_echo.cfg"]
    assert read_files(out1, names) == read_files(out2, names)


@pytest.mark.parametrize("engine", ["gibbs", "vb-full", "vb-atomwise"])
def test_train_replay_is_byte_identical(tmp_path, engine):
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\niters = 8\n"
                   f"engine = {engine}\n")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("train", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("train", "--config", str(out1 / "config_echo.cfg"),
                   "--out", str(out2)) == 0
    names = ["dictionary.txt", "trace.tsv", "report.txt", "config_echo.cfg"]
    assert read_files(out1, names) == read_files(out2, names)


def test_denoise_replay_is_byte_identical(tmp_path):
    dict_path, noisy_path, clean_path = trained_dictionary(tmp_path)
    out1 = tmp_path / "den1"
    out2 = tmp_path / "den2"
    cfg = tmp_path / "den.cfg"
    cfg.write_text(f"dictionary = {dict_path}\ninput = {noisy_path}\n"
                   f"clean = {clean_path}\nsigma = 20.0\n")
    assert run_cli("denoise", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("denoise", "--config", str(out1 / "config_echo.cfg"),
                   "--out", str(out2)) == 0
    names = ["denoised.pgm", "report.txt", "config_echo.cfg"]
    assert read_files(out1, names) == read_files(out2, names)
