"""End-to-end command behavior: files written, replay identity, errors."""

import numpy as np
import pytest

from bayesdict import vb
from bayesdict.cli import main
from bayesdict.fileio import load_matrix, load_pgm, save_matrix, save_pgm
from bayesdict.synthetic import SyntheticSpec, generate_synthetic
import bench_inputs


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


GIBBS_TRAIN_METRICS = ["iterations_run", "kept_samples", "final_residual",
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
burn_in = 0
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
thinning = 1
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


@pytest.mark.parametrize("engine", ["vb-full", "vb-atomwise"])
def test_vb_engines_reject_burn_in_flag(tmp_path, capsys, engine):
    data_path = make_matrix_input(tmp_path)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"input = {data_path}\nnum_atoms = 10\n")
    rc = run_cli("train", "--config", str(cfg), "--engine", engine,
                 "--burn-in", "2", "--out", str(tmp_path / "x"))
    assert rc == 1
    assert f"--burn-in does not apply to {engine}" \
        in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def test_denoise_rejects_training_flags(tmp_path, capsys):
    for flag, value in (("--engine", "gibbs"), ("--iters", "5"),
                        ("--burn-in", "2"), ("--seed", "1")):
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
