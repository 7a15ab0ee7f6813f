"""The nine acceptance gates, one test per criterion.

Each test prints a single "criterion N (label): PASS/FAIL" line with the
measured numbers, then asserts. The recovery benchmarks (1-3) and the
denoising regression (7) run the shipped CLI end to end at full scale,
so this module takes several minutes; everything else is seconds.
"""

import numpy as np
import pytest

from bayesdict import (
    ModelConfig,
    TrainingSet,
    atom_distance,
    compute_elbo,
    extract_patches,
    initialize_vb_state,
    match_and_score,
    moments_from_state,
    reassemble_image,
    update_alpha,
    update_codes,
    update_dictionary_atomwise,
    update_dictionary_full,
    update_gamma,
)
from bayesdict.cli import main
from bayesdict.fileio import load_pgm, save_matrix, save_pgm
from bayesdict.gibbs import sample_alpha, sample_atoms, sample_codes, \
    sample_gamma
from bayesdict.model import GibbsState
from bayesdict.synthetic import SyntheticSpec, generate_synthetic
from bayesdict.vb import code_second_moments, expected_residual

import oracles


def check(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def bench_cell_rates(out_dir):
    """mean success rate per grid cell from a bench_table.tsv, keyed by
    (L, snr, K)."""
    rows = (out_dir / "bench_table.tsv").read_text().strip().split("\n")[1:]
    out = {}
    for row in rows:
        f = row.split("\t")
        out[(int(f[1]), float(f[2]), f[3])] = float(f[6])
    return out


# ---------------------------------------------------------------------------
# 1-3: synthetic recovery benchmarks (full-scale, minutes)


@pytest.mark.slow
def test_criterion_1_gibbs_recovery(tmp_path):
    out = tmp_path / "gibbs"
    rc = main(["bench-synthetic", "--engine", "gibbs", "--iters", "300",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    mean = bench_cell_rates(out)[(1000, 30.0, "3")]
    check(1, "Gibbs recovery, L=1000/SNR=30/K=3", mean >= 0.90,
          f"mean success over 5 seeds = {mean:.4f}, require >= 0.90")


@pytest.mark.slow
def test_criterion_2_vb_recovery(tmp_path):
    out = tmp_path / "vb"
    rc = main(["bench-synthetic", "--engine", "vb-full", "--iters", "300",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    mean = bench_cell_rates(out)[(1000, 30.0, "3")]
    check(2, "VB recovery, L=1000/SNR=30/K=3", mean >= 0.85,
          f"mean success over 5 seeds = {mean:.4f}, require >= 0.85")


@pytest.mark.slow
def test_criterion_3_hard_regime_cliff(tmp_path):
    cfg = tmp_path / "cliff.cfg"
    cfg.write_text("snr_grid = 10 30\nk_grid = 5\n")
    out = tmp_path / "cliff"
    rc = main(["bench-synthetic", "--engine", "gibbs", "--config", str(cfg),
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    rates = bench_cell_rates(out)
    hard, easy = rates[(1000, 10.0, "5")], rates[(1000, 30.0, "5")]
    check(3, "K=5 cliff between SNR 10 and 30", hard <= easy - 0.30,
          f"SNR=10 rate {hard:.4f} vs SNR=30 rate {easy:.4f}, "
          f"require a >= 0.30 drop")


# ---------------------------------------------------------------------------
# 4: oracle equivalence on a 2x2x2 instance


def tiny_vb_state(seed):
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(2):
        A = rng.standard_normal((2, 2))
        covs.append(A @ A.T + np.eye(2))
    from bayesdict.model import VBState
    return VBState(
        code_means=rng.standard_normal((2, 2)),
        code_covs=np.stack(covs),
        dict_mean=rng.standard_normal((2, 2)),
        dict_row_cov=0.3 * np.eye(2) + 0.05,
        alpha_shape=1.4,
        alpha_rates=0.5 + rng.random((2, 2)),
        gamma_shape=5.0,
        gamma_rate=2.5,
    )


def tiny_gibbs_state(seed):
    rng = np.random.default_rng(seed)
    return GibbsState(
        X=rng.standard_normal((2, 2)),
        D=rng.standard_normal((2, 2)),
        alpha=0.5 + rng.random((2, 2)),
        gamma=1.3,
        rng=np.random.default_rng(4321),
    ), TrainingSet.from_matrix(rng.standard_normal((2, 2)))


def test_criterion_4_oracle_equivalence():
    data = TrainingSet.from_matrix(
        np.random.default_rng(40).standard_normal((2, 2)))
    cfg = ModelConfig(num_atoms=2, a=0.7, b=0.2, c=0.9, d=0.3, beta=2.0)
    gaps = []

    # VB codes
    st = tiny_vb_state(41)
    pre = moments_from_state(st)
    update_codes(st, data)
    for l in range(2):
        mu, Sig = oracles.code_posterior_dense(
            st.dict_mean, pre.dtd, pre.alpha_mean[:, l], pre.gamma_mean,
            data.Y[:, l])
        gaps.append(np.max(np.abs(st.code_means[:, l] - mu) /
                           np.maximum(np.abs(mu), 1e-300)))
        gaps.append(np.max(np.abs(st.code_covs[l] - Sig) / np.abs(Sig)))

    # VB dictionary (full and atomwise)
    st = tiny_vb_state(42)
    pre = moments_from_state(st)
    update_dictionary_full(st, data, cfg.beta)
    Dm, A = oracles.dict_posterior_dense(data.Y, pre.x_mean, pre.x_outer,
                                         pre.gamma_mean, cfg.beta)
    gaps.append(np.max(np.abs(st.dict_mean - Dm) / np.abs(Dm)))
    gaps.append(np.max(np.abs(st.dict_row_cov - A) / np.abs(A)))

    st = tiny_vb_state(43)
    pre = moments_from_state(st)
    D_ref = st.dict_mean.copy()
    for n in range(2):
        defl = data.Y - D_ref @ st.code_means \
            + np.outer(D_ref[:, n], st.code_means[n, :])
        var = 1.0 / (pre.gamma_mean * pre.x_outer[n, n] + 1.0 / cfg.beta)
        D_ref[:, n] = pre.gamma_mean * var * (defl @ st.code_means[n, :])
    update_dictionary_atomwise(st, data, cfg.beta)
    gaps.append(np.max(np.abs(st.dict_mean - D_ref) / np.abs(D_ref)))

    # VB alpha and gamma
    st = tiny_vb_state(44)
    sq = code_second_moments(st)
    resid = expected_residual(st, data)
    update_alpha(st, cfg)
    update_gamma(st, data, cfg)
    gaps.append(abs(st.alpha_shape - (cfg.a + 0.5)) / (cfg.a + 0.5))
    gaps.append(np.max(np.abs(st.alpha_rates - (cfg.b + 0.5 * sq)) /
                       (cfg.b + 0.5 * sq)))
    want_shape = 2 * 2 / 2.0 + cfg.c
    want_rate = cfg.d + 0.5 * resid
    gaps.append(abs(st.gamma_shape - want_shape) / want_shape)
    gaps.append(abs(st.gamma_rate - want_rate) / want_rate)

    det_gap = float(np.max(gaps))
    det_ok = det_gap < 1e-10

    # Gibbs conditionals, 1e5 draws each, 3 standard errors
    n_draws = 100_000
    worst_z = 0.0

    base, gdata = tiny_gibbs_state(45)
    draws = np.empty((n_draws, 2, 2))
    st = GibbsState(X=base.X.copy(), D=base.D, alpha=base.alpha,
                    gamma=base.gamma, rng=base.rng)
    for t in range(n_draws):
        st.X = base.X.copy()
        sample_codes(st, gdata)
        draws[t] = st.X
    for l in range(2):
        mean, cov = oracles.code_conditional_moments(
            base.D, base.alpha[:, l], base.gamma, gdata.Y[:, l])
        got = draws[:, :, l]
        z_mean = np.abs(got.mean(axis=0) - mean) / oracles.mean_se(got)
        z_cov = np.abs(np.cov(got.T) - cov) / oracles.cov_se(cov, n_draws)
        worst_z = max(worst_z, float(z_mean.max()), float(z_cov.max()))

    base, gdata = tiny_gibbs_state(46)
    mean0, var0 = oracles.atom_conditional_moments(
        base.D, base.X, gdata.Y, base.gamma, beta=1.5, n=0)
    atom_draws = np.empty((n_draws, 2))
    st = GibbsState(X=base.X, D=base.D.copy(), alpha=base.alpha,
                    gamma=base.gamma, rng=base.rng)
    for t in range(n_draws):
        st.D = base.D.copy()
        sample_atoms(st, gdata, beta=1.5)
        atom_draws[t] = st.D[:, 0]
    z = np.abs(atom_draws.mean(axis=0) - mean0) / oracles.mean_se(atom_draws)
    worst_z = max(worst_z, float(z.max()))
    emp_var = atom_draws.var(axis=0, ddof=1)
    z_var = np.abs(emp_var - var0) / (var0 * np.sqrt(2.0 / (n_draws - 1)))
    worst_z = max(worst_z, float(z_var.max()))

    base, gdata = tiny_gibbs_state(47)
    a_shape = cfg.a + 0.5
    a_rates = cfg.b + 0.5 * base.X ** 2
    alpha_draws = np.empty((n_draws, 2, 2))
    st = GibbsState(X=base.X, D=base.D, alpha=base.alpha.copy(),
                    gamma=base.gamma, rng=base.rng)
    for t in range(n_draws):
        sample_alpha(st, cfg)
        alpha_draws[t] = st.alpha
    se = (np.sqrt(a_shape) / a_rates) / np.sqrt(n_draws)
    z = np.abs(alpha_draws.mean(axis=0) - a_shape / a_rates) / se
    worst_z = max(worst_z, float(z.max()))

    base, gdata = tiny_gibbs_state(48)
    resid = gdata.Y - base.D @ base.X
    g_shape = cfg.c + 2 * 2 / 2.0
    g_rate = cfg.d + 0.5 * float(np.sum(resid ** 2))
    gamma_draws = np.empty(n_draws)
    st = GibbsState(X=base.X, D=base.D, alpha=base.alpha,
                    gamma=base.gamma, rng=base.rng)
    for t in range(n_draws):
        sample_gamma(st, gdata, cfg)
        gamma_draws[t] = st.gamma
    z = abs(gamma_draws.mean() - g_shape / g_rate) / \
        (np.sqrt(g_shape) / g_rate / np.sqrt(n_draws))
    worst_z = max(worst_z, float(z))

    mc_ok = worst_z < 3.0
    check(4, "oracle equivalence on 2x2x2",
          det_ok and mc_ok,
          f"deterministic updates max rel gap {det_gap:.2e} (require < 1e-10); "
          f"sampler moments worst z = {worst_z:.2f} (require < 3)")


# ---------------------------------------------------------------------------
# 5: ELBO monotonicity at the pinned size


def test_criterion_5_elbo_monotone():
    rng = np.random.default_rng(50)
    data = TrainingSet.from_matrix(rng.standard_normal((10, 100)))
    cfg = ModelConfig(num_atoms=20, beta=8.0, seed=5)
    st = initialize_vb_state(cfg, data)

    worst = 0.0  # most negative relative ELBO step
    last = compute_elbo(st, data, cfg)
    for _ in range(100):
        for step in ("codes", "dict", "alpha", "gamma"):
            if step == "codes":
                update_codes(st, data)
            elif step == "dict":
                update_dictionary_full(st, data, cfg.beta)
            elif step == "alpha":
                update_alpha(st, cfg)
            else:
                update_gamma(st, data, cfg)
            now = compute_elbo(st, data, cfg)
            drop = (last - now) / max(abs(last), 1.0)
            worst = max(worst, drop)
            last = now
    check(5, "ELBO monotone over 100 sweeps x 4 updates", worst <= 1e-8,
          f"worst relative decrease {worst:.2e} (require <= 1e-8)")


# ---------------------------------------------------------------------------
# 6: MOD equivalence in the flat-prior limit


def test_criterion_6_mod_equivalence():
    rng = np.random.default_rng(60)
    data = TrainingSet.from_matrix(rng.standard_normal((6, 80)))
    cfg = ModelConfig(num_atoms=9, beta=1e30, seed=6)
    st = initialize_vb_state(cfg, data)
    update_codes(st, data)
    pre = moments_from_state(st)
    update_dictionary_full(st, data, cfg.beta)
    mod = (data.Y @ pre.x_mean.T) @ np.linalg.inv(pre.x_outer)
    gap = float(np.max(np.abs(st.dict_mean - mod)) /
                np.max(np.abs(mod)))
    check(6, "beta=1e30 dictionary update equals MOD", gap < 1e-8,
          f"max relative gap {gap:.2e} (require < 1e-8)")


# ---------------------------------------------------------------------------
# 7: denoising regression on the cameraman crop


@pytest.mark.slow
def test_criterion_7_denoising(tmp_path):
    skimage_data = pytest.importorskip("skimage.data")
    clean = skimage_data.camera()[192:320, 192:320].astype(np.float64)

    clean_path = tmp_path / "clean.pgm"
    noisy_path = tmp_path / "noisy.pgm"
    save_pgm(clean, clean_path)
    rng = np.random.default_rng(0)
    save_pgm(clean + 25.0 * rng.standard_normal(clean.shape), noisy_path)

    # round trip sanity required by the criterion
    noisy = load_pgm(noisy_path)
    patches, grid = extract_patches(noisy, patch_size=8, stride=1)
    identity_gap = float(np.max(np.abs(reassemble_image(patches, grid)
                                       - noisy)))

    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        f"input = {noisy_path}\nnum_atoms = 256\nstride = 2\niters = 40\n")
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(train_cfg), "--engine", "gibbs",
                 "--out", str(train_out)]) == 0

    den_cfg = tmp_path / "den.cfg"
    den_cfg.write_text(
        f"dictionary = {train_out / 'dictionary.txt'}\n"
        f"input = {noisy_path}\nsigma = 25.0\nclean = {clean_path}\n")
    den_out = tmp_path / "den"
    assert main(["denoise", "--config", str(den_cfg),
                 "--out", str(den_out)]) == 0

    metrics = {}
    in_metrics = False
    for line in (den_out / "report.txt").read_text().split("\n"):
        if line == "[metrics]":
            in_metrics = True
        elif line.startswith("["):
            in_metrics = False
        elif in_metrics and "\t" in line:
            k, v = line.split("\t")
            metrics[k] = v
    gain = float(metrics["psnr_gain_db"])
    ok = gain >= 4.0 and identity_gap <= 1e-10
    check(7, "cameraman crop denoising, sigma=25",
          ok,
          f"PSNR gain {gain:.2f} dB over noisy input "
          f"({metrics['psnr_conventional_noisy']} -> "
          f"{metrics['psnr_conventional']}, require >= 4); "
          f"extract/reassemble identity gap {identity_gap:.1e} "
          f"(require <= 1e-10)")


# ---------------------------------------------------------------------------
# 8: replay determinism for all three commands


def test_criterion_8_replay_determinism(tmp_path):
    rng = np.random.default_rng(80)
    mismatches = []

    def compare(tag, d1, d2, names):
        for n in names:
            if (d1 / n).read_bytes() != (d2 / n).read_bytes():
                mismatches.append(f"{tag}:{n}")

    bench_cfg = tmp_path / "bench.cfg"
    bench_cfg.write_text("M = 6\nnum_atoms = 8\nL_grid = 40\n"
                         "snr_grid = 20.0\nk_grid = 2\ntrials = 2\n"
                         "iters = 15\n")
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["bench-synthetic", "--config", str(bench_cfg), "--seed", "9",
                 "--out", str(b1)]) == 0
    assert main(["bench-synthetic", "--config", str(b1 / "config_echo.cfg"),
                 "--out", str(b2)]) == 0
    compare("bench", b1, b2, ["bench_table.tsv", "bench_trials.tsv",
                              "report.txt", "config_echo.cfg"])

    spec = SyntheticSpec(M=8, N=10, L=50, sparsity=2, snr_db=25.0, seed=1)
    _, _, Y, _ = generate_synthetic(spec)
    mat = tmp_path / "data.txt"
    save_matrix(Y, mat)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(f"input = {mat}\nnum_atoms = 10\niters = 8\n")
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["train", "--config", str(train_cfg), "--out", str(t1)]) == 0
    assert main(["train", "--config", str(t1 / "config_echo.cfg"),
                 "--out", str(t2)]) == 0
    compare("train", t1, t2, ["dictionary.txt", "trace.tsv", "report.txt",
                              "config_echo.cfg"])

    img = np.add.outer(np.linspace(0, 220, 24), np.linspace(0, 30, 24)) \
        + 12.0 * rng.standard_normal((24, 24))
    noisy_path = tmp_path / "noisy.pgm"
    save_pgm(img, noisy_path)
    dtrain_cfg = tmp_path / "dtrain.cfg"
    dtrain_cfg.write_text(f"input = {noisy_path}\nnum_atoms = 40\n"
                          "iters = 5\n")
    dt = tmp_path / "dt"
    assert main(["train", "--config", str(dtrain_cfg),
                 "--out", str(dt)]) == 0
    den_cfg = tmp_path / "den.cfg"
    den_cfg.write_text(f"dictionary = {dt / 'dictionary.txt'}\n"
                       f"input = {noisy_path}\nsigma = 12.0\n")
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["denoise", "--config", str(den_cfg), "--out", str(d1)]) == 0
    assert main(["denoise", "--config", str(d1 / "config_echo.cfg"),
                 "--out", str(d2)]) == 0
    compare("denoise", d1, d2, ["denoised.pgm", "report.txt",
                                "config_echo.cfg"])

    check(8, "echoed-config replay is byte-identical", not mismatches,
          "all bench/train/denoise artifacts identical" if not mismatches
          else f"mismatched files: {', '.join(mismatches)}")


# ---------------------------------------------------------------------------
# 9: metric fidelity


def test_criterion_9_metric_fidelity():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(50):
        d = rng.standard_normal(20)
        dh = rng.standard_normal(20)
        base = atom_distance(d, dh)
        for s, t in ((-1.0, 1.0), (1.0, -1.0), (2.5, 0.1), (-3.0, 7.0)):
            worst = max(worst, abs(atom_distance(s * d, t * dh) - base))
    invariance_ok = worst <= 1e-12

    D = rng.standard_normal((15, 10))
    perm = rng.permutation(10)
    signs = np.where(rng.random(10) < 0.5, -1.0, 1.0)
    report = match_and_score(D, D[:, perm] * signs)
    perfect_ok = report.success_rate == 1.0
    threshold_ok = report.threshold == 0.01

    # strictness at the boundary: distance exactly 0.01 is a failure
    t = np.array([[1.0], [0.0]])
    boundary = match_and_score(
        t, np.array([[0.99], [np.sqrt(1 - 0.99 ** 2)]]))
    strict_ok = boundary.success_rate == 0.0

    ok = invariance_ok and perfect_ok and threshold_ok and strict_ok
    check(9, "metric fidelity",
          ok,
          f"sign/scale invariance gap {worst:.1e} (require <= 1e-12); "
          f"permuted+flipped dictionary scores {report.success_rate}; "
          f"default threshold {report.threshold}; "
          f"boundary distance 0.01 counts as failure: {strict_ok}")
