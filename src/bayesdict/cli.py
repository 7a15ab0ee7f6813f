"""Command-line front end.

Three commands: bench-synthetic (recovery-rate table over an (L, SNR, K)
grid), train (learn a dictionary from a matrix file or image patches),
and denoise (OMP-code all stride-1 patches of a noisy image against a
trained dictionary and average them back).

Every run writes a report plus a config_echo.cfg holding the complete
resolved configuration; replaying that echo reproduces all output files
byte for byte. Wall time is printed to stdout only, never written to a
file, to keep reruns comparable.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    REQUIRED,
    format_value,
    parse_config_file,
    render_config,
    resolve,
)
from .errors import BayesdictError, ConfigParseError, DimensionMismatch
from .fileio import load_matrix, load_pgm, save_matrix, save_pgm
from .gibbs import estimate_dictionary, run_gibbs
from .metrics import (
    match_and_score,
    psnr,
    psnr_conventional,
    reconstruction_error,
)
from .model import ModelConfig, TrainingSet
from .omp import OmpStop, batch_encode, normalize_dictionary
from .patches import extract_patches, reassemble_image
from .report import RunReport, render_report
from .synthetic import SyntheticSpec, generate_synthetic
from .vb import run_vb

ENGINES = ("vb-full", "vb-atomwise", "gibbs")

_ENGINE_KEYS = {
    "engine": ("str", "gibbs"),
    "seed": ("int", "0"),
    "burn_in": ("int", "0"),
    "tol": ("float", "1e-06"),
    "a": ("float", "0.5"),
    "b": ("float", "1e-06"),
    "c": ("float", "0.5"),
    "d": ("float", "1e-06"),
    "thinning": ("int", "1"),
    "dict_estimate_mode": ("str", "last_sample"),
}


def _engine_schema(engine: str) -> dict:
    """Schema keys whose defaults depend on the engine: a diffuse atom
    prior (beta=1e8) for the VB engines versus beta=1 for Gibbs, and a
    sweep budget of 500 for VB, 300 for Gibbs."""
    schema = dict(_ENGINE_KEYS)
    if engine == "gibbs":
        schema["beta"] = ("float", "1.0")
        schema["iters"] = ("int", "300")
    else:
        schema["beta"] = ("float", "100000000.0")
        schema["iters"] = ("int", "500")
    return schema


def _bench_schema(engine: str) -> dict:
    schema = _engine_schema(engine)
    schema.update({
        "M": ("int", "20"),
        "num_atoms": ("int", "50"),
        "L_grid": ("int_list", "1000"),
        "snr_grid": ("float_list", "30.0"),
        "k_grid": ("sparsity_list", "3"),
        "trials": ("int", "5"),
        "success_threshold": ("float", "0.01"),
    })
    return schema


def _train_schema(engine: str) -> dict:
    schema = _engine_schema(engine)
    schema.update({
        "input": ("str", REQUIRED),
        "input_kind": ("str", "auto"),
        "stride": ("int", "2"),
        "num_atoms": ("int", "256"),
        "remove_dc": ("bool", "false"),
    })
    return schema


_DENOISE_SCHEMA = {
    "dictionary": ("str", REQUIRED),
    "input": ("str", REQUIRED),
    "sigma": ("float", REQUIRED),
    "gain": ("float", "1.15"),
    "clean": ("str", ""),
    "remove_dc": ("bool", "false"),
}


def _peek_engine(file_values: dict, flag_engine) -> str:
    engine = flag_engine or file_values.get("engine", "gibbs")
    if engine not in ENGINES:
        raise ConfigParseError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
    return engine


def _model_config(resolved: dict, seed: int) -> ModelConfig:
    return ModelConfig(
        num_atoms=resolved["num_atoms"],
        a=resolved["a"], b=resolved["b"],
        c=resolved["c"], d=resolved["d"],
        beta=resolved["beta"],
        max_iters=resolved["iters"],
        burn_in=resolved["burn_in"],
        tol=resolved["tol"],
        seed=seed,
        thinning=resolved["thinning"],
        dict_estimate_mode=resolved["dict_estimate_mode"],
    )


def _fit(engine: str, mcfg: ModelConfig, data: TrainingSet):
    """Returns (dictionary estimate, engine trace)."""
    if engine == "gibbs":
        trace, _ = run_gibbs(mcfg, data)
        return estimate_dictionary(trace, mcfg.dict_estimate_mode), trace
    state, trace = run_vb(mcfg, data,
                          variant="full" if engine == "vb-full" else "atomwise")
    return state.dict_mean, (state, trace)


def _write_report(out_dir: Path, report: RunReport) -> None:
    (out_dir / "config_echo.cfg").write_text(render_config(report.config_echo))
    report.artifact_paths.append("config_echo.cfg")
    report.artifact_paths.append("report.txt")
    (out_dir / "report.txt").write_text(render_report(report))


def _print_summary(report: RunReport, out_dir: Path, wall: float) -> None:
    for key, value in report.metrics.items():
        print(f"{key} = {format_value(value)}")
    print(f"wall_time_seconds = {wall:.3f}")
    print(f"artifacts written to {out_dir}")


def cmd_bench_synthetic(args) -> int:
    t0 = time.perf_counter()
    file_values = parse_config_file(args.config) if args.config else {}
    source = args.config or "<defaults>"
    engine = _peek_engine(file_values, args.engine)
    flags = {"engine": args.engine, "seed": args.seed,
             "iters": args.iters, "burn_in": args.burn_in}
    resolved = resolve(_bench_schema(engine), file_values, flags, source)
    if resolved["trials"] < 1:
        raise ConfigParseError("trials must be >= 1")
    if not (resolved["L_grid"] and resolved["snr_grid"] and resolved["k_grid"]):
        raise ConfigParseError("L_grid, snr_grid, and k_grid must be non-empty")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trial_rows = []
    cell_rows = []
    all_rates = []
    failures = 0
    for L in resolved["L_grid"]:
        for snr in resolved["snr_grid"]:
            for k in resolved["k_grid"]:
                rates = []
                for t in range(resolved["trials"]):
                    tseed = resolved["seed"] + t
                    try:
                        rate = _bench_trial(resolved, engine, L, snr, k, tseed)
                        status = "ok"
                        rates.append(rate)
                    except BayesdictError as exc:
                        rate = float("nan")
                        status = f"error:{type(exc).__name__}"
                        failures += 1
                    trial_rows.append((engine, L, snr, k, t, tseed,
                                       status, rate))
                mean = float(np.mean(rates)) if rates else float("nan")
                cell_rows.append((engine, L, snr, k, resolved["trials"],
                                  len(rates), mean))
                all_rates.extend(rates)

    def fmt_rate(r):
        return "nan" if np.isnan(r) else f"{r:.6f}"

    table = ["engine\tL\tsnr_db\tK\ttrials\tcompleted\tmean_success_rate"]
    for engine_, L, snr, k, trials, done, mean in cell_rows:
        table.append(f"{engine_}\t{L}\t{format_value(snr)}\t{format_value(k)}"
                     f"\t{trials}\t{done}\t{fmt_rate(mean)}")
    (out_dir / "bench_table.tsv").write_text("\n".join(table) + "\n")

    per_trial = ["engine\tL\tsnr_db\tK\ttrial\tseed\tstatus\tsuccess_rate"]
    for engine_, L, snr, k, t, tseed, status, rate in trial_rows:
        per_trial.append(f"{engine_}\t{L}\t{format_value(snr)}"
                         f"\t{format_value(k)}\t{t}\t{tseed}\t{status}"
                         f"\t{fmt_rate(rate)}")
    (out_dir / "bench_trials.tsv").write_text("\n".join(per_trial) + "\n")

    report = RunReport(config_echo=resolved)
    report.metrics["success_rate"] = \
        float(np.mean(all_rates)) if all_rates else float("nan")
    report.metrics["cells"] = len(cell_rows)
    report.metrics["trials_total"] = len(trial_rows)
    report.metrics["trials_failed"] = failures
    report.artifact_paths.extend(["bench_table.tsv", "bench_trials.tsv"])
    _write_report(out_dir, report)
    _print_summary(report, out_dir, time.perf_counter() - t0)
    # per-trial failures are nonfatal by contract; they are counted above
    return 0


def _bench_trial(resolved: dict, engine: str, L: int, snr: float, k,
                 seed: int) -> float:
    spec = SyntheticSpec(M=resolved["M"], N=resolved["num_atoms"], L=L,
                         sparsity=k, snr_db=snr, seed=seed)
    D_true, _, Y, _ = generate_synthetic(spec)
    data = TrainingSet.from_matrix(Y)
    D_hat, _ = _fit(engine, _model_config(resolved, seed), data)
    return match_and_score(D_true, D_hat,
                           resolved["success_threshold"]).success_rate


def _load_training_input(resolved: dict) -> tuple[np.ndarray, str]:
    kind = resolved["input_kind"]
    if kind == "auto":
        kind = "image" if resolved["input"].endswith(".pgm") else "matrix"
    if kind == "image":
        img = load_pgm(resolved["input"])
        Y, _ = extract_patches(img, patch_size=8, stride=resolved["stride"])
    elif kind == "matrix":
        Y = load_matrix(resolved["input"])
    else:
        raise ConfigParseError(
            f"input_kind must be auto, image, or matrix, got {kind!r}")
    if resolved["remove_dc"]:
        Y = Y - Y.mean(axis=0, keepdims=True)
    return Y, kind


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    file_values = parse_config_file(args.config) if args.config else {}
    source = args.config or "<defaults>"
    engine = _peek_engine(file_values, args.engine)
    flags = {"engine": args.engine, "seed": args.seed,
             "iters": args.iters, "burn_in": args.burn_in}
    resolved = resolve(_train_schema(engine), file_values, flags, source)
    Y, kind = _load_training_input(resolved)
    resolved["input_kind"] = kind  # echo the decided kind, not "auto"
    data = TrainingSet.from_matrix(Y)
    mcfg = _model_config(resolved, resolved["seed"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(config_echo=resolved)
    if engine == "gibbs":
        trace, state = run_gibbs(mcfg, data)
        D = estimate_dictionary(trace, mcfg.dict_estimate_mode)
        lines = ["iter\tresidual\tgamma"]
        for i, (r, g) in enumerate(zip(trace.residual_per_iter,
                                       trace.gamma_per_iter), start=1):
            lines.append(f"{i}\t{r!r}\t{g!r}")
        report.metrics["iterations_run"] = mcfg.max_iters
        report.metrics["kept_samples"] = len(trace.kept_dicts)
        report.metrics["final_residual"] = trace.residual_per_iter[-1]
        report.metrics["dense_fallback_columns"] = \
            sum(trace.dense_fallback_per_iter)
    else:
        state, trace = run_vb(mcfg, data,
                              variant="full" if engine == "vb-full"
                              else "atomwise")
        D = state.dict_mean
        lines = ["iter\telbo\tdict_change"]
        for i, (e, ch) in enumerate(zip(trace.elbo, trace.dict_change),
                                    start=1):
            lines.append(f"{i}\t{e!r}\t{ch!r}")
        report.metrics["iterations_run"] = trace.iterations_run
        report.metrics["converged"] = trace.converged
        report.metrics["elbo_final"] = trace.elbo[-1]
        report.metrics["final_residual"] = reconstruction_error(
            data.Y, state.dict_mean, state.code_means)
    (out_dir / "trace.tsv").write_text("\n".join(lines) + "\n")
    save_matrix(D, out_dir / "dictionary.txt")
    report.metrics["signals"] = data.L
    report.artifact_paths.extend(["dictionary.txt", "trace.tsv"])
    _write_report(out_dir, report)
    _print_summary(report, out_dir, time.perf_counter() - t0)
    return 0


def cmd_denoise(args) -> int:
    t0 = time.perf_counter()
    for flag in ("engine", "iters", "burn_in", "seed"):
        if getattr(args, flag) is not None:
            raise ConfigParseError(f"--{flag.replace('_', '-')} does not "
                                   f"apply to denoise")
    file_values = parse_config_file(args.config) if args.config else {}
    source = args.config or "<defaults>"
    flags = {"sigma": args.sigma, "gain": args.gain, "clean": args.clean}
    resolved = resolve(_DENOISE_SCHEMA, file_values, flags, source)
    if resolved["sigma"] < 0:
        raise ConfigParseError("sigma must be >= 0")
    if resolved["gain"] <= 0:
        raise ConfigParseError("gain must be > 0")

    D = load_matrix(resolved["dictionary"])
    if D.shape[0] != 64:
        raise DimensionMismatch(
            f"denoising expects 8x8 patch atoms (64 rows), dictionary "
            f"has {D.shape[0]}")
    Dn, _ = normalize_dictionary(D)
    noisy = load_pgm(resolved["input"])
    patches, grid = extract_patches(noisy, patch_size=8, stride=1)
    if resolved["remove_dc"]:
        means = patches.mean(axis=0)
        coded_input = patches - means
    else:
        means = None
        coded_input = patches
    threshold = resolved["gain"] * resolved["sigma"] * 8.0
    codes = batch_encode(Dn, coded_input,
                         OmpStop(residual_threshold=threshold))
    denoised_patches = np.zeros_like(patches)
    support_sizes = []
    for p, code in enumerate(codes):
        if code.support:
            denoised_patches[:, p] = Dn[:, code.support] @ code.coeffs
        if means is not None:
            denoised_patches[:, p] += means[p]
        support_sizes.append(len(code.support))
    denoised = reassemble_image(denoised_patches, grid)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_pgm(denoised, out_dir / "denoised.pgm")
    report = RunReport(config_echo=resolved)
    report.metrics["patches_coded"] = len(codes)
    report.metrics["mean_support"] = float(np.mean(support_sizes))
    if resolved["clean"]:
        clean = load_pgm(resolved["clean"])
        report.metrics["psnr"] = psnr(clean, denoised)
        report.metrics["psnr_noisy"] = psnr(clean, noisy)
        report.metrics["psnr_conventional"] = psnr_conventional(clean, denoised)
        report.metrics["psnr_conventional_noisy"] = \
            psnr_conventional(clean, noisy)
        report.metrics["psnr_gain_db"] = \
            report.metrics["psnr_conventional"] \
            - report.metrics["psnr_conventional_noisy"]
    report.artifact_paths.append("denoised.pgm")
    _write_report(out_dir, report)
    _print_summary(report, out_dir, time.perf_counter() - t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesdict",
        description="Bayesian dictionary learning: synthetic recovery "
                    "benchmark, dictionary training, and patch denoising.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bench-synthetic", "train", "denoise"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, metavar="PATH")
        sp.add_argument("--seed", type=int, default=None, metavar="U64")
        sp.add_argument("--engine", choices=list(ENGINES), default=None)
        sp.add_argument("--iters", type=int, default=None, metavar="N")
        sp.add_argument("--burn-in", dest="burn_in", type=int, default=None,
                        metavar="N")
        sp.add_argument("--out", default="out", metavar="DIR")
        if name == "denoise":
            sp.add_argument("--sigma", type=float, default=None, metavar="F")
            sp.add_argument("--gain", type=float, default=None, metavar="F")
            sp.add_argument("--clean", default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bench-synthetic": cmd_bench_synthetic,
        "train": cmd_train,
        "denoise": cmd_denoise,
    }
    try:
        return handlers[args.command](args)
    except BayesdictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
