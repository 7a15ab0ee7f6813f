"""Command-line front end.

Three commands: bench-synthetic (recovery-rate table over an (L, SNR, K)
grid), train (learn a dictionary from a matrix file or image patches),
and denoise (OMP-code all stride-1 patches of a noisy image against a
trained dictionary and average them back).

Every run writes a report.txt ([config], [metrics] and [artifacts]
sections) plus a config_echo.cfg holding the complete resolved
configuration; replaying that echo reproduces all output files byte for
byte. So nothing time- or host-dependent goes into any file: wall time
is printed to stdout only, which keeps reruns comparable.
"""

import argparse
import math
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
    if engine not in ENGINES:
        raise ConfigParseError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
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


def _resolve_config(args, schema_for) -> dict:
    """Read --config, then layer schema defaults, file values and every
    flag that shares a schema key's name (--seed, --sigma, ...).

    schema_for takes the engine the run will use (flag, else file, else
    gibbs), so an engine command's defaults follow that engine.
    """
    file_values = parse_config_file(args.config) if args.config else {}
    schema = schema_for(args.engine or file_values.get("engine", "gibbs"))
    return resolve(schema, file_values, vars(args),
                   args.config or "<defaults>")


def _fit(engine: str, mcfg: ModelConfig, data: TrainingSet):
    """Run one engine; returns (dictionary estimate, trace.tsv columns as
    name -> per-sweep values, report metrics)."""
    if engine == "gibbs":
        trace, _ = run_gibbs(mcfg, data)
        D = estimate_dictionary(trace, mcfg.dict_estimate_mode)
        columns = {"residual": trace.residual_per_iter,
                   "gamma": trace.gamma_per_iter}
        metrics = {
            "iterations_run": mcfg.max_iters,
            "kept_samples": len(trace.kept_dicts),
            "final_residual": trace.residual_per_iter[-1],
            "dense_fallback_columns": sum(trace.dense_fallback_per_iter),
        }
        return D, columns, metrics
    state, trace = run_vb(mcfg, data, variant=engine.removeprefix("vb-"))
    columns = {"elbo": trace.elbo, "dict_change": trace.dict_change}
    metrics = {
        "iterations_run": trace.iterations_run,
        "converged": trace.converged,
        "elbo_final": trace.elbo[-1],
        "final_residual": reconstruction_error(data.Y, state.dict_mean,
                                               state.code_means),
        "jitter_fallback_columns": sum(trace.jitter_fallback_per_iter),
    }
    return state.dict_mean, columns, metrics


def _finish(out_dir: Path, resolved: dict, metrics: dict, artifacts: list,
            t0: float) -> int:
    """Write config_echo.cfg and report.txt, then print the metrics and
    the wall time since t0."""
    artifacts = [*artifacts, "config_echo.cfg", "report.txt"]
    echo = render_config(resolved)
    (out_dir / "config_echo.cfg").write_text(echo)
    lines = ["[config]", echo.rstrip("\n"), "", "[metrics]"]
    lines += [f"{key}\t{format_value(value)}"
              for key, value in metrics.items()]
    lines += ["", "[artifacts]", *artifacts]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    for key, value in metrics.items():
        print(f"{key} = {format_value(value)}")
    print(f"wall_time_seconds = {time.perf_counter() - t0:.3f}")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_bench_synthetic(args) -> int:
    t0 = time.perf_counter()
    resolved = _resolve_config(args, _bench_schema)
    engine = resolved["engine"]
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

    metrics = {
        "success_rate": float(np.mean(all_rates)) if all_rates
        else float("nan"),
        "cells": len(cell_rows),
        "trials_total": len(trial_rows),
        "trials_failed": failures,
    }
    # per-trial failures are nonfatal by contract; they are counted above
    return _finish(out_dir, resolved, metrics,
                   ["bench_table.tsv", "bench_trials.tsv"], t0)


def _bench_trial(resolved: dict, engine: str, L: int, snr: float, k,
                 seed: int) -> float:
    spec = SyntheticSpec(M=resolved["M"], N=resolved["num_atoms"], L=L,
                         sparsity=k, snr_db=snr, seed=seed)
    D_true, _, Y, _ = generate_synthetic(spec)
    data = TrainingSet.from_matrix(Y)
    D_hat, _, _ = _fit(engine, _model_config(resolved, seed), data)
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
    resolved = _resolve_config(args, _train_schema)
    Y, kind = _load_training_input(resolved)
    resolved["input_kind"] = kind  # echo the decided kind, not "auto"
    data = TrainingSet.from_matrix(Y)
    mcfg = _model_config(resolved, resolved["seed"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    D, columns, metrics = _fit(resolved["engine"], mcfg, data)
    lines = ["\t".join(["iter", *columns])]
    for i, row in enumerate(zip(*columns.values()), start=1):
        lines.append("\t".join([str(i), *map(repr, row)]))
    (out_dir / "trace.tsv").write_text("\n".join(lines) + "\n")
    save_matrix(D, out_dir / "dictionary.txt")
    metrics["signals"] = data.L
    return _finish(out_dir, resolved, metrics,
                   ["dictionary.txt", "trace.tsv"], t0)


def cmd_denoise(args) -> int:
    t0 = time.perf_counter()
    for flag in ("engine", "iters", "burn_in", "seed"):
        if getattr(args, flag) is not None:
            raise ConfigParseError(f"--{flag.replace('_', '-')} does not "
                                   f"apply to denoise")
    resolved = _resolve_config(args, lambda engine: _DENOISE_SCHEMA)
    if resolved["sigma"] < 0:
        raise ConfigParseError("sigma must be >= 0")
    if resolved["gain"] <= 0:
        raise ConfigParseError("gain must be > 0")

    D = load_matrix(resolved["dictionary"])
    side = math.isqrt(D.shape[0])
    if side * side != D.shape[0]:
        raise DimensionMismatch(
            f"denoising expects square patch atoms (p*p rows, 64 for "
            f"8x8 patches), dictionary has {D.shape[0]}")
    Dn, _ = normalize_dictionary(D)
    noisy = load_pgm(resolved["input"])
    patches, grid = extract_patches(noisy, patch_size=side, stride=1)
    means = patches.mean(axis=0) if resolved["remove_dc"] else 0.0
    patches -= means
    # the noise norm of a p x p patch is about sigma * p
    threshold = resolved["gain"] * resolved["sigma"] * side
    codes = batch_encode(Dn, patches, OmpStop(residual_threshold=threshold))
    denoised_patches = codes.reconstruct(Dn)
    denoised_patches += means
    denoised = reassemble_image(denoised_patches, grid)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_pgm(denoised, out_dir / "denoised.pgm")
    metrics = {"patches_coded": len(codes),
               "mean_support": float(codes.indptr[-1] / len(codes))}
    if resolved["clean"]:
        clean = load_pgm(resolved["clean"])
        metrics["psnr"] = psnr(clean, denoised)
        metrics["psnr_noisy"] = psnr(clean, noisy)
        metrics["psnr_conventional"] = psnr_conventional(clean, denoised)
        metrics["psnr_conventional_noisy"] = psnr_conventional(clean, noisy)
        metrics["psnr_gain_db"] = metrics["psnr_conventional"] \
            - metrics["psnr_conventional_noisy"]
    return _finish(out_dir, resolved, metrics, ["denoised.pgm"], t0)


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
