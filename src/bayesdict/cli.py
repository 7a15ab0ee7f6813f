"""Command-line front end.

Three commands: bench-synthetic (recovery-rate table over an (L, SNR, K)
grid), train (learn a dictionary from a matrix file or image patches),
and denoise (OMP-code all stride-1 patches of a noisy image against a
trained dictionary and average them back).

main frames every command in COMMANDS: it resolves the settings through
the command's schema function, runs the command into the output
directory and writes the report; a BayesdictError exits 1.

Every run writes a report.txt ([config], [metrics] and [artifacts]
sections) plus a config_echo.cfg holding the complete resolved
configuration; replaying that echo reproduces all output files byte for
byte. So nothing time- or host-dependent goes into any file: wall time
is printed to stdout only, which keeps reruns comparable.
"""

import argparse
import itertools
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import (
    REQUIRED,
    format_value,
    parse_config_file,
    render_config,
    resolve,
)
from .errors import (
    BayesdictError,
    ConfigParseError,
    DimensionMismatch,
    ShapeMismatch,
)
from .fileio import _write, load_matrix, load_pgm, save_matrix, save_pgm
from .gibbs import estimate_dictionary, run_gibbs
from .metrics import (
    SUCCESS_THRESHOLD,
    check_threshold,
    match_and_score,
    psnr,
    psnr_conventional,
)
from .model import ModelConfig, TrainingSet
from .omp import OmpStop, batch_encode
from .patches import extract_patches, map_patches
from .synthetic import SyntheticSpec, generate_synthetic
from .vb import run_vb

ENGINES = ("gibbs", "vb-full", "vb-atomwise")  # the first is the default


def _engine_schema(engine: str) -> dict:
    """Keys shared by the engine commands: engine, and every ModelConfig
    field but num_atoms that the engine reads (tol only for VB,
    dict_estimate_mode only for Gibbs), under its field name and with
    ModelConfig's default. Gibbs overrides two: beta=1 instead of the VB
    engines' diffuse atom prior 1e8, and iters=300 instead of 500."""
    if engine not in ENGINES:
        raise ConfigParseError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}")
    gibbs = engine == "gibbs"
    overrides = {"beta": 1.0, "iters": 300} if gibbs else {}
    unread = ("tol",) if gibbs else ("dict_estimate_mode",)
    schema = {"engine": ("str", ENGINES[0])}
    for f in fields(ModelConfig):
        if f.name not in ("num_atoms", *unread):
            default = overrides.get(f.name, f.default)
            schema[f.name] = (type(default).__name__, format_value(default))
    return schema


def _bench_schema(engine: str, given: dict) -> dict:
    schema = _engine_schema(engine)
    schema.update({
        "M": ("int", "20"),
        "num_atoms": ("int", "50"),
        "L_grid": ("int_list", "1000"),
        "snr_grid": ("float_list", "30.0"),
        "k_grid": ("sparsity_list", "3"),
        "trials": ("int", "5"),
        "success_threshold": ("float", format_value(SUCCESS_THRESHOLD)),
    })
    return schema


def _train_schema(engine: str, given: dict) -> dict:
    """stride is read only for a .pgm input (any case), the one input cut
    into patches; on a matrix input, setting it is an error."""
    schema = _engine_schema(engine)
    schema.update({
        "input": ("str", REQUIRED),
        "num_atoms": ("int", "256"),
        "remove_dc": ("bool", "false"),
    })
    if given.get("input", "").lower().endswith(".pgm"):
        schema["stride"] = ("int", "2")
    elif "stride" in given:
        raise ConfigParseError("stride does not apply to matrix input")
    return schema


def _denoise_schema(engine: str, given: dict) -> dict:
    return {"dictionary": ("str", REQUIRED), "input": ("str", REQUIRED),
            "sigma": ("float", REQUIRED), "gain": ("float", "1.15"),
            "clean": ("str", ""), "remove_dc": ("bool", "false")}


def _model_config(resolved: dict) -> ModelConfig:
    """A field the engine's schema omits keeps ModelConfig's default."""
    return ModelConfig(**{f.name: resolved[f.name] for f in fields(ModelConfig)
                          if f.name in resolved})


def _resolve_config(args, schema_for) -> dict:
    """Read --config, then layer schema defaults, file values and every
    flag that shares a schema key's name (--seed, --sigma, ...).

    schema_for takes the engine the run will use (flag, else file, else
    the default), so an engine command's keys and defaults follow that
    engine, and the file's values overlaid with the flags set, so train's
    keys can follow its input. A flag set for a key outside the schema is
    rejected.
    """
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items()
             if value is not None and key not in ("command", "config", "out")}
    engine = args.engine or file_values.get("engine", ENGINES[0])
    schema = schema_for(engine, {**file_values, **flags})
    for key in flags:
        if key not in schema:
            raise ConfigParseError(
                f"--{key.replace('_', '-')} does not apply to "
                f"{engine if 'engine' in schema else args.command}")
    return resolve(schema, file_values, flags, args.config or "<defaults>")


def _fit(engine: str, mcfg: ModelConfig, data: TrainingSet):
    """Run one engine; returns (dictionary estimate, trace.tsv columns as
    name -> per-sweep values, report metrics). The estimate is the mean
    of the chain's kept samples for Gibbs and <D> for VB."""
    if engine == "gibbs":
        _, trace = run_gibbs(mcfg, data)
        D = estimate_dictionary(trace)
    else:
        state, trace = run_vb(mcfg, data, variant=engine.removeprefix("vb-"))
        D = state.dict_mean
    return D, trace.columns, trace.results


def _write_tsv(path: Path, rows) -> None:
    """One tab-separated line per row, fields through str()."""
    _write(path, "".join("\t".join(map(str, row)) + "\n" for row in rows))


def _finish(out_dir: Path, resolved: dict, metrics: dict, artifacts: list,
            t0: float) -> int:
    """Write config_echo.cfg and report.txt, then print the metrics and
    the wall time since t0."""
    artifacts = [*artifacts, "config_echo.cfg", "report.txt"]
    echo = render_config(resolved)
    _write(out_dir / "config_echo.cfg", echo)
    lines = ["[config]", echo.rstrip("\n"), "", "[metrics]"]
    lines += [f"{key}\t{format_value(value)}"
              for key, value in metrics.items()]
    lines += ["", "[artifacts]", *artifacts]
    _write(out_dir / "report.txt", "\n".join(lines) + "\n")
    for key, value in metrics.items():
        print(f"{key} = {format_value(value)}")
    print(f"wall_time_seconds = {time.perf_counter() - t0:.3f}")
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_bench_synthetic(resolved: dict, out_dir: Path):
    engine = resolved["engine"]
    if resolved["trials"] < 1:
        raise ConfigParseError("trials must be >= 1")
    if not (resolved["L_grid"] and resolved["snr_grid"] and resolved["k_grid"]):
        raise ConfigParseError("L_grid, snr_grid, and k_grid must be non-empty")
    # a setting every trial would fail on is rejected before the first
    mcfg = _model_config(resolved)
    check_threshold(resolved["success_threshold"])
    specs = [SyntheticSpec(M=resolved["M"], N=resolved["num_atoms"], L=L,
                           sparsity=k, snr_db=snr, seed=resolved["seed"])
             for L, snr, k in itertools.product(resolved["L_grid"],
                                                resolved["snr_grid"],
                                                resolved["k_grid"])]

    table = [("engine", "L", "snr_db", "K", "trials", "completed",
              "mean_success_rate")]
    per_trial = [("engine", "L", "snr_db", "K", "trial", "seed", "status",
                  "success_rate")]
    all_rates = []
    failures = 0
    for spec in specs:
        cell = (engine, spec.L, format_value(spec.snr_db),
                format_value(spec.sparsity))
        rates = []
        for t in range(resolved["trials"]):
            tseed = resolved["seed"] + t
            try:
                D_true, _, Y, _ = generate_synthetic(
                    replace(spec, seed=tseed))
                D_hat, _, _ = _fit(engine, replace(mcfg, seed=tseed),
                                   TrainingSet.from_matrix(Y))
                rate = match_and_score(
                    D_true, D_hat, resolved["success_threshold"]).success_rate
                status = "ok"
                rates.append(rate)
            except BayesdictError as exc:
                rate = float("nan")
                status = f"error:{type(exc).__name__}"
                failures += 1
            per_trial.append((*cell, t, tseed, status, f"{rate:.6f}"))
        mean = float(np.mean(rates)) if rates else float("nan")
        table.append((*cell, resolved["trials"], len(rates), f"{mean:.6f}"))
        all_rates.extend(rates)
    _write_tsv(out_dir / "bench_table.tsv", table)
    _write_tsv(out_dir / "bench_trials.tsv", per_trial)

    # per-trial failures are nonfatal by contract; trials_failed counts them
    return {
        "success_rate": float(np.mean(all_rates)) if all_rates
        else float("nan"),
        "cells": len(table) - 1,
        "trials_total": len(per_trial) - 1,
        "trials_failed": failures,
    }, ["bench_table.tsv", "bench_trials.tsv"]


def cmd_train(resolved: dict, out_dir: Path):
    # a bad model setting is reported before the input is read
    mcfg = _model_config(resolved)
    if "stride" in resolved:  # an image, cut into 8x8 patches
        Y = extract_patches(load_pgm(resolved["input"]), patch_size=8,
                            stride=resolved["stride"])
    else:
        Y = load_matrix(resolved["input"])
    if resolved["remove_dc"]:
        Y = Y - Y.mean(axis=0, keepdims=True)
    data = TrainingSet.from_matrix(Y)
    D, columns, metrics = _fit(resolved["engine"], mcfg, data)
    _write_tsv(out_dir / "trace.tsv",
               [("iter", *columns)]
               + [(i, *map(repr, row)) for i, row
                  in enumerate(zip(*columns.values()), start=1)])
    save_matrix(D, out_dir / "dictionary.txt")
    metrics["signals"] = data.L
    return metrics, ["dictionary.txt", "trace.tsv"]


def _denoise(noisy, D, threshold, remove_dc):
    """OMP-code every stride-1 patch of noisy (its mean removed first if
    remove_dc) and average the rebuilt patches back, one band of patch
    rows at a time.

    Returns the denoised image and the patches_coded and mean_support
    metrics.
    """
    side = math.isqrt(D.shape[0])
    stop = OmpStop(residual_threshold=threshold)
    coded = selected = 0

    def code(patches):
        nonlocal coded, selected
        means = patches.mean(axis=0) if remove_dc else 0.0
        patches -= means
        codes = batch_encode(D, patches, stop)
        coded += len(codes)
        selected += int(codes.indptr[-1])
        rebuilt = codes.reconstruct(D)
        rebuilt += means
        return rebuilt

    denoised = map_patches(noisy, side, code)
    return denoised, {"patches_coded": coded,
                      "mean_support": selected / coded}


def cmd_denoise(resolved: dict, out_dir: Path):
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
    if not D.any():  # OMP would code every patch with no atom
        raise DimensionMismatch(
            f"dictionary has no nonzero atom ({D.shape[0]}x{D.shape[1]})")
    # the noise norm of a p x p patch is about sigma * p
    threshold = resolved["gain"] * resolved["sigma"] * side
    if not math.isfinite(threshold):
        raise ConfigParseError(
            f"the OMP threshold gain * sigma * {side} = {threshold} is not "
            f"finite")
    noisy = load_pgm(resolved["input"])
    # a bad reference fails here, before any coding or writing
    clean = load_pgm(resolved["clean"]) if resolved["clean"] else None
    if clean is not None and clean.shape != noisy.shape:
        raise ShapeMismatch(
            f"--clean image is {clean.shape}, input is {noisy.shape}")
    denoised, metrics = _denoise(noisy, D, threshold, resolved["remove_dc"])
    save_pgm(denoised, out_dir / "denoised.pgm")
    if clean is not None:
        metrics["psnr"] = psnr(clean, denoised)
        metrics["psnr_noisy"] = psnr(clean, noisy)
        metrics["psnr_conventional"] = psnr_conventional(clean, denoised)
        metrics["psnr_conventional_noisy"] = psnr_conventional(clean, noisy)
        metrics["psnr_gain_db"] = metrics["psnr_conventional"] \
            - metrics["psnr_conventional_noisy"]
    return metrics, ["denoised.pgm"]


COMMANDS = {  # name -> (schema function, command)
    "bench-synthetic": (_bench_schema, cmd_bench_synthetic),
    "train": (_train_schema, cmd_train),
    "denoise": (_denoise_schema, cmd_denoise),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesdict",
        description="Bayesian dictionary learning: synthetic recovery "
                    "benchmark, dictionary training, and patch denoising.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        # denoise still parses the engine flags, so that _resolve_config
        # can reject them by name, but its --help does not offer them
        engine_help = argparse.SUPPRESS if name == "denoise" else None
        sp.add_argument("--config", default=None, metavar="PATH")
        sp.add_argument("--seed", type=int, default=None, metavar="U64",
                        help=engine_help)
        sp.add_argument("--engine", choices=list(ENGINES), default=None,
                        help=engine_help)
        sp.add_argument("--iters", type=int, default=None, metavar="N",
                        help=engine_help)
        sp.add_argument("--out", default="out", metavar="DIR")
        if name == "train":
            sp.add_argument("--stride", type=int, default=None, metavar="N",
                            help="patch grid step of a .pgm input")
        if name == "denoise":
            sp.add_argument("--sigma", type=float, default=None, metavar="F")
            sp.add_argument("--gain", type=float, default=None, metavar="F")
            sp.add_argument("--clean", default=None, metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    schema_for, command = COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        resolved = _resolve_config(args, schema_for)
        out_dir = Path(args.out)
        metrics, artifacts = command(resolved, out_dir)
        return _finish(out_dir, resolved, metrics, artifacts, t0)
    except BayesdictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
