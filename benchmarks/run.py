"""The bayesdict benchmark.

    python3 benchmarks/run.py --workload synth-gibbs --seed 0 \
        --seconds 25 --trace 0

Run from the repository root. One operation is one in-process CLI
command, `bayesdict.cli.main([...])`: a one-trial `bench-synthetic`
cell, a `train` or a `denoise`. Operations repeat, closed loop and one
at a time, until the next one would end more than half an operation
after --seconds. Every input is generated from --seed and the command
sees only those inputs.

--trace 0 reports the end-to-end metrics. --trace 1 alternates
untraced and traced operations on the same inputs, checks that both
write byte-identical artifacts, and reports the per-layer metrics of
the traced ones (see tracing.py). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. README.md in
this directory lists every metric, workload and known gap.
"""

import os
import sys

# Single-threaded BLAS, pinned before numpy loads: one thread measured
# faster than two at every size on a 2-core host, and it is the baseline
# a later threaded change must beat.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

try:
    import numpy as np
    import scipy

    sys.path.insert(0, str(SRC))
    import bayesdict
    import bayesdict.cli
    from bayesdict.fileio import save_matrix, save_pgm
except ImportError as exc:
    print(f"benchmark: cannot import the program from {SRC}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not Path(bayesdict.__file__).resolve().is_relative_to(SRC):
    print(f"benchmark: bayesdict came from {bayesdict.__file__}, "
          f"not from {SRC}", file=sys.stderr)
    sys.exit(2)

import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bayesdict.cli; "
                "print(time.perf_counter() - t)")
SIGMA = 25.0
GAIN = 1.15

# Metric name -> unit. JSON output carries exactly these per mode;
# BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "fraction",
    "quality": "score",
}
PER_LAYER = {
    "gibbs.sample_codes.self_s": "s",
    "gibbs.sample_codes.calls": "count",
    "gibbs.sample_codes.columns": "count",
    "gibbs.sample_atoms.self_s": "s",
    "gibbs.sample_alpha.self_s": "s",
    "gibbs.sample_gamma.self_s": "s",
    "gibbs.run_gibbs.self_s": "s",
    "vb.update_codes.self_s": "s",
    "vb.update_codes.calls": "count",
    "vb.update_codes.columns": "count",
    "vb.compute_elbo.self_s": "s",
    "vb.moments_from_state.self_s": "s",
    "vb.moments_from_state.calls": "count",
    "vb.expected_residual.self_s": "s",
    "vb.update_dictionary_full.self_s": "s",
    "vb.update_alpha.self_s": "s",
    "vb.update_gamma.self_s": "s",
    "vb.run_vb.iterations": "count",
    "linalg.spd_factor.calls": "count",
    "linalg.spd_factor.self_s": "s",
    "linalg.spd_factor.retries": "count",
    "linalg.spd_solve.calls": "count",
    "linalg.spd_solve.self_s": "s",
    "linalg.spd_logdet.calls": "count",
    "linalg.spd_logdet.self_s": "s",
    "omp.batch_encode.self_s": "s",
    "omp.batch_encode.signals": "count",
    "omp.atoms_selected": "count",
    "patches.extract_patches.self_s": "s",
    "patches.reassemble_image.self_s": "s",
    "fileio.load_pgm.self_s": "s",
    "fileio.save_pgm.self_s": "s",
    "fileio.save_matrix.self_s": "s",
    "fileio.load_matrix.self_s": "s",
    "synthetic.generate_synthetic.self_s": "s",
    "metrics.match_and_score.self_s": "s",
    "metrics.psnr_conventional.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "fraction",
}


class OpFailure(Exception):
    """An operation ran but its output failed a correctness check."""


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `write_inputs(work, seed)` generates the inputs and returns the
    paths the commands need. Operation i runs the CLI command
    `argv(files, i % variants, out)`: a workload cycles through a few
    fixed commands, so every operation of one variant must write the
    same `hashed` artifacts byte for byte, and the quality score
    averages over the variants. `check(out, files)` raises OpFailure on
    a bad output and returns the operation's `quality` score;
    `score_run(work, files, out)`, if set, scores the run once from the
    first good operation's output instead.
    """

    name: str
    write_inputs: object
    argv: object
    check: object
    hashed: tuple
    variants: int
    quality: str
    score_run: object = None


SYNTH_CELL = ("M = 20\nnum_atoms = 50\nL_grid = 1000\nsnr_grid = 30.0\n"
              "k_grid = 3\ntrials = 1\n")


def _synth_inputs(work: Path, seed: int) -> dict:
    cfg = work / "cell.cfg"
    cfg.write_text(SYNTH_CELL)
    return {"config": cfg, "seed": seed}


def _synth_workload(name: str, engine: str, iters: int,
                    floor: float) -> Workload:
    def argv(files, variant, out):
        return ["bench-synthetic", "--config", str(files["config"]),
                "--engine", engine, "--iters", str(iters),
                "--seed", str(files["seed"] * 1000 + variant),
                "--out", str(out)]

    def check(out, files):
        rows = _tsv_rows(out / "bench_trials.tsv")
        if len(rows) != 1 or rows[0]["status"] != "ok":
            raise OpFailure(f"trial did not complete: {rows}")
        cell = _tsv_rows(out / "bench_table.tsv")
        rate = float(cell[0]["mean_success_rate"])
        if not math.isfinite(rate) or rate < floor:
            raise OpFailure(f"recovery_rate {rate} below the {engine} "
                            f"acceptance floor {floor}")
        return rate

    return Workload(name, _synth_inputs, argv, check,
                    hashed=("bench_table.tsv",), variants=3,
                    quality="recovery_rate")


def _image_files(work: Path, seed: int, draws: int) -> dict:
    """A clean 128 x 128 image and `draws` noisy versions of it."""
    clean = inputs.clean_image(IMAGE_SIDE, seed)
    files = {"clean": work / "clean.pgm", "noisy": []}
    save_pgm(clean, files["clean"])
    for d in range(draws):
        files["noisy"].append(work / f"noisy{d}.pgm")
        save_pgm(inputs.noisy_image(clean, SIGMA, seed, draw=d),
                 files["noisy"][d])
    return files


def _train_inputs(work: Path, seed: int) -> dict:
    files = _image_files(work, seed, draws=1)
    files["config"] = work / "train.cfg"
    # Averaging the two kept samples halves the run-to-run spread of the
    # quality score against scoring the last sample alone.
    files["config"].write_text(f"input = {files['noisy'][0]}\n"
                               f"num_atoms = 256\nstride = 2\n"
                               f"dict_estimate_mode = average_tail(2)\n")
    return files


def _denoise_inputs(work: Path, seed: int) -> dict:
    files = _image_files(work, seed, draws=DENOISE_DRAWS)
    files["dictionary"] = work / "dct.txt"
    save_matrix(inputs.overcomplete_dct(), files["dictionary"])
    return files


def _denoise_argv(dictionary: Path, noisy: Path, clean: Path, out: Path):
    cfg = out.with_suffix(".cfg")
    cfg.write_text(f"dictionary = {dictionary}\ninput = {noisy}\n")
    return ["denoise", "--config", str(cfg), "--sigma", str(SIGMA),
            "--gain", str(GAIN), "--clean", str(clean), "--out", str(out)]


def _denoise_check(out, files):
    if not (out / "denoised.pgm").is_file():
        raise OpFailure("denoised.pgm missing")
    gain = _report_metrics(out / "report.txt").get("psnr_gain_db")
    if gain is None or not math.isfinite(gain) or gain <= 0:
        raise OpFailure(f"psnr_gain_db {gain} is not a gain")
    return gain


def _train_argv(files, variant, out):
    return ["train", "--config", str(files["config"]), "--engine", "gibbs",
            "--iters", str(TRAIN_SWEEPS), "--seed", "0", "--out", str(out)]


def _train_check(out, files):
    D = np.loadtxt(out / "dictionary.txt", skiprows=1, ndmin=2)
    if D.shape != (64, 256) or not np.all(np.isfinite(D)):
        raise OpFailure(f"dictionary.txt is {D.shape} or non-finite")
    trace = np.loadtxt(out / "trace.tsv", skiprows=1, ndmin=2)
    if trace.shape[0] != TRAIN_SWEEPS or not np.all(np.isfinite(trace)):
        raise OpFailure("trace.tsv is short or non-finite")
    return None  # scored once per run by _train_quality


def _train_quality(work: Path, files: dict, trained: Path) -> float:
    """PSNR gain of denoising the training image with the trained
    dictionary, which is what the dictionary is trained for. Untimed."""
    out = work / "train-quality"
    rc = _quiet_main(_denoise_argv(trained / "dictionary.txt",
                                   files["noisy"][0], files["clean"], out))
    if rc != 0:
        raise OpFailure(f"denoising with the trained dictionary exited {rc}")
    return _denoise_check(out, files)


IMAGE_SIDE = 128
TRAIN_SWEEPS = 2
# Noise draws the denoise operations cycle through: the PSNR gain of one
# 128 x 128 draw varies by ~5% between draws, the mean of four by less.
DENOISE_DRAWS = 4

WORKLOADS = {w.name: w for w in (
    _synth_workload("synth-gibbs", "gibbs", iters=100, floor=0.90),
    _synth_workload("synth-vb", "vb-full", iters=20, floor=0.85),
    Workload("image-train", _train_inputs, _train_argv, _train_check,
             hashed=("dictionary.txt", "trace.tsv"), variants=1,
             quality="psnr_gain_db", score_run=_train_quality),
    Workload("image-denoise", _denoise_inputs,
             lambda files, variant, out: _denoise_argv(
                 files["dictionary"], files["noisy"][variant],
                 files["clean"], out),
             _denoise_check, hashed=("denoised.pgm",),
             variants=DENOISE_DRAWS, quality="psnr_gain_db"),
)}


def _tsv_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    head = lines[0].split("\t")
    return [dict(zip(head, line.split("\t"))) for line in lines[1:]]


def _report_metrics(path: Path) -> dict:
    out, section = {}, None
    for line in path.read_text().splitlines():
        if line.startswith("["):
            section = line
        elif section == "[metrics]" and "\t" in line:
            key, value = line.split("\t", 1)
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


# --------------------------------------------------------------- operations

def _quiet_main(argv: list) -> int:
    """bayesdict.cli.main with its stdout and stderr kept off ours."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return bayesdict.cli.main(argv)


@dataclass
class Op:
    seconds: float
    ok: bool
    traced: bool
    variant: int
    reason: str = ""
    quality: float = None
    hashes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    out: Path = None


def run_op(wl: Workload, files: dict, variant: int, out: Path,
           traced: bool) -> Op:
    """Run one operation, then check its artifacts (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = wl.argv(files, variant, out)
    tracer = tracing.Tracer() if traced else None
    installed = tracing.install(tracer) if traced else None
    error = None
    try:
        t0 = time.perf_counter()
        if traced:
            tracer.enter(tracing.ROOT_SPAN)
        try:
            rc = _quiet_main(argv)
        finally:
            if traced:
                tracer.exit()
            seconds = time.perf_counter() - t0
    except Exception:  # a crash is a failed operation, not a dead run
        rc, error = None, traceback.format_exc(limit=3)
    finally:
        if traced:
            tracing.uninstall(installed)
    op = Op(seconds=seconds, ok=False, traced=traced, variant=variant,
            out=out)
    if traced:
        op.layers = tracer.metrics()
    if rc != 0:
        op.reason = error or f"exit code {rc}"
        return op
    try:
        missing = [a for a in wl.hashed + ("report.txt",)
                   if not (out / a).is_file()]
        if missing:
            raise OpFailure(f"missing artifacts {missing}")
        op.quality = wl.check(out, files)
        op.hashes = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                     for a in wl.hashed}
        op.ok = True
    except (OpFailure, OSError, ValueError, KeyError, IndexError) as exc:
        op.reason = f"{type(exc).__name__}: {exc}"
    return op


def _fail(op: Op, reason: str) -> None:
    op.ok = False
    op.reason = reason


def _loop(deadline: float, step) -> None:
    """Call step() at least once, then again while the median step time
    says the next one would end less than half a step past the deadline,
    so a run overshoots or stops short by half a step at most."""
    times = []
    while True:
        t0 = time.perf_counter()
        step(len(times))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() + 0.5 * statistics.median(times) > deadline:
            return


def fresh_import_s() -> float:
    """Seconds to import the program (with numpy and scipy) in a fresh
    interpreter: the import part of set-up, repeatable within one run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


# -------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment(args.seed)))

    work = ROOT / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    setups = []
    for r in range(SETUP_REPEATS):
        rep = work / "inputs" / str(r)
        rep.mkdir(parents=True)
        import_s = fresh_import_s()
        t0 = time.perf_counter()
        files = wl.write_inputs(rep, args.seed)
        setups.append(import_s + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    ops = []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        def pair(i):
            # Alternate which side goes first so neither is always
            # measured on a warm cache.
            for traced in (i % 2 == 1, i % 2 == 0):
                ops.append(run_op(wl, files, i % wl.variants,
                                  work / f"op{i}-{int(traced)}", traced))
        _loop(deadline, pair)
    else:
        _loop(deadline, lambda i: ops.append(
            run_op(wl, files, i % wl.variants, work / f"op{i}", False)))

    # Every operation of a variant, traced or not, replays one command.
    firsts = {}
    for op in ops:
        if op.ok and op.hashes != firsts.setdefault(op.variant, op).hashes:
            _fail(op, "artifacts differ from an earlier operation's "
                      "of the same command")
    first = next((op for op in ops if op.ok), None)
    if wl.score_run is not None and first is not None:
        try:
            score = wl.score_run(work, files, first.out)
        except OpFailure as exc:
            for op in ops:
                _fail(op, f"scoring the run's output: {exc}")
        else:
            for op in ops:
                op.quality = score

    for i, op in enumerate(ops):
        status = "ok" if op.ok else f"FAILED {op.reason.strip()}"
        print(f"op {i} {'traced' if op.traced else 'plain'} "
              f"{op.seconds:.4f} s {status}")
    good = [op for op in ops if op.ok]
    failed = len(ops) - len(good)
    if args.trace:
        metrics = _layer_metrics(ops)
        units = PER_LAYER
    else:
        timed = good or ops  # if every operation failed, time them anyway
        qualities = [op.quality for op in good]
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(op.seconds for op in timed),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": len(good) / len(ops),
            "quality": statistics.fmean(qualities) if qualities else 0.0,
        }
        units = END_TO_END
        print(f"operations = {len(ops)} count")
        print(f"fail_share = {failed / len(ops)} fraction")
        print(f"{wl.quality} = {metrics['quality']} (reported as quality)")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _layer_metrics(ops: list) -> dict:
    """Median per traced operation of every PER_LAYER metric (0 where the
    layer never ran), plus the tracing overhead."""
    traced = [op for op in ops if op.traced and op.ok] \
        or [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced and op.ok] \
        or [op for op in ops if not op.traced]
    rows = []
    for op in traced:
        layers = dict(op.layers)
        layers["linalg.spd_factor.retries"] = (
            layers.get("linalg.cho_factor.calls", 0)
            - layers.get("linalg.spd_factor.calls", 0))
        rows.append(layers)
    out = {name: statistics.median(r.get(name, 0) for r in rows)
           for name in PER_LAYER if name != "trace.overhead_share"}
    out["trace.overhead_share"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in plain) - 1.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
