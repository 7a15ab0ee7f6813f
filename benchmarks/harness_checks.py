"""Tests of the benchmark itself, kept out of the repository's test
suite. Run from the repository root:

    python3 -m pytest -q benchmarks/harness_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402  (pins BLAS threads and imports bayesdict from src/)
import tracing  # noqa: E402

import bayesdict  # noqa: E402
import bayesdict.cli  # noqa: E402
import bayesdict.gibbs  # noqa: E402
import bayesdict.linalg  # noqa: E402
import bayesdict.vb  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 7], which holds c [2, 5]; then b again [8, 9].
    t = tracing.Tracer(clock=FakeClock(0, 1, 2, 5, 7, 8, 9, 10))
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    m = t.metrics()
    assert m["c.self_s"] == 3
    assert m["b.self_s"] == (6 - 3) + 1
    assert m["a.self_s"] == 10 - 6 - 1
    assert m["b.calls"] == 2 and m["a.calls"] == 1
    assert m["a.self_s"] + m["b.self_s"] + m["c.self_s"] == 10


def test_recursive_span_self_times_sum_to_wall():
    t = tracing.Tracer(clock=FakeClock(0, 2, 5, 9))
    t.enter("f")
    t.enter("f")
    t.exit()
    t.exit()
    assert t.metrics()["f.self_s"] == 9
    assert t.metrics()["f.calls"] == 2


@pytest.mark.parametrize("side", [16, 128, 256])
def test_clean_image_is_deterministic_and_in_range(side):
    a = inputs.clean_image(side, seed=7)
    assert a.shape == (side, side)
    assert a.min() >= 0.0 and a.max() <= 255.0
    np.testing.assert_array_equal(a, inputs.clean_image(side, seed=7))
    assert not np.array_equal(a, inputs.clean_image(side, seed=8))
    noisy = inputs.noisy_image(a, 25.0, seed=7)
    np.testing.assert_array_equal(noisy, inputs.noisy_image(a, 25.0, seed=7))
    assert not np.array_equal(noisy,
                              inputs.noisy_image(a, 25.0, seed=7, draw=1))
    assert np.array_equal(noisy, np.round(noisy))
    assert noisy.min() >= 0.0 and noisy.max() <= 255.0


def test_clean_image_rejects_odd_or_tiny_sides():
    for side in (8, 17):
        with pytest.raises(ValueError):
            inputs.clean_image(side, seed=0)


def test_overcomplete_dct_has_unit_norm_atoms():
    D = inputs.overcomplete_dct()
    assert D.shape == (64, 256)
    np.testing.assert_allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(D[:, 0], 1.0 / 8.0)
    # every non-constant atom is zero-mean over the patch
    np.testing.assert_allclose(D[:, 1:].sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_array_equal(D, inputs.overcomplete_dct())


def _attributes():
    return {(mod.__name__, attr): obj
            for mod in tracing._bayesdict_modules()
            for attr, obj in vars(mod).items()}


def test_install_wraps_every_binding_and_uninstall_restores_it():
    before = _attributes()
    cho_factor = scipy.linalg.cho_factor
    original_factor = bayesdict.linalg.spd_factor
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        # the defining module and every importer see the same wrapper
        wrapped = bayesdict.linalg.spd_factor
        assert wrapped is not original_factor
        assert bayesdict.gibbs.spd_factor is wrapped
        assert bayesdict.vb.spd_factor is wrapped
        assert bayesdict.cli.run_gibbs is bayesdict.gibbs.run_gibbs
        assert bayesdict.run_gibbs is bayesdict.gibbs.run_gibbs
        assert scipy.linalg.cho_factor is not cho_factor
        bayesdict.vb.spd_logdet(np.eye(3) * 2.0)
    finally:
        tracing.uninstall(installed)
    m = tracer.metrics()
    assert m["linalg.spd_logdet.calls"] == 1
    assert m["linalg.spd_factor.calls"] == 1
    assert m["linalg.cho_factor.calls"] == 1
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert scipy.linalg.cho_factor is cho_factor


def test_jitter_retry_is_counted():
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        # positive semidefinite, singular: the first Cholesky fails
        bayesdict.linalg.spd_factor(np.ones((3, 3)))
    finally:
        tracing.uninstall(installed)
    m = tracer.metrics()
    assert m["linalg.cho_factor.calls"] - m["linalg.spd_factor.calls"] == 1


def test_cli_is_the_root_layer_not_a_traced_one():
    names = set(tracing.traced_functions().values())
    assert "gibbs.sample_codes" in names and "omp.batch_encode" in names
    assert not any(n.startswith(("cli.", "errors.")) for n in names)


def test_benchmark_json_names_the_harness_metrics_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_seed_changes_inputs_not_metric_names():
    # --seconds 0 still runs one operation (two when traced).
    a = _result(["--workload", "image-denoise", "--seed", "1",
                 "--seconds", "0", "--trace", "0"])
    b = _result(["--workload", "image-denoise", "--seed", "2",
                 "--seconds", "0", "--trace", "0"])
    assert a["correct"] and b["correct"]
    assert a["attempted"] == 1 and a["failed"] == 0
    assert list(a["metrics"]) == list(b["metrics"]) == list(run.END_TO_END)
    assert a["metrics"]["quality"]["value"] \
        != b["metrics"]["quality"]["value"]


def test_traced_run_matches_untraced_artifacts():
    r = _result(["--workload", "image-denoise", "--seed", "1",
                 "--seconds", "0", "--trace", "1"])
    assert r["correct"] and r["attempted"] == 2
    assert list(r["metrics"]) == list(run.PER_LAYER)
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["omp.batch_encode.signals"] == 121 ** 2
    assert m["omp.atoms_selected"] > 0
    assert m["gibbs.sample_codes.calls"] == 0
    assert m["linalg.spd_factor.calls"] == 0
