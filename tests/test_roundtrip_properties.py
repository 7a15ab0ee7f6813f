"""Property tests: the config value format and the text-matrix format
both round-trip float64 exactly, which replay byte identity rests on;
PGM images and stride-1 patch grids round-trip; OMP keeps its invariants."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bayesdict.config import format_value, parse_value
from bayesdict.fileio import load_matrix, load_pgm, save_matrix, save_pgm
from bayesdict.omp import OmpStop, omp_encode
from bayesdict.patches import map_patches

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None)

floats = st.floats(allow_nan=False, allow_infinity=True)
ints = st.integers(min_value=-2**63, max_value=2**63 - 1)
sparsity_tokens = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.tuples(st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=0, max_value=10**6)).map(
                  lambda t: (min(t), max(t))),
)


def float_bits(v):
    return struct.pack("<d", v)


@PROPERTY_SETTINGS
@given(floats)
def test_float_round_trip_is_bit_exact(v):
    back = parse_value("float", format_value(v), "k")
    assert float_bits(back) == float_bits(v)


@pytest.mark.parametrize("v", [math.inf, -math.inf])
def test_infinities_round_trip(v):
    assert format_value(v) in ("inf", "-inf")
    assert parse_value("float", format_value(v), "k") == v


@PROPERTY_SETTINGS
@given(ints)
def test_int_round_trip(v):
    assert parse_value("int", format_value(v), "k") == v


@PROPERTY_SETTINGS
@given(st.booleans())
def test_bool_round_trip(v):
    assert parse_value("bool", format_value(v), "k") is v


@PROPERTY_SETTINGS
@given(st.lists(floats, max_size=8))
def test_float_list_round_trip_is_bit_exact(vs):
    back = parse_value("float_list", format_value(vs), "k")
    assert [float_bits(v) for v in back] == [float_bits(v) for v in vs]


@PROPERTY_SETTINGS
@given(st.lists(ints, max_size=8))
def test_int_list_round_trip(vs):
    assert parse_value("int_list", format_value(vs), "k") == vs


@PROPERTY_SETTINGS
@given(st.lists(sparsity_tokens, max_size=8))
def test_sparsity_list_round_trip(vs):
    assert parse_value("sparsity_list", format_value(vs), "k") == vs


@PROPERTY_SETTINGS
@given(hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    elements=floats))
def test_matrix_file_round_trip_is_bit_exact(A):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        save_matrix(A, path)
        back = load_matrix(path)
    assert back.dtype == np.float64
    assert back.shape == A.shape
    assert back.tobytes() == A.tobytes()


@PROPERTY_SETTINGS
@given(hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                               max_side=12)))
def test_pgm_round_trip_is_exact(pixels):
    image = pixels.astype(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "i.pgm"
        save_pgm(image, path)
        back = load_pgm(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, image)


@st.composite
def images_and_patch_sizes(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    side = draw(st.integers(min_value=p, max_value=p + 8))
    image = draw(hnp.arrays(np.float64, (side, side),
                            elements=st.floats(0.0, 255.0)))
    return image, p


@PROPERTY_SETTINGS
@given(images_and_patch_sizes())
def test_extract_then_reassemble_at_stride_one_returns_image(case):
    image, p = case
    np.testing.assert_allclose(map_patches(image, p, lambda band: band),
                               image, rtol=0.0, atol=1e-12)


@st.composite
def omp_problems(draw):
    M = draw(st.integers(min_value=1, max_value=6))
    N = draw(st.integers(min_value=1, max_value=8))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    D = draw(hnp.arrays(np.float64, (M, N), elements=entries))
    y = draw(hnp.arrays(np.float64, (M,), elements=entries))
    k = draw(st.integers(min_value=1, max_value=N))
    return D, y, k


@PROPERTY_SETTINGS
@given(omp_problems())
def test_omp_support_is_distinct_and_residual_never_grows(problem):
    D, y, k = problem
    code = omp_encode(D, y, OmpStop(max_sparsity=k))
    assert len(set(code.support)) == len(code.support) <= k
    assert code.residual_norm <= np.linalg.norm(y)
    more = omp_encode(D, y, OmpStop(max_sparsity=k + 1))
    assert more.residual_norm <= code.residual_norm
