"""Patch grids, reassembly, and the PGM / text-matrix file formats."""

import tracemalloc

import numpy as np
import pytest

from bayesdict import extract_patches, map_patches
from bayesdict.errors import (
    ImageTooSmall,
    IoFailure,
    MalformedHeader,
    NonPositiveHyperparameter,
    ShapeMismatch,
    UnsupportedMaxval,
)
from bayesdict.fileio import load_matrix, load_pgm, save_matrix, save_pgm
import oracles


def gradient_image(q):
    r = np.arange(q, dtype=np.float64)
    return np.add.outer(r, 0.001 * r)


# ---------------------------------------------------------------------------
# patch extraction


def test_patch_vectorization_layout():
    """Patches are column-major inside, patch columns row-major over (i,j)."""
    img = gradient_image(10)
    patches = extract_patches(img, patch_size=3, stride=7)
    assert patches.shape == (9, 4)
    # column 0 = patch at (0, 0); column-major: rows vary fastest
    np.testing.assert_array_equal(patches[:, 0], img[0:3, 0:3].flatten("F"))
    # row-major patch order: column 1 is (row 0, col 7)
    np.testing.assert_array_equal(patches[:, 1], img[0:3, 7:10].flatten("F"))
    np.testing.assert_array_equal(patches[:, 2], img[7:10, 0:3].flatten("F"))
    np.testing.assert_array_equal(patches[:, 3], img[7:10, 7:10].flatten("F"))


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_extract_patches_matches_the_loop_oracle(p, stride):
    """Every patch of every grid equals the per-patch loop's bit for bit,
    on sides the grid fits exactly and sides that leave a ragged edge."""
    rng = np.random.default_rng(10 * p + stride)
    for q in sorted({p, p + stride, p + 2 * stride + 1, 3 * p + 2}):
        img = rng.uniform(0.0, 255.0, (q, q))
        patches = extract_patches(img, patch_size=p, stride=stride)
        np.testing.assert_array_equal(
            patches, oracles.extract_patches_loop(img, p, stride))
        # a fresh array a caller may change in place, even at p = 1
        assert patches.flags.c_contiguous and patches.flags.writeable
        assert not np.shares_memory(patches, img)


def test_patch_count_formula():
    img = gradient_image(16)
    for stride in (1, 2, 4):
        patches = extract_patches(img, patch_size=8, stride=stride)
        n_off = (16 - 8) // stride + 1
        assert patches.shape == (64, n_off * n_off)
    # a patch-sized image yields exactly one placement at any stride
    patches = extract_patches(gradient_image(8), patch_size=8, stride=2)
    assert patches.shape == (64, 1)


# ---------------------------------------------------------------------------
# reassembly: map_patches over the stride-1 grid


def test_extract_reassemble_identity():
    """Averaging overlapping copies of the same image gives it back."""
    img = np.random.default_rng(0).random((20, 20)) * 255
    np.testing.assert_allclose(map_patches(img, 8, lambda band: band), img,
                               atol=1e-10)


@pytest.mark.parametrize("p, stride", [(p, 1) for p in (2, 3, 4, 8)])
def test_reassemble_count_map_oracle(p, stride):
    """Pixel averaging counts match a brute-force loop."""
    q = p + 5
    img = gradient_image(q)
    patches = extract_patches(img, patch_size=p, stride=stride)

    counts = np.zeros((q, q))
    offsets = range(0, q - p + 1, stride)
    for r0 in offsets:
        for c0 in offsets:
            counts[r0:r0 + p, c0:c0 + p] += 1

    # constant-1 patches: reassembly returns acc/count = 1 everywhere
    np.testing.assert_array_equal(
        map_patches(img, p, lambda band: np.ones_like(band)), np.ones((q, q)))
    # accumulate patch contributions manually and compare
    acc = np.zeros((q, q))
    col = 0
    for r0 in offsets:
        for c0 in offsets:
            acc[r0:r0 + p, c0:c0 + p] += patches[:, col].reshape((p, p),
                                                                 order="F")
            col += 1
    np.testing.assert_allclose(map_patches(img, p, lambda band: band),
                               np.clip(acc / counts, 0, 255), atol=1e-12)


def test_dense_grid_interior_coverage_and_constant_average():
    """Stride-1 8x8 grid on a 16x16 image: interior pixels sit in 64
    patches, and averaging identical constant patches returns the
    constant."""
    q, p = 16, 8
    img = gradient_image(q)
    assert extract_patches(img, patch_size=p, stride=1).shape[1] == 81

    counts = np.zeros((q, q))
    for r0 in range(q - p + 1):
        for c0 in range(q - p + 1):
            counts[r0:r0 + p, c0:c0 + p] += 1
    assert counts[7, 7] == 64 and counts[8, 8] == 64
    assert counts[0, 0] == 1

    flat = map_patches(img, p, lambda band: np.full_like(band, 100.0))
    np.testing.assert_array_equal(flat, np.full((q, q), 100.0))

    # indexed-value patches expose every averaging weight at once; the
    # 81 patches make one band, so the band's columns are the grid's
    acc = np.zeros((q, q))
    col = 0
    for r0 in range(q - p + 1):
        for c0 in range(q - p + 1):
            acc[r0:r0 + p, c0:c0 + p] += col
            col += 1
    indexed = map_patches(img, p, lambda band: band * 0
                          + np.arange(band.shape[1])[np.newaxis, :])
    np.testing.assert_allclose(indexed, np.clip(acc / counts, 0, 255),
                               atol=1e-12)


def test_map_patches_of_the_identity_returns_the_image(monkeypatch):
    """Bands of two 4 x 4 patch rows over 17 rows, the last band one row,
    give back the image as reassembling the whole grid in a loop does."""
    monkeypatch.setattr("bayesdict.patches._BAND_PATCHES", 35)
    img = np.random.default_rng(3).uniform(0.0, 255.0, (20, 20))
    bands = []
    out = map_patches(img, 4, lambda band: bands.append(band.shape) or band)
    assert bands == [(16, 34)] * 8 + [(16, 17)]
    whole = extract_patches(img, patch_size=4, stride=1)
    np.testing.assert_array_equal(out,
                                  oracles.reassemble_patches(whole, 20, 4, 1))
    np.testing.assert_allclose(out, img, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q, p", [(128, 8), (64, 8), (33, 5), (20, 4),
                                  (9, 9)])
@pytest.mark.parametrize("band", ["one-row", "ragged", "whole"])
def test_map_patches_matches_the_loop_oracle_bit_for_bit(monkeypatch, q, p,
                                                         band):
    """The banded scatter adds every pixel's patches in the order the
    plain loop of oracles.reassemble_patches does, so with a column-wise
    fn the two are equal bit for bit, whatever the band: one patch row,
    bands of about half the grid whose last one is shorter, or the whole
    grid. (A GEMM fn is not column-wise: BLAS blocking on the band width
    changes its rounding by ~1e-13.)"""
    n = q - p + 1
    rows = {"one-row": 1, "ragged": n // 2 + 1, "whole": n}[band]
    monkeypatch.setattr("bayesdict.patches._BAND_PATCHES", rows * n)
    img = np.random.default_rng(q * p).uniform(0.0, 255.0, (q, q))

    def fn(patches):
        # An elementwise fn would hand a pixel the same value from every
        # patch over it, which sums alike in any order; turning each
        # patch half a turn gives it different values. The result
        # overshoots [0, 255], so the clamp is exercised too.
        return 1.2 * patches[::-1] - 30.0 * np.sin(patches)

    widths = []
    out = map_patches(img, p, lambda P: widths.append(P.shape[1]) or fn(P))
    assert widths == [rows * n] * (n // rows) + [n % rows * n] * (n % rows > 0)
    ref = oracles.reassemble_patches(fn(extract_patches(img, p, 1)), q, p, 1)
    np.testing.assert_array_equal(out, ref)


def test_map_patches_rejects_a_band_of_the_wrong_shape():
    with pytest.raises(ShapeMismatch):
        map_patches(np.zeros((10, 10)), 4, lambda band: band[:, :-1])
    with pytest.raises(ImageTooSmall):
        map_patches(np.zeros((3, 3)), 4, lambda band: band)


def test_reassemble_clamps_to_pixel_range():
    img = np.full((8, 8), 100.0)
    np.testing.assert_array_equal(map_patches(img, 8, lambda P: P + 300.0),
                                  np.full((8, 8), 255.0))
    np.testing.assert_array_equal(map_patches(img, 8, lambda P: P - 300.0),
                                  np.zeros((8, 8)))


def test_extract_validation():
    with pytest.raises(ShapeMismatch):
        extract_patches(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch):
        extract_patches(np.zeros(16))
    with pytest.raises(ImageTooSmall):
        extract_patches(np.zeros((4, 4)), patch_size=8)


@pytest.mark.parametrize("key, kwargs", [
    ("stride", {"stride": 0}),
    ("stride", {"stride": -2}),
    ("patch_size", {"patch_size": 0}),
    ("patch_size", {"patch_size": -8}),
])
def test_extract_rejects_non_positive_grid_parameters(key, kwargs):
    with pytest.raises(NonPositiveHyperparameter, match=key) as info:
        extract_patches(np.zeros((16, 16)), **kwargs)
    assert info.value.field == key


# ---------------------------------------------------------------------------
# PGM files


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = np.floor(rng.random((11, 7)) * 256).clip(0, 255)
    path = tmp_path / "t.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    np.testing.assert_array_equal(back, img)
    assert back.dtype == np.float64

    raw = path.read_bytes()
    assert raw.startswith(b"P5\n7 11\n255\n")
    assert len(raw) == len(b"P5\n7 11\n255\n") + 77


def test_pgm_save_rounds_half_away_and_clips(tmp_path):
    img = np.array([[0.4, 0.5, 1.5], [-3.0, 270.0, 254.6]])
    path = tmp_path / "r.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    np.testing.assert_array_equal(back, [[0, 1, 2], [0, 255, 255]])


def test_pgm_header_comments_and_whitespace(tmp_path):
    body = bytes(range(6))
    raw = b"P5 # magic\n# a comment line\n 3 \n2#inline\n255\n" + body
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = load_pgm(path)
    assert img.shape == (2, 3)
    np.testing.assert_array_equal(img.ravel(), np.arange(6))


def test_minimal_single_space_header(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 4 4 255\n" + bytes(range(16)))
    img = load_pgm(path)
    assert img.shape == (4, 4)
    np.testing.assert_array_equal(img.ravel(), np.arange(16))


def test_pgm_rejections(tmp_path):
    path = tmp_path / "bad.pgm"

    path.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
    with pytest.raises(MalformedHeader):
        load_pgm(path)

    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedMaxval):
        load_pgm(path)

    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))  # truncated raster
    with pytest.raises(MalformedHeader):
        load_pgm(path)

    path.write_bytes(b"P5\n2")  # header ends early
    with pytest.raises(MalformedHeader):
        load_pgm(path)

    path.write_bytes(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeader):
        load_pgm(path)

    path.write_bytes(b"P5\n2 2\n255")  # no whitespace before the raster
    with pytest.raises(MalformedHeader, match="not followed by whitespace"):
        load_pgm(path)

    path.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(MalformedHeader, match="^bad PGM dimensions 0x2$"):
        load_pgm(path)


def test_pgm_comment_running_to_end_of_file_ends_header_early(tmp_path):
    """A header cut off inside a comment has no token to give."""
    path = tmp_path / "cut.pgm"
    path.write_bytes(b"P5\n2 2 # 255")
    with pytest.raises(MalformedHeader, match="ended early"):
        load_pgm(path)


def test_save_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(MalformedHeader):
        save_pgm(np.zeros(4), tmp_path / "x.pgm")


def test_save_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(MalformedHeader,
                       match="^matrix must be 2-d, got ndim=1$"):
        save_matrix(np.zeros(4), tmp_path / "x.txt")
    assert not (tmp_path / "x.txt").exists()


# ---------------------------------------------------------------------------
# text matrices


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3)) * np.logspace(-12, 12, 3)
    path = tmp_path / "m.txt"
    save_matrix(A, path)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, A)  # %.17e round-trips float64

    header = path.read_text().split("\n")[0]
    assert header == "5 3"


def test_matrix_empty_dimensions(tmp_path):
    path = tmp_path / "e.txt"
    save_matrix(np.zeros((0, 4)), path)
    back = load_matrix(path)
    assert back.shape == (0, 4)


def test_save_matrix_streams_row_by_row(tmp_path):
    """The 1.6 MB of text of a 32 x 2000 matrix never sits in memory at
    once: save_matrix hands np.savetxt the open file."""
    A = np.random.default_rng(3).standard_normal((32, 2000))
    tracemalloc.start()
    try:
        save_matrix(A, tmp_path / "big.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    np.testing.assert_array_equal(load_matrix(tmp_path / "big.txt"), A)


def test_matrix_malformed_inputs(tmp_path):
    path = tmp_path / "bad.txt"
    cases = [
        "not a header\n",
        "2\n1 2\n",
        "2 2\n1 2\n3\n",           # ragged row
        "2 2\n1 2\n",              # missing row
        "2 2\n1 2\n3 x\n",         # bad value
        "-1 2\n",                  # negative dims
        "2 2\n1 2\n3 # 4\n",      # a comment is not a value
        "1 2\n1_0 2\n",            # float() takes it, the format does not
        "2.0 2\n1 2\n3 4\n",       # non-integer dimensions
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(MalformedHeader):
            load_matrix(path)


# ---------------------------------------------------------------------------
# the file boundary


def test_save_makes_missing_directories(tmp_path):
    save_pgm(np.zeros((2, 3)), tmp_path / "a" / "b" / "x.pgm")
    save_matrix(np.eye(2), tmp_path / "a" / "c" / "m.txt")
    assert load_pgm(tmp_path / "a" / "b" / "x.pgm").shape == (2, 3)
    np.testing.assert_array_equal(load_matrix(tmp_path / "a" / "c" / "m.txt"),
                                  np.eye(2))


def test_unreadable_undecodable_and_unwritable_files_raise_io_failure(
        tmp_path):
    pgm = tmp_path / "x.pgm"
    save_pgm(np.full((4, 4), 255.0), pgm)  # 0xff never starts UTF-8
    with pytest.raises(IoFailure, match="^cannot read .*x.pgm"):
        load_matrix(pgm)
    with pytest.raises(IoFailure, match="^cannot read .*missing.pgm"):
        load_pgm(tmp_path / "missing.pgm")
    with pytest.raises(IoFailure, match="^cannot write .*m.txt"):
        save_matrix(np.eye(2), pgm / "m.txt")  # a file as the directory
    with pytest.raises(IoFailure, match="^cannot write"):
        save_pgm(np.zeros((2, 2)), tmp_path)  # a directory as the file
