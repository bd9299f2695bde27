import csv
import io
import os
import subprocess
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import trendnet
from trendnet import kernels
from trendnet.cli import main
from trendnet.correlate import distance_correlation

from helpers import by_test_id, reference_series, show_cpus, show_dcor_workers, write_export_tree
from oracles import dcor_oracle, rolling_dcor_reference


def test_self_correlation_is_one():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
    assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-12)


def test_constant_vector_correlates_zero():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert distance_correlation(x, np.full(4, 7.0)) == 0.0
    assert distance_correlation(np.zeros(4), x) == 0.0


def test_affine_image_correlates_one():
    # y = 2x is a rigid rescaling of the pairwise distances
    assert distance_correlation([1, 2, 3, 4, 5], [2, 4, 6, 8, 10]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_known_value_against_oracle():
    x = [1.0, 2.0, 9.0, 4.0, 4.0]
    y = [5.0, 1.0, 2.0, 8.0, 2.0]
    assert distance_correlation(x, y) == pytest.approx(dcor_oracle(x, y), abs=1e-12)


def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        x = rng.normal(size=n) * rng.uniform(0.01, 50)
        y = rng.normal(size=n) * rng.uniform(0.01, 50)
        assert distance_correlation(x, y) == pytest.approx(dcor_oracle(x, y), abs=1e-12)


def test_symmetry_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(0, 100, 15)
        y = rng.uniform(0, 100, 15)
        assert distance_correlation(x, y) == distance_correlation(y, x)


def test_result_lies_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x = rng.uniform(0, 100, 12)
        y = x + rng.normal(0, 1e-9, 12)  # near-affine pushes the ratio to 1
        assert 0.0 <= distance_correlation(x, y) <= 1.0


def _image_is_faithful(x, a, b, image) -> bool:
    """Whether float64 rounding moved no point of the affine image a*x+b by
    more than 1e-12 of the exact image's spread.

    Otherwise the computed image is not an affine copy of x: [0, 1.5e-145]
    with a=1, b=1 rounds to the constant [1, 1], and [0, 5e-324, 1e-323]
    with a=1.5 rounds to 0, 2 and 3 subnormal steps instead of 0, 1.5 and 3.
    """
    exact = [Fraction(a) * Fraction(v) + Fraction(b) for v in x]
    spread = max(exact) - min(exact)
    error = max(abs(Fraction(float(z)) - e) for z, e in zip(image, exact))
    return error <= spread / 10**12


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, width=64), min_size=2, max_size=25),
    st.floats(min_value=0.1, max_value=50),
    st.floats(min_value=-100, max_value=100),
)
@example(values=[0.0, 8.244783454401802e-162], a=0.25, b=0.0)
def test_scale_shift_invariance(values, a, b):
    x = np.asarray(values)
    image = a * x + b
    assume(_image_is_faithful(x, a, b, image))
    y = np.sin(x) + x * 0.25  # arbitrary deterministic partner
    base = distance_correlation(x, y)
    assert distance_correlation(image, y) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e-100, 1e100, 1e160, 1e300])
def test_scale_robust_across_float64_range(s):
    # In raw units the squared distances and dVar products under- or
    # overflow at these scales; dCor must not notice the units.
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    y = np.array([2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0])
    base = distance_correlation(x, y)
    for r in (distance_correlation(x * s, y * s), distance_correlation(x * s, y)):
        assert np.isfinite(r) and 0.0 <= r <= 1.0
        assert r == pytest.approx(base, abs=1e-12)


FAILURES = [  # (test id, call, message[, code, kind])
    ("test_length_mismatch", lambda: distance_correlation([1, 2, 3], [1, 2]),
     "vector lengths differ: 3 vs 2"),
    ("test_too_short", lambda: distance_correlation([1.0], [2.0]),
     "need at least 2 points, got 1"),
    ("test_two_dimensional_input", lambda: distance_correlation([[1.0, 2.0]], [[3.0, 4.0]]),
     "inputs must be 1-d vectors"),
    *[(f"test_non_finite_input[{bad}]", lambda bad=bad: distance_correlation(
        [1.0, bad, 3.0], [1.0, 2.0, 3.0]), "series contain non-finite values")
      for bad in (np.nan, np.inf, -np.inf)],
    *[(f"test_rolling_dcor_rejects_a_window_outside_2_to_the_rows[{window}]",
       lambda window=window: kernels.rolling_dcor(np.ones((10, 3)), window),
       f"need at least 2 points, got {window}") for window in (0, 1)],
    *[(f"test_rolling_dcor_rejects_a_window_outside_2_to_the_rows[{window}]",
       lambda window=window: kernels.rolling_dcor(np.ones((10, 3)), window),
       f"window of {window} days exceeds 10 days of data", 4) for window in (11, 12, 40)],
    *[(f"test_rolling_dcor_rejects_data_not_2_d[{len(shape)}-d]",
       lambda shape=shape: kernels.rolling_dcor(np.ones(shape), 3),
       f"data must be 2-d (days, keywords), got {len(shape)}-d") for shape in [(10,), (10, 3, 2)]],
    # Unchecked, one NaN would make the dCor of every frame whose window holds it NaN.
    *[(f"test_rolling_dcor_rejects_non_finite_data[{bad}]",
       lambda bad=bad: kernels.rolling_dcor(
           np.where(np.arange(90).reshape(30, 3) == 22, bad, 1.0), 15),
       "series contain non-finite values") for bad in (np.nan, np.inf)],
]
globals().update(by_test_id(FAILURES))


def test_dcor_matrix_invariants():
    rng = np.random.default_rng(3)
    win = rng.uniform(0, 100, (15, 8))
    win[:, 3] = 42.0  # one constant column
    m = kernels.rolling_dcor(win, 15)[0]
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 1.0)
    assert np.all((m >= 0.0) & (m <= 1.0))
    off = [m[3, j] for j in range(8) if j != 3]
    assert off == [0.0] * 7  # constant column correlates 0 by convention


def _stack(rng, t, k):
    data = rng.uniform(0, 100, (t, k))
    data[:, 0] = 42.0  # constant in every frame
    data[: t // 2, 1] = 7.0  # constant in early frames, not in late ones
    data[:, 2] = np.round(data[:, 2] / 25)  # ties
    return data


@pytest.mark.parametrize("window", [2, 3, 15, 30, 90])
def test_rolling_dcor_bit_exact_against_reference(window):
    rng = np.random.default_rng(window)
    for t in (window, window + 40):  # one frame, then many
        data = _stack(rng, t, 6)
        assert np.array_equal(kernels.rolling_dcor(data, window),
                              rolling_dcor_reference(data, window))


def test_rolling_dcor_bit_exact_across_scales_and_layouts():
    rng = np.random.default_rng(17)
    data = _stack(rng, 70, 8)
    data *= 10.0 ** np.linspace(-200, 200, 8)
    for window in (2, 15, 30):
        want = rolling_dcor_reference(data, window)
        assert np.array_equal(kernels.rolling_dcor(data, window), want)
        assert np.array_equal(kernels.rolling_dcor(np.asfortranarray(data), window), want)
        wide = np.repeat(data, 2, axis=1)[:, ::2]  # strided view, same values
        assert not wide.flags.c_contiguous
        assert np.array_equal(kernels.rolling_dcor(wide, window), want)


def test_dcor_matrix_is_the_one_frame_stack():
    """A window's frame is the same whether it is the only frame of its stack
    or one frame of a longer one."""
    rng = np.random.default_rng(23)
    for n, k in [(2, 3), (15, 8), (30, 3), (90, 15)]:
        win = _stack(rng, n, k)
        one = kernels.rolling_dcor(win, n)
        assert one.shape == (1, k, k)
        assert np.array_equal(one[0], rolling_dcor_reference(win, n)[0])
        longer = np.concatenate((_stack(rng, 3, k), win, _stack(rng, 2, k)))
        assert np.array_equal(one[0], kernels.rolling_dcor(longer, n)[3])


# Uneven splits, fewer frames than workers, and one frame: a window of all the rows.
# Each range reads its days up to `stop + window - 1`. Ids without a `w` are window 15.
SPLITS = [(frames, window) for window in (15, 2, 90) for frames in (1, 2, 5, 7, 40)]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("frames, window", SPLITS,
                         ids=[f"{f}" if w == 15 else f"{f}w{w}" for f, w in SPLITS])
def test_rolling_dcor_split_over_workers_is_bit_exact(monkeypatch, workers, frames, window):
    forks = show_dcor_workers(monkeypatch, workers)
    data = _stack(np.random.default_rng(100 + frames), frames + window - 1, 6)
    assert np.array_equal(kernels.rolling_dcor(data, window), rolling_dcor_reference(data, window))
    assert len(forks) == min(workers, frames) - 1  # one worker per range, the first in-process


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_rolling_dcor_split_with_exponents_changing_inside_ranges(monkeypatch, workers):
    """Window maxima that cross 30 powers of two a frame: a range computed with
    another frame's exponents over- or underflows and moves bits."""
    forks = show_dcor_workers(monkeypatch, workers)
    window, frames = 15, 40
    data = _stack(np.random.default_rng(37), frames + window - 1, 6)
    days = np.arange(len(data))
    data[:, 3] *= 2.0 ** (30 * days - 800)
    data[:, 4] *= 2.0 ** (800 - 30 * days)
    assert np.array_equal(kernels.rolling_dcor(data, window), rolling_dcor_reference(data, window))
    assert len(forks) == workers - 1


def test_rolling_dcor_split_across_scales_and_windows(monkeypatch):
    forks = show_dcor_workers(monkeypatch, 3)
    data = _stack(np.random.default_rng(29), 70, 8)
    data *= 10.0 ** np.linspace(-200, 200, 8)
    for window in (2, 15, 30):
        assert np.array_equal(kernels.rolling_dcor(data, window),
                              rolling_dcor_reference(data, window))
    assert len(forks) == 6


def test_rolling_dcor_stays_in_process_while_other_threads_run(monkeypatch):
    forks = show_dcor_workers(monkeypatch, 2)
    data = _stack(np.random.default_rng(31), 40, 5)
    result = {}
    thread = threading.Thread(target=lambda: result.update(out=kernels.rolling_dcor(data, 15)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert np.array_equal(result["out"], rolling_dcor_reference(data, 15))


def test_short_stacks_never_fork(monkeypatch):
    """At the real cut-off one frame, and a year of 15 keywords at a 30-day
    window (4.5e6 units of work), stay in the calling process."""
    forks = show_cpus(monkeypatch, 3)
    rng = np.random.default_rng(37)
    assert kernels.rolling_dcor(_stack(rng, 90, 15), 90)[0].shape == (15, 15)
    assert distance_correlation(rng.normal(size=90), rng.normal(size=90)) >= 0.0
    assert kernels.rolling_dcor(_stack(rng, 365, 15), 30).shape == (336, 15, 15)
    assert forks == []


def test_analyze_bytes_under_another_blas_kernel(tmp_path):
    """The Gram product of `_dcor_frames` goes to OpenBLAS, whose summation
    order follows the CPU kernel it picks at run time. Another kernel may move
    the last of a dCor's 12 written digits, and nothing else."""
    daily, weekly = write_export_tree(tmp_path / "inputs", reference_series("planted")[0])
    stitched = tmp_path / "stitched"
    assert main(["stitch", "--daily-dir", str(daily), "--weekly-dir", str(weekly),
                 "--out", str(stitched)]) == 0
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(trendnet.__file__).parents[1])
    outs = {}
    for coretype in (None, "Prescott"):
        outs[coretype] = tmp_path / f"analysis-{coretype}"
        subprocess.run([sys.executable, "-m", "trendnet.cli", "analyze", "--stitched",
                        str(stitched), "--out", str(outs[coretype])], check=True,
                       env=env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype},
                       stdout=subprocess.DEVNULL)
    default, other = outs.values()
    names = sorted(path.name for path in default.iterdir())
    assert names == sorted(path.name for path in other.iterdir()) and len(names) == 14
    for name in names:
        a, b = ((root / name).read_text("utf-8") for root in (default, other))
        if not name.startswith("correlations_"):
            assert a == b, name
            continue
        rows_a, rows_b = (list(csv.reader(io.StringIO(text))) for text in (a, b))
        assert len(rows_a) == len(rows_b)
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            assert row_a[:3] == row_b[:3]
            dcor_a, dcor_b = Decimal(row_a[3]), Decimal(row_b[3])
            # One unit in the 12th significant digit of the larger value.
            unit = Decimal(1).scaleb(max(dcor_a, dcor_b).adjusted() - 11)
            assert abs(dcor_a - dcor_b) <= unit, (name, row_a, row_b)
