"""Speed normalization arithmetic, and the calibration kernel's independence from the heap."""

import gc

import pytest

from bofl_bench.speed import REFERENCE_KERNEL_S, SpeedSampler, kernel


def sampler_with(samples):
    sampler = SpeedSampler()
    sampler.samples = list(samples)
    sampler._ends = [end for end, _ in samples]
    return sampler


def test_normalized_removes_kernel_time_and_scales_by_speed():
    ref = REFERENCE_KERNEL_S
    # Two samples inside [0, 10], both at half the reference speed.
    sampler = sampler_with([(2.0, 2 * ref), (6.0, 2 * ref), (11.0, ref)])
    wall = 10.0 - 4 * ref
    assert sampler.normalized(0.0, 10.0) == pytest.approx(wall / 2)


def test_a_span_without_samples_uses_the_nearest_ones():
    ref = REFERENCE_KERNEL_S
    sampler = sampler_with([(1.0, ref), (2.0, 3 * ref), (5.0, ref)])
    # No sample ends inside [2.5, 4]; its neighbours average 2 x the reference.
    assert sampler.normalized(2.5, 4.0) == pytest.approx(1.5 * 3 / 5)


def test_normalized_needs_a_sample():
    with pytest.raises(RuntimeError):
        SpeedSampler().normalized(0.0, 1.0)


def test_kernel_never_triggers_a_collection():
    kernel()
    before = gc.get_count()
    kernel()
    assert gc.get_count() == before


def test_sampler_samples_while_started_and_restores_the_handler():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while len(sampler.samples) < 3:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert 0 < sampler.normalized(start, end)
