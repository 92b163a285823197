import signal
import time

import numpy as np
import pytest

from perfbench.calibrate import (CHECKPOINT_PROBES, NOMINAL_MS, Phase,
                                 Reference, calibration_factors)


def test_factors_use_the_median_of_neighbouring_probes():
    factors = calibration_factors([1.0, 2.0, 3.0, 100.0, 5.0],
                                  half_window=1)
    np.testing.assert_allclose(
        factors, NOMINAL_MS / np.array([1.5, 2.0, 3.0, 5.0, 52.5]))


def test_factors_need_probes():
    with pytest.raises(ValueError):
        calibration_factors([])


def test_probe_records_the_mean_kernel_time_and_counts_every_run():
    reference = Reference()
    elapsed = reference.probe()
    assert reference.probes_ms == [elapsed]
    # five kernel runs, warm-ups included, are taken out of phases
    assert reference.probe_seconds > 2 * elapsed / 1e3


def test_phase_takes_the_probes_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    reference = Reference()
    phase = Phase(reference)
    probed = reference.probe_seconds
    time.sleep(0.35)  # the interval timer probes a few times meanwhile
    during = reference.probe_seconds - probed
    phase.stop()
    probes = reference.probes_ms
    assert len(probes) > 2 * CHECKPOINT_PROBES
    assert during > 0
    assert phase.raw == pytest.approx(0.35 - during, abs=0.05)
    assert phase.calibrated == pytest.approx(
        phase.raw * NOMINAL_MS / np.median(probes))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
