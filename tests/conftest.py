"""Shared fixtures: a handful of simulated records, a tiny on-disk
dataset, and the FFT oracle of the spectrogram."""

import re

import numpy as np
import pytest
import scipy.fft

from mdgest.simulate import GestureLabel, SimConfig, Dataset, simulate_record
from mdgest.tfr import Spectrogram

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the run so the verdicts are visible at a glance.
ACCEPTANCE_LINES = {}


def note_criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES[num] = f"criterion {num}: {status}  ({detail})"


def pytest_runtest_logreport(report):
    # A criterion test that dies before reaching its verdict still gets a line.
    if not report.failed:
        return
    m = re.search(r"::test_criterion_(\d+)", report.nodeid)
    if m and int(m.group(1)) not in ACCEPTANCE_LINES:
        ACCEPTANCE_LINES[int(m.group(1))] = (
            f"criterion {m.group(1)}: FAIL  (raised before the checks completed)"
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[num])


def one_shot_power(x, fs, cfg):
    """Every column in one zero-padded FFT call, fftshifted: the STFT
    by another algorithm than ``tfr``'s hop-block transform."""
    n_cols = (len(x) - cfg.window_len) // cfg.hop + 1
    idx = cfg.hop * np.arange(n_cols)[:, None] + np.arange(cfg.window_len)[None, :]
    spec = scipy.fft.fft(x[idx], n=cfg.fft_size, axis=1)
    power = np.fft.fftshift(np.abs(spec) ** 2, axes=1).T
    return power, np.fft.fftshift(np.fft.fftfreq(cfg.fft_size, d=1.0 / fs))


def one_shot_spectrogram(record, cfg):
    """Full-band ``Spectrogram`` of a record from ``one_shot_power``."""
    power, freq = one_shot_power(record.samples, record.sample_rate_hz, cfg)
    time = (cfg.hop * np.arange(power.shape[1]) + cfg.window_len / 2.0) / record.sample_rate_hz
    return Spectrogram(power, time, freq)


def make_records(n_per_class=1, snr_db=10.0, base=3000):
    """Deterministic mixed-speed, mixed-angle records, n per class."""
    records = []
    for lab in GestureLabel:
        for rep in range(n_per_class):
            cfg = SimConfig(
                seed=base + 101 * int(lab) + rep,
                snr_db=snr_db,
                speed="slow" if rep % 2 else "normal",
                angle_deg=(-20.0, 0.0, 20.0)[rep % 3],
            )
            records.append(simulate_record(lab, cfg, record_id=f"t{base}_{lab.letter}{rep}"))
    return records


@pytest.fixture(scope="session")
def six_records():
    """One 10 dB record per gesture class."""
    return make_records(1)


@pytest.fixture(scope="session")
def twelve_records():
    """Two records per class, both speed modes."""
    return make_records(2)


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory, twelve_records):
    """The twelve-record set saved in the on-disk dataset layout."""
    out = tmp_path_factory.mktemp("tinyds")
    Dataset(records=twelve_records).save(out)
    return out
