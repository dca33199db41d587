"""The five preset datasets against frozen copies in ``tests/golden/``.

The CSVs are compared as numbers, not bytes: each column may move by at
most 1e-10 of its largest magnitude.  A different eigensolver can change
the 12th printed digit without changing any result.
"""

from pathlib import Path

import numpy as np
import pytest

from eomod import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-10


def read_csv(path):
    header = path.read_text().splitlines()[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("n", range(1, 6))
def test_preset_matches_golden(n, tmp_path):
    assert cli.main(["figures", str(n), "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / f"fig{n}.csv")
    golden_header, golden = read_csv(GOLDEN / f"fig{n}.csv")
    assert header == golden_header
    assert rows.shape == golden.shape
    dev = np.max(np.abs(rows - golden), axis=0)
    scale = np.max(np.abs(golden), axis=0)
    assert np.all(dev <= REL_TOL * scale), (
        f"fig{n}: column deviations {dev} exceed {REL_TOL:g} of {scale}")
