"""Host-speed probe: a fixed task timed next to the jobs to cancel host drift.

The benchmark runs on virtual machines whose speed changes under it (other
tenants share the cores and caches), in wall time and in CPU time alike: a
4 ms task flips between about 2.5 ms and 4.2 ms within tenths of a second,
and the share of time spent slow drifts over tens of seconds, so the same
job reads 14 ms in one five-second window and 27 ms a minute later.  A fixed
reference task timed right before and right after a job slows down with it,
so the ratio of the two stays within a few per cent while the raw times
swing.

The probe uses only the standard library and numpy, never eomod, so a change
to the program cannot change the probe.  Its work mirrors the program's mix:
an interpreter loop that formats rows (CLI rendering, per-point loops), small
numpy operations on columns (the pure-numpy Jacobi sweeps) and a complex
matrix product through BLAS (d-matrices and propagators).

A time ``t`` measured between probes that take ``p0`` and ``p1`` is reported
as ``t * REF_PROBE_S / sqrt(p0 * p1)``: the time the job would take on a host
where one probe takes ``REF_PROBE_S``.  The raw wall times are kept in every
report.
"""

import math
import statistics
import time

import numpy as np

# One probe's time on the reference host; it sets the scale of every
# reported time (about the probe's median on a 2-vCPU Xeon virtual machine
# with one BLAS thread).
REF_PROBE_S = 0.004
# probing time after a task, as a share of the task's time, up to
# MAX_SAMPLE_S; a task of a few seconds passes through many fast and slow
# spells, and one short probe on each side would sample just one of them
PROBE_SHARE = 0.1
MAX_SAMPLE_S = 1.0


class Probe:
    """The reference task, with its inputs built once."""

    def __init__(self):
        rng = np.random.default_rng(20261017)
        self._cols = (rng.standard_normal((64, 64))
                      + 1j * rng.standard_normal((64, 64)))
        self._mat = (rng.standard_normal((160, 160))
                     + 1j * rng.standard_normal((160, 160)))
        self.sample(0.02)  # first calls pay for lazy set-up (BLAS, caches)

    def _work(self):
        total = 0
        seen = {}
        for i in range(6000):
            total += (i * i) % 7919
            seen[i & 127] = total
        rows = "\n".join(f"{0.25 * i:.6g},{(i * i) % 97 / 97.0:.12e}"
                         for i in range(600))
        A = self._cols.copy()
        for p in range(0, 60, 2):
            for q in (p + 1, p + 3):
                colp = A[:, p].copy()
                A[:, p] = 0.8 * colp - 0.6j * A[:, q]
                A[:, q] = 0.6j * colp + 0.8 * A[:, q]
        prod = self._mat @ self._mat.conj().T
        return total + len(rows) + float(abs(A[0, 0])) + float(prod[0, 0].real)

    def time(self):
        """Seconds one probe takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def sample(self, seconds):
        """Mean time of probes run back to back for ``seconds`` (at least one)."""
        times = [self.time()]
        while sum(times) < seconds:
            times.append(self.time())
        return statistics.fmean(times)

    def after(self, task_s):
        """A sample sized for the task of ``task_s`` seconds just finished."""
        return self.sample(min(PROBE_SHARE * task_s, MAX_SAMPLE_S))


def scale(before, after):
    """Factor that turns a time measured between two probe samples into
    reference seconds."""
    return REF_PROBE_S / math.sqrt(before * after)
