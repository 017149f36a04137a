"""Output check for one `ldptune pareto` CSV against a committed reference.

Every point (one row per protocol and eps) passes or fails on its own; the
failed share is the run's error rate.  Checks:

- the command exited 0 and wrote the 13-column header;
- the rows are the reference's (protocol, eps) points, in its order;
- the analytic columns are finite and byte-identical to the reference at
  every seed (they do not depend on the seed);
- with empirical columns: n, runs and seed are the requested ones, the
  values are finite and in range, and at the reference seed the whole row
  is byte-identical to the reference (the reproducibility contract, which
  also pins that results do not depend on the worker count).  At other
  seeds the empirical ASR must lie within 6 combined standard errors of
  the reference's, and the empirical MSE within a factor 4 of it.
"""

from __future__ import annotations

import csv
import io
import math

HEADER = ["protocol", "eps", "k", "param", "param_value", "analytic_asr",
          "analytic_mse", "empirical_asr", "empirical_asr_stderr",
          "empirical_mse", "n", "runs", "seed"]
_ANALYTIC = 7
_Z = 6.0
_MSE_FACTOR = 4.0


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _finite(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _row_ok(row, ref, seed: int, ref_seed: int, runs, n) -> bool:
    if len(row) != len(HEADER) or row[:_ANALYTIC] != ref[:_ANALYTIC]:
        return False
    if _finite(row[5]) is None or _finite(row[6]) is None:
        return False
    if runs is None:
        return row == ref
    if row[10:] != [str(n), str(runs), str(seed)]:
        return False
    asr, se, mse = (_finite(c) for c in row[7:10])
    if asr is None or se is None or mse is None:
        return False
    if not (0.0 <= asr <= 1.0 and se >= 0.0 and mse >= 0.0):
        return False
    if seed == ref_seed:
        return row == ref
    ref_asr, ref_se, ref_mse = (float(c) for c in ref[7:10])
    if abs(asr - ref_asr) > _Z * math.hypot(se, ref_se) + 1e-12:
        return False
    return ref_mse / _MSE_FACTOR <= mse <= ref_mse * _MSE_FACTOR


def check_output(exit_code: int, text: str, reference: str, seed: int,
                 ref_seed: int, runs, n) -> tuple[int, int]:
    """(points attempted, points failed) for one command's CSV output.

    `runs` and `n` are None for an analytic sweep.  A wrong exit code or
    header fails every point the reference expects.
    """
    ref_header, ref_rows = read_csv(reference)
    if ref_header != HEADER:
        raise ValueError("reference file does not carry the 13-column header")
    header, rows = read_csv(text)
    expected = len(ref_rows)
    if exit_code != 0 or header != HEADER:
        return expected, expected
    failed = sum(1 for row, ref in zip(rows, ref_rows)
                 if not _row_ok(row, ref, seed, ref_seed, runs, n))
    failed += abs(len(rows) - expected)
    return max(len(rows), expected), failed
