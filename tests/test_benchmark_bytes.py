"""The benchmark's commands, run in this process at its reference seed, write
the CSVs that `perfbench/reference/` pins, byte for byte; so an output change
fails here before it fails the benchmark's own check.  The reference files
are only read."""

import sys
from pathlib import Path

import pytest

from ldptune.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_csv_equals_reference(name, tmp_path):
    # threaded_frontier is mc_frontier with 2 workers: the same bytes
    workload = bench.WORKLOADS[name]
    out = tmp_path / "out.csv"
    assert main(workload.argv(bench.REFERENCE_SEED, out)) == 0
    assert out.read_bytes() == (bench.REF_DIR / workload.reference).read_bytes()
