"""The exact proof counts of the benchmark's probe operations, pinned.

``tests/data/counts-seed1.jsonl`` holds the ``--counts-only --seed 1``
output of each benchmark workload, one line each: primitive steps per rule,
trace lines and bytes, and the pinned merge job.  A change that alters
proofs updates that file in its own diff, so the new counts are reviewed.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ('parse_corpus', 'merge_audit', 'closure_lab')

with open(os.path.join(ROOT, 'tests', 'data', 'counts-seed1.jsonl')) as f:
    PINNED = dict(zip(WORKLOADS, f.read().splitlines(keepends=True)))


@pytest.mark.parametrize('workload', WORKLOADS)
def test_counts_match_pinned_file(workload):
    r = subprocess.run([sys.executable, os.path.join(ROOT, 'perfbench', 'run.py'),
                        '--workload', workload, '--seed', '1', '--counts-only'],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout == PINNED[workload]
