"""The hogc benchmark: three seeded workloads, checked against oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload parse_corpus --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead, from spans recorded around every library call the benchmark makes.
Earlier stdout lines are notes.  perfbench/README.md says why each workload
exists and what each metric is for.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), 'src')
TESTS = os.path.join(os.path.dirname(HERE), 'tests')   # for tests/helpers.py

DEFAULT_SEED = 1
HASH_SEEDS = ('0', '1')

# span name -> mean self time metric
LAYER_SPANS = {
    'grammar.elaborate': 'grammar.elaborate_ms',
    'parser.parse': 'parser.parse_ms',
    'closure.certificate.left': 'closure.certificate_ms.left',
    'closure.certificate.right': 'closure.certificate_ms.right',
    'closure.certificate.cases': 'closure.certificate_ms.cases',
    'closure.certificate.taut': 'closure.certificate_ms.taut',
    'closure.merge_parses': 'closure.merge_ms',
    'closure.universe': 'closure.universe_ms',
    'closure.closure_saturate': 'closure.saturate_ms',
    'closure.closure_report': 'closure.report_ms',
    'trace.export_trace': 'trace.export_ms',
    'trace.verify_trace': 'trace.verify_ms',
    'trace.verify_trace.reject': 'trace.reject_ms',
}
# Exact counts that are checked across hash seeds and printed as notes, but
# are not per-layer metrics: they are properties of the output, which no
# correct optimisation can move.
OUTPUT_COUNTS = ('parser.parses', 'closure.added_terms')


def workload_classes():
    from closure_lab import ClosureLab
    from merge_audit import MergeAudit
    from parse_corpus import ParseCorpus
    return {w.name: w for w in (ParseCorpus, MergeAudit, ClosureLab)}


def measure(w, spans, n, count):
    """Run operations 0..n-1 in ``w.passes`` passes; return (latencies,
    set-up times).

    Every pass runs the same operations in the same order, with set-up at
    the same ``w.setup_slots`` places, so per-theory caches are in the same
    state at each run of an operation.  The first pass records and checks
    the outputs, and with ``count`` adds the exact counts of the probe
    operations.  An operation's latency is the fastest of its runs, and so
    is a set-up slot's time: other tenants of the host slow pure-Python
    code down in phases of seconds, and a run in one pass often misses the
    phase that a run in another meets.
    """
    slot_at = sorted({j * n // w.setup_slots for j in range(w.setup_slots)})
    runs, setups = [], []
    for p in range(w.passes):
        lat, st = [], []
        for i in range(n):
            if i in slot_at:
                spans.job = None
                gc.collect()
                t0 = time.perf_counter()
                w.setup(spans)
                st.append(time.perf_counter() - t0)
            probe = p == 0 and count and i < w.probe_ops
            spans.tally = w.calls if probe else None
            gc.collect()
            try:
                lat.append(w.op(i, spans, record=p == 0, count=probe))
            except Exception as e:  # one failed operation must not end the run
                lat.append(None)
                if p == 0:
                    w.attempted += 1
                    w.fail('operation %d raised %s: %s' % (i, type(e).__name__, e))
                    sys.stderr.write(traceback.format_exc())
            spans.tally = None
        runs.append(lat)
        setups.append(st)
    return ([min(r) for r in zip(*runs) if None not in r],
            [min(s) for s in zip(*setups)])


def tracing_overhead(w, spans_cls):
    """Per cent extra wall time of traced over untraced runs of the same
    operations, alternating which goes first."""
    plain = traced = 0.0
    for j in range(w.overhead_ops):
        for on in ((False, True) if j % 2 == 0 else (True, False)):
            gc.collect()
            t0 = time.perf_counter()
            w.op(j, spans_cls(on), record=False)
            dt = time.perf_counter() - t0
            if on:
                traced += dt
            else:
                plain += dt
    return (traced / plain - 1.0) * 100.0


def counts_in_child(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, os.path.abspath(__file__), '--workload', args.workload,
           '--seed', str(args.seed), '--counts-only']
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError('counts run failed: %s' % out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def layer_metrics(w, spans, args):
    """The per-layer metrics of a traced run; False in the second place if
    the exact counts differ under another hash seed."""
    metrics = {}
    self_times = spans.self_times()
    for span, ms_name in LAYER_SPANS.items():
        calls, total = self_times.get(span, (0, 0.0))
        metrics[ms_name] = {'value': total * 1000.0 / calls if calls else 0.0, 'unit': 'ms'}
    counts = w.exact_counts()
    for name, value in counts.items():
        if name in OUTPUT_COUNTS:
            if value:
                print('  %-18s %14d count' % (name, value))
        else:
            metrics[name] = {'value': value, 'unit': 'count'}
    same = True
    for hs in HASH_SEEDS:
        child = counts_in_child(args, hs)
        if child != counts:
            same = False
            diff = sorted(k for k in counts if child.get(k) != counts[k])
            print('  FAIL counts differ under PYTHONHASHSEED=%s: %s' % (hs, diff))
    metrics['spans.overhead_pct'] = {'value': tracing_overhead(w, type(spans)), 'unit': '%'}
    spans.write(os.path.join(HERE, 'out', '%s-seed%d.spans.jsonl'
                             % (args.workload, args.seed)))
    return metrics, same


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True,
                    choices=('parse_corpus', 'merge_audit', 'closure_lab'))
    ap.add_argument('--seed', type=int, default=DEFAULT_SEED)
    ap.add_argument('--seconds', type=float, default=20.0)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--counts-only', action='store_true',
                    help='print only the exact counts of the probe operations')
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, 'hogc', '__init__.py'))
            and os.path.isfile(os.path.join(TESTS, 'helpers.py'))):
        print('no hogc sources or tests/helpers.py: run from the root of a checkout',
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC, TESTS]
    from common import Spans, percentile_ms

    w = workload_classes()[args.workload](args.seed)
    if args.counts_only:
        spans = Spans(False)
        w.setup(spans)
        spans.tally = w.calls
        for i in range(w.probe_ops):
            w.op(i, spans, record=False, count=True)
        print(json.dumps(w.exact_counts(), sort_keys=True))
        return 0

    spans = Spans(bool(args.trace))
    n = w.n_ops(args.seconds)
    t0 = time.perf_counter()
    latencies, setups = measure(w, spans, n, count=bool(args.trace))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t0 = time.perf_counter()
    w.finish()
    checked = time.perf_counter() - t0

    print('workload %s seed %d: %d operations, %d passes, %d set-up slots, '
          '%.1f s; oracles %.1f s'
          % (args.workload, args.seed, n, w.passes, len(setups), wall, checked))
    for name, (value, unit) in w.notes(percentile_ms).items():
        print('  %-18s %14.4f %s' % (name, value, unit))
    print('  %-18s %14.4f (%d failed of %d)'
          % ('error_rate', w.failed / max(w.attempted, 1), w.failed, w.attempted))
    for msg in w.errors[:20]:
        print('  FAIL ' + msg)

    correct = w.failed == 0 and bool(latencies)
    if args.trace:
        metrics, same = layer_metrics(w, spans, args)
        correct = correct and same
    else:
        metrics = {
            'op_ms_p50': {'value': statistics.median(latencies or [0.0]) * 1000.0,
                          'unit': 'ms'},
            'setup_s': {'value': statistics.median(setups), 'unit': 's'},
            'peak_rss_mb': {'value': peak_rss_mb, 'unit': 'MB'},
        }
    print(json.dumps({'correct': correct, 'attempted': w.attempted,
                      'failed': w.failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())
