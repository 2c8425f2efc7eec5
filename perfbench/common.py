"""Spans, percentiles, provenance counts and the oracle check that the
workloads share."""

import json
import os
import statistics
import time

from hogc import parser
from hogc.kernel import Theorem

PRIMITIVE_RULES = ('reflexivity', 'symmetry', 'transitivity', 'congruence',
                   'abstraction', 'beta_conversion', 'pair_beta', 'assume',
                   'modus_ponens_eq', 'deduct_antisym', 'instantiate', 'axiom')
COUNTS = (('kernel.steps',) + tuple('kernel.steps.' + r for r in PRIMITIVE_RULES)
          + ('trace.lines', 'trace.bytes', 'parser.parses', 'closure.added_terms'))
# span name -> exact count of its calls in the probe operations
CALL_COUNTS = {'grammar.elaborate': 'grammar.elaborate_calls',
               'parser.parse': 'parser.parse_calls'}


class Spans:
    """Timed calls into the library, recorded from the benchmark's side.

    With tracing off ``call`` only runs the function.  With tracing on it
    records (name, start, end, parent index, job id); spans stay in memory
    until ``write`` at the end of the run.  While ``tally`` is a dict, it
    counts the calls by span name, traced or not.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.records = []
        self.stack = []
        self.job = None
        self.tally = None

    def call(self, span, fn, *args, **kw):
        if self.tally is not None:
            self.tally[span] = self.tally.get(span, 0) + 1
        if not self.enabled:
            return fn(*args, **kw)
        idx = len(self.records)
        parent = self.stack[-1] if self.stack else None
        self.records.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.records[idx] = (span, start, end, parent, self.job)

    def self_times(self):
        """name -> (calls, total self seconds): duration minus the time the
        span's children cover."""
        child = [0.0] * len(self.records)
        for _name, start, end, parent, _job in self.records:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _parent, _job) in enumerate(self.records):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w') as f:
            for name, start, end, parent, job in self.records:
                f.write(json.dumps({'name': name, 'start': start, 'end': end,
                                    'parent': parent, 'job': job}) + '\n')


class Workload:
    """Bookkeeping shared by the workloads.

    A workload builds its inputs from the seed in ``__init__`` and fixes
    the number of operations for a run of s seconds in ``n_ops(s)``.  It
    sets the program up in ``setup(spans)``, runs operation i in ``op(i,
    spans, record, count)`` and returns its latency, and checks what the
    first pass recorded against slower oracles in ``finish``.  ``record``
    asks op to keep and check its output, ``count`` to add its exact counts.
    """

    probe_ops = 1       # first operations whose exact counts are reported
    overhead_ops = 1    # operations timed traced and untraced
    passes = 3          # runs of each operation; its latency is the fastest
    setup_slots = 1     # set-ups per pass, evenly spaced among the operations

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = {}
        self.calls = {}     # span name -> calls, filled by Spans.tally
        self.pinned = None

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)

    def exact_counts(self):
        """Every count metric, 0 where the workload has none."""
        out = {k: self.counts.get(k, 0) for k in COUNTS}
        for span, name in CALL_COUNTS.items():
            out[name] = self.calls.get(span, 0)
        out['pinned.kernel.steps'], out['pinned.trace.bytes'] = self.pinned or (0, 0)
        return out

    def add_steps(self, thms):
        """Add the derivations' primitive steps to the exact counts."""
        steps = proof_steps(thms)
        add_counts(self.counts, {'kernel.steps.' + r: n for r, n in steps.items()})
        add_counts(self.counts, {'kernel.steps': sum(steps.values())})
        return sum(steps.values())

    def check_parse_sets(self, parsed, grammar_for):
        """Each recorded parse set must equal ``enumerate_signs`` for its
        word: the same (sign, meaning) pairs, none twice."""
        oracle = {}
        for gname, k, word, got in parsed:
            if (gname, k) not in oracle:
                by_word = {}
                for sign, w, meaning in parser.enumerate_signs(grammar_for(gname), k):
                    by_word.setdefault(w.tokens, set()).add((sign, meaning))
                oracle[gname, k] = by_word
            if set(got) != oracle[gname, k].get(tuple(word), set()) or \
                    len(set(got)) != len(got):
                self.fail('parses of %r at k=%d differ from enumerate_signs'
                          % (' '.join(word), k))


def percentile_ms(seconds, q):
    """The q-th percentile (0 < q < 100) in milliseconds, by the
    'inclusive' method so a single sample is its own percentile."""
    if not seconds:
        return 0.0
    if len(seconds) == 1:
        return seconds[0] * 1000.0
    return statistics.quantiles(seconds, n=100, method='inclusive')[q - 1] * 1000.0


def proof_steps(thms):
    """rule -> number of distinct theorem nodes in the derivations of thms."""
    counts = dict.fromkeys(PRIMITIVE_RULES, 0)
    seen = set()
    stack = list(thms)
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        counts[t.rule] += 1
        for a in t.args:
            if isinstance(a, Theorem):
                stack.append(a)
    return counts


def add_counts(total, counts):
    for k, v in counts.items():
        total[k] = total.get(k, 0) + v
