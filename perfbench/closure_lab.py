"""closure_lab: saturation queries over a fixed fragment universe.

No parser and no trace: ``closure_saturate`` is kernel-free, and a slice
of the queries adds a ``closure_report`` and a ``certificate_taut`` for the
first added term, which exercises the kernel through case splits and ground
evaluation over the core theory.  Saturation cost grows steeply with the
size of the closure, so queries are drawn class by class (closure size in
truth-vector classes, as the benchmark's own oracle computes it) and every
run has the same mix; the median query then sits in the middle class on
every seed.
"""

import random
import time

from helpers import naive_closure
from hogc import closure, kernel, syntax
from hogc.kernel import BOOL, Var, mk_disj, mk_eq

import inputs
from common import Workload, add_counts

# The universe is the same on every seed, so the seed changes only the
# queries: saturation time depends on which truth vectors the universe
# realizes and in what order, not only on closure sizes.
UNIVERSE_SEED = 2009
UNIVERSE_SIZE = 1000
UNIVERSE_VECTORS = 152
TERM_DEPTH = 4
# Closure sizes, in truth-vector classes, of one cycle of queries.  The
# 10-12 class fills twelve of the sixteen places, so the median query is
# one of them on every seed, and there are enough of them for a steady
# median.
MID = (10, 12)
CLASSES = ((1, 1), MID, MID, MID, (2, 6), MID, MID, MID,
           (13, 40), MID, MID, MID, (41, 256), MID, MID, MID)
# Every other cycle, the 13-40 query also gets a report and a certificate.
REPORT_EVERY = 2 * len(CLASSES)
REPORT_AT = 8
# After the run, this many seeded subsets of the first NAIVE_TERMS universe
# terms are saturated over those terms alone and compared with the test
# suite's quadratic reference closure, which is too slow for the full
# universe.
NAIVE_QUERIES = 4
NAIVE_TERMS = 40


class ClosureLab(Workload):
    name = 'closure_lab'
    probe_ops = 20
    overhead_ops = 10
    passes = 6
    setup_slots = 4

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(UNIVERSE_SEED)
        self.vec = {}
        vectors = set()
        while len(self.vec) < UNIVERSE_SIZE:
            t = inputs.random_fragment(rng, TERM_DEPTH)
            v = inputs.truth_vector(t)
            if t in self.vec:
                continue
            # exactly UNIVERSE_VECTORS realized vectors: saturation cost
            # scales with their number
            missing = UNIVERSE_VECTORS - len(vectors)
            if (v in vectors) if missing >= UNIVERSE_SIZE - len(self.vec) else \
                    (v not in vectors and not missing):
                continue
            self.vec[t] = v
            vectors.add(v)
        self.terms = list(self.vec)
        self.realized = frozenset(vectors)
        self.pretty = {t: syntax.pretty_term(t) for t in self.terms}
        self.by_pretty = {s: t for t, s in self.pretty.items()}
        self.rng = random.Random(seed)
        self.naive_rng = random.Random(seed + UNIVERSE_SEED)
        self.queries = []
        self.universe = None
        self.theory = None
        self.samples = []
        self.stages = {'report': [], 'taut': []}

    def _query(self, i):
        while len(self.queries) <= i:
            lo, hi = CLASSES[len(self.queries) % len(CLASSES)]
            for _ in range(100000):
                sub = self.rng.sample(self.terms, 1 if hi == 1 else self.rng.randint(2, 3))
                closed = inputs.vector_closure([self.vec[t] for t in sub],
                                               self.realized, limit=hi)
                if lo <= len(closed) <= hi:
                    break
            else:
                raise RuntimeError('no query with a closure of %d-%d vectors' % (lo, hi))
            self.queries.append((sub, closed))
        return self.queries[i]

    def n_ops(self, seconds):
        """Whole cycles of queries, about ``seconds`` of work: a cycle takes
        1.7 s, and every pass runs it again."""
        return len(CLASSES) * max(1, round(seconds / (1.7 * self.passes)))

    def setup(self, spans):
        """Build the universe, its truth-vector table and the core theory,
        and warm the kernel with one taut certificate."""
        self.universe = spans.call('closure.universe', closure.TermUniverse, self.terms)
        sub, _ = self._query(0)
        spans.call('closure.closure_saturate', closure.closure_saturate, self.universe, sub)
        self.theory = kernel.core_theory()
        p, q = Var('p', BOOL), Var('q', BOOL)
        spans.call('closure.certificate.taut', closure.certificate_taut,
                   self.theory, mk_disj(p, q), p, q)

    def op(self, i, spans, record=True, count=False):
        sub, closed = self._query(i)
        u = self.universe
        spans.job = i
        t0 = time.perf_counter()
        members = spans.call('closure.closure_saturate', closure.closure_saturate, u, sub)
        dt = time.perf_counter() - t0
        report = cert = None
        if i % REPORT_EVERY == REPORT_AT:
            t1 = time.perf_counter()
            report = spans.call('closure.closure_report', closure.closure_report, u, sub)
            t2 = time.perf_counter()
            added = self._witnesses(report)
            if added:
                a, b, c = added[0]
                cert = spans.call('closure.certificate.taut', closure.certificate_taut,
                                  self.theory, a, b, c)
            t3 = time.perf_counter()
        if count:
            add_counts(self.counts, {'closure.added_terms': len(members) - len(set(sub))})
            if cert is not None:
                self.add_steps([cert.proof])
        if not record:
            return dt
        self.attempted += 1
        self.samples.append(dt)
        expect = [t for t in self.terms if self.vec[t] in closed]
        if members != expect:
            self.fail('closure of query %d differs from the vector-closure oracle' % i)
        if report is not None:
            self.attempted += 1
            self.stages['report'].append(t2 - t1)
            self._check_report(i, report, sub, closed)
        if cert is not None:
            self.attempted += 1
            self.stages['taut'].append(t3 - t2)
            want = mk_disj(mk_eq(a, b), mk_eq(a, c))
            if cert.proof.hyps or cert.proof.concl != want or not inputs.valid(want):
                self.fail('taut certificate of query %d is wrong' % i)
        return dt

    def _rows(self, report):
        """(term, [input, closure, witness...]) for each table row; the rows
        follow the universe order, after a four-line summary and a header."""
        rows = report.split('\n')[6:-1]
        return [(t, row[len(self.pretty[t]):].split(None, 2))
                for t, row in zip(self.terms, rows)], len(rows)

    def _witnesses(self, report):
        """[(added term, b, c)] read back from the report's rows."""
        return [(t, self.by_pretty[w[0]], self.by_pretty[w[1]])
                for t, cols in self._rows(report)[0]
                if len(cols) == 3 and cols[2] != '-'
                for w in [cols[2].split(' ; ')]]

    def _check_report(self, i, report, sub, closed):
        rows, n = self._rows(report)
        inset = set(sub)
        ok = n == len(self.terms)
        for t, cols in rows:
            ok = ok and cols[:2] == ['yes' if t in inset else 'no',
                                     'yes' if self.vec[t] in closed else 'no']
        for t, b, c in self._witnesses(report):
            if not (self.vec[b] in closed and self.vec[c] in closed
                    and inputs.valid(mk_disj(mk_eq(t, b), mk_eq(t, c)))):
                ok = False
        if not ok:
            self.fail('closure report of query %d is wrong' % i)

    def finish(self):
        """Every output of the run was checked as it came; here a seeded
        sample of small closures is checked against ``naive_closure``."""
        small = self.terms[:NAIVE_TERMS]
        u = closure.TermUniverse(small)
        for _ in range(NAIVE_QUERIES):
            sub = self.naive_rng.sample(small, self.naive_rng.randint(1, 3))
            self.attempted += 1
            if closure.closure_saturate(u, sub) != naive_closure(small, sub):
                self.fail('closure of %d terms differs from naive_closure' % len(sub))

    def notes(self, pct):
        return {'saturate_ms_p50': (pct(self.samples, 50), 'ms'),
                'saturate_ms_p90': (pct(self.samples, 90), 'ms'),
                'taut_cert_ms_p50': (pct(self.stages['taut'], 50), 'ms')}
