"""parse_corpus: one ``parser.parse`` call per word, with warm theories.

The operations walk a seeded order over every BOOLSEM word at depth bound
4.  Set-up elaborates the four grammars and, as its warm-up pass, parses
every TOY, AMBIG and EPS word at bounds 1 to 4 and one BOOLSEM word.  Chart
fill and proof build dominate, and the trace layer is never entered.
"""

import math
import random
import time

from hogc import grammar, parser

import inputs
from common import Workload, add_counts

BOOLSEM_K = 4
BOOLSEM_WARMUP = ('nicht', 'ja', 'en', 'nee')


class ParseCorpus(Workload):
    name = 'parse_corpus'
    probe_ops = 40
    overhead_ops = 10
    passes = 6
    setup_slots = 4

    def __init__(self, seed):
        super().__init__()
        rng = random.Random(seed)
        # Parse time grows steeply with word length.  Walking the words,
        # sorted by length, with a golden-ratio stride gives every prefix of
        # the order the corpus's mix of lengths, whatever the seed.
        key = {w: rng.random() for w in sorted(inputs.boolsem_words(BOOLSEM_K))}
        words = sorted(key, key=lambda w: (len(w), key[w]))
        n = len(words)
        stride = round(n * (math.sqrt(5) - 1) / 2)
        while math.gcd(stride, n) != 1:
            stride += 1
        start = rng.randrange(n)
        self.items = [('boolsem', words[(start + j * stride) % n], BOOLSEM_K)
                      for j in range(n)]
        self.warmup = [(g, tuple(w.split()), k) for g, ws in sorted(inputs.SMALL_WORDS.items())
                       for w in ws for k in range(1, 5)]
        self.warmup.append(('boolsem', BOOLSEM_WARMUP, BOOLSEM_K))
        self.grammars = None
        self.samples = []
        self.parsed = []          # (grammar name, k, word, [(sign, meaning)])

    def n_ops(self, seconds):
        """About ``seconds`` of BOOLSEM parses: one takes 75 ms on average,
        and every pass runs it again."""
        return max(self.probe_ops, round(seconds / (0.075 * self.passes)))

    def setup(self, spans):
        """Elaborate the four grammars and run the warm-up pass.  The first
        set-up also records the warm-up parses for the oracle check."""
        self.grammars = {n: spans.call('grammar.elaborate', grammar.elaborate, src, name=n)
                         for n, src in inputs.GRAMMARS.items()}
        record = not self.parsed
        for gname, word, k in self.warmup:
            results = spans.call('parser.parse', parser.parse, self.grammars[gname], word, k)
            if record:
                self._record(gname, word, k, results)

    def op(self, i, spans, record=True, count=False):
        gname, word, k = self.items[i % len(self.items)]
        spans.job = i
        t0 = time.perf_counter()
        results = spans.call('parser.parse', parser.parse, self.grammars[gname], word, k)
        dt = time.perf_counter() - t0
        if count:
            self.add_steps([t for r in results for t in (r.phon_proof, r.sem_proof)])
            add_counts(self.counts, {'parser.parses': len(results)})
        if record:
            self.samples.append(dt)
            self._record(gname, word, k, results)
        return dt

    def _record(self, gname, word, k, results):
        self.attempted += 1
        self.parsed.append((gname, k, word, [(r.sign, r.meaning) for r in results]))
        if any(r.phon_proof.hyps or r.sem_proof.hyps for r in results):
            self.fail('parse of %r has a proof with hypotheses' % ' '.join(word))

    def finish(self):
        self.check_parse_sets(self.parsed, self.grammars.get)

    def notes(self, pct):
        return {'parse_ms_p50': (pct(self.samples, 50), 'ms'),
                'parse_ms_p90': (pct(self.samples, 90), 'ms')}
