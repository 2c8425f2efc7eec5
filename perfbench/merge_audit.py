"""merge_audit: certified merges exported as traces and re-checked.

Each job does what one ``hogc merge --emit-proof`` plus one
``hogc trace-verify`` does: elaborate a fresh grammar, parse, build a
certificate, merge, export the trace, and replay it against a second fresh
elaboration with the fingerprint checked.  Per-theory caches are therefore
cold on every job, and trace export and replay dominate.  Every fourth
job's trace also gets one mutation at a seeded step, and must be rejected
there.
"""

import random
import re
import time

from hogc import closure, grammar, parser, trace
from hogc.kernel import BOOL, Var, beta_normalize, mk_conj, mk_cond, mk_eq

import inputs
from common import Workload, add_counts

K = 4
ROUTES = ('left', 'right', 'cases', 'taut')
# Trace size, and so audit time, grows with the word; the job at place j
# draws a word of length LENGTHS[j % 4], so every seed gets the same mix.
LENGTHS = (11, 10, 12, 9)
TAMPERS = ('claim', 'hyp', 'ref', 'term')
# Jobs 2, 6, 10, ... get one tampered trace each; the kinds rotate from a
# seeded start, so every kind recurs across seeds.
TAMPER_EVERY = 4
# The ROADMAP baseline row: AMBIG /fajdo blt/ merged by cases on q.
PINNED = ('ambig', ('fajdo', 'blt'), 2, (0, 1), 'cases')


class MergeAudit(Workload):
    name = 'merge_audit'
    probe_ops = 4
    overhead_ops = 1
    passes = 2
    setup_slots = 5

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)
        self.pool = {n: [] for n in LENGTHS}
        for w, n in sorted(inputs.boolsem_words(K).items()):
            if n >= 2 and len(w) in self.pool:
                self.pool[len(w)].append((w, n))
        self.jobs = [PINNED]
        self.tamper_seed = self.rng.getrandbits(32)
        self.q = Var('q', BOOL)
        self.samples = []
        self.stages = {'build': [], 'verify': [], 'reject': []}
        self.trace_bytes = 0
        self.parsed = []          # (grammar name, k, word, [(sign, meaning)])

    def n_ops(self, seconds):
        """The pinned job and whole cycles of jobs, each route once per
        cycle; at least one cycle, else about ``seconds`` of work: a job
        takes 3.6 s, and every pass runs it again."""
        cycles = round(seconds / (3.6 * len(ROUTES) * self.passes))
        return 1 + len(ROUTES) * max(1, cycles)

    def _job(self, i):
        while len(self.jobs) <= i:
            j = len(self.jobs) - 1
            w, n = self.rng.choice(self.pool[LENGTHS[j % len(LENGTHS)]])
            pair = tuple(sorted(self.rng.sample(range(n), 2)))
            # every four jobs use each route once; the rotation moves by
            # one per cycle so the tampered jobs meet every route
            route = ROUTES[(j + j // len(ROUTES)) % len(ROUTES)]
            self.jobs.append(('boolsem', w, K, pair, route))
        return self.jobs[i]

    def setup(self, spans):
        """Elaborate both grammars and build and export (not verify) the
        pinned merge.  Jobs elaborate their own grammars, so nothing is kept."""
        call = spans.call
        call('grammar.elaborate', grammar.elaborate, inputs.BOOLSEM, name='boolsem')
        g = call('grammar.elaborate', grammar.elaborate, inputs.AMBIG, name='ambig')
        p1, p2 = call('parser.parse', parser.parse, g, 'fajdo blt', 2)
        cert = call('closure.certificate.cases', closure.certificate_cases,
                    g.theory, p1.meaning, p2.meaning, self.q)
        m = call('closure.merge_parses', closure.merge_parses, g, p1, p2, cert)
        call('trace.export_trace', trace.export_trace, [m.phon_proof, m.sem_proof])

    def _certificate(self, spans, route, th, a1, a2):
        """(target, certificate) by the given route."""
        span = 'closure.certificate.' + route
        if route == 'left':
            return a1, spans.call(span, closure.certificate_left, th, a1, a2)
        if route == 'right':
            return a2, spans.call(span, closure.certificate_right, th, a1, a2)
        if route == 'cases':
            return mk_cond(a1, a2, self.q), spans.call(
                span, closure.certificate_cases, th, a1, a2, self.q)
        target = mk_conj(a1, a2)
        return target, spans.call(span, closure.certificate_taut, th, target, a1, a2)

    def op(self, i, spans, record=True, count=False):
        """Run job i; returns the audit latency in seconds.  A counts-only
        run (``count`` without ``record``) skips the replay, which adds no
        count and most of the time."""
        clock = time.perf_counter
        gname, word, k, (ia, ib), route = self._job(i)
        src = inputs.GRAMMARS[gname]
        spans.job = i
        t0 = clock()
        g = spans.call('grammar.elaborate', grammar.elaborate, src, name=gname)
        ps = spans.call('parser.parse', parser.parse, g, word, k)
        p1, p2 = ps[ia], ps[ib]
        target, cert = self._certificate(spans, route, g.theory, p1.meaning, p2.meaning)
        m = spans.call('closure.merge_parses', closure.merge_parses, g, p1, p2, cert)
        t1 = clock()
        text = spans.call('trace.export_trace', trace.export_trace,
                          [m.phon_proof, m.sem_proof])
        fresh = spans.call('grammar.elaborate', grammar.elaborate, src, name=gname)
        t2 = t3 = clock()
        if record or not count:
            roots = spans.call('trace.verify_trace', trace.verify_trace,
                               text, fresh.theory, strict_fingerprint=True)
            t3 = clock()
        if count:
            steps = self.add_steps([m.phon_proof, m.sem_proof])
            add_counts(self.counts, {'trace.lines': text.count('\n'),
                                     'trace.bytes': len(text.encode()),
                                     'parser.parses': len(ps)})
            if i == 0:
                self.pinned = (steps, len(text.encode()))
        if not record:
            return t3 - t0
        self.attempted += 1
        self.samples.append(t3 - t0)
        self.stages['build'].append(t1 - t0)
        self.stages['verify'].append(t3 - t2)
        self.trace_bytes += len(text.encode())
        self.parsed.append((gname, k, word, [(r.sign, r.meaning) for r in ps]))
        bad = []
        if any(r.phon_proof.hyps or r.sem_proof.hyps for r in ps):
            bad.append('parse proof has hypotheses')
        if m.meaning != beta_normalize(target) or cert.target != target:
            bad.append('merged meaning is not the certificate target')
        if m.sign != mk_cond(p1.sign, p2.sign, mk_eq(target, p1.meaning)):
            bad.append('merged sign is not the conditional sign')
        if m.phon_proof.hyps or m.sem_proof.hyps:
            bad.append('merged proof has hypotheses')
        if [r.concl for r in roots] != [m.phon_proof.concl, m.sem_proof.concl]:
            bad.append('verified roots differ from the merged theorems')
        if bad:
            self.fail('job %d %s: %s' % (i, ' '.join(word), '; '.join(bad)))
        if i % TAMPER_EVERY == 2:
            self._tamper_check(i, spans, text, fresh.theory)
        return t3 - t0

    def _tamper_check(self, i, spans, text, th):
        rng = random.Random(self.tamper_seed + i)
        kind = TAMPERS[(i // TAMPER_EVERY + self.tamper_seed) % len(TAMPERS)]
        bad_text, step = tamper(text, kind, rng)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            spans.call('trace.verify_trace.reject', trace.verify_trace,
                       bad_text, th, strict_fingerprint=True)
        except trace.TraceError as e:
            self.stages['reject'].append(time.perf_counter() - t0)
            if e.step != step:
                self.fail('job %d: %s tamper at step %d rejected at step %s'
                          % (i, kind, step, e.step))
            return
        self.fail('job %d: %s tamper at step %d was accepted' % (i, kind, step))

    def finish(self):
        grammars = {}

        def grammar_for(gname):
            if gname not in grammars:
                grammars[gname] = grammar.elaborate(inputs.GRAMMARS[gname], name=gname)
            return grammars[gname]
        self.check_parse_sets(self.parsed, grammar_for)

    def notes(self, pct):
        return {
            'audit_ms_p50': (pct(self.samples, 50), 'ms'),
            'build_ms_p50': (pct(self.stages['build'], 50), 'ms'),
            'verify_ms_p50': (pct(self.stages['verify'], 50), 'ms'),
            'trace_bytes': (self.trace_bytes, 'bytes'),
            'tamper_rejects': (len(self.stages['reject']), 'count'),
        }


def tamper(text, kind, rng):
    """(text with one step changed, index of that step).

    ``claim`` swaps in another step's conclusion, ``hyp`` adds a
    hypothesis, ``ref`` points one ``@`` argument at an earlier step with a
    different judgement, and ``term`` swaps the term literal of a
    reflexivity, beta_conversion or assume step for another step's.
    """
    lines = text.split('\n')
    head = sum(1 for ln in lines if ln.startswith('#'))
    steps = lines[head:-1]
    parts = [ln.split(' ==> ', 1) for ln in steps]
    claims = [p[1].split(' |- ', 1) for p in parts]
    fields = [p[0].split(' ', 2) for p in parts]

    def other(s, key):
        """A step before s whose key differs from step s's, or None."""
        choices = [j for j in range(s) if key(j) != key(s)]
        return rng.choice(choices) if choices else None

    while True:
        s = rng.randrange(1, len(steps))
        hyps, concl = claims[s]
        if kind == 'claim':
            j = other(s, lambda j: claims[j][1])
            if j is None:
                continue
            new = '%s ==> %s |- %s' % (parts[s][0], hyps, claims[j][1])
        elif kind == 'hyp':
            extra = concl if not hyps else concl + ' ; ' + hyps
            new = '%s ==> %s |- %s' % (parts[s][0], extra, concl)
        elif kind == 'ref':
            refs = list(re.finditer(r'@(\d+)', parts[s][0]))
            if not refs:
                continue
            ref = rng.choice(refs)
            j = other(int(ref.group(1)), lambda j: parts[j][1])
            if j is None:
                continue
            head_s = parts[s][0]
            new = '%s@%d%s ==> %s' % (head_s[:ref.start()], j, head_s[ref.end():],
                                      parts[s][1])
        else:
            rule = fields[s][1]
            if rule not in ('reflexivity', 'beta_conversion', 'assume'):
                continue
            same = [j for j in range(len(steps))
                    if fields[j][1] == rule and fields[j][2] != fields[s][2]]
            if not same:
                continue
            new = '%d %s %s ==> %s' % (s, rule, fields[rng.choice(same)][2], parts[s][1])
        lines[head + s] = new
        return '\n'.join(lines), s
