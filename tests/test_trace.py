"""Trace export, independent replay, and tamper detection."""

import gc
import os
import re
import subprocess
import sys
import weakref

import pytest

from hogc import closure, grammar, kernel, parser, rules, syntax
from hogc.kernel import BOOL, IND, PHON, BaseType, FunType, ProdType, Var, true_c
from hogc.trace import TraceError, export_trace, theory_fingerprint, verify_trace

import helpers

P = Var('p', BOOL)
X = Var('x', IND)


def _content_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith('#')]


def _all_steps(text, th):
    """Every step of a trace as its replayed theorem: the trace with each
    step made a root."""
    n = len(_content_lines(text))
    return verify_trace(re.sub('^# roots .*$', '# roots ' + ' '.join(map(str, range(n))),
                               text, flags=re.M), th)


def _type_names(text):
    """The printing of each type id of a trace's type table."""
    names = []
    for line in text.splitlines():
        tag, *f = line.split(' ')
        if tag == '#B':
            names.append(f[0])
        elif tag in ('#F', '#P'):
            names.append('(%s %s %s)' % (names[int(f[0])], '->' if tag == '#F' else '*',
                                         names[int(f[1])]))
    return names


# ---------------------------------------------------------------------------
# Fingerprints

def test_fingerprint_stable_across_elaborations():
    a = grammar.elaborate(helpers.TOY, name='toy')
    b = grammar.elaborate(helpers.TOY, name='toy')
    assert theory_fingerprint(a.theory) == theory_fingerprint(b.theory)


def test_fingerprint_sensitive(toy, ambig):
    assert theory_fingerprint(toy.theory) != theory_fingerprint(ambig.theory)
    assert theory_fingerprint(toy.theory) != \
        theory_fingerprint(kernel.core_theory())
    other = grammar.elaborate(helpers.TOY, name='other')
    assert theory_fingerprint(toy.theory) != theory_fingerprint(other.theory)


_HASHLIB_ON_FIRST_FINGERPRINT = '''
import contextlib, io, sys
if 'hashlib' in sys.modules:
    print('preloaded')
    sys.exit()
import hogc, hogc.cli
from hogc import cli, closure, grammar, parser, trace
from hogc.kernel import BOOL, Var, mk_conj
path = sys.argv[1]
with open(path) as f:
    src = f.read()
g = grammar.elaborate(src, name='toy')
(r,) = parser.parse(g, 'fajdo blt', 2)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(['check', '-g', path]) == 0
p, q = Var('p', BOOL), Var('q', BOOL)
universe = closure.TermUniverse([p, q, mk_conj(p, q)])
closure.closure_report(universe, [p])
print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))
text = trace.export_trace([r.phon_proof, r.sem_proof])
print('hashlib' in sys.modules)
fresh = grammar.elaborate(src, name='toy')
print(len(trace.verify_trace(text, fresh.theory, strict_fingerprint=True)))
'''


def test_hashlib_loads_at_the_first_fingerprint(tmp_path):
    # only trace export and replay hash, so a process that imports hogc and
    # elaborates, parses, checks and builds closure reports maps no OpenSSL
    p = tmp_path / 'toy.hog'
    p.write_text(helpers.TOY)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), '..', 'src'))
    r = subprocess.run([sys.executable, '-c', _HASHLIB_ON_FIRST_FINGERPRINT, str(p)],
                       capture_output=True, env=env, text=True)
    assert r.returncode == 0, r.stderr
    if r.stdout == 'preloaded\n':
        pytest.skip('hashlib is loaded before hogc is imported')
    assert r.stdout.split('\n') == ['[]', 'True', '2', '']


# ---------------------------------------------------------------------------
# Export format

def test_export_format(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof, comment='toy sentence')
    lines = text.splitlines()
    assert lines[0] == '# hogc trace v2'
    assert lines[1] == '# toy sentence'
    assert lines[2].startswith('# theory toy ')
    assert len(lines[2].split()[-1]) == 64
    assert lines[3].startswith('# roots ')
    # then the type table, the term table and the steps, each line once
    steps = _content_lines(text)
    table = lines[4:len(lines) - len(steps)]
    tags = [l[:3] for l in table]
    n_types = sum(1 for t in tags if t in ('#B ', '#F ', '#P '))
    assert set(tags[:n_types]) == {'#B ', '#F '} and lines[len(lines) - len(steps):] == steps
    assert set(tags[n_types:]) == {'#v ', '#c ', '#a ', '#l '}
    assert len(set(table)) == len(table)
    ids = {str(i) for i in range(len(table) - n_types)}
    claims = set()
    for i, line in enumerate(steps):
        head, sep, claim = line.partition(' ==> ')
        assert sep and head.split()[0] == str(i)
        hyps, sep, concl = claim.partition(' |- ')
        assert sep and concl in ids and all(h in ids for h in hyps.split(' ; ') if hyps)
        claims.add(claim)
    # one step per judgement
    assert len(claims) == len(steps)
    assert export_trace(r.sem_proof, comment='toy sentence') == text


def test_multi_line_comment_verifies(toy):
    text = export_trace(kernel.reflexivity(toy.theory, true_c()), comment='first\nsecond')
    assert text.splitlines()[1:3] == ['# first', '# second']
    (got,) = verify_trace(text, toy.theory, strict_fingerprint=True)
    assert got.concl == kernel.mk_eq(true_c(), true_c())


@pytest.mark.parametrize('comment', ['roots of the word', 'theory x', '  roots 0',
                                     'first\ntheory toy ' + 64 * '0'])
def test_comments_are_never_read_as_headers(toy, comment):
    thms = [kernel.reflexivity(toy.theory, true_c()), rules.truth(toy.theory)]
    text = export_trace(thms, comment=comment)
    header = [l for l in text.splitlines() if l.startswith('#')]
    assert '# # ' + comment.splitlines()[-1] in header
    for roots in (thms[0], thms):
        text = export_trace(roots, comment=comment)
        got = verify_trace(text, toy.theory, strict_fingerprint=True)
        want = roots if isinstance(roots, list) else [roots]
        assert [t.concl for t in got] == [t.concl for t in want]


@pytest.mark.parametrize('tail', [' ', '  ', '\t', ' \t'])
def test_blanks_after_a_claim_are_a_mismatch(toy, tail):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    lines = export_trace(r.sem_proof).split('\n')
    steps = [i for i, l in enumerate(lines) if l and not l.startswith('#')]
    i = steps[len(steps) // 2]
    step = int(lines[i].split()[0])
    lines[i] += tail
    with pytest.raises(TraceError) as e:
        verify_trace('\n'.join(lines), toy.theory, strict_fingerprint=True)
    assert e.value.step == step and 'conclusion mismatch' in str(e.value)


_TWO_HYPS = '''
import sys
from hogc import kernel, rules, trace
from hogc.kernel import BOOL, Var
th = kernel.core_theory()
thm = kernel.assume(th, Var('q', BOOL))
for name in ('p', 'z', 'hole', 'slot', 'b0'):
    thm = rules.conj(thm, kernel.assume(th, Var(name, BOOL)))
sys.stdout.write(trace.export_trace([thm, rules.conjunct1(thm)]))
'''


def test_traces_with_many_hypotheses_are_hash_seed_independent():
    def export(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, '-c', _TWO_HYPS], capture_output=True,
                           env=env, text=True)
        assert r.returncode == 0, r.stderr
        return r.stdout

    text = export('0')
    assert text == export('1')
    assert any(l.partition(' ==> ')[2].count(' ; ') == 5 for l in _content_lines(text))
    thm, _ = verify_trace(text, kernel.core_theory(), strict_fingerprint=True)
    assert [h.name for h in thm.hyps] == ['q', 'p', 'z', 'hole', 'slot', 'b0']


_PINNED_MERGE = '''
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import helpers
from hogc import closure, grammar, parser, syntax, trace
from hogc.kernel import BOOL, Var
held = [syntax.parse_term(s) for s in sys.argv[2:]]
g = grammar.elaborate(helpers.AMBIG, name='ambig')
p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
cert = closure.certificate_cases(g.theory, p1.meaning, p2.meaning, Var('q', BOOL))
m = closure.merge_parses(g, p1, p2, cert)
text = trace.export_trace([m.phon_proof, m.sem_proof])
steps = sum(1 for l in text.splitlines() if not l.startswith('#'))
print(steps, len(text.encode()), hashlib.sha256(text.encode()).hexdigest())
'''


# alpha-equal to def.cond's description binder at Bool, under another name
_COND_BINDER = ('(\\v:Bool. ((or ((and true) ((eq[Bool] v) x:Bool)))'
                ' ((and (not true)) ((eq[Bool] v) y:Bool))))')


@pytest.mark.parametrize('seed', ['0', '1'])
def test_pinned_merge_trace_bytes(seed):
    # the AMBIG /fajdo blt/ merge by cases on q, the benchmark's pinned job;
    # these figures change only with a deliberate change to the audited trace,
    # not with the terms the process holds before it
    env = dict(os.environ, PYTHONHASHSEED=seed)
    for held in ((), (_COND_BINDER,)):
        r = subprocess.run([sys.executable, '-c', _PINNED_MERGE, os.path.dirname(__file__),
                            *held], capture_output=True, env=env, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == [
            '587', '39044', '177225f8640eb9183d7665b65ee553316001ee0df66c265f60ea39ed8a799be4']


_PROVE_AFTER_VERIFY = '''
import gc, sys
sys.path.insert(0, sys.argv[1])
import helpers
from hogc import closure, grammar, parser, syntax, trace
from hogc.kernel import BOOL, Var

def proofs(g, word):
    ps = parser.parse(g, word, 3)
    out = [t for p in ps for t in (p.phon_proof, p.sem_proof)]
    if len(ps) > 1:
        cert = closure.certificate_cases(g.theory, ps[0].meaning, ps[1].meaning,
                                         Var('q', BOOL))
        m = closure.merge_parses(g, ps[0], ps[1], cert)
        out += [m.phon_proof, m.sem_proof]
    return out

def shown(thms):
    return [([syntax.canonical_term(h) for h in t.hyps], syntax.canonical_term(t.concl))
            for t in thms]

for src, word in ((helpers.TOY, 'fajdo blt'), (helpers.BOOLSEM, 'nicht ja en nee')):
    thms = proofs(grammar.elaborate(src), word)
    want, text = shown(thms), trace.export_trace(thms)
    del thms
    gc.collect()
    g = grammar.elaborate(src)
    roots = trace.verify_trace(text, g.theory)
    for h in (g, grammar.elaborate(src)):
        print(len(want), shown(proofs(h, word)) == want)
'''


def test_proofs_after_a_verify_name_their_own_variables():
    # parses and merges made while verified theorems are alive, on the
    # verifying theory and on a fresh one, must prove what they prove
    # without them: a term keeps no binder names, so no proof opens a binder
    # at a name that a trace's terms brought in.  A process of its own: in
    # this one, other tests keep these alpha-classes alive.
    r = subprocess.run([sys.executable, '-c', _PROVE_AFTER_VERIFY, os.path.dirname(__file__)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split('\n') == ['2 True', '2 True', '6 True', '6 True', '']


def test_long_chain_word_round_trip():
    # a word 200 tokens long: its one parse's trace re-verifies in a fresh
    # elaboration, and its phonology term reads back from its canonical form
    g = grammar.elaborate(helpers.CHAIN, name='chain')
    word = helpers.chain_word(200)
    (r,) = parser.parse(g, word, 200)
    text = export_trace([r.phon_proof, r.sem_proof])
    fresh = grammar.elaborate(helpers.CHAIN, name='chain')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]
    w = grammar.word_to_phon(g, word)
    assert syntax.parse_term(syntax.canonical_term(w), syntax.TermEnv(theory=g.theory)) is w


def test_left_chain_word_round_trip():
    # a left-branching word 60 tokens long: its phonology proof uses the
    # monoid laws alone, with no schema cached for any length, and its trace
    # re-verifies in a fresh elaboration
    g = grammar.elaborate(helpers.LEFT_CHAIN, name='left_chain')
    word = helpers.left_chain_word(60)
    (r,) = parser.parse(g, word, 60)
    assert rules.rhs(r.phon_proof) == grammar.word_to_phon(g, word)
    assert not any(isinstance(k, tuple) and k[0] == 'phon_append'
                   for k in g.theory._derived_cache)
    text = export_trace([r.phon_proof, r.sem_proof])
    fresh = grammar.elaborate(helpers.LEFT_CHAIN, name='left_chain')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]


@pytest.mark.parametrize('roots', [('phon', 'sem'), ('sem', 'phon'), ('sem',)],
                         ids=['phon,sem', 'sem,phon', 'sem'])
@pytest.mark.parametrize('src,word_of', [('CHAIN', 'chain_word'),
                                         ('LEFT_CHAIN', 'left_chain_word')],
                         ids=['CHAIN', 'LEFT_CHAIN'])
def test_long_left_chain_word_round_trip_in_process(src, word_of, roots):
    # a right- or a left-branching word 600 tokens long parses, exports and
    # re-verifies in this process, whichever proof the trace starts from:
    # the trace writer and the kernel walk terms with explicit stacks, so a
    # step that names the whole sign before its children's steps is no
    # deeper for them.  A single parse is not sorted, so no sort key walks
    # its 600-deep sign
    g = grammar.elaborate(getattr(helpers, src), name=src.lower())
    (r,) = parser.parse(g, getattr(helpers, word_of)(600), 600)
    thms = [getattr(r, kind + '_proof') for kind in roots]
    text = export_trace(thms)
    fresh = grammar.elaborate(getattr(helpers, src), name=src.lower())
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [t.concl for t in thms]


@pytest.mark.parametrize('src,word_of', [('LEFT_CHAIN', 'left_chain_word'),
                                         ('LEFT_MIXED', 'left_mixed_word')])
def test_left_branching_trace_size_is_linear(src, word_of):
    # a left-branching word's root is normalised once, by steps that each
    # add O(1) terms, so bytes per token stay flat from 240 to 480 tokens;
    # each trace re-verifies in a fresh elaboration
    text_of, words = getattr(helpers, src), getattr(helpers, word_of)
    size = {}
    for n in (240, 480):
        (r,) = parser.parse(grammar.elaborate(text_of, name='left'), words(n), n)
        text = export_trace([r.phon_proof, r.sem_proof])
        got = verify_trace(text, grammar.elaborate(text_of, name='left').theory,
                           strict_fingerprint=True)
        assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]
        size[n] = len(text.encode())
    if src == 'LEFT_CHAIN':
        assert size[240] <= 450_000
    assert size[480] / 480 <= 1.10 * size[240] / 240, size


@pytest.mark.parametrize('name', ['%0', 'two words', ''])
def test_export_rejects_a_name_the_table_cannot_hold(name):
    # a table field holds no blank, and %d names only a binder's variable,
    # so a free variable of that name would read back bound
    th = kernel.core_theory()
    with pytest.raises(TraceError) as e:
        export_trace(kernel.assume(th, Var(name, BOOL)))
    assert str(e.value) == 'cannot write the name %r in a trace' % name


def test_export_rejects_mixed_theories(toy, ambig):
    a = kernel.reflexivity(toy.theory, true_c())
    b = kernel.reflexivity(ambig.theory, true_c())
    with pytest.raises(TraceError):
        export_trace([a, b])
    with pytest.raises(TraceError):
        export_trace([])


# ---------------------------------------------------------------------------
# Round trips

def test_roundtrip_same_theory(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace([r.phon_proof, r.sem_proof])
    got = verify_trace(text, toy.theory, strict_fingerprint=True)
    assert len(got) == 2
    assert got[0].concl == r.phon_proof.concl and got[0].hyps == ()
    assert got[1].concl == r.sem_proof.concl
    assert got[0].theory is toy.theory


@pytest.mark.parametrize('src,name,word,k', [
    ('TOY', 'toy', 'fajdo blt', 2),
    ('AMBIG', 'ambig', 'fajdo blt', 2),
    ('BOOLSEM', 'boolsem', 'nicht ja en nee', 3),
    ('EPS', 'eps', 'blt', 2),
])
def test_roundtrip_fresh_theory(src, name, word, k):
    g = grammar.elaborate(getattr(helpers, src), name=name)
    r = parser.parse(g, word, k)[0]
    text = export_trace([r.phon_proof, r.sem_proof])
    fresh = grammar.elaborate(getattr(helpers, src), name=name)
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]
    assert all(t.theory is fresh.theory for t in got)


def test_roundtrip_merged_parse(ambig):
    p1, p2 = parser.parse(ambig, 'fajdo blt', 3)
    cert = closure.certificate_cases(ambig.theory, p1.meaning, p2.meaning,
                                     Var('q', BOOL))
    m = closure.merge_parses(ambig, p1, p2, cert)
    text = export_trace([m.phon_proof, m.sem_proof])
    fresh = grammar.elaborate(helpers.AMBIG, name='ambig')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [m.phon_proof.concl, m.sem_proof.concl]


@pytest.mark.parametrize('route', ['left', 'cases q', 'cases p', 'cases h',
                                   'cases h_1', 'cases const h', 'taut', 'cases z',
                                   'cases a1', 'cases s1 and w', 'cases const z',
                                   'cases const s1 or a1', 'taut z h s1 w a1'])
def test_roundtrip_merge_with_constant_named_like_a_schema_variable(route):
    # derived-rule schemas use a variable p, printed p:Bool in traces, the
    # cases certificate is an instance of a law in x, y, z, and the merge an
    # instance of a law in s1, s2, w, a1, a2, a proved through a hole h; grammar
    # constants and certificate variables with those names must not capture
    # them, in the proof or on replay
    if route.startswith('taut'):
        src, name, word, k = helpers.BOOLSEM, 'boolsem', 'nicht ja en nee', 3
    else:
        src, name, word, k = helpers.AMBIG, 'ambig', helpers.AMBIG_WORD, 2
    src += ''.join('const %s : Bool\n' % n for n in ('p', 'h', 'z', 's1', 'w', 'a1'))
    g = grammar.elaborate(src, name=name)
    p1, p2 = parser.parse(g, word, k)
    th = g.theory
    v = {n: Var(n, BOOL) for n in ('h', 'h_1', 'z', 's1', 'w', 'a1')}
    if route == 'left':
        cert = closure.certificate_left(th, p1.meaning, p2.meaning)
    elif route.startswith('taut'):
        # z /\ ~z /\ rest is false, as is the first meaning ~true /\ false
        z, rest = (v['h'], v['h_1']) if route == 'taut' else (v['z'], kernel.mk_disj(
            v['h'], kernel.mk_disj(v['s1'], kernel.mk_disj(v['w'], v['a1']))))
        target = kernel.mk_conj(z, kernel.mk_conj(kernel.mk_not(z), rest))
        cert = closure.certificate_taut(th, target, p1.meaning, p2.meaning)
    else:
        q = {'cases p': th.const('p'), 'cases const h': th.const('h'),
             'cases const z': th.const('z'),
             'cases s1 and w': kernel.mk_conj(v['s1'], v['w']),
             'cases const s1 or a1': kernel.mk_disj(th.const('s1'), th.const('a1'))
             }.get(route, Var(route.split()[1], BOOL))
        cert = closure.certificate_cases(th, p1.meaning, p2.meaning, q)
    m = closure.merge_parses(g, p1, p2, cert)
    assert m.meaning == cert.target and m.phon_proof.hyps == m.sem_proof.hyps == ()
    text = export_trace([m.phon_proof, m.sem_proof])
    fresh = grammar.elaborate(src, name=name)
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [m.phon_proof.concl, m.sem_proof.concl]


B0 = ('alphabet: a\nsigntype S sem Bool\n'
      'const b0 : Ind\nconst likes : Ind -> Ind -> Bool\n'
      'lex A : S { phon = /a/; sem = %s; }\n')


def test_bound_names_avoid_constant_names():
    # canonical bound names are b<depth>; they must not print as the
    # constant b0, or both sides below read back the same
    src = B0 % '(\\x:Ind. likes x b0) = (\\x:Ind. likes x x)'
    swapped = B0 % '(\\x:Ind. likes x x) = (\\x:Ind. likes x b0)'
    g = grammar.elaborate(src, name='b')
    assert (theory_fingerprint(g.theory)
            != theory_fingerprint(grammar.elaborate(swapped, name='b').theory))
    r = parser.parse(g, 'a', 1)[0]
    text = export_trace([r.phon_proof, r.sem_proof])
    fresh = grammar.elaborate(src, name='b')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]


def test_rewriting_under_a_binder_read_from_a_trace_verifies(toy):
    # the verifier reads (\%0:Ind. ...) and keeps that term alive; a term
    # built later is the same object, and rewriting under its binder must
    # still name the opened variable so that the trace reads back
    th = toy.theory
    y, z = Var('y', IND), Var('z', IND)
    barks = th.const('barks')
    text = export_trace(kernel.reflexivity(
        th, kernel.Abs(X, kernel.App(kernel.Abs(y, kernel.App(barks, y)), X))))
    (kept,) = verify_trace(text, th)
    u = kernel.Abs(z, kernel.App(kernel.Abs(y, kernel.App(barks, y)), z))
    assert u is rules.lhs(kept)
    e = rules.depth_rewrite(th, u, rules._bp_step)
    (got,) = verify_trace(export_trace(e), th)
    assert got.concl is e.concl


def test_roundtrip_every_primitive_rule():
    # each theorem has its own judgement: a step with the judgement of an
    # earlier one is not written again
    th = kernel.core_theory()
    assume_p = kernel.assume(th, P)
    y, z = Var('y', IND), Var('z', IND)
    x_y = kernel.assume(th, kernel.mk_eq(X, y))
    thms = [
        kernel.reflexivity(th, X),
        kernel.symmetry(x_y),
        kernel.transitivity(x_y, kernel.assume(th, kernel.mk_eq(y, z))),
        kernel.congruence(kernel.reflexivity(th, Var('f', kernel.FunType(IND, BOOL))),
                          kernel.reflexivity(th, X)),
        kernel.abstraction(X, kernel.reflexivity(th, X)),
        kernel.beta_conversion(th, kernel.App(kernel.Abs(X, X), X)),
        assume_p,
        kernel.modus_ponens_eq(kernel.assume(th, kernel.mk_eq(P, Var('q', BOOL))), assume_p),
        kernel.deduct_antisym(assume_p, assume_p),
        kernel.axiom(th, 'bool-cases'),
        kernel.instantiate(assume_p, {P: Var('q', BOOL)}),
    ]
    text = export_trace(thms, comment='one of each')
    rules_used = {l.split()[1] for l in _content_lines(text)}
    assert rules_used == {
        'reflexivity', 'symmetry', 'transitivity', 'congruence',
        'abstraction', 'beta_conversion', 'assume',
        'modus_ponens_eq', 'deduct_antisym', 'axiom', 'instantiate'}
    assert rules_used == set(kernel.PRIMITIVE_RULES)
    got = verify_trace(text, kernel.core_theory(), strict_fingerprint=True)
    assert [(t.hyps, t.concl) for t in got] == \
        [(t.hyps, t.concl) for t in thms]


def test_roundtrip_every_axiom_schema():
    # every schema at its arity, at function and product types over the
    # grammar's own sign types; the names read back as the same instances
    g = grammar.elaborate(helpers.TOY, name='toy')
    np_ = BaseType('NP')
    fn, prod = FunType(np_, BOOL), ProdType(PHON, FunType(IND, np_))
    thms = [kernel.axiom(g.theory, 'bool-cases')]
    thms += [kernel.axiom(g.theory, 'def.' + c)
             for c in ('true', 'and', 'imp', 'or', 'false', 'not')]
    for a, b in ((fn, prod), (prod, fn)):
        thms += [kernel.axiom(g.theory, 'description', (a,)),
                 kernel.axiom(g.theory, 'ext', (a, b)),
                 kernel.axiom(g.theory, 'pairing', (a, b)),
                 kernel.axiom(g.theory, 'fst_pair', (a, b)),
                 kernel.axiom(g.theory, 'snd_pair', (a, b))]
        thms += [kernel.axiom(g.theory, 'def.' + c, (a,))
                 for c in ('forall', 'exists', 'cond')]
    text = export_trace(thms)
    ids = {name: i for i, name in enumerate(_type_names(text))}
    assert '"ext[%d,%d]"' % (ids['(NP -> Bool)'], ids['(Phon * (Ind -> NP))']) in text
    fresh = grammar.elaborate(helpers.TOY, name='toy')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [(t.args, t.hyps, t.concl) for t in got] == \
        [(t.args, t.hyps, t.concl) for t in thms]


def test_verified_roots_feed_the_kernel(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    (got,) = verify_trace(export_trace(r.sem_proof), toy.theory)
    assert kernel.symmetry(got).concl == kernel.mk_eq(
        *reversed(list(kernel.dest_eq(got.concl))))


def _pinned_merge():
    g = grammar.elaborate(helpers.AMBIG, name='ambig')
    p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
    cert = closure.certificate_cases(g.theory, p1.meaning, p2.meaning, Var('q', BOOL))
    return closure.merge_parses(g, p1, p2, cert)


def test_replay_parses_and_prints_no_term(monkeypatch):
    # the verifier reads terms from the table and compares claims by
    # identity; only the theory fingerprint prints, and only the theory's
    # axioms
    m = _pinned_merge()
    text = export_trace([m.phon_proof, m.sem_proof])
    fresh = grammar.elaborate(helpers.AMBIG, name='ambig')
    printed = []
    real = syntax.canonical_term

    def fail(*args, **kw):
        raise AssertionError('the verifier parsed text')

    def recording(t, memo=None):
        printed.append(t)
        return real(t, memo)
    monkeypatch.setattr(syntax, 'parse_term', fail)
    monkeypatch.setattr(syntax, 'parse_type', fail)
    monkeypatch.setattr(syntax, 'canonical_term', recording)
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [m.phon_proof.concl, m.sem_proof.concl]
    assert sorted(map(id, printed)) == sorted(map(id, fresh.theory.axioms.values()))


def _edit_steps(text, edit):
    """``text`` with each step line replaced by ``edit(step, head, claim)``,
    a new ``(head, claim)``."""
    out, step = [], 0
    for line in text.split('\n'):
        if line and not line.startswith('#'):
            head, _, claim = line.partition(' ==> ')
            line = '%s ==> %s' % edit(step, head, claim)
            step += 1
        out.append(line)
    return '\n'.join(out)


def test_a_respelled_term_id_is_rejected(toy):
    # an id has one written form: with a leading zero it names nothing, in
    # a term argument, a claim or the table
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    s = next(i for i, l in enumerate(_content_lines(text)) if re.search(r'\{[1-9]', l))
    bad = _edit_steps(text, lambda i, head, claim: (
        re.sub(r'\{([1-9])', r'{0\1', head) if i == s else head, claim))
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert e.value.step == s and 'bad term id' in str(e.value)
    bad = _edit_steps(text, lambda i, head, claim: (
        head, claim.replace('|- ', '|- 0') if i == s else claim))
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert e.value.step == s and 'conclusion mismatch' in str(e.value)
    bad = re.sub('^#a ([0-9]+)', r'#a 0\1', text, count=1, flags=re.M)
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert e.value.step is None and 'bad id' in str(e.value)


def test_a_literal_swapped_for_another_printed_subterm_is_rejected(toy):
    # a reflexivity term replaced by the conclusion of an earlier step: the
    # step replays on that term, and its claim no longer matches.  The
    # reflexivity step is the phon schema's, of the ++ in SUBJ's phon axiom
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace([r.phon_proof, r.sem_proof])
    lines = _content_lines(text)
    steps = _all_steps(text, toy.theory)
    concls = [l.rpartition(' |- ')[2] for l in lines]
    s, j = next((s, j) for s, l in enumerate(lines) if l.split()[1] == 'reflexivity'
                for j in range(s) if '{%s}' % concls[j] not in l)
    bad = _edit_steps(text, lambda i, head, claim: (
        re.sub(r'\{[0-9]+\}', '{%s}' % concls[j], head) if i == s else head, claim))
    derived = kernel.reflexivity(toy.theory, steps[j].concl).concl
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert e.value.step == s
    assert str(e.value) == ('step %d: reflexivity: conclusion mismatch: claimed |- %s, '
                            'derived |- %s' % (s, syntax.canonical_term(steps[s].concl),
                                               syntax.canonical_term(derived)))


def test_a_shared_memo_prints_each_transient_term_as_itself():
    # each term is built, printed and dropped, so the id of a freed term can
    # come back as another's: a memo keyed by id() would print the old text.
    # The memo's key holds the term itself, at depth 0 and under a binder.
    memo = {}
    for i in range(200):
        for depth, name in ((0, 'v%d' % i), (1, 'w%d' % i)):
            t = kernel.mk_eq(Var(name, IND), X)
            assert syntax._canon(t, depth, memo) == '((eq[Ind] %s:Ind) x:Ind)' % name
            del t


def test_no_term_outlives_export_or_verify(toy):
    # the tables live for one call: a term that only a trace held is freed
    # once export_trace and verify_trace return
    thm = kernel.assume(toy.theory, kernel.mk_eq(Var('only_here', IND), X))
    text = export_trace(thm)
    gone = weakref.ref(thm.concl)
    del thm
    gc.collect()
    assert gone() is None
    (thm,) = verify_trace(text, toy.theory)
    assert syntax.canonical_term(thm.concl) == '((eq[Ind] only_here:Ind) x:Ind)'
    gone = weakref.ref(thm.concl)
    del thm
    gc.collect()
    assert gone() is None


def test_claim_of_another_step_rejected_at_its_step(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    lines = _content_lines(text)
    claims = [l.partition(' ==> ')[2] for l in lines]
    s = len(lines) - 1
    j = next(j for j in range(s)
             if claims[j].split(' |- ')[1] != claims[s].split(' |- ')[1])
    bad = text.replace(lines[s], lines[s].partition(' ==> ')[0] + ' ==> ' + claims[j])
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert e.value.step == s and 'conclusion mismatch' in str(e.value)


def test_non_canonical_claims_are_rejected(toy):
    # a claim names terms by id, each written one way; any other text in a
    # field, even the judgement's own printing, is a mismatch there
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    lines = _content_lines(text)
    head, _, claim = lines[-1].partition(' ==> ')
    concl = claim.split(' |- ')[1]
    for edited, what in ((' |-  ' + concl, 'conclusion'),
                         (' |- 0' + concl, 'conclusion'),
                         (' |- ' + syntax.canonical_term(r.sem_proof.concl), 'conclusion'),
                         ('  |- ' + concl, 'hypothesis')):
        with pytest.raises(TraceError) as e:
            verify_trace(text.replace(lines[-1], '%s ==> %s' % (head, edited)), toy.theory)
        assert e.value.step == len(lines) - 1
        assert '%s: %s mismatch' % (r.sem_proof.rule, what) in str(e.value)


# ---------------------------------------------------------------------------
# Tampering and wrong theories

def test_tampered_claim_rejected(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    last = _content_lines(text)[-1]
    head, _, _claim = last.partition(' ==> ')
    bad = text.replace(last, head + ' ==>  |- true')
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert 'mismatch' in str(e.value)
    assert e.value.step == len(_content_lines(text)) - 1


def test_tampered_hypotheses_rejected(toy):
    text = export_trace(kernel.reflexivity(toy.theory, true_c()))
    line = _content_lines(text)[0]
    head, _, claim = line.partition(' ==> ')
    bad = text.replace(line, '%s ==> true %s' % (head, claim.strip()))
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert 'hypothesis mismatch' in str(e.value)


def test_tampered_argument_rejected(toy):
    # the term of reflexivity x = x swapped for its conclusion
    text = export_trace(kernel.reflexivity(toy.theory, X))
    line = _content_lines(text)[0]
    lit = line[line.index('{'):line.index('}') + 1]
    bad = text.replace(lit, '{%s}' % line.rpartition(' |- ')[2])
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert 'mismatch' in str(e.value) and e.value.step == 0


def test_wrong_theory_rejected(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    with pytest.raises(TraceError):
        verify_trace(text, kernel.core_theory())
    with pytest.raises(TraceError) as e:
        verify_trace(text, kernel.core_theory(), strict_fingerprint=True)
    assert 'fingerprint mismatch' in str(e.value)


# ---------------------------------------------------------------------------
# Malformed traces

# A version line and a small table.  The cases below write a term argument
# or claim field as the canonical printing of a term of _TERMS, which
# ``_ids`` replaces by its id; other text stays as it is.
_TYPES = ('#B Bool', '#B Ind')
_TERMS = {'true': '#c true', 'false': '#c false', 'eq[Bool]': '#c eq 0',
          '(eq[Bool] true)': '#a 2 0', '((eq[Bool] true) true)': '#a 3 0',
          'x:Ind': '#v x 1', 'p:Bool': '#v p 0', 'q:Bool': '#v q 0'}
_PRELUDE = '\n'.join(('# hogc trace v2',) + _TYPES + tuple(_TERMS.values())) + '\n'
_ID = {t: str(i) for i, t in enumerate(_TERMS)}


def _ids(body):
    def field(s):
        return _ID.get(s, s)

    out = []
    for line in body.split('\n'):
        head, sep, claim = line.partition(' ==> ')
        head = re.sub(r'\{([^{}]*)\}', lambda m: '{%s}' % field(m.group(1)), head)
        hyps, turnstile, concl = claim.partition(' |- ')
        if turnstile:
            hyps = ' ; '.join(map(field, hyps.split(' ; '))) if hyps else ''
            claim = '%s |- %s' % (hyps, field(concl))
        out.append(head + sep + claim)
    return '\n'.join(out)


@pytest.mark.parametrize('body,frag', [
    ('', 'empty trace'),
    ('0 reflexivity {true}', 'missing ==>'),
    ('x reflexivity {true} ==>  |- true = true', 'bad step index'),
    ('1 reflexivity {true} ==>  |- true = true', 'out of order'),
    ('0 wibble ==>  |- true', 'unknown rule'),
    ('0 pair_beta {(fst (pair[Bool,Bool] true false))} ==>  |- true', 'unknown rule pair_beta'),
    ('0 symmetry @5 ==>  |- true', 'dangling reference'),
    ('0 reflexivity wat ==>  |- true', 'bad argument syntax'),
    ('0 reflexivity {true ==>  |- true', 'unterminated term argument'),
    ('0 reflexivity {true} {false} ==>  |- true = true', 'malformed arguments'),
    ('0 reflexivity {moo} ==>  |- true = true', 'bad term'),
    ('0 reflexivity {true} ==> true = true', 'malformed judgement'),
    ('0 reflexivity {true} ==>  |- moo = moo', 'conclusion mismatch'),
    ('0 assume {x:Ind} ==> x |- x', 'rule failed'),
    ('# roots 4\n0 reflexivity {true} ==>  |- ((eq[Bool] true) true)', 'out of range'),
    ('# roots 0 1\n0 reflexivity {true} ==>  |- ((eq[Bool] true) true)',
     "root index out of range in '# roots 0 1': the last step is 0"),
    ('# roots x\n0 reflexivity {true} ==>  |- true = true',
     "bad roots line '# roots x': want one or more step indexes"),
    ('# roots -1\n0 reflexivity {true} ==>  |- true = true',
     "bad roots line '# roots -1': want one or more step indexes"),
    ('# roots\n0 reflexivity {true} ==>  |- true = true',
     "bad roots line '# roots': want one or more step indexes"),
    ('# roots 0\n# roots 0\n0 reflexivity {true} ==>  |- true = true',
     "more than one roots line: '# roots 0'"),
    # a binder or target is checked before the arguments after it are read
    ('0 abstraction {true} @5 ==>  |- true', 'step 0: abstraction binder is not a variable'),
    ('0 reflexivity {true} ==>  |- ((eq[Bool] true) true)\n'
     '1 instantiate @0 {true} {moo} ==>  |- true',
     'step 1: instantiate target is not a variable'),
])
def test_malformed_traces(body, frag):
    th = kernel.core_theory()
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + _ids(body), th)
    assert frag in str(e.value)


@pytest.mark.parametrize('line,frag', [
    ('#a 0', 'malformed'),
    ('#a 0 9', "bad id '9'"),
    ('#a 0 0', 'applying non-function'),
    ('#c moo', 'unknown constant moo'),
    ('#c eq', 'eq takes 1 type arguments, got 0'),
    ('#c true 0', 'true takes 0 type arguments, got 1'),
    ('#l 0 0', 'binder must be a variable'),
    ('#F 0 7', "bad id '7'"),
])
def test_malformed_table_lines(line, frag):
    # a table line is checked when it is read, before any step
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + line + '\n0 reflexivity {0} ==>  |- 4', kernel.core_theory())
    assert e.value.step is None
    assert str(e.value).startswith('table line %r: ' % line) and frag in str(e.value)


def test_a_declared_constant_takes_no_types(toy):
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + '#c fido 1\n', toy.theory)
    assert str(e.value) == "table line '#c fido 1': declared constant fido takes no types"


def test_an_abstraction_binder_of_an_undeclared_type_is_rejected():
    # the binder's type is checked against the theory like any term a rule
    # takes in
    body = ('#B Und\n#v y 2\n0 reflexivity {true} ==>  |- ((eq[Bool] true) true)\n'
            '1 abstraction {8} @0 ==>  |- true')
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + _ids(body), kernel.core_theory())
    assert e.value.step == 1 and 'rule failed: unknown base type Und' in str(e.value)


@pytest.mark.parametrize('text', ['', '# hogc trace v1\n', '# hogc trace v2 \n0 wibble',
                                  '0 reflexivity {0} ==>  |- 4\n'])
def test_the_first_line_must_be_the_version_line(text):
    with pytest.raises(TraceError) as e:
        verify_trace(text, kernel.core_theory())
    first = text.split('\n')[0]
    assert str(e.value) == ("the first line is %r, not the version line "
                            "'# hogc trace v2'" % first)


@pytest.mark.parametrize('rule,args', [
    ('symmetry', '@0'), ('transitivity', '@0 @0'), ('congruence', '@0 @0'),
    ('abstraction', '{q:Bool} @0'), ('modus_ponens_eq', '@0 @0')])
def test_equation_rules_reject_a_non_equation_at_their_step(rule, args):
    # step 0 concludes p, not an equation: the rule's own check rejects it,
    # where a missing check would let a Python TypeError escape the verifier
    body = '0 assume {p:Bool} ==> p:Bool |- p:Bool\n1 %s %s ==>  |- true' % (rule, args)
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + _ids(body), kernel.core_theory())
    assert e.value.step == 1
    assert re.search('%s needs (an equation|equations)$' % rule, str(e.value))


@pytest.mark.parametrize('edit,msg', [
    (lambda l: '', 'no theory line before the first step'),
    (lambda l: '# theory toy', "bad theory line '# theory toy': want # theory <name> <sha256>"),
    (lambda l: l[:-1], "bad theory line %r: want # theory <name> <sha256>"),
    (lambda l: l + ' x', "bad theory line %r: want # theory <name> <sha256>"),
    (lambda l: l + '\n' + l, 'more than one theory line: %r'),
])
def test_strict_verification_requires_one_theory_line(toy, edit, msg):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    (line,) = [l for l in text.splitlines() if l.startswith('# theory ')]
    new = edit(line)
    bad = text.replace(line + '\n', new + '\n' if new else '')
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory, strict_fingerprint=True)
    assert str(e.value) == (msg % new.split('\n')[0] if '%r' in msg else msg)
    # the line is only checked when the fingerprint is
    (got,) = verify_trace(bad, toy.theory)
    assert got.concl == r.sem_proof.concl


def test_strict_theory_line_must_precede_the_first_step(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    lines = export_trace(r.sem_proof).splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith('# theory '))
    lines.append(lines.pop(i))
    with pytest.raises(TraceError) as e:
        verify_trace('\n'.join(lines), toy.theory, strict_fingerprint=True)
    assert str(e.value) == 'no theory line before the first step'


def test_export_refuses_a_theory_name_with_a_line_break():
    # no '# theory <name> <sha256>' line can carry the name
    th = kernel.core_theory('a\nb')
    with pytest.raises(TraceError) as e:
        export_trace(kernel.reflexivity(th, P))
    assert 'line break' in str(e.value)


@pytest.mark.parametrize('name,frag', [
    ('bool-cases[Ind]', 'takes 0 type arguments'),
    ('description[Ind', 'malformed axiom name'),
    ('description', 'takes 1 type arguments'),
    ('pairing[Ind]', 'takes 2 type arguments'),
    ('description[]', 'bad type'),
    ('description[Und]', 'unknown base type Und'),
    ('pairing[Ind Bool]', 'bad type'),
    ('def.no_such[Ind]', 'unknown axiom'),
])
def test_bad_axiom_names_rejected_at_their_step(name, frag):
    # the claim is the honest bool-cases judgement, so only the name is
    # wrong; the trace names each type of it by its id
    th = kernel.core_theory()
    text = export_trace([kernel.reflexivity(th, true_c()), kernel.axiom(th, 'bool-cases')])
    ids = {t: str(i) for i, t in enumerate(_type_names(text) + ['Ind', 'Und'])}
    text = text.replace('\n0 ', '\n#B Ind\n#B Und\n0 ', 1)
    named = re.sub('[A-Z][a-z]+', lambda m: ids[m.group(0)], name)
    with pytest.raises(TraceError) as e:
        verify_trace(text.replace('"bool-cases"', '"%s"' % named), th)
    assert e.value.step == 1 and frag in str(e.value)


def test_claim_mismatch_names_rule_and_both_judgements(toy):
    # the term id of true added as a hypothesis of |- true = true
    text = export_trace(kernel.reflexivity(toy.theory, true_c()))
    line = _content_lines(text)[0]
    head, _, claim = line.partition(' ==> ')
    true = re.search(r'\{([0-9]+)\}', head).group(1)
    bad = text.replace(line, '%s ==> %s%s' % (head, true, claim))
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert str(e.value) == ('step 0: reflexivity: hypothesis mismatch: claimed true '
                            '|- ((eq[Bool] true) true), derived |- ((eq[Bool] true) true)')


def test_trace_error_carries_step(toy):
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + '0 wibble ==>  |- true', toy.theory)
    assert e.value.step == 0
    assert str(e.value).startswith('step 0: ')
