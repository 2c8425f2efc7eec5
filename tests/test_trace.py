"""Trace export, independent replay, and tamper detection."""

import os
import re
import subprocess
import sys

import pytest

from hogc import closure, grammar, kernel, parser, rules, syntax
from hogc.kernel import (BOOL, IND, PHON, BaseType, FunType, Pair, ProdType,
                         Proj, Var, true_c)
from hogc.trace import TraceError, export_trace, theory_fingerprint, verify_trace

import helpers

P = Var('p', BOOL)
X = Var('x', IND)


def _content_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith('#')]


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


# ---------------------------------------------------------------------------
# Export format

def test_export_format(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof, comment='toy sentence')
    lines = text.splitlines()
    assert lines[0] == '# hogc trace v1'
    assert lines[1] == '# toy sentence'
    assert lines[2].startswith('# theory toy ')
    assert len(lines[2].split()[-1]) == 64
    assert lines[3].startswith('# roots ')
    for i, line in enumerate(_content_lines(text)):
        head, sep, claim = line.partition(' ==> ')
        assert sep and head.split()[0] == str(i)
        assert ' |- ' in ' ' + claim
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
    i = len(lines) // 2
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
    assert ' q:Bool ; p:Bool ; z:Bool ; hole:Bool ; slot:Bool ; b0:Bool |- ' in text
    verify_trace(text, kernel.core_theory(), strict_fingerprint=True)


_PINNED_MERGE = '''
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import helpers
from hogc import closure, grammar, parser, trace
from hogc.kernel import BOOL, Var
g = grammar.elaborate(helpers.AMBIG, name='ambig')
p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
cert = closure.certificate_cases(g.theory, p1.meaning, p2.meaning, Var('q', BOOL))
m = closure.merge_parses(g, p1, p2, cert)
text = trace.export_trace([m.phon_proof, m.sem_proof])
steps = sum(1 for l in text.splitlines() if not l.startswith('#'))
print(steps, hashlib.sha256(text.encode()).hexdigest())
'''


@pytest.mark.parametrize('seed', ['0', '1'])
def test_pinned_merge_trace_bytes(seed):
    # the AMBIG /fajdo blt/ merge by cases on q, the benchmark's pinned job;
    # these figures change only with a deliberate change to the audited trace
    env = dict(os.environ, PYTHONHASHSEED=seed)
    r = subprocess.run([sys.executable, '-c', _PINNED_MERGE, os.path.dirname(__file__)],
                       capture_output=True, env=env, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [
        '1320', '155d9029a54ffc09ac447a200a5fb48a920003c30e455ad4824e41550fbb55c4']


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


@pytest.mark.parametrize('route', ['left', 'cases q', 'cases p'])
def test_roundtrip_merge_with_constant_named_like_a_schema_variable(route):
    # derived-rule schemas use a variable p, printed p:Bool in traces; the
    # grammar constant p must not capture it on replay
    src = helpers.AMBIG + 'const p : Bool\n'
    g = grammar.elaborate(src, name='ambig')
    p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
    th = g.theory
    if route == 'left':
        cert = closure.certificate_left(th, p1.meaning, p2.meaning)
    else:
        q = th.const('p') if route == 'cases p' else Var('q', BOOL)
        cert = closure.certificate_cases(th, p1.meaning, p2.meaning, q)
    m = closure.merge_parses(g, p1, p2, cert)
    text = export_trace([m.phon_proof, m.sem_proof])
    fresh = grammar.elaborate(src, name='ambig')
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
    th = kernel.core_theory()
    assume_p = kernel.assume(th, P)
    thms = [
        kernel.reflexivity(th, X),
        kernel.symmetry(kernel.reflexivity(th, X)),
        kernel.transitivity(kernel.reflexivity(th, X),
                            kernel.reflexivity(th, X)),
        kernel.congruence(kernel.reflexivity(th, Var('f', kernel.FunType(IND, BOOL))),
                          kernel.reflexivity(th, X)),
        kernel.abstraction(X, kernel.reflexivity(th, X)),
        kernel.beta_conversion(th, kernel.App(kernel.Abs(X, X), X)),
        kernel.pair_beta(th, Proj(1, Pair(X, P))),
        assume_p,
        kernel.modus_ponens_eq(kernel.reflexivity(th, P), assume_p),
        kernel.deduct_antisym(assume_p, assume_p),
        kernel.axiom(th, 'bool-cases'),
        kernel.instantiate(assume_p, {P: Var('q', BOOL)}),
    ]
    text = export_trace(thms, comment='one of each')
    rules_used = {l.split()[1] for l in _content_lines(text)}
    assert rules_used == {
        'reflexivity', 'symmetry', 'transitivity', 'congruence',
        'abstraction', 'beta_conversion', 'pair_beta', 'assume',
        'modus_ponens_eq', 'deduct_antisym', 'axiom', 'instantiate'}
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
                 kernel.axiom(g.theory, 'pairing', (a, b))]
        thms += [kernel.axiom(g.theory, 'def.' + c, (a,))
                 for c in ('forall', 'exists', 'cond')]
    text = export_trace(thms)
    assert '"ext[(NP -> Bool),(Phon * (Ind -> NP))]"' in text
    fresh = grammar.elaborate(helpers.TOY, name='toy')
    got = verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [(t.args, t.hyps, t.concl) for t in got] == \
        [(t.args, t.hyps, t.concl) for t in thms]


def test_verified_roots_feed_the_kernel(toy):
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    (got,) = verify_trace(export_trace(r.sem_proof), toy.theory)
    assert kernel.symmetry(got).concl == kernel.mk_eq(
        *reversed(list(kernel.dest_eq(got.concl))))


def test_replay_parses_each_distinct_literal_once_and_no_claim(monkeypatch):
    g = grammar.elaborate(helpers.AMBIG, name='ambig')
    p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
    cert = closure.certificate_cases(g.theory, p1.meaning, p2.meaning, Var('q', BOOL))
    m = closure.merge_parses(g, p1, p2, cert)
    text = export_trace([m.phon_proof, m.sem_proof])
    literals = re.findall(r'\{([^}]*)\}',
                          ''.join(l.partition(' ==> ')[0] for l in _content_lines(text)))
    fresh = grammar.elaborate(helpers.AMBIG, name='ambig')
    parsed = []
    real = syntax.parse_term

    def counting(s, env=None):
        parsed.append(s)
        return real(s, env)
    monkeypatch.setattr(syntax, 'parse_term', counting)
    verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert len(literals) > len(set(literals))
    assert sorted(parsed) == sorted(set(literals))


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
    # an alpha-equal claim in any other written form is not the judgement
    (r,) = parser.parse(toy, 'fajdo blt', 2)
    text = export_trace(r.sem_proof)
    lines = _content_lines(text)
    head, _, claim = lines[-1].partition(' ==> ')
    concl = claim.split(' |- ')[1]
    infix = syntax.pretty_term(r.sem_proof.concl)
    assert ' = ' in infix
    for edited, what in (('  |- ' + concl.replace(' ', '  '), 'conclusion'),
                         (' |- ' + infix, 'conclusion'),
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
    text = export_trace(kernel.reflexivity(toy.theory, X))
    line = _content_lines(text)[0]
    lit = line[line.index('{'):line.index('}') + 1]
    bad = text.replace(lit, '{true}')
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

_PRELUDE = '# hogc trace v1\n'


@pytest.mark.parametrize('body,frag', [
    ('', 'empty trace'),
    ('0 reflexivity {true}', 'missing ==>'),
    ('x reflexivity {true} ==>  |- true = true', 'bad step index'),
    ('1 reflexivity {true} ==>  |- true = true', 'out of order'),
    ('0 wibble ==>  |- true', 'unknown rule'),
    ('0 symmetry @5 ==>  |- true', 'dangling reference'),
    ('0 reflexivity wat ==>  |- true', 'bad argument syntax'),
    ('0 reflexivity {true ==>  |- true', 'unterminated term literal'),
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
])
def test_malformed_traces(body, frag):
    th = kernel.core_theory()
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + body, th)
    assert frag in str(e.value)


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
    # the claim is the honest bool-cases judgement, so only the name is wrong
    th = kernel.core_theory()
    line = _content_lines(export_trace(kernel.axiom(th, 'bool-cases')))[0]
    bad = line.replace('"bool-cases"', '"%s"' % name).replace('0 axiom', '1 axiom')
    body = '0 reflexivity {true} ==>  |- ((eq[Bool] true) true)\n' + bad
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + body, th)
    assert e.value.step == 1 and frag in str(e.value)


def test_claim_mismatch_names_rule_and_both_judgements(toy):
    text = export_trace(kernel.reflexivity(toy.theory, true_c()))
    line = _content_lines(text)[0]
    head, _, claim = line.partition(' ==> ')
    bad = text.replace(line, '%s ==> false %s' % (head, claim.strip()))
    with pytest.raises(TraceError) as e:
        verify_trace(bad, toy.theory)
    assert str(e.value) == ('step 0: reflexivity: hypothesis mismatch: claimed false '
                            '%s, derived %s' % (claim.strip(), claim.strip()))


def test_trace_error_carries_step(toy):
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + '0 wibble ==>  |- true', toy.theory)
    assert e.value.step == 0
    assert str(e.value).startswith('step 0: ')
