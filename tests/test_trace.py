"""Trace export, independent replay, and tamper detection."""

import pytest

from hogc import closure, grammar, kernel, parser, rules
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
    ('0 reflexivity {true} ==>  |- moo = moo', 'bad judgement syntax'),
    ('0 assume {x:Ind} ==> x |- x', 'rule failed'),
    ('# roots 4\n0 reflexivity {true} ==>  |- true = true', 'out of range'),
])
def test_malformed_traces(body, frag):
    th = kernel.core_theory()
    with pytest.raises(TraceError) as e:
        verify_trace(_PRELUDE + body, th)
    assert frag in str(e.value)


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
    body = '0 reflexivity {true} ==>  |- (true = true)\n' + bad
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
