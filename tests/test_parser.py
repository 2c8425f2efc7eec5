"""Chart parsing with proofs, the enumeration oracle, membership."""

import gc
import itertools
import os
import subprocess
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from hogc import grammar, kernel, parser, rules, syntax, trace
from hogc.grammar import GrammarError, Word, word_to_phon
from hogc.kernel import App, BaseType, Var, mk_eq

import helpers


def _sign_word_meaning(g, results):
    return {syntax.canonical_term(r.sign):
            (r.word, syntax.canonical_term(r.meaning)) for r in results}


def test_toy_parse(toy):
    th = toy.theory
    results = parser.parse(toy, 'fajdo blt', 2)
    assert len(results) == 1
    r = results[0]
    assert r.sign == App(App(th.const('SUBJ'), th.const('FIDO')),
                         th.const('BARKS'))
    assert r.sign_type == 'S'
    assert r.depth == 2
    assert r.meaning == App(th.const('barks'), th.const('fido'))
    # both proofs are hypothesis-free theorems of the grammar theory
    for thm in (r.phon_proof, r.sem_proof):
        assert thm.hyps == () and thm.theory is th
    assert r.phon_proof.concl == mk_eq(App(th.const('phon_S'), r.sign),
                                       word_to_phon(toy, r.word))
    assert r.sem_proof.concl == mk_eq(App(th.const('sem_S'), r.sign),
                                      r.meaning)


def test_lexical_parse_depth_one(toy):
    results = parser.parse(toy, 'fajdo', 3)
    assert len(results) == 1
    assert results[0].sign == toy.theory.const('FIDO')
    assert results[0].sign_type == 'NP'
    assert results[0].depth == 1


def test_no_parse_cases(toy):
    assert parser.parse(toy, 'blt fajdo', 3) == []   # wrong order
    assert parser.parse(toy, 'fajdo blt', 1) == []   # depth bound too low
    assert parser.parse(toy, 'fajdo blt', 0) == []
    assert parser.parse(toy, Word(()), 3) == []      # toy has no empty signs
    with pytest.raises(GrammarError):
        parser.parse(toy, 'zork', 3)


def test_meanings_are_beta_normal(toy, boolsem):
    for g, w in ((toy, 'fajdo blt'), (boolsem, 'nicht ja')):
        for r in parser.parse(g, w, 3):
            assert r.meaning == kernel.beta_normalize(r.meaning)


def test_ambiguous_word(ambig):
    th = ambig.theory
    results = parser.parse(ambig, 'fajdo blt', 3)
    assert len(results) == 2
    meanings = {syntax.pretty_term(r.meaning) for r in results}
    assert meanings == {'barks(fido)', 'howls(fido)'}
    # deterministic order: sorted by depth, then canonical sign
    assert [syntax.pretty_term(r.meaning) for r in results] \
        == ['barks(fido)', 'howls(fido)']
    for r in results:
        assert r.phon_proof.concl == mk_eq(App(th.const('phon_S'), r.sign),
                                           word_to_phon(ambig, r.word))


def test_structural_ambiguity(boolsem):
    results = parser.parse(boolsem, 'nicht ja en nee', 3)
    assert len(results) == 2
    meanings = {syntax.pretty_term(r.meaning) for r in results}
    assert meanings == {'~(true /\\ false)', '~true /\\ false'}


def test_empty_phonology_chains(eps):
    # one extra padding application per depth level, all spelling /blt/
    for k, n in ((1, 1), (2, 2), (3, 3), (4, 4)):
        results = [r for r in parser.parse(eps, 'blt', k)
                   if r.sign_type == 'S']
        assert len(results) == n
        assert sorted(r.depth for r in results) == list(range(1, n + 1))
        for r in results:
            assert r.word == Word('blt')
            assert syntax.pretty_term(r.meaning) == 'wag(it)'
            assert r.phon_proof.concl == mk_eq(
                App(eps.theory.const('phon_S'), r.sign),
                eps.theory.const('/blt/'))


def test_empty_word_parse(eps):
    results = parser.parse(eps, Word(()), 2)
    assert len(results) == 1
    r = results[0]
    assert r.sign == eps.theory.const('NULL') and r.sign_type == 'E'
    assert r.phon_proof.concl == mk_eq(
        App(eps.theory.const('phon_E'), r.sign), eps.theory.const('//'))


def test_parse_agrees_with_enumeration(toy, ambig, boolsem, eps, perm, quote, raised):
    # parse finds exactly the enumerated signs and meanings of every
    # enumerated word, and nothing for any other word over the alphabet up
    # to 4 tokens.  PERM spells operands out of order, one possibly empty:
    # the chart walks surface slots, and children must land at their
    # operands.  QUOTE's meanings hold its operand's word.  RAISED's beta
    # step makes a new redex, which the meaning must not keep
    for g, top in ((toy, 3), (ambig, 3), (boolsem, 3), (eps, 3), (perm, 4), (quote, 5),
                   (raised, 3)):
        for k in range(1, top + 1):
            by_word = {}
            for sign, w, meaning in parser.enumerate_signs(g, k):
                by_word.setdefault(w, {})[syntax.canonical_term(sign)] = \
                    syntax.canonical_term(meaning)
            for w, expect in by_word.items():
                got = {syntax.canonical_term(r.sign):
                       syntax.canonical_term(r.meaning)
                       for r in parser.parse(g, w, k)}
                assert got == expect, (g.theory.name, w, k)
            for n in range(5):
                for tokens in itertools.product(g.spec.alphabet, repeat=n):
                    if Word(tokens) not in by_word:
                        assert parser.parse(g, tokens, k) == [], (g.theory.name, tokens, k)


def test_phon_in_a_meaning_is_the_childs_word(quote):
    # phon($1) stands for the child's flat word, not the tree of its phon
    # proof: (/b/ ++ /a/) ++ /a/ for a left-branching child, // ++ /b/ for
    # one padded by the empty lexeme; membership holds for q of the word
    q = quote.theory.const('q')
    for w, k, count in (('b', 3, 2), ('b a', 4, 3), ('b a a', 4, 1), ('b a a a', 6, 5)):
        quoted = [r for r in parser.parse(quote, w, k) if r.sign_type == 'Q']
        assert len(quoted) == count
        for r in quoted:
            assert r.meaning == App(q, word_to_phon(quote, w)), (w, r.sign)
            assert r.sem_proof.hyps == () and rules.rhs(r.sem_proof) == r.meaning
        assert parser.check_membership(quote, w, App(q, word_to_phon(quote, w)), k) is not None
    # QA quotes part of the word: its quoted child is no parse of the whole
    # word, so no root has carried that child's phon proof to normal form
    g = grammar.elaborate(_QUOTE_PART)
    c = g.theory.const
    quoted = App(c('QUOTE'), App(App(c('L'), c('B')), c('A')))
    r, = [r for r in parser.parse(g, 'b a a', 4) if r.sign == App(App(c('QA'), quoted), c('A'))]
    assert r.meaning == kernel.mk_conj(App(q, word_to_phon(g, 'b a')), c('t'))


_QUOTE_PART = helpers.QUOTE + 'rule QA : Q W -> Q { phon = $1 ++ $2; sem = sem($1) /\\ sem($2); }\n'


def test_permuted_surface_order_children(perm):
    # pinned by hand, not by the oracle, which maps slots to operands too
    th = perm.theory
    gap, ah, be, see = (th.const(n) for n in ('GAP', 'AH', 'BE', 'SEE'))
    tri, flip = th.const('TRI'), th.const('FLIP')
    assert [r.sign for r in parser.parse(perm, 'c a b', 2)] \
        == [App(App(App(tri, ah), be), see)]
    assert {r.sign for r in parser.parse(perm, 'c b', 2)} \
        == {App(App(App(tri, gap), be), see), App(App(flip, be), see)}


def test_chart_builds_each_item_once(toy, ambig, boolsem, eps, perm):
    # the semi-naive rounds never rebuild an item, so nothing is deduplicated
    for g in (toy, ambig, boolsem, eps, perm):
        for w in {w for _sign, w, _m in parser.enumerate_signs(g, 3)}:
            chart = parser._Chart(g, w, 4)
            items = [(i, j, sign) for (i, _sty), entries in chart.index.items()
                     for j, sign, _d in entries]
            assert len(items) == len(set(items)), (g.theory.name, w)


def test_result_order_pinned(boolsem):
    # several depths and sign shapes over one structurally ambiguous word
    results = parser.parse(boolsem, 'nicht ja en nee en ja', 4)
    assert [(r.depth, syntax.canonical_term(r.sign)) for r in results] == [
        (3, '(((COORD ((NEGATE NOT) YES)) AND) (((COORD NO) AND) YES))'),
        (4, '(((COORD (((COORD ((NEGATE NOT) YES)) AND) NO)) AND) YES)'),
        (4, '(((COORD ((NEGATE NOT) (((COORD YES) AND) NO))) AND) YES)'),
        (4, '((NEGATE NOT) (((COORD (((COORD YES) AND) NO)) AND) YES))'),
        (4, '((NEGATE NOT) (((COORD YES) AND) (((COORD NO) AND) YES)))'),
    ]


def test_negative_depth_bound_rejected(toy):
    with pytest.raises(GrammarError) as e:
        parser.parse(toy, 'fajdo', -3)
    assert str(e.value) == 'depth bound must be at least 0, got -3'


def test_enumeration_levels(eps):
    assert len(parser.enumerate_signs(eps, 1)) == 2     # NULL, BARK
    assert len(parser.enumerate_signs(eps, 2)) == 3     # + PAD(NULL, BARK)
    assert len(parser.enumerate_signs(eps, 3)) == 4


def test_check_membership_exact(toy):
    th = toy.theory
    target = App(th.const('barks'), th.const('fido'))
    r = parser.check_membership(toy, 'fajdo blt', target, 3)
    assert r is not None and r.meaning == target
    # requested meanings are compared after beta normalization
    x = kernel.Var('x', kernel.IND)
    redex = App(kernel.Abs(x, App(th.const('barks'), x)), th.const('fido'))
    r2 = parser.check_membership(toy, 'fajdo blt', redex, 3)
    assert r2 is not None and r2.meaning == target
    # absent meaning
    absent = App(th.const('howls'), th.const('fido'))
    assert parser.check_membership(toy, 'fajdo blt', absent, 3) is None
    # a free variable is a legitimate (absent) meaning, not an error
    assert parser.check_membership(toy, 'fajdo blt',
                                   kernel.Var('v', kernel.BOOL), 3) is None
    # terms with undeclared constants are rejected up front
    with pytest.raises(kernel.KernelError):
        parser.check_membership(toy, 'fajdo blt',
                                kernel.Const('mystery', kernel.BOOL), 3)


def test_check_membership_by_equivalence(boolsem):
    # /nicht ja/ parses to ~true only; false is provably equal to it
    target = kernel.false_c()
    r = parser.check_membership(boolsem, 'nicht ja', target, 3)
    assert r is not None
    assert r.meaning == target
    assert r.sem_proof.hyps == ()
    l, rr = kernel.dest_eq(r.sem_proof.concl)
    assert rr == target
    # the answer is the parse's own sign, its meaning equation carried to
    # false by one transitivity step, not a merge of the parse with itself
    assert syntax.pretty_term(r.sign) == 'NEGATE(NOT)(YES)'
    assert r.sem_proof.rule == 'transitivity'
    assert r.phon_proof.concl == mk_eq(
        App(boolsem.theory.const('phon_S'), r.sign),
        word_to_phon(boolsem, 'nicht ja'))
    fresh = grammar.elaborate(helpers.BOOLSEM, name=boolsem.theory.name)
    text = trace.export_trace([r.phon_proof, r.sem_proof])
    got = trace.verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]
    # an inequivalent fragment meaning stays out
    assert parser.check_membership(boolsem, 'nicht ja', kernel.true_c(), 3) is None


def test_check_membership_outside_fragment(toy):
    # non-fragment meanings only ever match syntactically
    th = toy.theory
    target = App(th.const('howls'), th.const('fido'))
    assert parser.check_membership(toy, 'fajdo blt', target, 3) is None


def test_proofs_replay_under_composition(boolsem):
    # a depth-3 parse exercises rule axioms over rule-built children
    results = parser.parse(boolsem, 'nicht nicht ja', 3)
    assert len(results) == 1
    r = results[0]
    assert syntax.pretty_term(r.meaning) == '~~true'
    assert r.depth == 3
    assert r.sem_proof.concl == mk_eq(
        App(boolsem.theory.const('sem_S'), r.sign), r.meaning)


def _steps(thm):
    """Every theorem in a proof DAG, once each."""
    seen, todo = {}, [thm]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(a for a in t.args if isinstance(a, kernel.Theorem))
    return seen.values()


def _instance_premise(thm):
    """The premise of the instantiate step a parse proof starts from: the
    rewrite's transitivity leads back to it."""
    if thm.rule == 'transitivity':
        thm = thm.args[0]
    assert thm.rule == 'instantiate'
    return thm.args[0]


def test_parses_share_cached_axiom_conjuncts(boolsem):
    # the rule's phon and sem axioms are made theorems once per theory;
    # every sign instantiates the same theorem objects, and the grammar
    # keeps each sign's proofs, so a repeated parse returns them
    r1, = parser.parse(boolsem, 'nicht ja', 2)
    r2, = parser.parse(boolsem, 'nicht ja', 2)
    assert r1.sem_proof is r2.sem_proof and r1.phon_proof is r2.phon_proof
    for a, b in ((r1.phon_proof, r2.phon_proof), (r1.sem_proof, r2.sem_proof)):
        assert _instance_premise(a) is _instance_premise(b)
    # the sem premise is the sem axiom at the rule's operand variables
    conj = _instance_premise(r1.sem_proof).concl
    assert {v.name for v in conj.free_vars} == {'x1', 'x2'}
    # the phon premise is the rule's phon axiom as it stands, no hypotheses
    th = boolsem.theory
    x1, x2 = Var('x1', BaseType('NEG')), Var('x2', BaseType('S'))
    premise = _instance_premise(r1.phon_proof)
    assert premise is grammar.law(th, 'rule.NEGATE.phon')
    assert premise.rule == 'axiom' and premise.hyps == ()
    assert premise.concl == mk_eq(
        App(th.const('phon_S'), App(App(th.const('NEGATE'), x1), x2)),
        syntax.mk_conc(App(th.const('phon_NEG'), x1), App(th.const('phon_S'), x2)))
    assert not any(isinstance(k, tuple) and k[0] == 'phon_schema'
                   for k in th._derived_cache)


def test_coordination_of_a_sign_with_itself(boolsem):
    # COORD(YES)(AND)(YES): the phon axiom's instance names phon_S(YES)
    # twice, and the rewrite takes both from its memo, so the shared
    # child's phon proof is one theorem, cited as one step
    (r,) = parser.parse(boolsem, 'ja en ja', 2)
    th = boolsem.theory
    yes = th.const('YES')
    assert r.sign == App(App(App(th.const('COORD'), yes), th.const('AND')), yes)
    assert r.meaning == kernel.mk_conj(kernel.true_c(), kernel.true_c())
    assert r.phon_proof.hyps == r.sem_proof.hyps == ()
    assert rules.rhs(r.phon_proof) == word_to_phon(boolsem, 'ja en ja')
    yes_phon = App(th.const('phon_S'), yes)
    inst = r.phon_proof.args[0]
    assert r.phon_proof.rule == 'transitivity' and inst.rule == 'instantiate'
    assert rules.rhs(inst) == syntax.mk_conc(
        yes_phon, syntax.mk_conc(App(th.const('phon_CONJ'), th.const('AND')), yes_phon))
    shared = [t for t in _steps(r.phon_proof) if rules.lhs(t) == yes_phon]
    assert shared == [grammar.law(th, 'lex.YES.phon')]
    text = trace.export_trace([r.phon_proof, r.sem_proof])
    assert sum(1 for l in text.splitlines() if '"lex.YES.phon"' in l) == 1
    fresh = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
    got = trace.verify_trace(text, fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [r.phon_proof.concl, r.sem_proof.concl]


@pytest.mark.parametrize('name,word,k', [
    ('toy', 'fajdo blt', 2), ('ambig', 'fajdo blt', 3),
    ('boolsem', 'nicht ja en nee', 4), ('eps', 'blt', 4),
])
def test_parse_proofs_have_no_identity_congruences(name, word, k):
    g = grammar.elaborate(helpers.GRAMMARS[name], name=name)
    results = parser.parse(g, word, k)
    assert results
    for r in results:
        for proof in (r.phon_proof, r.sem_proof):
            for t in _steps(proof):
                if t.rule in ('congruence', 'abstraction'):
                    assert rules.lhs(t) != rules.rhs(t), t


_PARSE_RULES = {'axiom', 'instantiate', 'reflexivity', 'congruence', 'transitivity',
                'beta_conversion'}


@pytest.mark.parametrize('name', ['toy', 'ambig', 'boolsem', 'eps'])
def test_parse_proofs_are_axiom_instances_rewritten(name):
    # every parse proof is its lexemes' and rules' axioms, instantiated and
    # carried along by congruence, transitivity and beta: no step assumes a
    # hypothesis or discharges one, and no parse derives a phon schema
    g = grammar.elaborate(helpers.GRAMMARS[name], name=name)
    for tokens in sorted({w.tokens for _sign, w, _m in parser.enumerate_signs(g, 3)}):
        for r in parser.parse(g, Word(tokens), 3):
            steps = [l.split()[1] for l in _proof_trace([r]).splitlines()
                     if not l.startswith('#')]
            assert set(steps) <= _PARSE_RULES, (tokens, set(steps) - _PARSE_RULES)
            assert r.phon_proof.hyps == r.sem_proof.hyps == ()
    assert not any(isinstance(k, tuple) and k[0] == 'phon_schema'
                   for k in g.theory._derived_cache)


@pytest.mark.parametrize('name,k,extra', [
    ('boolsem', 4, ''),
    ('perm', 4, ''),
    # constants named like the congruence schemas' variables, at their type
    ('boolsem', 3, ''.join('const %s : Phon\n' % n for n in 'xyuvh')),
    # and like the variables of the monoid laws, the rule operands and the
    # phon schemas
    ('boolsem', 3, ''.join('const %s : Phon\n' % n
                           for n in ('z', 'x1', 'x2', 'x3', 'w1', 'w2', 'w3'))),
], ids=['boolsem', 'perm', 'boolsem-schema-variable-names',
        'boolsem-append-schema-variable-names'])
def test_every_parse_verifies_in_a_fresh_elaboration(name, k, extra):
    # every parse of every word up to 4 tokens replays with the fingerprint
    # checked
    src = helpers.GRAMMARS[name] + extra
    g = grammar.elaborate(src, name=name)
    fresh = grammar.elaborate(src, name=name)
    n_parses = 0
    for n in range(5):
        for tokens in itertools.product(g.spec.alphabet, repeat=n):
            results = parser.parse(g, tokens, k)
            if not results:
                continue
            n_parses += len(results)
            thms = [t for r in results for t in (r.phon_proof, r.sem_proof)]
            text = trace.export_trace(thms)
            got = trace.verify_trace(text, fresh.theory, strict_fingerprint=True)
            assert [t.concl for t in got] == [t.concl for t in thms]
            assert all(t.hyps == () for t in got)
    assert n_parses > 10


def test_meanings_mentioning_sign_projections_rejected():
    # a lexeme meaning naming a sign projection would make a parent
    # sign's rewrite substitute the lexeme's meaning into itself forever
    bad = helpers.BOOLSEM + 'lex FOO : S { phon = /ja/; sem = ~sem_S(FOO); }\n'
    with pytest.raises(GrammarError, match='lex FOO: meaning mentions sem_S'):
        grammar.elaborate(bad)
    bad = helpers.BOOLSEM + ('rule R : S -> S { phon = $1; '
                             'sem = sem($1) /\\ sem_S(YES); }\n')
    with pytest.raises(GrammarError, match='rule R: meaning mentions sem_S'):
        grammar.elaborate(bad)
    bad = helpers.BOOLSEM + ('rule R : S -> S { phon = $1; '
                             'sem = (\\x1:S. sem_S(x1))($1); }\n')
    with pytest.raises(GrammarError, match='rule R: meaning mentions sem_S'):
        grammar.elaborate(bad)
    ok = helpers.BOOLSEM + 'rule R : S -> S { phon = $1; sem = sem_S(x1:S); }\n'
    assert [r.meaning for r in parser.parse(grammar.elaborate(ok), 'ja', 2)
            if r.depth == 2] == [kernel.true_c()]


def _proof_trace(results):
    return trace.export_trace([t for r in results for t in (r.phon_proof, r.sem_proof)])


def test_repeated_parse_runs_no_kernel_rule(monkeypatch):
    # the grammar keeps every sign's proofs and the normal form of each
    # parsed word, so a word parsed again derives nothing, and a new word
    # derives only the signs it does not share with earlier ones
    word = 'nicht ja en nee en ja'
    g = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
    first = parser.parse(g, word, 4)
    rules_run = []
    real = kernel._thm
    monkeypatch.setattr(kernel, '_thm', lambda *a: rules_run.append(a[3]) or real(*a))
    again = parser.parse(g, word, 4)
    assert rules_run == []
    assert ([(r.phon_proof, r.sem_proof) for r in again]
            == [(r.phon_proof, r.sem_proof) for r in first])
    parser.parse(g, 'nicht ja en nee', 4)
    warm = len(rules_run)
    del rules_run[:]
    parser.parse(grammar.elaborate(helpers.BOOLSEM, name='boolsem'), 'nicht ja en nee', 4)
    assert 0 < warm < len(rules_run)


def test_a_cold_grammar_instantiates_its_axioms_as_they_stand(monkeypatch):
    # the lexeme and rule axioms are plain equations, so the first parse of
    # a fresh grammar specialises no universal and splits no conjunction,
    # and its two proofs are a short trace, of which every rule run is a step
    g = grammar.elaborate(helpers.TOY, name='toy')
    rules_run = []
    real = kernel._thm
    monkeypatch.setattr(kernel, '_thm', lambda *a: rules_run.append(a[3]) or real(*a))
    (r,) = parser.parse(g, 'fajdo blt', 2)
    cache = g.theory._derived_cache
    assert not {('rule', 'conjunct1'), ('rule', 'conjunct2'), 'phon_schemas'} & cache.keys()
    text = _proof_trace([r])
    steps = sum(1 for l in text.splitlines() if not l.startswith('#'))
    assert steps <= 30 and len(rules_run) <= 30
    assert len(rules_run) == steps


def test_dropping_a_grammar_frees_its_proofs():
    g = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
    sem = parser.parse(g, 'nicht ja en nee en ja', 4)[0].sem_proof
    built = weakref.ref(g.proofs)
    terms = len(kernel._terms)
    del g, sem
    gc.collect()
    assert built() is None and len(kernel._terms) < terms


_SOURCES = {'boolsem': (helpers.BOOLSEM, 3), 'quote': (helpers.QUOTE, 5),
            'quote_part': (_QUOTE_PART, 4), 'left_mixed': (helpers.LEFT_MIXED, 4)}
# every word with a parse, per grammar; QUOTE's meanings read phon($1), of
# the whole word or, with QA, of a part
_CORPUS = [(name, word, k) for name, (src, k) in _SOURCES.items()
           for word in sorted({' '.join(w.tokens) for _sign, w, _meaning
                               in parser.enumerate_signs(grammar.elaborate(src), k)})]


@given(st.lists(st.sampled_from(_CORPUS), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_a_parse_does_not_depend_on_the_words_parsed_before(seq):
    # one grammar per name parses the drawn words in turn; each result is
    # what a fresh elaboration gives for that word alone, trace text included
    grammars = {}
    for name, word, k in seq:
        src = _SOURCES[name][0]
        if name not in grammars:
            grammars[name] = grammar.elaborate(src, name=name)
        got = parser.parse(grammars[name], word, k)
        want = parser.parse(grammar.elaborate(src, name=name), word, k)
        assert [(r.sign, r.meaning) for r in got] == [(r.sign, r.meaning) for r in want]
        assert _proof_trace(got) == _proof_trace(want)
        assert all(r.sem_proof.theory is grammars[name].theory for r in got)


def test_threads_parsing_with_one_grammar_agree_with_one_thread():
    # 4 threads, more than the cores, parse 40 words with one grammar at a
    # tiny switch interval, so they race on its memos; every trace must be
    # the one a single thread gets
    words = [w for name, w, _k in _CORPUS if name == 'boolsem'][-40:]
    ref = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
    want = {w: _proof_trace(parser.parse(ref, w, 3)) for w in words}
    g = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
    got = [{} for _ in range(4)]
    start = threading.Barrier(4, timeout=10)

    def work(n):
        start.wait()
        for w in words[n * 10:] + words[:n * 10]:
            got[n][w] = _proof_trace(parser.parse(g, w, 3))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert got == [want] * 4


_REPORT_AFTER_PARSES = '''
import itertools, sys
sys.path.insert(0, sys.argv[1])
import helpers
from hogc import cli, grammar, parser, syntax

# alpha-equal to lex.NOT's and lex.AND's meanings, under other names
held = [syntax.parse_term(s) for s in sys.argv[3:]]
g = grammar.elaborate(helpers.BOOLSEM, name='boolsem')
shown = ('nicht ja', 'ja en nicht nee', 'nicht ja en nee en ja')
others = (' '.join(w) for n in range(6) for w in itertools.product(g.spec.alphabet, repeat=n))
for word in itertools.islice((w for w in others if w not in shown), int(sys.argv[2])):
    parser.parse(g, word, 4)
rep = cli._Report(cli._build_argparser().parse_args(['parse']))
for n in sorted(g.theory.axioms):
    rep.add('%s %s' % (n, syntax.pretty_term(g.theory.axioms[n], g.names)))
for word in shown:
    for i, r in enumerate(parser.parse(g, word, 4)):
        cli._result_block(rep, g, r, i)
print('\\n'.join(rep.lines))
'''


def test_reports_do_not_depend_on_the_parses_before():
    # the grammar keeps the terms of every parse alive, and the process may
    # hold terms alpha-equal to the grammar's under other binder names: the
    # axioms and three words' result blocks read the same after 400 other
    # parses, and with such terms built before the grammar.  Processes of
    # their own, as other tests here keep terms alive.
    def report(n_before, *held):
        r = subprocess.run([sys.executable, '-c', _REPORT_AFTER_PARSES,
                            os.path.dirname(__file__), str(n_before), *held],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        return r.stdout

    fresh = report(0)
    assert 'lex.NOT.sem sem_NEG(NOT) = (\\p:Bool. ~p)\n' in fresh
    assert '[1] sign type S, depth 4' in fresh
    assert report(400) == fresh
    assert report(0, '\\y:Bool. ~y', '\\a:Bool. \\b:Bool. a /\\ b') == fresh
