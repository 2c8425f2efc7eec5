"""Chart parsing with proofs, the enumeration oracle, membership."""

import itertools

import pytest

from hogc import grammar, kernel, parser, rules, syntax, trace
from hogc.grammar import GrammarError, Word, word_to_phon
from hogc.kernel import App, mk_eq

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


def test_parse_agrees_with_enumeration(toy, ambig, boolsem, eps, perm):
    # parse finds exactly the enumerated signs and meanings of every
    # enumerated word, and nothing for any other word over the alphabet up
    # to 4 tokens.  PERM spells operands out of order, one possibly empty:
    # the chart walks surface slots, and children must land at their operands
    for g, top in ((toy, 3), (ambig, 3), (boolsem, 3), (eps, 3), (perm, 4)):
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
                for tokens in itertools.product(g.alphabet, repeat=n):
                    if Word(tokens) not in by_word:
                        assert parser.parse(g, tokens, k) == [], (g.theory.name, tokens, k)


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
    # the merged sign still spells the word
    assert r.phon_proof.concl == mk_eq(
        App(boolsem.theory.const('phon_S'), r.sign),
        word_to_phon(boolsem, 'nicht ja'))
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
    """The premise of the instantiate step a parse proof starts from."""
    while thm.rule == 'transitivity':
        thm = thm.args[0]
    assert thm.rule == 'instantiate'
    return thm.args[0]


def test_parses_share_cached_axiom_conjuncts(boolsem):
    # the rule axiom's conjuncts are derived once per theory; every sign
    # instantiates the same theorem objects
    r1, = parser.parse(boolsem, 'nicht ja', 2)
    r2, = parser.parse(boolsem, 'nicht ja', 2)
    assert r1.sem_proof is not r2.sem_proof
    for a, b in ((r1.phon_proof, r2.phon_proof), (r1.sem_proof, r2.sem_proof)):
        assert _instance_premise(a) is _instance_premise(b)
    # the premise is the sem conjunct at the rule's operand variables
    conj = _instance_premise(r1.sem_proof).concl
    assert {n for n, _ty in conj.free_vars} == {'x1', 'x2'}


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


@pytest.mark.parametrize('name,k,extra', [
    ('boolsem', 4, ''),
    ('perm', 4, ''),
    # constants named like the congruence schemas' variables, at their type
    ('boolsem', 3, ''.join('const %s : Phon\n' % n for n in 'xyuvh')),
], ids=['boolsem', 'perm', 'boolsem-schema-variable-names'])
def test_every_parse_verifies_in_a_fresh_elaboration(name, k, extra):
    # every parse of every word up to 4 tokens, with the Pair and projection
    # congruence schemas in its derivation, replays with the fingerprint
    # checked
    src = helpers.GRAMMARS[name] + extra
    g = grammar.elaborate(src, name=name)
    fresh = grammar.elaborate(src, name=name)
    n_parses = 0
    for n in range(5):
        for tokens in itertools.product(g.alphabet, repeat=n):
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
