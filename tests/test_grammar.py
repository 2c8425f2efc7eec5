"""Grammar files: parsing, elaboration into a theory, phonology helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from hogc import grammar, kernel, parser, rules, syntax, terms, trace
from hogc.grammar import (
    GrammarError, GrammarSpec, Word, elaborate, load_grammar,
    phon_homomorphism, phon_norm, phon_to_word, word_to_phon,
)
from hogc.kernel import App, BOOL, FunType, IND, PHON, Var, mk_eq

import helpers


# ---------------------------------------------------------------------------
# Source parsing

def test_parse_toy_source():
    spec = GrammarSpec.from_text(helpers.TOY)
    assert spec.alphabet == ('fajdo', 'blt', 'awl')
    assert set(spec.sign_types) == {'S', 'NP', 'IV'}
    assert spec.sign_types['IV'] == ('slash', 'NP', 'S')
    assert [c[0] for c in spec.constants] == ['fido', 'barks', 'howls']
    assert [l.name for l in spec.lexicon] == ['FIDO', 'BARKS', 'HOWLS']
    assert [r.name for r in spec.rules] == ['SUBJ']
    assert spec.rules[0].operands == ('NP', 'IV')


def test_comments_and_multiline_blocks():
    spec = GrammarSpec.from_text("""
    # a comment
    alphabet: a
    signtype S sem Bool   # trailing comment
    lex A : S {
        phon = /a/;       # fields may sit on their own lines
        sem = true;
    }
    """)
    assert spec.alphabet == ('a',)
    assert spec.lexicon[0].phon_src == '/a/'


@pytest.mark.parametrize('src,frag', [
    ('alphabet: a\nalphabet: b', 'duplicate alphabet'),
    ('alphabet: a a', 'repeated alphabet token'),
    ('alphabet: A!', 'bad alphabet token'),
    ('wibble', 'cannot parse'),
    ('signtype S sem Bool\nsigntype S sem Bool', 'duplicate sign type'),
    ('lex true : S { phon = /a/; sem = true; }', 'reserved'),
    ('lex A : S { phon = /a/; }', 'missing field sem'),
    ('lex A : S { phon = /a/; sem = true; colour = red; }', 'unknown field'),
    ('lex A : S { phon = /a/; phon = /a/; sem = true; }', 'duplicate field'),
    ('rule R : -> S { phon = $1; sem = true; }', 'no operands'),
    ('lex A : S { phon = /a/; sem = true;', 'unterminated brace'),
])
def test_source_errors(src, frag):
    with pytest.raises(GrammarError) as e:
        GrammarSpec.from_text(src)
    assert frag in str(e.value)


# ---------------------------------------------------------------------------
# Elaboration

def test_toy_theory_signature(toy):
    th = toy.theory
    assert {'phon.assoc', 'phon.lunit', 'phon.runit',
            'lex.FIDO.phon', 'lex.FIDO.sem', 'lex.BARKS.phon', 'lex.BARKS.sem',
            'lex.HOWLS.phon', 'lex.HOWLS.sem',
            'rule.SUBJ.phon', 'rule.SUBJ.sem'} == set(th.axioms)
    assert th.frozen
    # sign types became base types, tokens became Phon constants
    assert 'S' in th.base_types and 'NP' in th.base_types
    assert th.constants['/fajdo/'] == PHON
    assert th.constants['//'] == PHON
    assert th.constants['phon_S'] == FunType(kernel.BaseType('S'), PHON)
    assert th.constants['sem_S'] == FunType(kernel.BaseType('S'), BOOL)
    assert th.constants['barks'] == FunType(IND, BOOL)
    # the slash sign type got the function meaning type
    assert toy.sem_types['IV'] == FunType(IND, BOOL)


def test_lex_axiom_shape(toy):
    th = toy.theory
    fido_sign = th.const('FIDO')
    assert th.axioms['lex.FIDO.phon'] == mk_eq(App(th.const('phon_NP'), fido_sign),
                                               th.const('/fajdo/'))
    assert th.axioms['lex.FIDO.sem'] == mk_eq(App(th.const('sem_NP'), fido_sign),
                                              th.const('fido'))


def test_rule_axiom_shape(toy):
    # two plain equations with the operand variables free: no binder, no
    # conjunction
    th = toy.theory
    v1, v2 = Var('x1', kernel.BaseType('NP')), Var('x2', kernel.BaseType('IV'))
    sign = App(App(th.const('SUBJ'), v1), v2)
    phon_eq, sem_eq = th.axioms['rule.SUBJ.phon'], th.axioms['rule.SUBJ.sem']
    assert phon_eq.free_vars == sem_eq.free_vars == {v1, v2}
    l, _ = kernel.dest_eq(phon_eq)
    assert l == App(th.const('phon_S'), sign)
    l, r = kernel.dest_eq(sem_eq)
    assert l == App(th.const('sem_S'), sign)
    assert r == App(App(th.const('sem_IV'), v2), App(th.const('sem_NP'), v1))


def test_elaborate_all_corpus_grammars():
    for name, text in helpers.GRAMMARS.items():
        g = elaborate(text, name=name)
        assert g.theory.frozen
        assert g.lexicon and g.alphabet
        # every axiom is a plain equation, with no ! or /\ at its top
        for ax in g.theory.axioms.values():
            assert terms.dest_forall(ax) is None and terms.dest_conj(ax) is None


_BAD = 'alphabet: a\nsigntype S sem Bool\n'
_BAD_A = _BAD + 'lex A : S { phon = /a/; sem = true; }\n'


@pytest.mark.parametrize('src,msg', [
    # unknown sign type in a lexeme
    (_BAD + 'lex A : T { phon = /a/; sem = true; }', 'lex A: unknown sign type T'),
    # phonology token outside the alphabet
    (_BAD + 'lex A : S { phon = /b/; sem = true; }', "lex A: token 'b' not in the alphabet"),
    # meaning at the wrong type
    (_BAD + 'const c : Ind\nlex A : S { phon = /a/; sem = c; }',
     'lex A: meaning has type Ind, sign type S needs Bool'),
    # open lexical meaning
    (_BAD + 'lex A : S { phon = /a/; sem = p:Bool; }',
     'lex A: meaning must be closed (free: p); declare constants instead'),
    # a lexeme has no operands, so no sem(...)
    (_BAD + 'lex A : S { phon = /a/; sem = sem(A); }',
     "lex A: bad meaning 'sem(A)': unknown identifier sem"),
    # unknown sign type in a rule
    (_BAD_A + 'rule R : S T -> S { phon = $1 ++ $2; sem = sem($1); }',
     'rule R: unknown sign type T'),
    # rule meaning at the wrong type
    (_BAD_A + 'const c : Ind\nrule R : S -> S { phon = $1; sem = c; }',
     'rule R: meaning has type Ind, result S needs Bool'),
    # rule meaning may not invent free variables
    (_BAD_A + 'rule R : S -> S { phon = $1; sem = sem($1) /\\ (stray:Bool); }',
     'rule R: meaning may only use operands $1..$1 (free: stray)'),
    # a projection constant applied to anything but an operand
    (_BAD_A + 'rule R : S -> S { phon = $1; sem = sem_S(A); }',
     'rule R: meaning mentions sem_S; sign projections may only appear as '
     'phon($i) or sem($i)'),
    # rule phonology must use each operand exactly once
    (_BAD_A + 'rule R : S S -> S { phon = $1 ++ $1; sem = sem($1); }',
     'phon pattern in rule R must use each of $1..$2 exactly once'),
    (_BAD_A + 'rule R : S S -> S { phon = $1; sem = sem($1); }',
     'phon pattern in rule R must use each of $1..$2 exactly once'),
    # circular slash sign types
    ('alphabet: a\nsigntype A = B \\ S\nsigntype B = A \\ S\n'
     'signtype S sem Bool\n'
     'lex X : A { phon = /a/; sem = true; }', 'circular sign type A'),
])
def test_elaboration_errors(src, msg):
    with pytest.raises(GrammarError) as e:
        elaborate(src, name='bad')
    assert str(e.value) == msg


@pytest.mark.parametrize('decl,frag', [
    ('const c : Und', 'unknown base type Und'),
    ('const c : Ind ->', 'expected a type'),
    ('const c : Ind Bool', 'trailing input'),
    ('signtype T sem (Ind -> Und)', 'unknown base type Und'),
    # a bad type names its declaration
    ('const c : Ind ->', "const c: bad type 'Ind ->': expected a type at 6"),
    ('signtype T sem (Ind -> Und)',
     "signtype T: bad type '(Ind -> Und)': unknown base type Und"),
])
def test_declared_types_are_read_by_the_term_syntax(decl, frag):
    prelude = 'alphabet: a\nsigntype S sem Bool\n'
    with pytest.raises(syntax.ParseError) as e:
        elaborate(prelude + decl, name='bad')
    assert frag in str(e.value)


def test_declared_types_may_name_sign_types():
    g = elaborate('alphabet: a\nsigntype S sem Bool\nsigntype T sem Ind -> S * S\n'
                  'const c : (T -> Ind) * Phon\n', name='ok')
    S, T = kernel.BaseType('S'), kernel.BaseType('T')
    assert g.sem_types['T'] == FunType(IND, kernel.ProdType(S, S))
    assert g.theory.constants['c'] == kernel.ProdType(FunType(T, IND), PHON)


# products in sign types' meanings, built as tuples and taken apart by fst
# and snd; pairs are constants, so a projection of a pair stays as written
_PRODUCT = r"""
alphabet: a b c
signtype S sem Bool
signtype T sem Ind -> S * S
signtype P sem Ind * Bool
const k : Ind
lex B : S { phon = /b/; sem = true; }
lex A : T { phon = /a/; sem = \x:Ind. <B, B>; }
lex C : P { phon = /c/; sem = (k, true); }
rule R : T S -> S { phon = $1 ++ $2; sem = sem($2) /\ snd(sem($1)(k)) = fst(sem($1)(k)); }
rule Q : P -> S { phon = $1; sem = snd sem($1); }
"""


@pytest.mark.parametrize('word,meanings', [
    ('a b', ['true /\\ snd[S,S](pair[S,S](B)(B)) = fst[S,S](pair[S,S](B)(B))']),
    ('c', ['pair[Ind,Bool](k)(true)', 'snd[Ind,Bool](pair[Ind,Bool](k)(true))']),
])
def test_product_sign_types_parse_and_verify(word, meanings):
    g = elaborate(_PRODUCT, name='product')
    results = parser.parse(g, word, 2)
    assert [syntax.pretty_term(r.meaning) for r in results] == meanings
    thms = [t for r in results for t in (r.phon_proof, r.sem_proof)]
    fresh = elaborate(_PRODUCT, name='product')
    got = trace.verify_trace(trace.export_trace(thms), fresh.theory, strict_fingerprint=True)
    assert [t.concl for t in got] == [t.concl for t in thms]


def test_load_grammar_from_file(tmp_path):
    path = tmp_path / 'pet.hog'
    path.write_text(helpers.TOY)
    g = load_grammar(str(path))
    assert g.theory.name == 'pet'
    assert g.alphabet == ('fajdo', 'blt', 'awl')


# ---------------------------------------------------------------------------
# Words and phonology

def test_word_basics():
    w = Word('a b a')
    assert w.tokens == ('a', 'b', 'a')
    assert len(w) == 3
    assert w + Word('') == w
    assert Word(()) != w


def test_word_to_phon(toy):
    th = toy.theory
    assert word_to_phon(toy, Word(())) == th.const('//')
    assert word_to_phon(toy, 'fajdo') == th.const('/fajdo/')
    two = word_to_phon(toy, 'fajdo blt')
    assert two == App(App(th.const('conc'), th.const('/fajdo/')), th.const('/blt/'))
    with pytest.raises(GrammarError):
        word_to_phon(toy, 'zork')


def test_phon_norm_and_read_back(toy):
    th = toy.theory
    a, b, c = (th.const('/fajdo/'), th.const('/blt/'), th.const('/awl/'))
    unit = th.const('//')
    conc = syntax.mk_conc
    messy = conc(conc(a, unit), conc(unit, conc(b, c)))
    e = phon_norm(toy, messy)
    assert rules.lhs(e) == messy
    assert rules.rhs(e) == word_to_phon(toy, 'fajdo blt awl')
    assert phon_to_word(toy, rules.rhs(e)) == Word('fajdo blt awl')
    assert phon_to_word(toy, unit) == Word(())
    assert phon_to_word(toy, messy) is None  # not in normal form


def test_phon_homomorphism(toy):
    u, v = Word('fajdo'), Word('blt awl')
    e = phon_homomorphism(toy, u, v)
    assert e.hyps == ()
    l, r = kernel.dest_eq(e.concl)
    assert l == syntax.mk_conc(word_to_phon(toy, u), word_to_phon(toy, v))
    assert r == word_to_phon(toy, u + v)
    # empty sides normalize through the unit laws
    e2 = phon_homomorphism(toy, Word(()), v)
    assert kernel.dest_eq(e2.concl)[1] == word_to_phon(toy, v)


def _phon_trees(th):
    leaves = [th.const(name) for name in sorted(th.constants) if name.startswith('/')]
    return st.recursive(st.sampled_from(leaves),
                        lambda inner: st.builds(syntax.mk_conc, inner, inner),
                        max_leaves=24)


def _leaves(t):
    d = grammar._dest_cat(t)
    return [t] if d is None else _leaves(d[0]) + _leaves(d[1])


_TOY = grammar.elaborate(helpers.TOY, name='toy')


@given(_phon_trees(_TOY.theory))
@settings(max_examples=150, deadline=None)
def test_phon_norm_flattens_any_tree(t):
    # the normal form of a ++ tree over tokens and // is the right-nested
    # concatenation of its tokens, or // when it has none
    e = phon_norm(_TOY, t)
    assert e.hyps == () and rules.lhs(e) == t
    toks = [u for u in _leaves(t) if u != _TOY.theory.const('//')]
    assert rules.rhs(e) == (syntax.mk_conc(*toks) if toks else _TOY.theory.const('//'))


def test_grammar_term_env(toy):
    t = toy.parse_term('barks(fido)')
    th = toy.theory
    assert t == App(th.const('barks'), th.const('fido'))
    # sem/phon keywords resolve against sign typing
    t2 = toy.parse_term('sem(FIDO)')
    assert t2 == App(th.const('sem_NP'), th.const('FIDO'))
    t3 = toy.parse_term('phon(FIDO)')
    assert t3 == App(th.const('phon_NP'), th.const('FIDO'))


def test_empty_phonology_lexeme(eps):
    th = eps.theory
    assert th.axioms['lex.NULL.phon'] == mk_eq(App(th.const('phon_E'), th.const('NULL')),
                                               th.const('//'))
