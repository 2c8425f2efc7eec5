"""Grammar files: parsing, elaboration into a theory, phonology helpers."""

import pytest

from hogc import grammar, kernel, rules, syntax
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
            'lex.FIDO', 'lex.BARKS', 'lex.HOWLS',
            'rule.SUBJ'} == set(th.axioms)
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
    ax = th.axioms['lex.FIDO']
    phon_eq, sem_eq = kernel.dest_conj(ax)
    fido_sign = th.const('FIDO')
    assert phon_eq == mk_eq(App(th.const('phon_NP'), fido_sign),
                            th.const('/fajdo/'))
    assert sem_eq == mk_eq(App(th.const('sem_NP'), fido_sign),
                           th.const('fido'))


def test_rule_axiom_shape(toy):
    th = toy.theory
    ax = th.axioms['rule.SUBJ']
    v1, body = kernel.dest_forall(ax)
    v2, body = kernel.dest_forall(body)
    phon_eq, sem_eq = kernel.dest_conj(body)
    sign = App(App(th.const('SUBJ'), v1), v2)
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


@pytest.mark.parametrize('src,frag', [
    # unknown sign type in a lexeme
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : T { phon = /a/; sem = true; }', 'unknown sign type'),
    # phonology token outside the alphabet
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : S { phon = /b/; sem = true; }', 'not in the alphabet'),
    # meaning at the wrong type
    ('alphabet: a\nsigntype S sem Bool\nconst c : Ind\n'
     'lex A : S { phon = /a/; sem = c; }', 'needs'),
    # open lexical meaning
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : S { phon = /a/; sem = p:Bool; }', 'must be closed'),
    # rule meaning may not invent free variables
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : S { phon = /a/; sem = true; }\n'
     'rule R : S -> S { phon = $1; sem = sem($1) /\\ (stray:Bool); }',
     'may only use operands'),
    # rule phonology must use each operand exactly once
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : S { phon = /a/; sem = true; }\n'
     'rule R : S S -> S { phon = $1 ++ $1; sem = sem($1); }', 'phon'),
    ('alphabet: a\nsigntype S sem Bool\n'
     'lex A : S { phon = /a/; sem = true; }\n'
     'rule R : S S -> S { phon = $1; sem = sem($1); }', 'phon'),
    # circular slash sign types
    ('alphabet: a\nsigntype A = B \\ S\nsigntype B = A \\ S\n'
     'signtype S sem Bool\n'
     'lex X : A { phon = /a/; sem = true; }', 'circular'),
])
def test_elaboration_errors(src, frag):
    with pytest.raises(GrammarError) as e:
        elaborate(src, name='bad')
    assert frag in str(e.value)


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
    pair = two.arg  # conc applies to a pair
    assert pair.left == th.const('/fajdo/') and pair.right == th.const('/blt/')
    with pytest.raises(GrammarError):
        word_to_phon(toy, 'zork')


def test_phon_norm_and_read_back(toy):
    th = toy.theory
    a, b, c = (th.const('/fajdo/'), th.const('/blt/'), th.const('/awl/'))
    unit = th.const('//')
    conc = lambda l, r: App(th.const('conc'), kernel.Pair(l, r))
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
    assert l == App(toy.theory.const('conc'),
                    kernel.Pair(word_to_phon(toy, u), word_to_phon(toy, v)))
    assert r == word_to_phon(toy, u + v)
    # empty sides normalize through the unit laws
    e2 = phon_homomorphism(toy, Word(()), v)
    assert kernel.dest_eq(e2.concl)[1] == word_to_phon(toy, v)


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
    ax = th.axioms['lex.NULL']
    phon_eq, _sem_eq = kernel.dest_conj(ax)
    assert phon_eq == mk_eq(App(th.const('phon_E'), th.const('NULL')),
                            th.const('//'))
