"""Trusted core: types, terms, substitution, theories, primitive rules."""

import ast
import copy
import gc
import os
import pickle
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hogc import grammar, kernel, rules, syntax, terms
from hogc.kernel import (
    Abs, App, BOOL, BaseType, Const, FunType, IND, PHON, ProdType, Var,
    eq_c, false_c, mk_conj, mk_cond, mk_disj, mk_eq, mk_forall, mk_not, true_c,
)
from hogc.terms import mk_pair

import helpers


@pytest.fixture(scope='module')
def th():
    return kernel.core_theory()


def _proj(name, p):
    """``fst p`` or ``snd p``, the projection constant at p's product type."""
    return App(kernel.logical_const(name, (p.ty.left, p.ty.right)), p)


# ---------------------------------------------------------------------------
# Types

def test_type_parse_print_roundtrip():
    for src in ('Bool', 'Ind -> Bool', '(Ind -> Bool) -> Bool',
                'Ind * Bool', 'Ind * Bool * Phon', 'Ind * (Bool -> Phon)',
                'Ind -> Ind -> Bool'):
        ty = syntax.parse_type(src)
        assert syntax.parse_type(kernel.type_to_str(ty)) == ty


def test_arrow_right_associative():
    assert (syntax.parse_type('Ind -> Ind -> Bool')
            == FunType(IND, FunType(IND, BOOL)))


def test_product_right_associative():
    assert (syntax.parse_type('Ind * Bool * Phon')
            == ProdType(IND, ProdType(BOOL, PHON)))


def test_type_parse_errors():
    for src in ('', 'Ind ->', '(Ind', 'Ind Bool'):
        with pytest.raises(syntax.ParseError):
            syntax.parse_type(src)
    # unknown base names parse without a theory (grammars declare new sign
    # types) but are rejected when checked against one
    ty = syntax.parse_type('Und')
    assert isinstance(ty, kernel.BaseType)
    with pytest.raises(kernel.KernelError):
        kernel.type_of(Var('x', ty), kernel.core_theory())
    with pytest.raises(syntax.ParseError):
        syntax.parse_type('Ind -> Und', kernel.core_theory())


def test_types_are_interned(toy):
    ty = FunType(IND, BOOL)
    assert ty is FunType(IND, BOOL)
    assert syntax.parse_type('Ind -> Bool') is ty
    assert toy.theory.constants['sem_IV'] is FunType(BaseType('IV'), ty)
    assert ProdType(IND, BOOL) is not ProdType(BOOL, IND)
    assert copy.deepcopy(ty) is ty and pickle.loads(pickle.dumps(ty)) is ty
    assert hash(ty) == hash(('fun', IND, BOOL))


def test_type_string_is_made_once_per_interned_type():
    ty = FunType(ProdType(BaseType('Once'), BOOL), FunType(IND, BOOL))
    s = kernel.type_to_str(ty)
    assert s == '((Once * Bool) -> (Ind -> Bool))'
    assert kernel.type_to_str(FunType(ProdType(BaseType('Once'), BOOL),
                                      FunType(IND, BOOL))) is s
    for bad in (lambda: kernel.type_to_str('Bool'), lambda: FunType(BOOL, 'Bool')):
        with pytest.raises(kernel.TypingError):
            bad()


def test_interning_is_thread_safe():
    # 4 threads build each fresh type and term at once; each must get one
    # object, also where the round before left a dead term under the key
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(50):
            name = 'Fresh%d' % round_
            start = threading.Barrier(4, timeout=10)
            got = []

            def build():
                start.wait()
                c = Const('c%d' % (round_ // 2), FunType(IND, BOOL))
                x = Var('x', IND)
                got.append((FunType(BaseType(name), ProdType(BaseType(name), BOOL)),
                            Abs(x, App(c, x))))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert len(got) == 4 and all(a is b for g in got for a, b in zip(g, got[0]))
    finally:
        sys.setswitchinterval(old)


def test_type_hash_is_structural():
    # the same hash in two interpreter runs under one hash seed, even when
    # the types sit at other addresses, so set and dict order over types
    # never depends on object addresses
    code = ('from hogc.kernel import *; %s'
            'print([hash(t) for t in (IND, FunType(IND, ProdType(BaseType("S"), BOOL)))])')

    def run(prefix):
        env = dict(os.environ, PYTHONHASHSEED='7')
        r = subprocess.run([sys.executable, '-c', code % prefix], capture_output=True,
                           env=env, text=True)
        assert r.returncode == 0, r.stderr
        return r.stdout

    assert run('') == run('junk = [object() for _ in range(1000)]; ')


# ---------------------------------------------------------------------------
# Term formation

def test_app_typing():
    f = Var('f', FunType(IND, BOOL))
    x = Var('x', IND)
    assert App(f, x).ty == BOOL
    with pytest.raises(kernel.TypingError):
        App(f, Var('b', BOOL))
    with pytest.raises(kernel.TypingError):
        App(x, x)


def test_pair_and_proj_typing():
    pr = mk_pair(Var('x', IND), Var('b', BOOL))
    assert pr.ty == ProdType(IND, BOOL)
    assert _proj('fst', pr).ty == IND
    assert _proj('snd', pr).ty == BOOL
    assert kernel.logical_const('pair', (IND, BOOL)).ty == FunType(IND, FunType(BOOL, pr.ty))
    with pytest.raises(kernel.TypingError):
        App(kernel.logical_const('fst', (BOOL, IND)), pr)
    with pytest.raises(kernel.TypingError):
        App(kernel.logical_const('fst', (IND, BOOL)), Var('x', IND))
    with pytest.raises(kernel.TheoryError, match='^snd takes 2 type arguments, got 1$'):
        kernel.logical_const('snd', (IND,))


def test_eq_needs_shared_type():
    # the term reader's message for an ill-typed equation is mk_eq's
    with pytest.raises(kernel.TypingError, match='^equation between Ind and Bool$'):
        mk_eq(Var('x', IND), Var('b', BOOL))
    with pytest.raises(kernel.TypingError, match='^equation between Ind and Bool$'):
        syntax.parse_term('(x:Ind) = (b:Bool)')


_MALFORMED = {
    'var_type': (lambda: Var('x', 'Ind'), kernel.TypingError, 'variable x needs a Type'),
    'const_type': (lambda: Const('c', 'Ind'), kernel.TypingError, 'constant c needs Types'),
    'const_targs': (lambda: Const('c', IND, ('Ind',)), kernel.TypingError,
                    'constant c needs Types'),
    'abs_binder': (lambda: Abs(true_c(), true_c()), kernel.TypingError,
                   'binder must be a variable'),
    'abs_body': (lambda: Abs(Var('x', IND), 'x'), kernel.KernelError, "not a term: 'x'"),
    'app_fn': (lambda: App('f', true_c()), kernel.KernelError, "not a term: 'f'"),
    'app_arg': (lambda: App(kernel.logical_const('not'), 'x'), kernel.KernelError,
                "not a term: 'x'"),
    'type_to_str': (lambda: kernel.type_to_str('Ind'), kernel.TypingError, "not a type: 'Ind'"),
    'type_of': (lambda: kernel.type_of('x', kernel.core_theory()), kernel.KernelError,
                "not a term: 'x'"),
    'beta_normalize': (lambda: kernel.beta_normalize('x'), kernel.KernelError, "not a term: 'x'"),
    'logical_const': (lambda: kernel.logical_const('nosuch'), kernel.TheoryError,
                      'unknown logical constant nosuch'),
    'theory_const': (lambda: kernel.core_theory().const('nosuch'), kernel.TheoryError,
                     'unknown constant nosuch'),
}


@pytest.mark.parametrize('case', sorted(_MALFORMED))
def test_kernel_rejects_malformed_input(case):
    # each with the kernel's own error, not a Python error from deeper down
    make, exc, msg = _MALFORMED[case]
    with pytest.raises(exc, match='^%s$' % re.escape(msg)):
        make()


def test_cond_shape():
    x, y, z = Var('x', IND), Var('y', IND), Var('z', BOOL)
    t = mk_cond(x, y, z)
    assert t.ty == IND
    assert terms.dest_cond(t) == (x, y, z)
    with pytest.raises(kernel.TypingError):
        mk_cond(x, Var('b', BOOL), z)


def test_alpha_equality_and_hash():
    x, y = Var('x', IND), Var('y', IND)
    f = Var('f', FunType(IND, IND))
    assert Abs(x, x) == Abs(y, y)
    assert hash(Abs(x, x)) == hash(Abs(y, y))
    assert Abs(x, Abs(y, x)) != Abs(x, Abs(y, y))
    assert Abs(x, App(f, x)) == Abs(y, App(f, y))
    assert Abs(x, x) != Abs(Var('b', BOOL), Var('b', BOOL))


def test_alpha_eq_of_shared_subterm_under_binders():
    # one ``f x`` object under binders that bind x at different depths
    x, y = Var('x', IND), Var('y', IND)
    fx = App(Var('f', FunType(IND, BOOL)), x)
    t1, t2 = Abs(x, Abs(y, fx)), Abs(y, Abs(x, fx))
    assert t1 != t2
    # shared closed subterms, at the top and under a binder, compare equal
    s = mk_eq(Abs(x, x), Abs(y, y))
    assert mk_conj(s, s) == mk_conj(s, mk_eq(Abs(y, y), Abs(x, x)))
    assert Abs(x, mk_conj(s, App(fx.fn, x))) == Abs(y, mk_conj(s, App(fx.fn, y)))


def test_free_vars():
    x, y = Var('x', IND), Var('y', IND)
    t = Abs(x, mk_eq(x, y))
    assert t.free_vars == {y}
    assert true_c().free_vars == frozenset()


def test_alpha_equivalent_terms_are_one_object():
    barks = Const('barks', FunType(IND, BOOL))
    x, y = Var('x', IND), Var('y', IND)
    first = Abs(x, App(barks, x))
    second = Abs(y, App(barks, y))
    assert second is first
    # the node keeps no name: the printer takes one from its caller's table
    assert Abs.__slots__ == ('body',)
    assert syntax.pretty_term(second) == '\\%0:Ind. barks(%0)'
    assert syntax.pretty_term(first, {second: 'y'}) == '\\y:Ind. barks(y)'
    assert copy.deepcopy(second) is first and pickle.loads(pickle.dumps(second)) is first
    assert Var('x', IND) is x and Const('barks', FunType(IND, BOOL)) is barks
    # so a term hashes by identity, with no Python code per lookup
    assert kernel.Term.__hash__ is object.__hash__


def test_intern_table_holds_terms_weakly():
    f = Var('f', FunType(IND, BOOL))
    gc.collect()
    before = len(kernel._terms)
    terms = [Abs(Var('v%d' % i, IND), App(f, Var('w%d' % i, IND))) for i in range(500)]
    assert len(kernel._terms) >= before + 1500
    del terms
    gc.collect()
    assert len(kernel._terms) <= before


def test_dest_abs_renames_only_on_a_clash():
    x, x1, y = Var('x', IND), Var('x_1', IND), Var('y', IND)
    f = Var('f', FunType(IND, FunType(IND, BOOL)))
    t = Abs(x, App(App(f, y), x))
    v, body = kernel.dest_abs(t, 'x')
    assert v is x and body is App(App(f, y), x)
    # the caller names the variable; there is no default
    v, body = kernel.dest_abs(t, 'z')
    assert v is Var('z', IND) and body is App(App(f, y), v) and Abs(v, body) is t
    with pytest.raises(TypeError):
        kernel.dest_abs(t)
    # x and x_1 are free in the body, so the bound variable opens as x_2
    g = Var('g', FunType(IND, FunType(IND, FunType(IND, BOOL))))
    t = kernel.subst_parallel(Abs(x, App(App(App(g, y), x1), x)), {y: x})
    v, body = kernel.dest_abs(t, 'x')
    assert v.name == 'x_2' and body is App(App(App(g, x), x1), v)
    assert Abs(v, body) is t
    assert syntax.pretty_term(t, {t: 'x'}) == '\\x_2:Ind. g(x)(x_1)(x_2)'


def test_loose_bound_variables_are_rejected(th):
    x, b = Var('x', IND), Var('b', BOOL)
    loose = Abs(x, mk_eq(x, x)).body    # x = x with x a loose Bound(0)
    with pytest.raises(kernel.TypingError):
        Abs(Var('y', IND), loose)
    with pytest.raises(kernel.TypingError):
        kernel.reflexivity(th, loose)
    with pytest.raises(kernel.TypingError):
        kernel.subst_parallel(b, {b: loose})


_HINTS = st.sampled_from(('b0', 'b1', 'b0_', 'p', 'q', 'x', 'z', 'hole', 'slot', '%0'))


@st.composite
def _binder_pairs(draw):
    """Two terms \\n. t[n/p] built apart, from FRAG terms and binder names
    that clash with the free variables; the second body is often the first."""
    t = draw(FRAG)
    u = draw(st.one_of(st.just(t), FRAG))
    p = Var('p', BOOL)
    out = []
    for body in (t, u):
        v = Var(draw(_HINTS), BOOL)
        mk = draw(st.sampled_from((Abs, mk_forall)))
        out.append(mk(v, kernel.subst_parallel(body, {p: v})))
    return out


@given(_binder_pairs())
@settings(max_examples=200, deadline=None)
def test_identity_is_alpha_equivalence(pair):
    a, b = pair
    assert (a == b) == (a is b) == (syntax.canonical_term(a) == syntax.canonical_term(b))


# ---------------------------------------------------------------------------
# Substitution and normalization

def test_substitute_avoids_capture():
    x, y = Var('x', IND), Var('y', IND)
    t = Abs(y, mk_eq(x, y))
    s = kernel.subst_parallel(t, {x: y})
    z = Var('z', IND)
    assert s == Abs(z, mk_eq(y, z))
    assert s != Abs(y, mk_eq(y, y))


def test_subst_parallel_swaps():
    x, y = Var('x', IND), Var('y', IND)
    g = Var('g', FunType(IND, FunType(IND, IND)))
    t = App(App(g, x), y)
    assert kernel.subst_parallel(t, {x: y, y: x}) == App(App(g, y), x)


def test_substitute_type_mismatch():
    x = Var('x', IND)
    with pytest.raises(kernel.KernelError):
        kernel.subst_parallel(x, {x: true_c()})


def test_beta_normalize():
    x = Var('x', IND)
    a = Var('a', IND)
    assert kernel.beta_normalize(App(Abs(x, x), a)) == a
    # pairs are constants, so a projection of a pair is beta-normal
    fst_pair = _proj('fst', mk_pair(a, true_c()))
    assert kernel.beta_normalize(fst_pair) is fst_pair
    # nested redex under a binder
    y = Var('y', IND)
    t = Abs(y, App(Abs(x, x), y))
    assert kernel.beta_normalize(t) == Abs(y, y)


_LEAVES = st.sampled_from([Var('p', BOOL), Var('q', BOOL), Var('r', BOOL),
                           true_c(), false_c()])


def _frag(depth):
    if depth == 0:
        return _LEAVES
    sub = _frag(depth - 1)
    return st.one_of(
        _LEAVES,
        sub.map(mk_not),
        st.tuples(sub, sub).map(lambda ab: mk_conj(*ab)),
        st.tuples(sub, sub).map(lambda ab: mk_disj(*ab)),
        st.tuples(sub, sub).map(lambda ab: mk_eq(*ab)),
    )


FRAG = _frag(3)


@given(FRAG, FRAG)
@settings(max_examples=60, deadline=None)
def test_substitute_removes_the_variable(t, r):
    p = Var('p', BOOL)
    if p in r.free_vars:
        return
    s = kernel.subst_parallel(t, {p: r})
    assert p not in s.free_vars
    assert s.ty == BOOL


@given(FRAG)
@settings(max_examples=60, deadline=None)
def test_beta_normalize_contracts_and_is_idempotent(t):
    x = Var('x', BOOL)
    nf = kernel.beta_normalize(App(Abs(x, mk_conj(x, t)), t))
    assert nf == mk_conj(t, t)
    assert kernel.beta_normalize(nf) == nf


@given(FRAG)
@settings(max_examples=60, deadline=None)
def test_alpha_reflexive_and_hash_consistent(t):
    assert t == t
    assert hash(t) == hash(t)


# ---------------------------------------------------------------------------
# Theories

def test_theory_frozen_rejects_mutation(th):
    with pytest.raises(kernel.TheoryError):
        th.add_constant('c', IND)


def test_frozen_theory_tables_are_read_only(th):
    with pytest.raises(TypeError):
        th.axioms['x'] = false_c()
    with pytest.raises(TypeError):
        th.constants['c'] = IND
    with pytest.raises(AttributeError):
        th.base_types.add('T')
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(th, 'x')


@pytest.mark.parametrize('attr,value', [
    ('axioms', {'bad': false_c()}), ('constants', {'bad': BOOL}),
    ('base_types', frozenset(('Bool', 'Und'))), ('name', 'other'), ('frozen', False)],
    ids=['axioms', 'constants', 'base_types', 'name', 'frozen'])
def test_frozen_theory_attributes_cannot_be_assigned(attr, value):
    th = kernel.core_theory()
    before = getattr(th, attr)
    with pytest.raises(kernel.TheoryError):
        setattr(th, attr, value)
    assert getattr(th, attr) is before
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(th, 'bad')


def test_theory_duplicate_and_reserved_names():
    t = kernel.Theory('scratch')
    t.add_constant('c', IND)
    with pytest.raises(kernel.TheoryError):
        t.add_constant('c', BOOL)
    with pytest.raises(kernel.TheoryError):
        t.add_constant('true', BOOL)
    t.add_axiom('a', mk_eq(t.const('c'), t.const('c')))
    with pytest.raises(kernel.TheoryError):
        t.add_axiom('a', true_c())
    with pytest.raises(kernel.TheoryError):
        t.add_axiom('b', t.const('c'))  # not Bool
    t.add_base_type('S')
    for name in ('S', 'Bool'):
        with pytest.raises(kernel.TheoryError, match='^duplicate base type %s$' % name):
            t.add_base_type(name)


def test_theory_declarations_are_validated():
    t = kernel.Theory('scratch4')
    with pytest.raises(kernel.TheoryError, match='^unknown base type Und$'):
        t.add_constant('c', FunType(IND, BaseType('Und')))
    with pytest.raises(kernel.TypingError, match="^not a type: 'Ind'$"):
        t.add_constant('c', 'Ind')
    with pytest.raises(kernel.TheoryError, match='^unknown constant mystery$'):
        t.add_axiom('a', App(Const('mystery', FunType(IND, BOOL)), Var('x', IND)))
    with pytest.raises(kernel.TheoryError, match='^unknown base type Und$'):
        t.add_axiom('a', mk_eq(Var('u', BaseType('Und')), Var('u', BaseType('Und'))))
    assert not t.constants and not t.axioms


def test_unfrozen_theory_proves_nothing():
    t = kernel.Theory('scratch2')
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(t, 'bool-cases')
    with pytest.raises(kernel.TheoryError, match='^theory scratch2 is not frozen$'):
        kernel.reflexivity(t, true_c())


class _LooksLikeATheory:
    """Every field that type_of and axiom read from a frozen theory."""

    def __init__(self, th):
        self.__dict__.update(vars(th))


@pytest.mark.parametrize('bad', ['th', None, 'look-alike'])
def test_a_theory_argument_must_be_a_theory(th, bad):
    if bad == 'look-alike':
        bad = _LooksLikeATheory(th)
    p = Var('p', BOOL)
    calls = [lambda: kernel.reflexivity(bad, p), lambda: kernel.assume(bad, p),
             lambda: kernel.beta_conversion(bad, App(Abs(p, p), true_c())),
             lambda: kernel.type_of(p, bad), lambda: kernel.axiom(bad, 'bool-cases')]
    for call in calls:
        with pytest.raises(kernel.TheoryError, match='^not a theory: '):
            call()


def test_type_of_rejects_foreign_constants(th):
    c = kernel.Const('mystery', IND)
    with pytest.raises(kernel.KernelError):
        kernel.type_of(c, th)


def _hidden(t):
    """``t`` inside a pair and a projection, so the whole term is Bool-typed."""
    return _proj('snd', mk_pair(t, true_c()))


_UND = BaseType('Und')
# a fault where a type or constant comes in, below a Bool-typed root
_LEAF_FAULTS = {
    'free_var': (App(Var('P', FunType(_UND, BOOL)), Var('u', _UND)),
                 kernel.TheoryError, 'unknown base type Und'),
    'unused_binders': (App(Abs(Var('f', FunType(_UND, BOOL)), true_c()),
                           Abs(Var('u', _UND), true_c())),
                       kernel.TheoryError, 'unknown base type Und'),
    'in_pair_and_proj': (_hidden(Var('u', _UND)), kernel.TheoryError,
                         'unknown base type Und'),
    'unknown_const': (_hidden(Const('mystery', IND)), kernel.TheoryError,
                      'unknown constant mystery'),
    'logical_const_at_undeclared_type': (_hidden(eq_c(_UND)), kernel.TheoryError,
                                         'unknown base type Und'),
    'logical_const_at_wrong_type': (_hidden(Const('true', IND)), kernel.TypingError,
                                    'logical constant true at wrong type'),
    'const_at_wrong_type': (_hidden(Const('c', BOOL)), kernel.TypingError,
                            'constant c at type Bool, declared Ind'),
    'const_at_undeclared_type': (_hidden(Const('c', FunType(IND, _UND))),
                                 kernel.TheoryError, 'unknown base type Und'),
}


@pytest.mark.parametrize('case', sorted(_LEAF_FAULTS))
def test_type_of_checks_every_leaf_and_binder(case):
    th = kernel.Theory('leaves')
    th.add_constant('c', IND)
    th.freeze()
    t, exc, msg = _LEAF_FAULTS[case]
    assert t.ty is BOOL
    with pytest.raises(exc, match='^%s$' % msg):
        kernel.type_of(t, th)


def test_type_of_is_per_theory():
    # a term that validates in theory A is checked afresh against B
    a = kernel.Theory('A')
    a.add_base_type('S')
    a.add_constant('k', FunType(BaseType('S'), BOOL))
    a.freeze()
    b = kernel.Theory('B')
    b.add_base_type('S')
    b.add_constant('k', FunType(IND, BOOL))
    b.freeze()
    t = _hidden(App(a.const('k'), Var('s', BaseType('S'))))
    assert kernel.type_of(t, a) is BOOL
    with pytest.raises(kernel.TypingError,
                       match=r'^constant k at type \(S -> Bool\), declared \(Ind -> Bool\)$'):
        kernel.type_of(t, b)
    with pytest.raises(kernel.TheoryError, match='^unknown base type S$'):
        kernel.type_of(t, kernel.core_theory())


def test_bool_cases_axiom_shape(th):
    bc = kernel.axiom(th, 'bool-cases')
    assert bc.hyps == ()
    v, body = terms.dest_forall(bc.concl)
    assert body == mk_disj(mk_eq(v, true_c()), mk_eq(v, false_c()))


def test_description_axiom_shape(th):
    d = kernel.axiom(th, 'description', (IND,))
    v, body = terms.dest_forall(d.concl)
    l, r = kernel.dest_eq(body)
    assert r == v
    assert l.ty == IND


def test_pairing_axiom_shape(th):
    p = kernel.axiom(th, 'pairing', (IND, BOOL))
    v, body = terms.dest_forall(p.concl)
    assert body == mk_eq(mk_pair(_proj('fst', v), _proj('snd', v)), v)


def test_def_axiom_is_a_defining_equation(th):
    for name, targs in (('cond', (IND,)), ('and', ()), ('or', ()),
                        ('not', ()), ('imp', ()), ('false', ())):
        eq = kernel.axiom(th, 'def.' + name, targs)
        l, _r = kernel.dest_eq(eq.concl)
        assert isinstance(l, kernel.Const) and l.name == name


def test_axiom_schemas_have_fixed_arity(th):
    for name, targs in (('description', ()), ('bool-cases', (IND,)),
                        ('ext', (IND,)), ('fst_pair', (IND,)), ('def.cond', ()),
                        ('def.and', (IND,))):
        with pytest.raises(kernel.TheoryError):
            kernel.axiom(th, name, targs)
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(th, 'pairing', (IND, kernel.BaseType('Und')))
    assert kernel.axiom(th, 'ext', (IND, BOOL)).args == ('ext[Ind,Bool]',)


def test_named_axioms_take_no_type_arguments(toy):
    assert kernel.axiom(toy.theory, 'lex.FIDO.phon').args == ('lex.FIDO.phon',)
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(toy.theory, 'lex.FIDO.phon', (IND,))


def _closed_statements(g):
    """(the closed statement, its variables, the axioms that replace it) for
    each lexeme, rule and monoid law of a grammar: a sign constructor once
    stated !x1 ... xn. phon_T(c x1 ... xn) = P /\\ sem_T(c x1 ... xn) = M,
    and a monoid law its equation under !.  Built here from the grammar's
    items, as elaboration built them before."""
    th = g.theory
    def proj(kind, sty, t):
        return App(th.const('%s_%s' % (kind, sty)), t)
    def closed(vs, body):
        for v in reversed(vs):
            body = mk_forall(v, body)
        return body
    out = []
    for lx in g.lexicon:
        phon = grammar.word_to_phon(g, lx.surface)
        body = mk_conj(mk_eq(proj('phon', lx.result, lx.const), phon),
                       mk_eq(proj('sem', lx.result, lx.const), lx.meaning))
        out.append((body, (), ('lex.%s.phon' % lx.name, 'lex.%s.sem' % lx.name)))
    for r in g.rules:
        vs, sign = r.operand_vars, r.const
        for v in vs:
            sign = App(sign, v)
        phon = syntax.mk_conc(*(proj('phon', r.operands[i - 1], vs[i - 1]) for i in r.surface))
        body = mk_conj(mk_eq(proj('phon', r.result, sign), phon),
                       mk_eq(proj('sem', r.result, sign), r.meaning))
        out.append((closed(vs, body), vs, ('rule.%s.phon' % r.name, 'rule.%s.sem' % r.name)))
    x, y, z = Var('x', PHON), Var('y', PHON), Var('z', PHON)
    cat, unit = syntax.mk_conc, th.const('//')
    assoc = mk_eq(cat(cat(x, y), z), cat(x, y, z))
    out += [(closed((x, y, z), assoc), (x, y, z), ('phon.assoc',)),
            (closed((x,), mk_eq(cat(unit, x), x)), (x,), ('phon.lunit',)),
            (closed((x,), mk_eq(cat(x, unit), x)), (x,), ('phon.runit',))]
    return out


@pytest.mark.parametrize('name', ['toy', 'ambig', 'boolsem', 'eps'])
def test_sign_axioms_prove_the_closed_statements_and_back(name):
    # the free-variable equations and the closed statements they replace
    # prove each other, so the theory proves what it proved before
    g = grammar.elaborate(helpers.GRAMMARS[name], name=name)
    th = g.theory
    statements = _closed_statements(g)
    assert sorted(n for _, _, ns in statements for n in ns) == sorted(th.axioms)
    for stmt, vs, names in statements:
        axioms = [kernel.axiom(th, n) for n in names]
        thm = rules.conj(*axioms) if len(axioms) == 2 else axioms[0]
        for v in reversed(vs):
            thm = rules.gen(v, thm)
        assert thm.concl is stmt and thm.hyps == ()
        thm = kernel.assume(th, stmt)
        for v in vs:
            thm = rules.spec(v, thm)
        parts = (rules.conjunct1(thm), rules.conjunct2(thm)) if len(names) == 2 else (thm,)
        for n, part in zip(names, parts):
            assert part.concl is th.axioms[n] and part.hyps == (stmt,)


def test_add_axiom_rejects_schema_names():
    t = kernel.Theory('scratch3')
    for name in ('bool-cases', 'description', 'ext', 'pairing', 'snd_pair', 'def.cond',
                 'def.true', 'w[Ind]', 'description[Ind]'):
        with pytest.raises(kernel.TheoryError):
            t.add_axiom(name, true_c())
    t.add_axiom('def', true_c())
    assert list(t.axioms) == ['def']


def test_unknown_axiom(th):
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(th, 'no-such-axiom')


# ---------------------------------------------------------------------------
# Primitive rules

def test_reflexivity_symmetry_transitivity(th):
    x, y = Var('x', IND), Var('y', IND)
    r = kernel.reflexivity(th, x)
    assert r.hyps == () and r.concl == mk_eq(x, x)
    a = kernel.assume(th, mk_eq(x, y))
    s = kernel.symmetry(a)
    assert s.concl == mk_eq(y, x) and s.hyps == (mk_eq(x, y),)
    t2 = kernel.transitivity(a, kernel.assume(th, mk_eq(y, x)))
    assert t2.concl == mk_eq(x, x)
    assert set(t2.hyps) == {mk_eq(x, y), mk_eq(y, x)}
    with pytest.raises(kernel.RuleError):
        kernel.transitivity(a, kernel.assume(th, mk_eq(Var('z', IND), x)))


def test_congruence(th):
    f, g = Var('f', FunType(IND, BOOL)), Var('g', FunType(IND, BOOL))
    x, y = Var('x', IND), Var('y', IND)
    ef = kernel.assume(th, mk_eq(f, g))
    ex = kernel.assume(th, mk_eq(x, y))
    c = kernel.congruence(ef, ex)
    assert c.concl == mk_eq(App(f, x), App(g, y))
    with pytest.raises(kernel.KernelError):
        kernel.congruence(ex, ef)


def test_abstraction_and_its_side_condition(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    a = kernel.assume(th, mk_eq(x, true_c()))
    b = kernel.abstraction(y, a)
    assert b.concl == mk_eq(Abs(y, x), Abs(y, true_c()))
    with pytest.raises(kernel.RuleError):
        kernel.abstraction(x, a)  # x free in the hypothesis


def test_beta_conversion(th):
    x = Var('x', IND)
    y = Var('y', IND)
    redex = App(Abs(x, mk_eq(x, y)), y)
    b = kernel.beta_conversion(th, redex)
    assert b.hyps == () and b.concl == mk_eq(redex, mk_eq(y, y))
    with pytest.raises(kernel.RuleError):
        kernel.beta_conversion(th, y)


def test_pair_beta(th):
    # the projection laws are the axiom schemas fst_pair and snd_pair, not a rule
    assert 'pair_beta' not in kernel.PRIMITIVE_RULES
    assert not hasattr(kernel, 'pair_beta')
    a, b = Var('a', IND), Var('b', BOOL)
    for name, side in (('fst', a), ('snd', b)):
        ax = kernel.axiom(th, name + '_pair', (IND, BOOL))
        assert ax.hyps == () and ax.args == (name + '_pair[Ind,Bool]',)
        x, body = terms.dest_forall(ax.concl)
        y, body = terms.dest_forall(body)
        assert body == mk_eq(_proj(name, mk_pair(x, y)), x if name == 'fst' else y)
        law = rules.spec(b, rules.spec(a, ax))
        assert law.hyps == () and law.concl == mk_eq(_proj(name, mk_pair(a, b)), side)


def test_assume_requires_bool(th):
    with pytest.raises(kernel.RuleError):
        kernel.assume(th, Var('x', IND))


def test_modus_ponens_eq(th):
    x = Var('x', BOOL)
    e = kernel.reflexivity(th, x)
    a = kernel.assume(th, x)
    r = kernel.modus_ponens_eq(e, a)
    assert r.concl == x and r.hyps == (x,)
    with pytest.raises(kernel.RuleError):
        kernel.modus_ponens_eq(e, kernel.assume(th, mk_not(x)))


def test_deduct_antisym(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    r = kernel.deduct_antisym(kernel.assume(th, x), kernel.assume(th, y))
    assert r.concl == mk_eq(x, y)
    assert set(r.hyps) == {x, y}
    # discharging: from {x} |- x and {x} |- x the hypothesis cancels
    d = kernel.deduct_antisym(kernel.assume(th, x), kernel.assume(th, x))
    assert d.hyps == () and d.concl == mk_eq(x, x)


def test_hypotheses_keep_derivation_order(th):
    p, q = Var('p', BOOL), Var('q', BOOL)
    assert rules.conj(kernel.assume(th, q), kernel.assume(th, p)).hyps == (q, p)
    assert rules.conj(kernel.assume(th, p), kernel.assume(th, q)).hyps == (p, q)
    assert kernel.deduct_antisym(kernel.assume(th, q), kernel.assume(th, p)).hyps == (q, p)


def test_alpha_equal_hypotheses_are_kept_once(th):
    # alpha-equal hypotheses are one object, kept once
    f = Var('f', FunType(IND, BOOL))
    x, y = Var('x', IND), Var('y', IND)
    a, b = mk_forall(x, App(f, x)), mk_forall(y, App(f, y))
    c = rules.conj(kernel.assume(th, a), kernel.assume(th, b))
    assert c.hyps == (a,) and terms.dest_forall(c.hyps[0])[0].name == 'x'
    c = rules.conj(kernel.assume(th, b), kernel.assume(th, a))
    assert c.hyps == (b,) and terms.dest_forall(c.hyps[0])[0].name == 'x'


def test_instantiate_in_conclusion_and_hypotheses(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    a = kernel.assume(th, mk_disj(x, y))
    r = kernel.instantiate(a, {x: y, y: x})
    assert r.concl == mk_disj(y, x)
    assert r.hyps == (mk_disj(y, x),)
    with pytest.raises(kernel.KernelError):
        kernel.instantiate(a, {x: Var('z', IND)})


def test_instantiate_needs_variables_and_declared_replacements(th):
    p = Var('p', BOOL)
    a = kernel.assume(th, p)
    with pytest.raises(kernel.TypingError, match='^substitution domain must be variables$'):
        kernel.instantiate(a, {Const('p', BOOL): false_c()})
    with pytest.raises(kernel.TheoryError, match='^unknown constant mystery$'):
        kernel.instantiate(a, {p: Const('mystery', BOOL)})


def test_beta_conversion_validates_the_redex(th):
    x = Var('x', IND)
    with pytest.raises(kernel.TheoryError, match='^unknown constant mystery$'):
        kernel.beta_conversion(th, App(Abs(x, x), Const('mystery', IND)))


def test_a_term_with_an_undeclared_constant_fails_again(th):
    # a node is marked validated only once all its children pass, so a term
    # that failed fails again, and so does the part of it that failed
    bad = App(Const('mystery', FunType(IND, BOOL)), Var('x', IND))
    for t in (bad, bad, bad.fn):
        with pytest.raises(kernel.TheoryError, match='^unknown constant mystery$'):
            kernel.type_of(t, th)


def test_instantiate_respects_binders(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    t = mk_forall(y, mk_disj(x, y))
    a = kernel.assume(th, t)
    r = kernel.instantiate(a, {x: y})
    v, body = terms.dest_forall(r.concl)
    assert v != y  # the binder was renamed away from the substituted y
    assert body == mk_disj(y, v)


def test_theorems_only_from_kernel(th):
    with pytest.raises(kernel.KernelError):
        kernel.Theorem((), true_c(), th, 'fake', ())


def test_rules_reject_mixed_theories(th):
    other = kernel.core_theory('other')
    x = Var('x', BOOL)
    with pytest.raises(kernel.KernelError):
        kernel.transitivity(kernel.reflexivity(th, x),
                            kernel.reflexivity(other, x))


class _LooksLikeATheorem:
    """Every field a rule reads, but not made by a kernel rule."""
    hyps = ()
    concl = mk_eq(true_c(), false_c())

    def __init__(self, theory):
        self.theory = theory


def _wrong_kind_calls(th):
    """(rule, argument position, call) for each primitive rule and each
    argument that must be a theorem, a term or a variable."""
    refl = kernel.reflexivity(th, true_c())
    p = Var('p', BOOL)
    fake = _LooksLikeATheorem(th)
    return [
        ('reflexivity', 'term', lambda: kernel.reflexivity(th, 'x')),
        ('symmetry', 'theorem', lambda: kernel.symmetry('x')),
        ('symmetry', 'look-alike', lambda: kernel.symmetry(fake)),
        ('transitivity', 'first', lambda: kernel.transitivity('x', refl)),
        ('transitivity', 'second', lambda: kernel.transitivity(refl, fake)),
        ('congruence', 'function', lambda: kernel.congruence(fake, refl)),
        ('congruence', 'argument', lambda: kernel.congruence(refl, 'x')),
        ('abstraction', 'variable', lambda: kernel.abstraction('x', refl)),
        ('abstraction', 'theorem', lambda: kernel.abstraction(p, fake)),
        ('beta_conversion', 'term', lambda: kernel.beta_conversion(th, 'x')),
        ('assume', 'term', lambda: kernel.assume(th, 'x')),
        ('modus_ponens_eq', 'equation', lambda: kernel.modus_ponens_eq(fake, refl)),
        ('modus_ponens_eq', 'premise', lambda: kernel.modus_ponens_eq(refl, 'x')),
        ('deduct_antisym', 'first', lambda: kernel.deduct_antisym(fake, refl)),
        ('deduct_antisym', 'second', lambda: kernel.deduct_antisym(refl, 'x')),
        ('instantiate', 'theorem', lambda: kernel.instantiate(fake, {})),
        ('instantiate', 'key', lambda: kernel.instantiate(refl, {'p': true_c()})),
        ('instantiate', 'value', lambda: kernel.instantiate(refl, {p: 'x'})),
        ('axiom', 'name', lambda: kernel.axiom(th, 5)),
        ('axiom', 'type argument', lambda: kernel.axiom(th, 'def.forall', ('Ind',))),
    ]


def test_every_rule_rejects_a_wrong_kind_argument(th):
    # a KernelError, not a Python error from deeper down, and never a
    # theorem: the look-alike carries every field a rule reads
    calls = _wrong_kind_calls(th)
    assert {rule for rule, _pos, _call in calls} == set(kernel.PRIMITIVE_RULES)
    for rule, pos, call in calls:
        try:
            got = call()
        except kernel.KernelError:
            continue
        except Exception as e:
            pytest.fail('%s with a wrong-kind %s raised %r' % (rule, pos, e))
        pytest.fail('%s with a wrong-kind %s gave %r' % (rule, pos, got))


# Kernel functions that no kernel code uses; they stay only because the
# benchmark imports them from hogc.kernel.
_BENCHMARK_IMPORTS = {'beta_normalize', 'mk_cond'}


def test_kernel_holds_only_trusted_code():
    # An audit trusts all of kernel.py, so it imports only the standard
    # library at module level, and each module-level function is used by
    # other kernel code or is a rule, an entry point or a benchmark import.
    with open(kernel.__file__, encoding='utf-8') as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, 'kernel imports %s from its package' % node.module
            modules = [node.module]
        else:
            continue
        for m in modules:
            assert m.partition('.')[0] in sys.stdlib_module_names, m
    # names each top-level statement reads, function bodies and methods included
    used = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)} for node in tree.body]
    functions = {node.name: i for i, node in enumerate(tree.body)
                 if isinstance(node, ast.FunctionDef)}
    allowed = set(kernel.PRIMITIVE_RULES) | {'core_theory', 'type_of'} | _BENCHMARK_IMPORTS
    assert _BENCHMARK_IMPORTS <= set(functions)
    unused = sorted(name for name, i in functions.items() if name not in allowed
                    and not any(name in u for j, u in enumerate(used) if j != i))
    assert unused == []


# what importing a module loads of the package: an audit that imports the
# kernel, or the trace verifier, loads no chart parser, closure or grammar code
_LOADS = {
    'kernel': {'hogc', 'hogc.kernel'},
    'trace': {'hogc', 'hogc.kernel', 'hogc.terms', 'hogc.syntax', 'hogc.trace'},
}


@pytest.mark.parametrize('module', ['kernel', 'terms', 'syntax', 'rules', 'grammar',
                                    'parser', 'closure', 'trace', 'cli'])
def test_each_module_imports_alone(module):
    # a fresh interpreter imports hogc.<module> alone and lists the hogc
    # modules it loaded
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'src')
    r = subprocess.run(
        [sys.executable, '-c', 'import sys, hogc.%s; print(*sorted(m for m in sys.modules '
         'if m.split(".")[0] == "hogc"))' % module],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert 'hogc.%s' % module in loaded
    if module in _LOADS:
        assert loaded == _LOADS[module]


_TH = kernel.core_theory()


@given(FRAG)
@settings(max_examples=40, deadline=None)
def test_reflexivity_holds_for_arbitrary_fragment_terms(t):
    r = kernel.reflexivity(_TH, t)
    assert r.hyps == () and r.concl == mk_eq(t, t)


def test_random_terms_are_well_typed(th):
    import random
    rng = random.Random(7)
    for ty in (BOOL, IND, PHON, FunType(IND, BOOL), ProdType(BOOL, IND)):
        for _ in range(20):
            t = helpers.random_term(rng, ty)
            assert t.ty == ty
            assert kernel.type_of(t, th) == ty
