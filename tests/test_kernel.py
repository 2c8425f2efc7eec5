"""Trusted core: types, terms, substitution, theories, primitive rules."""

import copy
import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from hogc import kernel, rules, syntax
from hogc.kernel import (
    Abs, App, BOOL, BaseType, Const, FunType, IND, PHON, Pair, ProdType, Proj, Var,
    eq_c, false_c, mk_conj, mk_cond, mk_disj, mk_eq, mk_forall, mk_not, true_c,
)

import helpers


@pytest.fixture(scope='module')
def th():
    return kernel.core_theory()


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


def test_interning_is_thread_safe():
    # 4 threads build each fresh type at once; each must get one object
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(50):
            name = 'Fresh%d' % round_
            start = threading.Barrier(4, timeout=10)
            got = []

            def build():
                start.wait()
                got.append(FunType(BaseType(name), ProdType(BaseType(name), BOOL)))

            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive()
            assert len(got) == 4 and all(ty is got[0] for ty in got)
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
    pr = Pair(Var('x', IND), Var('b', BOOL))
    assert pr.ty == ProdType(IND, BOOL)
    assert Proj(1, pr).ty == IND
    assert Proj(2, pr).ty == BOOL
    with pytest.raises(kernel.TypingError):
        Proj(3, pr)
    with pytest.raises(kernel.TypingError):
        Proj(1, Var('x', IND))


def test_eq_needs_shared_type():
    with pytest.raises(kernel.TypingError):
        mk_eq(Var('x', IND), Var('b', BOOL))


def test_cond_shape():
    x, y, z = Var('x', IND), Var('y', IND), Var('z', BOOL)
    t = mk_cond(x, y, z)
    assert t.ty == IND
    assert kernel.dest_cond(t) == (x, y, z)
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
    assert kernel._alpha_hash(t1, {}, 0) != kernel._alpha_hash(t2, {}, 0)
    # shared closed subterms, at the top and under a binder, compare equal
    s = mk_eq(Abs(x, x), Abs(y, y))
    assert mk_conj(s, s) == mk_conj(s, mk_eq(Abs(y, y), Abs(x, x)))
    assert Abs(x, mk_conj(s, App(fx.fn, x))) == Abs(y, mk_conj(s, App(fx.fn, y)))


def test_free_vars():
    x, y = Var('x', IND), Var('y', IND)
    t = Abs(x, mk_eq(x, y))
    assert t.free_vars == {('y', IND)}
    assert kernel.free_vars(t) == {y}
    assert kernel.free_vars(true_c()) == set()


def test_fresh_name():
    assert kernel.fresh_name('x', set()) == 'x'
    got = kernel.fresh_name('x', {'x', 'x_1'})
    assert got not in {'x', 'x_1'}


# ---------------------------------------------------------------------------
# Substitution and normalization

def test_substitute_avoids_capture():
    x, y = Var('x', IND), Var('y', IND)
    t = Abs(y, mk_eq(x, y))
    s = kernel.substitute(t, x, y)
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
        kernel.substitute(x, x, true_c())


def test_beta_normalize():
    x = Var('x', IND)
    a = Var('a', IND)
    assert kernel.beta_normalize(App(Abs(x, x), a)) == a
    assert kernel.beta_normalize(Proj(1, Pair(a, true_c()))) == a
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
    if ('p', BOOL) in r.free_vars:
        return
    s = kernel.substitute(t, p, r)
    assert ('p', BOOL) not in s.free_vars
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


def test_unfrozen_theory_proves_nothing():
    t = kernel.Theory('scratch2')
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(t, 'bool-cases')


def test_type_of_rejects_foreign_constants(th):
    c = kernel.Const('mystery', IND)
    with pytest.raises(kernel.KernelError):
        kernel.type_of(c, th)


def _hidden(t):
    """``t`` inside a Pair and a Proj, so the whole term is Bool-typed."""
    return Proj(2, Pair(t, true_c()))


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
    v, body = kernel.dest_forall(bc.concl)
    assert body == mk_disj(mk_eq(v, true_c()), mk_eq(v, false_c()))


def test_description_axiom_shape(th):
    d = kernel.axiom(th, 'description', (IND,))
    v, body = kernel.dest_forall(d.concl)
    l, r = kernel.dest_eq(body)
    assert r == v
    assert l.ty == IND


def test_pairing_axiom_shape(th):
    p = kernel.axiom(th, 'pairing', (IND, BOOL))
    v, body = kernel.dest_forall(p.concl)
    assert body == mk_eq(Pair(Proj(1, v), Proj(2, v)), v)


def test_def_axiom_is_a_defining_equation(th):
    for name, targs in (('cond', (IND,)), ('and', ()), ('or', ()),
                        ('not', ()), ('imp', ()), ('false', ())):
        eq = kernel.axiom(th, 'def.' + name, targs)
        l, _r = kernel.dest_eq(eq.concl)
        assert isinstance(l, kernel.Const) and l.name == name


def test_axiom_schemas_have_fixed_arity(th):
    for name, targs in (('description', ()), ('bool-cases', (IND,)),
                        ('ext', (IND,)), ('def.cond', ()), ('def.and', (IND,))):
        with pytest.raises(kernel.TheoryError):
            kernel.axiom(th, name, targs)
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(th, 'pairing', (IND, kernel.BaseType('Und')))
    assert kernel.axiom(th, 'ext', (IND, BOOL)).args == ('ext[Ind,Bool]',)


def test_named_axioms_take_no_type_arguments(toy):
    assert kernel.axiom(toy.theory, 'lex.FIDO').args == ('lex.FIDO',)
    with pytest.raises(kernel.TheoryError):
        kernel.axiom(toy.theory, 'lex.FIDO', (IND,))


def test_add_axiom_rejects_schema_names():
    t = kernel.Theory('scratch3')
    for name in ('bool-cases', 'description', 'ext', 'pairing', 'def.cond',
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
    a, b = Var('a', IND), Var('b', BOOL)
    p1 = kernel.pair_beta(th, Proj(1, Pair(a, b)))
    assert p1.concl == mk_eq(Proj(1, Pair(a, b)), a)
    p2 = kernel.pair_beta(th, Proj(2, Pair(a, b)))
    assert p2.concl == mk_eq(Proj(2, Pair(a, b)), b)
    with pytest.raises(kernel.RuleError):
        kernel.pair_beta(th, Proj(1, Var('p', ProdType(IND, BOOL))))


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
    # the first one met stays, with its own bound name
    f = Var('f', FunType(IND, BOOL))
    x, y = Var('x', IND), Var('y', IND)
    a, b = mk_forall(x, App(f, x)), mk_forall(y, App(f, y))
    c = rules.conj(kernel.assume(th, a), kernel.assume(th, b))
    assert c.hyps == (a,) and kernel.dest_forall(c.hyps[0])[0].name == 'x'
    c = rules.conj(kernel.assume(th, b), kernel.assume(th, a))
    assert c.hyps == (b,) and kernel.dest_forall(c.hyps[0])[0].name == 'y'


def test_instantiate_in_conclusion_and_hypotheses(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    a = kernel.assume(th, mk_disj(x, y))
    r = kernel.instantiate(a, {x: y, y: x})
    assert r.concl == mk_disj(y, x)
    assert r.hyps == (mk_disj(y, x),)
    with pytest.raises(kernel.KernelError):
        kernel.instantiate(a, {x: Var('z', IND)})


def test_instantiate_respects_binders(th):
    x, y = Var('x', BOOL), Var('y', BOOL)
    t = mk_forall(y, mk_disj(x, y))
    a = kernel.assume(th, t)
    r = kernel.instantiate(a, {x: y})
    v, body = kernel.dest_forall(r.concl)
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
