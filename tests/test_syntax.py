"""Term parsing and printing: round trips, precedence, resolution errors."""

import functools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hogc import kernel, syntax
from hogc.kernel import (
    Abs, App, BOOL, FunType, IND, PHON, ProdType, Var,
    false_c, mk_conj, mk_cond, mk_disj, mk_eq, mk_forall, mk_imp, mk_not, true_c,
)
from hogc.terms import mk_exists, mk_pair
from hogc.syntax import TermEnv, canonical_term, parse_term, pretty_term

from test_kernel import FRAG


def _proj(name, p):
    """``fst p`` or ``snd p``, the projection constant at p's product type."""
    return App(kernel.logical_const(name, (p.ty.left, p.ty.right)), p)


@pytest.fixture(scope='module')
def th():
    return kernel.core_theory()


@pytest.fixture(scope='module')
def env(th):
    return TermEnv(theory=th,
                   var_types={'p': BOOL, 'q': BOOL, 'x': IND, 'y': IND,
                              'f': FunType(IND, BOOL)})


def test_parse_connectives(env):
    p, q = Var('p', BOOL), Var('q', BOOL)
    assert parse_term('p /\\ q', env) == mk_conj(p, q)
    assert parse_term('p \\/ q', env) == mk_disj(p, q)
    assert parse_term('p => q', env) == mk_imp(p, q)
    assert parse_term('~p', env) == mk_not(p)
    assert parse_term('true \\/ false', env) == mk_disj(true_c(), false_c())


def test_precedence(env):
    p, q = Var('p', BOOL), Var('q', BOOL)
    assert parse_term('~p /\\ q', env) == mk_conj(mk_not(p), q)
    assert parse_term('p \\/ q /\\ p', env) == mk_disj(p, mk_conj(q, p))
    assert parse_term('p /\\ q \\/ p', env) == mk_disj(mk_conj(p, q), p)
    # equality binds tighter than the connectives
    assert parse_term('p = q /\\ p', env) == mk_conj(mk_eq(p, q), p)


def test_parse_application_and_lambda(env):
    f, x = Var('f', FunType(IND, BOOL)), Var('x', IND)
    assert parse_term('f(x)', env) == App(f, x)
    assert parse_term('\\x:Ind. f(x)', env) == Abs(x, App(f, x))
    assert parse_term('(\\x:Ind. x)(y)', env) == App(Abs(x, x), Var('y', IND))


def test_parse_binders(env):
    x = Var('x', IND)
    f = Var('f', FunType(IND, BOOL))
    assert parse_term('!x:Ind. f(x)', env) == mk_forall(x, App(f, x))
    assert parse_term('?x:Ind. f(x)', env) == mk_exists(x, App(f, x))


def test_parse_pair_proj_cond(env):
    x, p = Var('x', IND), Var('p', BOOL)
    xp = mk_pair(x, p)
    assert parse_term('<x, p>', env) == parse_term('(x, p)', env) == xp
    assert xp == App(App(kernel.logical_const('pair', (IND, BOOL)), x), p)
    assert parse_term('fst <x, p>', env) == parse_term('fst[Ind,Bool](x, p)', env) \
        == _proj('fst', xp)
    assert parse_term('snd <x, p>', env) == _proj('snd', xp)
    with pytest.raises(syntax.ParseError, match=r'^fst of a term of type Ind$'):
        parse_term('fst x', env)
    with pytest.raises(syntax.ParseError, match='^pair needs type arguments$'):
        parse_term('pair', env)
    # cond[T](x, y, z) is the curried application C x y z
    y = Var('y', IND)
    assert parse_term('cond[Ind](x, y, p)', env) == mk_cond(x, y, p) \
        == App(App(App(kernel.logical_const('cond', (IND,)), x), y), p)
    assert parse_term('cond[Ind](x)(y)(p)', env) == mk_cond(x, y, p)
    assert pretty_term(App(kernel.logical_const('cond', (IND,)), x)) == 'cond[Ind](x)'
    assert pretty_term(mk_cond(x, y, p)) == 'cond[Ind](x, y, p)'
    assert pretty_term(xp) == 'pair[Ind,Bool](x)(p)'


def test_default_var_type():
    env = TermEnv(default_var_type=BOOL)
    assert parse_term('a /\\ b', env) == mk_conj(Var('a', BOOL), Var('b', BOOL))


def test_unannotated_unknown_identifier_rejected(th):
    with pytest.raises(syntax.ParseError):
        parse_term('mystery', TermEnv(theory=th))


def test_trailing_input_rejected(env):
    with pytest.raises(syntax.ParseError):
        parse_term('p q', env)


def test_word_literal_needs_resolver(th):
    with pytest.raises(syntax.ParseError):
        parse_term('/a b/', TermEnv(theory=th))


def test_type_ascription(env):
    assert parse_term('z:Bool', env) == Var('z', BOOL)
    assert parse_term('(z:Ind) = x', env) == mk_eq(Var('z', IND), Var('x', IND))


def test_bound_names_read_back_only_as_bound(th):
    x = Var('x', IND)
    assert parse_term('\\%0:Ind. %0', TermEnv(theory=th)) == Abs(x, x)
    assert canonical_term(Abs(x, Abs(Var('y', IND), x))) == '(\\%0:Ind. (\\%1:Ind. %0))'


@pytest.mark.parametrize('text,msg', [
    ('%3', 'unbound variable %3'),
    ('%0:Ind', 'unbound variable %0'),
    ('\\%0:Ind. %1', 'unbound variable %1'),
    ('%', 'bad bound name at 0'),
    ('\\%x:Ind. %x', 'bad bound name at 1'),
    ('\\x:%0. x', "expected a type at 3, found '%0'"),
])
def test_bad_bound_names_rejected(th, text, msg):
    with pytest.raises(syntax.ParseError) as e:
        parse_term(text, TermEnv(theory=th, default_var_type=IND))
    assert str(e.value) == msg


def test_canonical_is_alpha_invariant():
    x, y = Var('x', IND), Var('y', IND)
    assert canonical_term(Abs(x, x)) == canonical_term(Abs(y, y))
    f = Var('f', FunType(IND, IND))
    assert canonical_term(Abs(x, App(f, x))) == canonical_term(Abs(y, App(f, y)))


def test_canonical_roundtrip_samples(th):
    x, p = Var('x', IND), Var('p', BOOL)
    f = Var('f', FunType(IND, BOOL))
    samples = [
        mk_conj(p, mk_not(p)),
        Abs(x, App(f, x)),
        mk_forall(x, mk_eq(App(f, x), p)),
        mk_pair(x, _proj('fst', mk_pair(x, p))),
        mk_cond(x, x, p),
        App(Abs(x, mk_eq(x, x)), x),
    ]
    env = TermEnv(theory=th)
    for t in samples:
        assert parse_term(canonical_term(t), env) == t


def test_pretty_roundtrip_samples(th, env):
    x, p = Var('x', IND), Var('p', BOOL)
    f = Var('f', FunType(IND, BOOL))
    samples = [
        mk_disj(p, mk_conj(p, mk_not(p))),
        mk_eq(mk_conj(p, p), p),
        Abs(x, mk_eq(App(f, x), p)),
        mk_cond(p, mk_not(p), p),
        mk_forall(x, mk_exists(Var('y', IND), mk_eq(x, Var('y', IND)))),
        App(Abs(x, mk_eq(x, x)), x),
    ]
    for t in samples:
        assert parse_term(pretty_term(t), env) == t


def test_pretty_theorem(th):
    p = Var('p', BOOL)
    assert syntax.pretty_theorem(kernel.reflexivity(th, p)) == '|- p = p'
    assert syntax.pretty_theorem(kernel.assume(th, p)) == 'p |- p'


def test_pretty_left_nested_rule_applications_400_deep():
    # LEFT_CHAIN's sign L(...L(B)(A)...)(A): the printer walks each
    # application spine in a loop, so 400 rule applications print under the
    # default recursion limit
    assert sys.getrecursionlimit() == 1000
    s, l, a = Var('B', IND), Var('L', FunType(IND, FunType(IND, IND))), Var('A', IND)
    for _ in range(400):
        s = App(App(l, s), a)
    assert pretty_term(s) == 'L(' * 400 + 'B' + ')(A)' * 400


def test_phon_resolver(th):
    g = kernel.Theory('ph')
    g.add_constant('//', kernel.PHON)
    g.add_constant('/a/', kernel.PHON)
    g.add_constant('/b/', kernel.PHON)
    g.add_constant('conc', FunType(kernel.PHON, FunType(kernel.PHON, kernel.PHON)))
    g.freeze()
    resolve = functools.partial(syntax.phon_term, g)
    assert resolve(()) == g.const('//')
    assert resolve(('a',)) == g.const('/a/')
    # right-nested concatenation
    t = resolve(('a', 'b', 'a'))
    assert t == syntax.mk_conc(g.const('/a/'), resolve(('b', 'a')))
    # the reader resolves /word/ literals against the env's theory
    env = TermEnv(theory=g)
    assert parse_term('/a b a/', env) == t
    assert parse_term('/a/ ++ /b/', env) == resolve(('a', 'b'))
    with pytest.raises(syntax.ParseError, match="token 'c' not in the alphabet"):
        resolve(('a', 'c'))
    for no_grammar in (None, th):
        with pytest.raises(syntax.ParseError, match='outside a grammar context'):
            syntax.phon_term(no_grammar, ('a',))


@given(FRAG)
@settings(max_examples=80, deadline=None)
def test_canonical_roundtrip_fragment(t):
    env = TermEnv(theory=_TH)
    assert parse_term(canonical_term(t), env) == t


@given(FRAG)
@settings(max_examples=80, deadline=None)
def test_pretty_roundtrip_fragment(t):
    env = TermEnv(theory=_TH, default_var_type=BOOL)
    assert parse_term(pretty_term(t), env) == t


_TH = kernel.core_theory()


# Names a printer might give bound variables (b0, b1, b0_) and names the
# derived-rule schemas use for their variables, each declared as a constant
# of the theory below and drawn as a free or bound variable at any type;
# binders may also take the names canonical printing gives them (%0, %1).
_CLASH = ('b0', 'b1', 'b0_', 'p', 'q', 'x', 'z', 'hole', 'slot')
_CLASH_TYPES = (BOOL, IND, FunType(BOOL, BOOL), FunType(IND, BOOL))


def _clash_theory():
    th = kernel.Theory('clash')
    for i, name in enumerate(_CLASH):
        th.add_constant(name, _CLASH_TYPES[i % len(_CLASH_TYPES)])
    th.freeze()
    return th


_CLASH_TH = _clash_theory()
_NAMES = st.sampled_from(_CLASH)
_BINDER_NAMES = st.sampled_from(_CLASH + ('%0', '%1'))
_CONSTS = [_CLASH_TH.const(n) for n in _CLASH]


def _leaf(ty, scope):
    """A variable named from the pool, a constant, or a variable bound in
    ``scope``, of type ``ty``."""
    leaves = [_NAMES.map(lambda n: Var(n, ty))]
    consts = [c for c in _CONSTS if c.ty == ty]
    if consts:
        leaves.append(st.sampled_from(consts))
    bound = [v for v in scope if v.ty == ty]
    if bound:
        leaves.append(st.sampled_from(bound))
    return st.one_of(leaves)


@functools.lru_cache(maxsize=None)
def _clash_term(ty, depth, scope=()):
    """Terms of type ``ty`` whose free, bound and constant names coincide;
    ``scope`` holds the variables bound around the term."""
    if depth == 0:
        return _leaf(ty, scope)
    sub = depth - 1

    def binder(dom, cod, mk):
        return _BINDER_NAMES.flatmap(lambda n: _clash_term(cod, sub, scope + (Var(n, dom),))
                              .map(functools.partial(mk, Var(n, dom))))
    parts = [_leaf(ty, scope)]
    parts += [st.builds(App, _clash_term(FunType(dom, ty), sub, scope),
                        _clash_term(dom, sub, scope)) for dom in (BOOL, IND)]
    parts.append(_clash_term(ProdType(ty, IND), sub, scope).map(functools.partial(_proj, 'fst')))
    if isinstance(ty, FunType):
        parts.append(binder(ty.dom, ty.cod, Abs))
    if isinstance(ty, ProdType):
        parts.append(st.builds(mk_pair, _clash_term(ty.left, sub, scope),
                               _clash_term(ty.right, sub, scope)))
    if ty == BOOL:
        parts.append(binder(IND, BOOL, mk_forall))
    return st.one_of(parts)


_CHILDREN = {App: ('fn', 'arg'), Abs: ('body',)}


def _open(t, depth):
    # the binder at ``depth`` opens at %<depth>, a name no free variable of a
    # clash term has, so each binder's variable is its own
    return kernel.dest_abs(t, '%%%d' % depth)


def _leaf_sites(t, scope=()):
    """(path, leaf, variables bound around it) for every leaf of ``t``."""
    if isinstance(t, (Var, kernel.Const)):
        yield (), t, scope
        return
    if isinstance(t, Abs):
        v, body = _open(t, len(scope))
        for path, leaf, bound in _leaf_sites(body, scope + (v,)):
            yield ('body',) + path, leaf, bound
        return
    for attr in _CHILDREN[type(t)]:
        for path, leaf, bound in _leaf_sites(getattr(t, attr), scope):
            yield (attr,) + path, leaf, bound


def _replace(t, path, new, depth=0):
    """``t`` with the leaf at ``path`` replaced by ``new``, which may be a
    bound variable as ``_leaf_sites`` opened it."""
    if not path:
        return new
    if isinstance(t, Abs):
        v, body = _open(t, depth)
        return Abs(v, _replace(body, path[1:], new, depth + 1))
    return type(t)(*(_replace(getattr(t, a), path[1:], new, depth) if a == path[0]
                     else getattr(t, a) for a in _CHILDREN[type(t)]))


_CLASH_TERMS = st.sampled_from(_CLASH_TYPES).flatmap(lambda ty: _clash_term(ty, 3))


@st.composite
def _one_leaf_apart(draw):
    """A clash term and a copy of it with one leaf replaced by a constant or
    a bound variable, a leaf in the scope of a bound variable of its type
    where there is one: only leaves printed without a type print alike."""
    a = draw(_CLASH_TERMS)
    sites = list(_leaf_sites(a))
    path, leaf, bound = draw(st.sampled_from(
        [s for s in sites if any(v.ty == s[1].ty for v in s[2])] or sites))
    bare = [c for c in _CONSTS if c.ty == leaf.ty] + [v for v in bound if v.ty == leaf.ty]
    return a, _replace(a, path, draw(st.sampled_from(bare or [leaf])))


@given(_CLASH_TERMS)
@settings(max_examples=300, deadline=None)
def test_canonical_roundtrip_with_clashing_names(t):
    assert parse_term(canonical_term(t), TermEnv(theory=_CLASH_TH)) == t


@given(_one_leaf_apart())
@settings(max_examples=300, deadline=None)
def test_canonical_term_is_injective_with_clashing_names(pair):
    a, b = pair
    assert (canonical_term(a) == canonical_term(b)) == (a == b)


# Terms that use every piece of the term syntax: the five infix operators,
# ~, application, pairs, fst/snd, cond and binders, at Bool, Ind, Phon, a
# product and a function type.  Free variables have one type per name, and
# binders take other names, so pretty printing captures nothing.
_OPS_TH = kernel.Theory('ops')
for _name, _ty in (('conc', FunType(PHON, FunType(PHON, PHON))), ('//', PHON),
                   ('/a/', PHON), ('/b/', PHON), ('c', IND)):
    _OPS_TH.add_constant(_name, _ty)
_OPS_TH.freeze()
_IB = FunType(IND, BOOL)
_OPS_VARS = {'p': BOOL, 'q': BOOL, 'x': IND, 'y': IND, 'u': PHON, 'v': PHON,
             'f': _IB, 'g': _IB, 'h': FunType(PHON, BOOL), 'z': ProdType(BOOL, IND)}
_OPS_CONSTS = [true_c(), false_c()] + [_OPS_TH.const(n) for n in ('c', '//', '/a/', '/b/')]
_OPS_TYPES = (BOOL, IND, PHON, ProdType(BOOL, PHON), _IB)


@functools.lru_cache(maxsize=None)
def _ops_term(ty, depth, scope=()):
    """Terms of type ``ty``; ``scope`` holds the variables bound around it."""
    leaves = ([Var(n, t) for n, t in _OPS_VARS.items() if t == ty]
              + [c for c in _OPS_CONSTS if c.ty == ty] + [v for v in scope if v.ty == ty])
    parts = [st.sampled_from(leaves)] if leaves else []
    if depth == 0:
        return st.one_of(parts)
    sub = functools.partial(_ops_term, depth=depth - 1, scope=scope)

    def binder(dom, cod, mk):
        return st.sampled_from(('k', 'm')).flatmap(
            lambda n: _ops_term(cod, depth - 1, scope + (Var(n, dom),))
            .map(functools.partial(mk, Var(n, dom))))
    if ty == BOOL:
        parts.append(sub(BOOL).map(mk_not))
        for mk in (mk_imp, mk_disj, mk_conj):
            parts.append(st.builds(mk, sub(BOOL), sub(BOOL)))
        parts += [sub(a).flatmap(lambda l: sub(l.ty).map(functools.partial(mk_eq, l)))
                  for a in (BOOL, IND, PHON)]
        parts.append(st.builds(App, sub(_IB), sub(IND)))
        parts.append(st.builds(App, st.just(Var('h', _OPS_VARS['h'])), sub(PHON)))
        parts += [binder(dom, BOOL, mk) for dom in (IND, PHON) for mk in (mk_forall, mk_exists)]
    if ty == PHON:
        parts.append(st.builds(syntax.mk_conc, sub(PHON), sub(PHON)))
    if ty == _IB:
        parts.append(binder(IND, BOOL, Abs))
    if isinstance(ty, ProdType):
        parts.append(st.builds(mk_pair, sub(ty.left), sub(ty.right)))
    parts.append(st.builds(mk_cond, sub(ty), sub(ty), sub(BOOL)))
    parts.append(st.builds(lambda a, b: _proj('fst', mk_pair(a, b)), sub(ty), sub(IND)))
    parts.append(st.builds(lambda a, b: _proj('snd', mk_pair(a, b)), sub(BOOL), sub(ty)))
    parts.append(binder(BOOL, ty, Abs).flatmap(lambda f: sub(BOOL).map(functools.partial(App, f))))
    return st.one_of(parts)


@given(st.sampled_from(_OPS_TYPES).flatmap(lambda ty: _ops_term(ty, 3)))
@settings(max_examples=300, deadline=None)
def test_roundtrip_every_operator(t):
    env = TermEnv(theory=_OPS_TH, var_types=_OPS_VARS)
    assert parse_term(pretty_term(t), env) == t
    assert parse_term(canonical_term(t), TermEnv(theory=_OPS_TH)) == t
