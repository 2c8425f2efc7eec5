"""Trusted proof kernel: types, terms, theories, theorems, primitive rules.

The kernel is a small LCF-style core for classical simply typed higher-order
logic with product types.  Everything outside this module manipulates
``Theorem`` values only through the primitive rules and axiom accessor
defined here; no other way of constructing a ``Theorem`` exists.

Design points that matter for soundness:

* Types are interned: building a type twice gives the same object, so type
  ``==`` is identity.  Type hashes are structural, so set and dict order
  never depends on object addresses.
* Terms are typed eagerly: ill-typed applications and projections cannot be
  constructed at all.  So validating a term against a theory checks only its
  leaves and binders, where types come in.
* Term equality (``==``) is alpha-equivalence.  Hypotheses are kept once
  each, in the order the derivation first meets them, so theorem printing
  is reproducible.
* The kernel is monomorphic.  The logical constant families (equality,
  description, quantifiers, the if-then-else family) are schematic: an
  instance at a concrete type is a distinct constant, generated on demand.
* Logical connectives are defined constants in the equality-based style;
  only their defining equations are axioms, next to function extensionality,
  boolean case analysis, the description axiom and surjective pairing.
* The kernel parses no text, and prints none outside ``repr``: axiom
  schemas take structured type arguments.

Every value here (types, terms, frozen theories, theorems) is immutable and
safe to share across threads; theory construction is single-threaded.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType


class KernelError(Exception):
    """Base class for kernel failures."""


class TypingError(KernelError):
    """Ill-typed term formation or a type mismatch in a rule."""


class RuleError(KernelError):
    """A primitive or derived rule was applied outside its side conditions."""


class TheoryError(KernelError):
    """Bad theory construction or lookup (unknown constant, axiom, ...)."""


# ---------------------------------------------------------------------------
# Types

class Type:
    __slots__ = ('_hash',)
    _table = {}   # (tag, *parts) -> the type; types are few, so never pruned

    def __new__(cls, *parts):
        key = (cls._tag, *parts)
        ty = Type._table.get(key)
        if ty is None:
            ty = object.__new__(cls)
            for slot, part in zip(cls.__slots__, parts):
                setattr(ty, slot, part)
            ty._hash = hash(key)   # structural, not by address
            ty = Type._table.setdefault(key, ty)  # one object when threads race
        return ty

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # a copy or unpickled type is the interned one
        return type(self), tuple(getattr(self, slot) for slot in self.__slots__)

    def __repr__(self):
        return type_to_str(self)


class BaseType(Type):
    __slots__ = ('name',)
    _tag = 'base'


class FunType(Type):
    __slots__ = ('dom', 'cod')
    _tag = 'fun'


class ProdType(Type):
    __slots__ = ('left', 'right')
    _tag = 'prod'


BOOL = BaseType('Bool')
IND = BaseType('Ind')
PHON = BaseType('Phon')

CORE_BASE_TYPES = ('Bool', 'Ind', 'Phon')


def type_to_str(ty):
    """Canonical fully parenthesized ASCII rendering of a type."""
    if isinstance(ty, BaseType):
        return ty.name
    if isinstance(ty, FunType):
        return '(%s -> %s)' % (type_to_str(ty.dom), type_to_str(ty.cod))
    if isinstance(ty, ProdType):
        return '(%s * %s)' % (type_to_str(ty.left), type_to_str(ty.right))
    raise TypingError('not a type: %r' % (ty,))


# ---------------------------------------------------------------------------
# Terms

class Term:
    __slots__ = ('ty', '_fvs', '_h')

    def __repr__(self):
        from . import syntax
        return syntax.pretty_term(self)

    @property
    def free_vars(self):
        if self._fvs is None:
            self._fvs = self._compute_fvs()
        return self._fvs

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return _alpha_eq(self, other, {}, {}, 0)

    def __hash__(self):
        if self._h is None:
            self._h = _alpha_hash(self, {}, 0)
        return self._h


class Var(Term):
    __slots__ = ('name',)

    def __init__(self, name, ty):
        if not isinstance(ty, Type):
            raise TypingError('variable %s needs a Type' % name)
        self.name = name
        self.ty = ty
        self._fvs = None
        self._h = None

    def _compute_fvs(self):
        return frozenset([(self.name, self.ty)])


class Const(Term):
    __slots__ = ('name', 'targs', '_display')

    def __init__(self, name, ty, targs=()):
        self.name = name
        self.ty = ty
        self.targs = tuple(targs)
        self._fvs = frozenset()
        self._h = None
        self._display = None

    @property
    def display_name(self):
        """``name[T1,...]`` for a schematic instance, else ``name``; formatted
        on first use only, since most constants are never printed."""
        if self._display is None:
            self._display = ('%s[%s]' % (self.name, ','.join(map(type_to_str, self.targs)))
                             if self.targs else self.name)
        return self._display


class App(Term):
    __slots__ = ('fn', 'arg')

    def __init__(self, fn, arg):
        if not isinstance(fn.ty, FunType):
            raise TypingError('applying non-function of type %s' % type_to_str(fn.ty))
        if fn.ty.dom != arg.ty:
            raise TypingError('argument type %s does not match domain %s'
                              % (type_to_str(arg.ty), type_to_str(fn.ty.dom)))
        self.fn = fn
        self.arg = arg
        self.ty = fn.ty.cod
        self._fvs = None
        self._h = None

    def _compute_fvs(self):
        return self.fn.free_vars | self.arg.free_vars


class Abs(Term):
    __slots__ = ('var', 'body')

    def __init__(self, var, body):
        if not isinstance(var, Var):
            raise TypingError('binder must be a variable')
        self.var = var
        self.body = body
        self.ty = FunType(var.ty, body.ty)
        self._fvs = None
        self._h = None

    def _compute_fvs(self):
        return self.body.free_vars - {(self.var.name, self.var.ty)}


class Pair(Term):
    __slots__ = ('left', 'right')

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.ty = ProdType(left.ty, right.ty)
        self._fvs = None
        self._h = None

    def _compute_fvs(self):
        return self.left.free_vars | self.right.free_vars


class Proj(Term):
    __slots__ = ('index', 'arg')

    def __init__(self, index, arg):
        if index not in (1, 2):
            raise TypingError('projection index must be 1 or 2')
        if not isinstance(arg.ty, ProdType):
            raise TypingError('projecting from non-product of type %s'
                              % type_to_str(arg.ty))
        self.index = index
        self.arg = arg
        self.ty = arg.ty.left if index == 1 else arg.ty.right
        self._fvs = None
        self._h = None

    def _compute_fvs(self):
        return self.arg.free_vars


def _alpha_eq(t1, t2, env1, env2, depth):
    # outside binders only: under them the two envs may map one name apart
    if t1 is t2 and depth == 0:
        return True
    if isinstance(t1, Var):
        if not isinstance(t2, Var):
            return False
        k1, k2 = (t1.name, t1.ty), (t2.name, t2.ty)
        d1, d2 = env1.get(k1), env2.get(k2)
        if d1 is None and d2 is None:
            return k1 == k2
        return d1 == d2
    if isinstance(t1, Const):
        return (isinstance(t2, Const) and t1.name == t2.name
                and t1.targs == t2.targs and t1.ty == t2.ty)
    if isinstance(t1, App):
        return (isinstance(t2, App)
                and _alpha_eq(t1.fn, t2.fn, env1, env2, depth)
                and _alpha_eq(t1.arg, t2.arg, env1, env2, depth))
    if isinstance(t1, Abs):
        if not (isinstance(t2, Abs) and t1.var.ty == t2.var.ty):
            return False
        e1 = dict(env1)
        e2 = dict(env2)
        e1[(t1.var.name, t1.var.ty)] = depth
        e2[(t2.var.name, t2.var.ty)] = depth
        return _alpha_eq(t1.body, t2.body, e1, e2, depth + 1)
    if isinstance(t1, Pair):
        return (isinstance(t2, Pair)
                and _alpha_eq(t1.left, t2.left, env1, env2, depth)
                and _alpha_eq(t1.right, t2.right, env1, env2, depth))
    if isinstance(t1, Proj):
        return (isinstance(t2, Proj) and t1.index == t2.index
                and _alpha_eq(t1.arg, t2.arg, env1, env2, depth))
    raise KernelError('not a term: %r' % (t1,))


def _alpha_hash(t, env, depth):
    if isinstance(t, Var):
        d = env.get((t.name, t.ty))
        if d is None:
            return hash(('fv', t.name, t.ty))
        return hash(('bv', d))
    if isinstance(t, Const):
        return hash(('c', t.name, t.targs))
    if isinstance(t, App):
        # closed-below-here subterms hash independently of the binder env
        if not env or not t.free_vars:
            if t._h is None:
                t._h = hash(('a', _alpha_hash(t.fn, {}, 0), _alpha_hash(t.arg, {}, 0)))
            return t._h
        return hash(('a', _alpha_hash(t.fn, env, depth), _alpha_hash(t.arg, env, depth)))
    if isinstance(t, Abs):
        e = dict(env)
        e[(t.var.name, t.var.ty)] = depth
        return hash(('l', t.var.ty, _alpha_hash(t.body, e, depth + 1)))
    if isinstance(t, Pair):
        return hash(('p', _alpha_hash(t.left, env, depth), _alpha_hash(t.right, env, depth)))
    if isinstance(t, Proj):
        return hash(('j', t.index, _alpha_hash(t.arg, env, depth)))
    raise KernelError('not a term: %r' % (t,))


def free_vars(t):
    """The free variables of ``t`` as a set of Var objects."""
    return {Var(n, ty) for (n, ty) in t.free_vars}


def fresh_name(base, avoid):
    """First of base, base_1, base_2, ... whose name is not in ``avoid``."""
    if base not in avoid:
        return base
    root = base
    for i in itertools.count(1):
        cand = '%s_%d' % (root, i)
        if cand not in avoid:
            return cand


def _avoid_names(terms):
    names = set()
    for t in terms:
        for (n, _ty) in t.free_vars:
            names.add(n)
    return names


def subst_parallel(t, mapping):
    """Capture-avoiding parallel substitution of free variables.

    ``mapping`` maps Var -> Term; each replacement must have the variable's
    type.  Bound variables are renamed deterministically when they would
    capture a free variable of a replacement.
    """
    for v, r in mapping.items():
        if not isinstance(v, Var):
            raise TypingError('substitution domain must be variables')
        if v.ty != r.ty:
            raise TypingError('substituting %s-typed term for %s-typed variable %s'
                              % (type_to_str(r.ty), type_to_str(v.ty), v.name))
    return _subst(t, {(v.name, v.ty): r for v, r in mapping.items()})


def _subst(t, m):
    if isinstance(t, Var):
        return m.get((t.name, t.ty), t)
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        fn, arg = _subst(t.fn, m), _subst(t.arg, m)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Pair):
        left, right = _subst(t.left, m), _subst(t.right, m)
        return t if left is t.left and right is t.right else Pair(left, right)
    if isinstance(t, Proj):
        arg = _subst(t.arg, m)
        return t if arg is t.arg else Proj(t.index, arg)
    if isinstance(t, Abs):
        key = (t.var.name, t.var.ty)
        live = {k: r for k, r in m.items() if k != key and k in t.body.free_vars}
        if not live:
            return t
        if any(key in r.free_vars for r in live.values()):
            avoid = _avoid_names(live.values())
            avoid |= {n for (n, _ty) in t.body.free_vars}
            avoid |= {n for (n, _ty) in live}
            nv = Var(fresh_name(t.var.name, avoid), t.var.ty)
            body = _subst(t.body, {key: nv})
            return Abs(nv, _subst(body, live))
        return Abs(t.var, _subst(t.body, live))
    raise KernelError('not a term: %r' % (t,))


def substitute(t, v, r):
    """Replace free occurrences of variable ``v`` in ``t`` by ``r``."""
    return subst_parallel(t, {v: r})


def beta_normalize(t):
    """Plain beta/projection normal form, computed outside the kernel rules.

    Simply typed terms are strongly normalizing, so this terminates.
    """
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, Abs):
        body = beta_normalize(t.body)
        return t if body is t.body else Abs(t.var, body)
    if isinstance(t, Pair):
        return Pair(beta_normalize(t.left), beta_normalize(t.right))
    if isinstance(t, Proj):
        arg = beta_normalize(t.arg)
        if isinstance(arg, Pair):
            return arg.left if t.index == 1 else arg.right
        return Proj(t.index, arg)
    if isinstance(t, App):
        fn = beta_normalize(t.fn)
        arg = beta_normalize(t.arg)
        if isinstance(fn, Abs):
            return beta_normalize(substitute(fn.body, fn.var, arg))
        return App(fn, arg)
    raise KernelError('not a term: %r' % (t,))


# ---------------------------------------------------------------------------
# Logical constant families

def _fun(*tys):
    ty = tys[-1]
    for d in reversed(tys[:-1]):
        ty = FunType(d, ty)
    return ty


def eq_c(ty):
    return Const('eq', _fun(ty, ty, BOOL), (ty,))


def iota_c(ty):
    return Const('iota', FunType(FunType(ty, BOOL), ty), (ty,))


def forall_c(ty):
    return Const('forall', FunType(FunType(ty, BOOL), BOOL), (ty,))


def exists_c(ty):
    return Const('exists', FunType(FunType(ty, BOOL), BOOL), (ty,))


def cond_c(ty):
    return Const('cond', FunType(ProdType(ty, ProdType(ty, BOOL)), ty), (ty,))


def true_c():
    return Const('true', BOOL)


def false_c():
    return Const('false', BOOL)


def not_c():
    return Const('not', FunType(BOOL, BOOL))


def and_c():
    return Const('and', _fun(BOOL, BOOL, BOOL))


def or_c():
    return Const('or', _fun(BOOL, BOOL, BOOL))


def imp_c():
    return Const('imp', _fun(BOOL, BOOL, BOOL))


_NULLARY_LOGICAL = {'true': true_c, 'false': false_c, 'not': not_c,
                    'and': and_c, 'or': or_c, 'imp': imp_c}
_UNARY_LOGICAL = {'eq': eq_c, 'iota': iota_c, 'forall': forall_c,
                  'exists': exists_c, 'cond': cond_c}
LOGICAL_NAMES = frozenset(_NULLARY_LOGICAL) | frozenset(_UNARY_LOGICAL)


def logical_const(name, targs=()):
    """The schematic logical constant ``name`` at the given type arguments."""
    if name in _NULLARY_LOGICAL:
        if targs:
            raise TheoryError('%s takes no type argument' % name)
        return _NULLARY_LOGICAL[name]()
    if name in _UNARY_LOGICAL:
        if len(targs) != 1:
            raise TheoryError('%s takes one type argument' % name)
        return _UNARY_LOGICAL[name](targs[0])
    raise TheoryError('unknown logical constant %s' % name)


# Term builders for the connectives.

def mk_eq(a, b):
    if a.ty != b.ty:
        raise TypingError('equation between %s and %s'
                          % (type_to_str(a.ty), type_to_str(b.ty)))
    return App(App(eq_c(a.ty), a), b)


def dest_eq(t):
    """Split ``a = b`` into (a, b); None when not an equation."""
    if (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const) and t.fn.fn.name == 'eq'):
        return t.fn.arg, t.arg
    return None


def _mk_bin(c, a, b):
    return App(App(c, a), b)


def mk_conj(a, b):
    return _mk_bin(and_c(), a, b)


def mk_disj(a, b):
    return _mk_bin(or_c(), a, b)


def mk_imp(a, b):
    return _mk_bin(imp_c(), a, b)


def mk_not(a):
    return App(not_c(), a)


def mk_forall(v, body):
    return App(forall_c(v.ty), Abs(v, body))


def mk_exists(v, body):
    return App(exists_c(v.ty), Abs(v, body))


def mk_cond(x, y, z):
    """The if-then-else application C(x, y, z) with a right-nested triple."""
    if x.ty != y.ty:
        raise TypingError('branches of cond must share a type')
    if z.ty != BOOL:
        raise TypingError('cond condition must be Bool')
    return App(cond_c(x.ty), Pair(x, Pair(y, z)))


def dest_bin(name, t):
    if (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const) and t.fn.fn.name == name):
        return t.fn.arg, t.arg
    return None


def dest_conj(t):
    return dest_bin('and', t)


def dest_disj(t):
    return dest_bin('or', t)


def dest_imp(t):
    return dest_bin('imp', t)


def dest_not(t):
    if isinstance(t, App) and isinstance(t.fn, Const) and t.fn.name == 'not':
        return t.arg
    return None


def dest_forall(t):
    if (isinstance(t, App) and isinstance(t.fn, Const)
            and t.fn.name == 'forall' and isinstance(t.arg, Abs)):
        return t.arg.var, t.arg.body
    return None


def dest_cond(t):
    """Split C(x, y, z) into (x, y, z); None when not of that shape."""
    if (isinstance(t, App) and isinstance(t.fn, Const) and t.fn.name == 'cond'
            and isinstance(t.arg, Pair) and isinstance(t.arg.right, Pair)):
        return t.arg.left, t.arg.right.left, t.arg.right.right
    return None


def is_true(t):
    return isinstance(t, Const) and t.name == 'true'


def is_false(t):
    return isinstance(t, Const) and t.name == 'false'


# ---------------------------------------------------------------------------
# Defining equations of the defined logical constants

def _def_rhs(name, targs):
    p = Var('p', BOOL)
    q = Var('q', BOOL)
    if name == 'true':
        i = Abs(p, p)
        return mk_eq(i, i)
    if name == 'and':
        f = Var('f', _fun(BOOL, BOOL, BOOL))
        lhs = Abs(f, App(App(f, p), q))
        rhs = Abs(f, App(App(f, true_c()), true_c()))
        return Abs(p, Abs(q, mk_eq(lhs, rhs)))
    if name == 'imp':
        return Abs(p, Abs(q, mk_eq(mk_conj(p, q), p)))
    if name == 'forall':
        (a,) = targs
        pr = Var('P', FunType(a, BOOL))
        x = Var('x', a)
        return Abs(pr, mk_eq(pr, Abs(x, true_c())))
    if name == 'exists':
        (a,) = targs
        pr = Var('P', FunType(a, BOOL))
        x = Var('x', a)
        body = mk_imp(mk_forall(x, mk_imp(App(pr, x), q)), q)
        return Abs(pr, mk_forall(q, body))
    if name == 'or':
        r = Var('r', BOOL)
        return Abs(p, Abs(q, mk_forall(r, mk_imp(mk_imp(p, r), mk_imp(mk_imp(q, r), r)))))
    if name == 'false':
        return App(forall_c(BOOL), Abs(p, p))
    if name == 'not':
        return Abs(p, mk_imp(p, false_c()))
    if name == 'cond':
        (a,) = targs
        t = Var('t', ProdType(a, ProdType(a, BOOL)))
        w = Var('w', a)
        third = Proj(2, Proj(2, t))
        first = Proj(1, t)
        second = Proj(1, Proj(2, t))
        body = mk_disj(mk_conj(third, mk_eq(w, first)),
                       mk_conj(mk_not(third), mk_eq(w, second)))
        return Abs(t, App(iota_c(a), Abs(w, body)))
    raise TheoryError('no definition for %s' % name)


_DEFINED_ORDER = ('true', 'and', 'imp', 'forall', 'exists', 'or', 'false', 'not', 'cond')

# axiom schema name -> number of type arguments
_SCHEMA_ARITY = {'bool-cases': 0, 'description': 1, 'ext': 2, 'pairing': 2,
                 **{'def.' + c: int(c in _UNARY_LOGICAL) for c in _DEFINED_ORDER}}


# ---------------------------------------------------------------------------
# Theories

class Theory:
    """A named signature plus axiom set; frozen before any proving happens.

    The logical core (schematic constants and logical axiom schemas) is
    present in every theory.  Declared base types, constants and named
    axioms are fixed at freeze time.
    """

    def __init__(self, name='core'):
        self.name = name
        self.base_types = set(CORE_BASE_TYPES)
        self.constants = {}
        self.axioms = {}
        self.frozen = False
        self._derived_cache = {}

    def add_base_type(self, name):
        self._check_mutable()
        if name in self.base_types:
            raise TheoryError('duplicate base type %s' % name)
        self.base_types.add(name)

    def add_constant(self, name, ty):
        self._check_mutable()
        if name in self.constants or name in LOGICAL_NAMES:
            raise TheoryError('duplicate constant %s' % name)
        self._check_type(ty)
        self.constants[name] = ty

    def add_axiom(self, name, prop):
        self._check_mutable()
        if name in _SCHEMA_ARITY or '[' in name:
            raise TheoryError('axiom name %s is reserved for the logical schemas' % name)
        if name in self.axioms:
            raise TheoryError('duplicate axiom %s' % name)
        if prop.ty != BOOL:
            raise TheoryError('axiom %s is not Bool-typed' % name)
        type_of(prop, self, _allow_unfrozen=True)
        self.axioms[name] = prop

    def freeze(self):
        """Fix the signature and axioms; only the derived-rule cache stays
        writable."""
        self.frozen = True
        self.base_types = frozenset(self.base_types)
        self.constants = MappingProxyType(self.constants)
        self.axioms = MappingProxyType(self.axioms)
        return self

    def const(self, name):
        """The declared constant ``name`` as a term."""
        if name not in self.constants:
            raise TheoryError('unknown constant %s' % name)
        return Const(name, self.constants[name])

    def _check_mutable(self):
        if self.frozen:
            raise TheoryError('theory %s is frozen' % self.name)

    def _check_type(self, ty):
        if isinstance(ty, BaseType):
            if ty.name not in self.base_types:
                raise TheoryError('unknown base type %s' % ty.name)
        elif isinstance(ty, FunType):
            self._check_type(ty.dom)
            self._check_type(ty.cod)
        elif isinstance(ty, ProdType):
            self._check_type(ty.left)
            self._check_type(ty.right)
        else:
            raise TypingError('not a type: %r' % (ty,))


def core_theory(name='core'):
    """A fresh frozen theory containing just the logical core."""
    return Theory(name).freeze()


def type_of(t, th, _allow_unfrozen=False):
    """The type of ``t``, after validating it against theory ``th``.

    Terms are well-typed by construction and a node's type is built from its
    parts', so only leaves and binders are checked: each constant is declared
    (its type was checked then) or logical at its proper type, and each
    variable's and binder's type uses declared base types.  A bad leaf
    reports an undeclared base type in its own type first.
    """
    if not _allow_unfrozen and not th.frozen:
        raise TheoryError('theory %s is not frozen' % th.name)
    _validate(t, th)
    return t.ty


def _validate(t, th):
    if isinstance(t, Const):
        declared = th.constants.get(t.name)
        if declared is None:
            th._check_type(t.ty)
            if t.name not in LOGICAL_NAMES:
                raise TheoryError('unknown constant %s' % t.name)
            if logical_const(t.name, t.targs).ty is not t.ty:
                raise TypingError('logical constant %s at wrong type' % t.display_name)
        elif declared is not t.ty:
            th._check_type(t.ty)
            raise TypingError('constant %s at type %s, declared %s'
                              % (t.name, type_to_str(t.ty), type_to_str(declared)))
    elif isinstance(t, App):
        _validate(t.fn, th)
        _validate(t.arg, th)
    elif isinstance(t, Pair):
        _validate(t.left, th)
        _validate(t.right, th)
    elif isinstance(t, Var):
        th._check_type(t.ty)
    elif isinstance(t, Abs):
        th._check_type(t.var.ty)
        _validate(t.body, th)
    elif isinstance(t, Proj):
        _validate(t.arg, th)
    else:
        raise KernelError('not a term: %r' % (t,))


# ---------------------------------------------------------------------------
# Theorems

_KERNEL_TOKEN = object()


class Theorem:
    """A certified judgement ``hyps |- concl`` in a fixed theory.

    Instances can only be produced by the primitive rules and the axiom
    accessor in this module (and by the derived rules built on them).  Each
    theorem records the rule and arguments that produced it, which is what
    proof-trace export walks.
    """

    __slots__ = ('hyps', 'concl', 'theory', 'rule', 'args')

    def __init__(self, hyps, concl, theory, rule, args, _token=None):
        if _token is not _KERNEL_TOKEN:
            raise KernelError('theorems can only be built by kernel rules')
        self.hyps = hyps
        self.concl = concl
        self.theory = theory
        self.rule = rule
        self.args = args

    def __repr__(self):
        from . import syntax
        return syntax.pretty_theorem(self)


def _thm(th, hyps, concl, rule, args):
    if concl.ty != BOOL:
        raise TypingError('theorem conclusion must be Bool')
    # alpha-equal hypotheses are kept once, the first in derivation order
    hyps = tuple(dict.fromkeys(hyps)) if len(hyps) > 1 else tuple(hyps)
    return Theorem(hyps, concl, th, rule, args, _token=_KERNEL_TOKEN)


def _same_theory(*thms):
    th = thms[0].theory
    for t in thms[1:]:
        if t.theory is not th:
            raise RuleError('mixing theorems from theories %s and %s'
                            % (th.name, t.theory.name))
    return th


# ---------------------------------------------------------------------------
# Primitive rules

def reflexivity(th, t):
    """|- t = t"""
    type_of(t, th)
    return _thm(th, (), mk_eq(t, t), 'reflexivity', (t,))


def symmetry(thm):
    """From A |- a = b derive A |- b = a."""
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('symmetry needs an equation')
    a, b = e
    return _thm(thm.theory, thm.hyps, mk_eq(b, a), 'symmetry', (thm,))


def transitivity(thm1, thm2):
    """From A |- a = b and B |- b = c derive A u B |- a = c."""
    th = _same_theory(thm1, thm2)
    e1, e2 = dest_eq(thm1.concl), dest_eq(thm2.concl)
    if e1 is None or e2 is None:
        raise RuleError('transitivity needs equations')
    if e1[1] != e2[0]:
        raise RuleError('transitivity: middle terms differ')
    return _thm(th, thm1.hyps + thm2.hyps, mk_eq(e1[0], e2[1]),
                'transitivity', (thm1, thm2))


def congruence(thm_fun, thm_arg):
    """From A |- f = g and B |- a = b derive A u B |- f a = g b."""
    th = _same_theory(thm_fun, thm_arg)
    ef, ea = dest_eq(thm_fun.concl), dest_eq(thm_arg.concl)
    if ef is None or ea is None:
        raise RuleError('congruence needs equations')
    f, g = ef
    a, b = ea
    if not isinstance(f.ty, FunType) or f.ty.dom != a.ty:
        raise RuleError('congruence: types do not fit')
    return _thm(th, thm_fun.hyps + thm_arg.hyps, mk_eq(App(f, a), App(g, b)),
                'congruence', (thm_fun, thm_arg))


def abstraction(v, thm):
    """From A |- a = b derive A |- (\\v. a) = (\\v. b), v not free in A."""
    if not isinstance(v, Var):
        raise RuleError('abstraction needs a variable')
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('abstraction needs an equation')
    key = (v.name, v.ty)
    for h in thm.hyps:
        if key in h.free_vars:
            raise RuleError('abstraction variable %s free in a hypothesis' % v.name)
    a, b = e
    return _thm(thm.theory, thm.hyps, mk_eq(Abs(v, a), Abs(v, b)),
                'abstraction', (v, thm))


def beta_conversion(th, redex):
    """|- (\\x. b) a = b[a/x]"""
    type_of(redex, th)
    if not (isinstance(redex, App) and isinstance(redex.fn, Abs)):
        raise RuleError('beta_conversion needs a beta redex')
    contractum = substitute(redex.fn.body, redex.fn.var, redex.arg)
    return _thm(th, (), mk_eq(redex, contractum), 'beta_conversion', (redex,))


def pair_beta(th, redex):
    """|- fst <a, b> = a  (or snd <a, b> = b)"""
    type_of(redex, th)
    if not (isinstance(redex, Proj) and isinstance(redex.arg, Pair)):
        raise RuleError('pair_beta needs a projection of a pair')
    val = redex.arg.left if redex.index == 1 else redex.arg.right
    return _thm(th, (), mk_eq(redex, val), 'pair_beta', (redex,))


def assume(th, p):
    """{p} |- p"""
    if type_of(p, th) != BOOL:
        raise RuleError('assumption must be Bool-typed')
    return _thm(th, (p,), p, 'assume', (p,))


def modus_ponens_eq(thm_eq, thm):
    """From A |- p = q and B |- p derive A u B |- q."""
    th = _same_theory(thm_eq, thm)
    e = dest_eq(thm_eq.concl)
    if e is None or e[0].ty != BOOL:
        raise RuleError('modus_ponens_eq needs a Bool equation')
    if e[0] != thm.concl:
        raise RuleError('modus_ponens_eq: conclusion does not match equation')
    return _thm(th, thm_eq.hyps + thm.hyps, e[1], 'modus_ponens_eq', (thm_eq, thm))


def deduct_antisym(thm1, thm2):
    """From A |- c1 and B |- c2 derive (A - {c2}) u (B - {c1}) |- c1 = c2."""
    th = _same_theory(thm1, thm2)
    hyps = tuple(h for h in thm1.hyps if h != thm2.concl)
    hyps += tuple(h for h in thm2.hyps if h != thm1.concl)
    return _thm(th, hyps, mk_eq(thm1.concl, thm2.concl),
                'deduct_antisym', (thm1, thm2))


def instantiate(thm, mapping):
    """Parallel substitution of terms for free variables, in hypotheses too."""
    items = sorted(mapping.items(), key=lambda kv: (kv[0].name, type_to_str(kv[0].ty)))
    for v, r in items:
        type_of(r, thm.theory)
        if v.ty != r.ty:
            raise RuleError('instantiating %s at the wrong type' % v.name)
    m = dict(items)
    hyps = tuple(subst_parallel(h, m) for h in thm.hyps)
    concl = subst_parallel(thm.concl, m)
    return _thm(thm.theory, hyps, concl, 'instantiate', (thm, tuple(items)))


PRIMITIVE_RULES = ('reflexivity', 'symmetry', 'transitivity', 'congruence',
                   'abstraction', 'beta_conversion', 'pair_beta', 'assume',
                   'modus_ponens_eq', 'deduct_antisym', 'instantiate', 'axiom')


# ---------------------------------------------------------------------------
# Axioms

def axiom(th, name, targs=()):
    """The axiom ``name`` of ``th``, at type arguments ``targs``, as a
    theorem with no hypotheses.

    The logical axiom schemas are generated on demand, each with a fixed
    number of type arguments: ``bool-cases`` (none), ``description`` (one),
    ``ext`` and ``pairing`` (two), and ``def.<const>``, the defining equation
    of a defined logical constant (one for ``forall``, ``exists`` and
    ``cond``, none otherwise).  The theorem records an instance as
    ``name[T1,...]``.  Named (grammar) axioms take no type arguments and are
    looked up in the theory's axiom table.
    """
    if not th.frozen:
        raise TheoryError('theory %s is not frozen' % th.name)
    targs = tuple(targs)
    label = '%s[%s]' % (name, ','.join(map(type_to_str, targs))) if targs else name
    arity = _SCHEMA_ARITY.get(name)
    if arity is None:
        if targs or name not in th.axioms:
            raise TheoryError('unknown axiom %s' % label)
        prop = th.axioms[name]
    elif len(targs) != arity:
        raise TheoryError('axiom %s takes %d type arguments, got %d'
                          % (name, arity, len(targs)))
    else:
        for ty in targs:
            th._check_type(ty)
        prop = _schema(name, targs)
    return _thm(th, (), prop, 'axiom', (label,))


def _schema(name, targs):
    if name == 'bool-cases':
        z = Var('z', BOOL)
        return mk_forall(z, mk_disj(mk_eq(z, true_c()), mk_eq(z, false_c())))
    if name == 'description':
        (a,) = targs
        x = Var('x', a)
        y = Var('y', a)
        return mk_forall(x, mk_eq(App(iota_c(a), Abs(y, mk_eq(y, x))), x))
    if name == 'ext':
        a, b = targs
        f = Var('f', FunType(a, b))
        g = Var('g', FunType(a, b))
        x = Var('x', a)
        inner = mk_forall(x, mk_eq(App(f, x), App(g, x)))
        return mk_forall(f, mk_forall(g, mk_imp(inner, mk_eq(f, g))))
    if name == 'pairing':
        a, b = targs
        p = Var('p', ProdType(a, b))
        return mk_forall(p, mk_eq(Pair(Proj(1, p), Proj(2, p)), p))
    cname = name[len('def.'):]
    return mk_eq(logical_const(cname, targs), _def_rhs(cname, targs))
