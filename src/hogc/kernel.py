"""Trusted proof kernel: types, terms, theories, theorems, primitive rules.

The kernel is a small LCF-style core for classical simply typed higher-order
logic with product types.  Its terms are variables, constants, bound
variables, applications and abstractions; pairs and their projections are
logical constants like the rest.  Everything outside this module manipulates
``Theorem`` values only through the primitive rules and axiom accessor
defined here; no other way of constructing a ``Theorem`` exists.

Design points that matter for soundness:

* Types are interned: building a type twice gives the same object, so type
  ``==`` is identity; type hashes are structural, not by address.
* Terms are interned too, locally nameless: a bound variable is a de Bruijn
  index (``Bound``), made only by ``Abs`` closing its body, so it has its
  binder's type; free variables and constants keep their names.  So
  building an alpha-equivalent term gives the same object, and term ``==``
  and hash are by identity, so code that prints or proves sorts a set of
  terms before it iterates it.  Each node's free-variable set is computed
  once, when it is interned.  The table holds terms weakly.  An ``App``,
  most nodes, is keyed by its two children themselves and interned inline,
  with no helper call when the table has no entry for it yet.
* An ``Abs`` is its binder's type and its body, and keeps no name.
  ``dest_abs`` opens a binder at a name its caller gives, renamed only when
  it clashes with a free variable of the body.  Substitution cannot capture;
  it walks only the subterms that hold a substituted variable, and an
  instantiation checks its mapping once for its conclusion and hypotheses.
* Terms are typed eagerly: ill-typed applications cannot be constructed at
  all, so a rule leaves the typing of the terms it builds to the
  constructors.  Validating a term against a theory checks only its
  leaves and binders, where types come in, and a node validated against a
  frozen theory is not visited again for it.  A frozen theory rejects every
  attribute assignment.
* Hypotheses are kept once each, in the order the derivation first meets
  them, so theorem printing is reproducible.
* The kernel is monomorphic.  The logical constant families (equality,
  description, quantifiers, the if-then-else family, pairing and the
  projections) are schematic: an instance at concrete types is a distinct
  constant, generated on demand.
* Logical connectives are defined constants in the equality-based style;
  only their defining equations are axioms, next to function extensionality,
  boolean case analysis, the description axiom, surjective pairing and the
  two projection laws.
* The kernel parses no text, and prints none outside ``repr``: axiom
  schemas take structured type arguments.

Every value here (types, terms, frozen theories, theorems) is immutable and
safe to share across threads, but for a term's validation mark, a cache that
a race can at worst recompute; theory construction is single-threaded.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from weakref import ref as _weakref
from _weakref import _remove_dead_weakref


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
    __slots__ = ('_hash', '_str')
    _table = {}   # (tag, *parts) -> the type; types are few, so never pruned

    def __new__(cls, *parts):
        key = (cls._tag, *parts)
        ty = Type._table.get(key)
        if ty is None:
            ty = object.__new__(cls)
            for slot, part in zip(cls.__slots__, parts):
                setattr(ty, slot, part)
            ty._hash = hash(key)   # structural, not by address
            ty._str = cls._fmt % (parts if cls is BaseType else tuple(map(type_to_str, parts)))
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
    _tag, _fmt = 'base', '%s'


class FunType(Type):
    __slots__ = ('dom', 'cod')
    _tag, _fmt = 'fun', '(%s -> %s)'


class ProdType(Type):
    __slots__ = ('left', 'right')
    _tag, _fmt = 'prod', '(%s * %s)'


BOOL = BaseType('Bool')
IND = BaseType('Ind')
PHON = BaseType('Phon')

CORE_BASE_TYPES = ('Bool', 'Ind', 'Phon')


def type_to_str(ty):
    """Canonical fully parenthesized ASCII rendering of a type, made once,
    when the type is interned."""
    if not isinstance(ty, Type):
        raise TypingError('not a type: %r' % (ty,))
    return ty._str


# ---------------------------------------------------------------------------
# Terms

_terms = {}   # intern key -> weak reference to the one live term with that key
_NO_REF = type(None)   # what _terms.get(key, _NO_REF)() calls for a missing key: None
_NO_VARS = frozenset()


class _Ref(_weakref):
    """A weak reference that knows its key; the C constructor builds it."""
    __slots__ = ('key',)


def _forget(ref):
    _remove_dead_weakref(_terms, ref.key)


def _intern(t, key, ty, free_vars, loose):
    """Enter the new node ``t``, its own fields already set, under ``key``
    with its type, free variables (None for a variable, whose set holds
    itself) and the number of binders it needs around it to be closed; the
    term already there wins when threads race."""
    t.ty, t._loose, t._checked = ty, loose, None
    t.free_vars = frozenset((t,)) if free_vars is None else free_vars
    ref = _Ref(t, _forget)
    ref.key = key
    while True:
        old = _terms.setdefault(key, ref)
        if old is ref:
            return t
        live = old()
        if live is not None:
            return live
        _remove_dead_weakref(_terms, key)   # only if still dead: no lost update


class Term:
    """A term.  Building a term twice gives the same object: a node's key
    holds its children, or their ids, which stay valid while the node lives,
    and the table holds terms weakly, so dead terms go."""

    __slots__ = ('ty', 'free_vars', '_loose', '_checked', '__weakref__')
    _children = ()   # the attributes that hold subterms

    def __reduce__(self):   # a copied or unpickled term is the interned one
        return type(self), tuple(getattr(self, a) for a in self._args)

    def __repr__(self):
        from . import syntax
        return syntax.pretty_term(self)


class Var(Term):
    __slots__ = ('name',)
    _args = ('name', 'ty')

    def __new__(cls, name, ty):
        key = ('v', name, id(ty))
        t = _terms.get(key, _NO_REF)()
        if t is None:
            if not isinstance(ty, Type):
                raise TypingError('variable %s needs a Type' % name)
            t = object.__new__(cls)
            t.name = name
            t = _intern(t, key, ty, None, 0)
        return t


class Const(Term):
    __slots__ = ('name', 'targs', 'display_name')
    _args = ('name', 'ty', 'targs')

    def __new__(cls, name, ty, targs=()):
        targs = tuple(targs)
        key = ('c', name, id(ty), *map(id, targs))
        t = _terms.get(key, _NO_REF)()
        if t is None:
            if not all(isinstance(a, Type) for a in (ty,) + targs):
                raise TypingError('constant %s needs Types' % name)
            # name[T1,...] for a schematic instance
            display = '%s[%s]' % (name, ','.join(map(type_to_str, targs))) if targs else name
            t = object.__new__(cls)
            t.name, t.targs, t.display_name = name, targs, display
            t = _intern(t, key, ty, _NO_VARS, 0)
        return t


class Bound(Term):
    """The variable of the binder ``index`` binders out.  Only the kernel
    makes one, closing an ``Abs`` body, so it has its binder's type."""

    __slots__ = ('index',)
    _args = ('index', 'ty')

    def __new__(cls, index, ty):
        key = ('b', index, id(ty))
        t = _terms.get(key, _NO_REF)()
        if t is None:
            t = object.__new__(cls)
            t.index = index
            t = _intern(t, key, ty, _NO_VARS, index + 1)
        return t


class App(Term):
    __slots__ = ('fn', 'arg')
    _args = _children = __slots__

    def __new__(cls, fn, arg):
        key = (fn, arg)   # the only pairs, and what the node holds anyway
        try:
            t = _terms.get(key, _NO_REF)()
        except TypeError:   # an unhashable operand, which no term is
            t = None
        if t is None:
            if not isinstance(fn, Term) or not isinstance(arg, Term):
                raise KernelError('not a term: %r' % (arg if isinstance(fn, Term) else fn,))
            fty = fn.ty
            if not isinstance(fty, FunType):
                raise TypingError('applying non-function of type %s' % type_to_str(fty))
            if fty.dom != arg.ty:
                raise TypingError('argument type %s does not match domain %s'
                                  % (type_to_str(arg.ty), type_to_str(fty.dom)))
            # _intern inlined, for most nodes are Apps; a child's own
            # free-variable set when it holds the other's, so parents share sets
            t = object.__new__(cls)
            t.fn, t.arg, t.ty, t._checked = fn, arg, fty.cod, None
            a, b = fn.free_vars, arg.free_vars
            t.free_vars = a if b <= a else b if a <= b else a | b
            t._loose = fn._loose if fn._loose > arg._loose else arg._loose
            ref = _Ref(t, _forget)
            ref.key = key
            if _terms.setdefault(key, ref) is not ref:   # a racing thread's or a dead entry
                t = _intern(t, key, t.ty, t.free_vars, t._loose)
        return t


class Abs(Term):
    """``Abs(v, body)`` binds ``v`` in ``body``.  The node keeps the body
    with ``v`` closed to ``Bound(0)``, and not ``v``'s name: ``dest_abs``
    opens it again at a name its caller gives."""

    __slots__ = _children = ('body',)

    def __new__(cls, var, body):
        if type(var) is not Var:
            raise TypingError('binder must be a variable')
        if not isinstance(body, Term):
            raise KernelError('not a term: %r' % (body,))
        if body._loose:
            raise TypingError('abstraction body has loose bound variables')
        return _abs(var.ty, _close(body, var, 0))

    def __reduce__(self):
        return _abs, (self.ty.dom, self.body)


def _abs(dom, body):
    key = ('l', id(dom), id(body))
    t = _terms.get(key, _NO_REF)()
    if t is None:
        t = object.__new__(Abs)
        t.body = body
        t = _intern(t, key, FunType(dom, body.ty),
                    body.free_vars, max(body._loose - 1, 0))
    return t


def _rebuild(t, f, x, d):
    # t with f(child, x, depth) for each child, d the binder depth at t
    if type(t) is App:
        return App(f(t.fn, x, d), f(t.arg, x, d))
    return _abs(t.ty.dom, f(t.body, x, d + 1))


def _close(t, v, d):
    # t with the free variable v made Bound at binder depth d
    if v not in t.free_vars:
        return t
    return Bound(d, t.ty) if type(t) is Var else _rebuild(t, _close, v, d)


def _open(t, r, d):
    # t with the Bound at binder depth d replaced by the closed term r
    if t._loose <= d:
        return t
    return r if type(t) is Bound else _rebuild(t, _open, r, d)


def _subst(t, m, keys):
    # t with m[v] for each free variable v in keys, m's keys; m's terms are closed
    if keys.isdisjoint(t.free_vars):
        return t
    cls = type(t)
    if cls is App:
        return App(_subst(t.fn, m, keys), _subst(t.arg, m, keys))
    return m[t] if cls is Var else _abs(t.ty.dom, _subst(t.body, m, keys))


def dest_abs(t, base):
    """Open ``\\x. b`` into (x, b).  x is named ``base``, renamed to base_1,
    base_2, ... only when a free variable of b has that name, so
    ``Abs(x, b)`` is ``t`` again."""
    name = base
    names = {v.name for v in t.free_vars}
    i = 0
    while name in names:
        i += 1
        name = '%s_%d' % (base, i)
    v = Var(name, t.ty.dom)
    return v, _open(t.body, v, 0)


def subst_parallel(t, mapping):
    """Parallel substitution of closed terms for free variables.

    ``mapping`` maps Var -> Term; each replacement must have the variable's
    type.  Bound variables are indices, so nothing can be captured.
    """
    for v, r in mapping.items():
        if type(v) is not Var:
            raise TypingError('substitution domain must be variables')
        if v.ty != r.ty:
            raise TypingError('substituting %s-typed term for %s-typed variable %s'
                              % (type_to_str(r.ty), type_to_str(v.ty), v.name))
        if r._loose:
            raise TypingError('substituting a term with loose bound variables')
    return _subst(t, mapping, frozenset(mapping))


def beta_normalize(t):
    """Plain beta normal form, computed outside the kernel rules.

    Simply typed terms are strongly normalizing, so this terminates.
    """
    cls = type(t)
    if cls is Var or cls is Const:
        return t
    if cls is Abs:
        v, body = dest_abs(t, 'x')
        return Abs(v, beta_normalize(body))
    if cls is App:
        fn, arg = beta_normalize(t.fn), beta_normalize(t.arg)
        return beta_normalize(_open(fn.body, arg, 0)) if type(fn) is Abs else App(fn, arg)
    raise KernelError('not a term: %r' % (t,))


# ---------------------------------------------------------------------------
# Logical constant families

def _fun(*tys):
    ty = tys[-1]
    for d in reversed(tys[:-1]):
        ty = FunType(d, ty)
    return ty


# name -> (number of type arguments, the constant's type at them)
_LOGICAL = {
    'true': (0, lambda: BOOL), 'false': (0, lambda: BOOL),
    'not': (0, lambda: FunType(BOOL, BOOL)), 'and': (0, lambda: _fun(BOOL, BOOL, BOOL)),
    'or': (0, lambda: _fun(BOOL, BOOL, BOOL)), 'imp': (0, lambda: _fun(BOOL, BOOL, BOOL)),
    'eq': (1, lambda a: _fun(a, a, BOOL)), 'iota': (1, lambda a: FunType(FunType(a, BOOL), a)),
    'forall': (1, lambda a: FunType(FunType(a, BOOL), BOOL)),
    'exists': (1, lambda a: FunType(FunType(a, BOOL), BOOL)),
    'cond': (1, lambda a: _fun(a, a, BOOL, a)),
    'pair': (2, lambda a, b: _fun(a, b, ProdType(a, b))),
    'fst': (2, lambda a, b: FunType(ProdType(a, b), a)),
    'snd': (2, lambda a, b: FunType(ProdType(a, b), b)),
}
LOGICAL_NAMES = frozenset(_LOGICAL)


@functools.lru_cache(maxsize=None)    # a few constants per type; types are never freed
def logical_const(name, targs=()):
    """The schematic logical constant ``name`` at the given type arguments."""
    if name not in _LOGICAL:
        raise TheoryError('unknown logical constant %s' % name)
    arity, ty = _LOGICAL[name]
    if len(targs) != arity:
        raise TheoryError('%s takes %d type arguments, got %d' % (name, arity, len(targs)))
    return Const(name, ty(*targs), targs)


_EQS = {}   # id of a type -> its equality constant; types are never freed


def eq_c(ty):
    c = _EQS.get(id(ty))
    return _EQS.setdefault(id(ty), logical_const('eq', (ty,))) if c is None else c


def true_c():
    return logical_const('true')


def false_c():
    return logical_const('false')


# Term builders for the connectives.

def mk_eq(a, b):
    if a.ty != b.ty:
        raise TypingError('equation between %s and %s'
                          % (type_to_str(a.ty), type_to_str(b.ty)))
    c = _EQS.get(id(a.ty))   # eq_c inlined
    return App(App(eq_c(a.ty) if c is None else c, a), b)


def _mk_bin(name, a, b):
    return App(App(logical_const(name), a), b)


def mk_conj(a, b):
    return _mk_bin('and', a, b)


def mk_disj(a, b):
    return _mk_bin('or', a, b)


def mk_imp(a, b):
    return _mk_bin('imp', a, b)


def mk_not(a):
    return App(logical_const('not'), a)


def mk_forall(v, body):
    return App(logical_const('forall', (v.ty,)), Abs(v, body))


def mk_cond(x, y, z):
    """The if-then-else application C x y z."""
    return App(App(App(logical_const('cond', (x.ty,)), x), y), z)


def dest_bin(name, t):
    """Split ``a <name> b`` into (a, b); None when not of that shape."""
    if (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const) and t.fn.fn.name == name):
        return t.fn.arg, t.arg
    return None


def dest_eq(t):
    return dest_bin('eq', t)


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
        return App(logical_const('forall', (BOOL,)), Abs(p, p))
    if name == 'not':
        return Abs(p, mk_imp(p, false_c()))
    # the last of _DEFINED_ORDER, cond: \x y z. iota(\w. (z /\ w = x) \/ (~z /\ w = y))
    (a,) = targs
    x, y, z, w = Var('x', a), Var('y', a), Var('z', BOOL), Var('w', a)
    body = mk_disj(mk_conj(z, mk_eq(w, x)), mk_conj(mk_not(z), mk_eq(w, y)))
    return Abs(x, Abs(y, Abs(z, App(logical_const('iota', (a,)), Abs(w, body)))))


_DEFINED_ORDER = ('true', 'and', 'imp', 'forall', 'exists', 'or', 'false', 'not', 'cond')

# axiom schema name -> number of type arguments
_SCHEMA_ARITY = {'bool-cases': 0, 'description': 1, 'ext': 2, 'pairing': 2,
                 'fst_pair': 2, 'snd_pair': 2,
                 **{'def.' + c: _LOGICAL[c][0] for c in _DEFINED_ORDER}}


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

    def __setattr__(self, name, value):
        self._check_mutable()
        object.__setattr__(self, name, value)

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
        """Fix the signature and axioms; no attribute can be set after this,
        and only the derived-rule cache stays writable.  The serial number
        marks the terms validated against this theory."""
        self.base_types = frozenset(self.base_types)
        self.constants = MappingProxyType(self.constants)
        self.axioms = MappingProxyType(self.axioms)
        self._serial = next(_serials)
        self.frozen = True
        return self

    def const(self, name):
        """The declared constant ``name`` as a term."""
        if name not in self.constants:
            raise TheoryError('unknown constant %s' % name)
        return Const(name, self.constants[name])

    def _check_mutable(self):
        if getattr(self, 'frozen', False):
            raise TheoryError('theory %s is frozen' % self.name)

    def _check_type(self, ty):
        if isinstance(ty, BaseType):
            if ty.name not in self.base_types:
                raise TheoryError('unknown base type %s' % ty.name)
        elif isinstance(ty, Type):
            for part in type(ty).__slots__:    # dom, cod or left, right
                self._check_type(getattr(ty, part))
        else:
            raise TypingError('not a type: %r' % (ty,))


_serials = itertools.count()


def core_theory(name='core'):
    """A fresh frozen theory containing just the logical core."""
    return Theory(name).freeze()


def type_of(t, th, _allow_unfrozen=False):
    """The type of ``t``, after validating it against theory ``th``.

    Terms are well-typed by construction and a node's type is built from its
    parts', so only leaves and binders are checked: each constant is declared
    (its type was checked then) or logical at its proper type, and each
    variable's and binder's type uses declared base types.  A bad leaf
    reports an undeclared base type in its own type first.  A node validated
    against a frozen theory is marked with its serial number and not
    visited again for it.
    """
    mark = th._serial if type(th) is Theory and th.frozen else _theory_mark(th, _allow_unfrozen)
    if not isinstance(t, Term):
        raise KernelError('not a term: %r' % (t,))
    if t._checked is not mark:   # one test for a root validated before
        _validate(t, th, mark)
    if t._loose:
        raise TypingError('term has loose bound variables')
    return t.ty


def _theory_mark(th, allow_unfrozen=False):
    """What validation against ``th`` marks a node with: a frozen theory's
    serial number, or with ``allow_unfrozen`` a mark that dedups shared
    nodes within one walk only.  Anything but a ``Theory`` is rejected, and
    so is an unfrozen theory without ``allow_unfrozen``."""
    if type(th) is not Theory:
        raise TheoryError('not a theory: %r' % (th,))
    if th.frozen:
        return th._serial
    if allow_unfrozen:
        return object()
    raise TheoryError('theory %s is not frozen' % th.name)


def _validate(t, th, mark):
    todo = [t]   # None above a node: all of its children passed
    while todo:
        t = todo.pop()
        if t is None:
            todo.pop()._checked = mark
        elif t._checked is not mark:
            cls = type(t)
            if cls is App:   # most nodes: no check of their own
                todo += (t, None, t.arg, t.fn)
            elif cls is Abs:
                th._check_type(t.ty.dom)
                todo += (t, None, t.body)
            else:
                if cls is Const:
                    declared = th.constants.get(t.name)
                    if declared is None:
                        th._check_type(t.ty)
                        if t.name not in LOGICAL_NAMES:
                            raise TheoryError('unknown constant %s' % t.name)
                        if logical_const(t.name, t.targs) is not t:
                            raise TypingError('logical constant %s at wrong type' % t.display_name)
                    elif declared is not t.ty:
                        th._check_type(t.ty)
                        raise TypingError('constant %s at type %s, declared %s'
                                          % (t.name, type_to_str(t.ty), type_to_str(declared)))
                elif cls is Var:
                    th._check_type(t.ty)
                t._checked = mark


# ---------------------------------------------------------------------------
# Theorems

class Theorem:
    """A certified judgement ``hyps |- concl`` in a fixed theory.

    Instances can only be produced by the primitive rules and the axiom
    accessor in this module (and by the derived rules built on them).  Each
    theorem records the rule and arguments that produced it, which is what
    proof-trace export walks.
    """

    __slots__ = ('hyps', 'concl', 'theory', 'rule', 'args')

    def __init__(self, *args, **kwargs):   # _thm makes a theorem without calling this
        raise KernelError('theorems can only be built by kernel rules')

    def __repr__(self):
        from . import syntax
        return syntax.pretty_theorem(self)


def _thm(th, hyps, concl, rule, args):
    # concl is Bool: each rule concludes an equation or a term already
    # checked to be Bool.  Each hypothesis is kept once, the first in
    # derivation order.
    thm = object.__new__(Theorem)
    thm.hyps = tuple(dict.fromkeys(hyps)) if len(hyps) > 1 else tuple(hyps)
    thm.concl, thm.theory, thm.rule, thm.args = concl, th, rule, args
    return thm


def _same_theory(*thms):
    for t in thms:
        if type(t) is not Theorem:
            raise RuleError('not a theorem: %r' % (t,))
        if t.theory is not thms[0].theory:
            raise RuleError('mixing theorems from theories %s and %s'
                            % (thms[0].theory.name, t.theory.name))
    return thms[0].theory


# ---------------------------------------------------------------------------
# Primitive rules

def reflexivity(th, t):
    """|- t = t"""
    type_of(t, th)
    return _thm(th, (), mk_eq(t, t), 'reflexivity', (t,))


def symmetry(thm):
    """From A |- a = b derive A |- b = a."""
    th = _same_theory(thm)
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('symmetry needs an equation')
    a, b = e
    return _thm(th, thm.hyps, mk_eq(b, a), 'symmetry', (thm,))


def transitivity(thm1, thm2):
    """From A |- a = b and B |- b = c derive A u B |- a = c."""
    th = _same_theory(thm1, thm2)
    e1, e2 = dest_eq(thm1.concl), dest_eq(thm2.concl)
    if e1 is None or e2 is None:
        raise RuleError('transitivity needs equations')
    if e1[1] is not e2[0]:
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
    return _thm(th, thm_fun.hyps + thm_arg.hyps, mk_eq(App(f, a), App(g, b)),
                'congruence', (thm_fun, thm_arg))


def abstraction(v, thm):
    """From A |- a = b derive A |- (\\v. a) = (\\v. b), v not free in A."""
    th = _same_theory(thm)
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('abstraction needs an equation')
    for h in thm.hyps:
        if v in h.free_vars:
            raise RuleError('abstraction variable %s free in a hypothesis' % v.name)
    a, b = e
    return _thm(th, thm.hyps, mk_eq(Abs(v, a), Abs(v, b)),
                'abstraction', (v, thm))


def beta_conversion(th, redex):
    """|- (\\x. b) a = b[a/x]"""
    type_of(redex, th)
    if not (isinstance(redex, App) and isinstance(redex.fn, Abs)):
        raise RuleError('beta_conversion needs a beta redex')
    contractum = _open(redex.fn.body, redex.arg, 0)
    return _thm(th, (), mk_eq(redex, contractum), 'beta_conversion', (redex,))


def assume(th, p):
    """{p} |- p"""
    if type_of(p, th) != BOOL:
        raise RuleError('assumption must be Bool-typed')
    return _thm(th, (p,), p, 'assume', (p,))


def modus_ponens_eq(thm_eq, thm):
    """From A |- p = q and B |- p derive A u B |- q."""
    th = _same_theory(thm_eq, thm)
    e = dest_eq(thm_eq.concl)
    if e is None:
        raise RuleError('modus_ponens_eq needs an equation')
    if e[0] is not thm.concl:
        raise RuleError('modus_ponens_eq: conclusion does not match equation')
    return _thm(th, thm_eq.hyps + thm.hyps, e[1], 'modus_ponens_eq', (thm_eq, thm))


def deduct_antisym(thm1, thm2):
    """From A |- c1 and B |- c2 derive (A - {c2}) u (B - {c1}) |- c1 = c2."""
    th = _same_theory(thm1, thm2)
    hyps = tuple(h for h in thm1.hyps if h is not thm2.concl)
    hyps += tuple(h for h in thm2.hyps if h is not thm1.concl)
    return _thm(th, hyps, mk_eq(thm1.concl, thm2.concl),
                'deduct_antisym', (thm1, thm2))


def instantiate(thm, mapping):
    """Parallel substitution of terms for free variables, in hypotheses too."""
    th = _same_theory(thm)
    for r in mapping.values():
        type_of(r, th)
    concl = subst_parallel(thm.concl, mapping)   # checks the mapping for the hypotheses too
    keys = frozenset(mapping)
    hyps = tuple(_subst(h, mapping, keys) for h in thm.hyps)
    items = sorted(mapping.items(), key=lambda kv: (kv[0].name, type_to_str(kv[0].ty)))
    return _thm(th, hyps, concl, 'instantiate', (thm, tuple(items)))


PRIMITIVE_RULES = ('reflexivity', 'symmetry', 'transitivity', 'congruence',
                   'abstraction', 'beta_conversion', 'assume', 'modus_ponens_eq',
                   'deduct_antisym', 'instantiate', 'axiom')


# ---------------------------------------------------------------------------
# Axioms

def axiom(th, name, targs=()):
    """The axiom ``name`` of ``th``, at type arguments ``targs``, as a
    theorem with no hypotheses.

    The logical axiom schemas are generated on demand, each with a fixed
    number of type arguments: ``bool-cases`` (none), ``description`` (one),
    ``ext``, ``pairing``, ``fst_pair`` and ``snd_pair`` (two), and
    ``def.<const>``, the defining equation of a defined logical constant
    (one for ``forall``, ``exists`` and ``cond``, none otherwise).  The
    theorem records an instance as ``name[T1,...]``.  Named (grammar) axioms
    take no type arguments and are looked up in the theory's axiom table.
    """
    _theory_mark(th)
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


@functools.lru_cache(maxsize=None)    # like logical_const: a few schemas per type
def _schema(name, targs):
    if name == 'bool-cases':
        z = Var('z', BOOL)
        return mk_forall(z, mk_disj(mk_eq(z, true_c()), mk_eq(z, false_c())))
    if name == 'description':
        (a,) = targs
        x = Var('x', a)
        y = Var('y', a)
        return mk_forall(x, mk_eq(App(logical_const('iota', (a,)), Abs(y, mk_eq(y, x))), x))
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
        fst, snd = (App(logical_const(c, targs), p) for c in ('fst', 'snd'))
        return mk_forall(p, mk_eq(App(App(logical_const('pair', targs), fst), snd), p))
    if name in ('fst_pair', 'snd_pair'):    # !x y. fst (pair x y) = x, and snd's
        x, y = Var('x', targs[0]), Var('y', targs[1])
        proj = App(logical_const(name[:3], targs), App(App(logical_const('pair', targs), x), y))
        return mk_forall(x, mk_forall(y, mk_eq(proj, x if name == 'fst_pair' else y)))
    cname = name[len('def.'):]
    return mk_eq(logical_const(cname, targs), _def_rhs(cname, targs))
