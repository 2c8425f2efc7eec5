"""Concrete syntax: parsing and printing of types and terms.

Two printers live here.  ``canonical_term`` emits a fully parenthesized
ASCII form that names the variable of a binder at depth d ``%d``; no
identifier starts with ``%``, so two terms print alike exactly when they are
alpha-equal.  It is the stable machine form of fingerprints, sort keys and
trace-verify messages, and it round-trips through ``parse_term``, which
reads ``%d`` only as a bound variable.  A caller that prints many terms
passes them one memo dict, so a subterm that recurs is printed once (see
``_canon``).  ``pretty_term`` names a binder's variable by the kernel's hint
for it, the name its alpha-class was first built with, and uses infix
notation for the connectives; it is for reports and error messages only.

Term syntax summary (loosest to tightest):

    \\x:T. b   !x:T. b   ?x:T. b        binders, extend to the right
    a => b   a \\/ b   a /\\ b   a = b   u ++ v
                                        the rows of ``INFIX``
    ~a
    f a   f(a)                          application, left associative
    (a, b, c)  <a, b>                   right-nested pairs: pair[A,B] a b
    fst t   snd t   cond[T](x,y,z)  iota[T](p)   /word/   //   x:T

``INFIX`` is the one table of the infix operators, loosest first; the
lexer, the reader and the pretty printer all read it.  Each operator is
right associative except ``=``, which is non-associative, and a binder may
stand directly right of any of them.  ``++`` joins Phon terms.  A ``/word/``
literal is resolved against the theory of the ``TermEnv`` by ``phon_term``.

Identifiers may carry type arguments in brackets (``eq[Ind]``,
``pair[Ind,Bool]``); ``fst t`` and ``snd t`` take theirs from ``t``.  Free
variables may be annotated with their type (``x:(Ind -> Bool)``).  ``%0``,
``%1``, ... are identifiers too, but only a binder can introduce one.
"""

from __future__ import annotations

from . import kernel, terms
from .kernel import (App, Abs, Bound, Const, FunType, PHON, ProdType, Var, dest_abs,
                     type_to_str)


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# The infix operators

# (symbol, constant), loosest first.  An operator's precedence is its place
# here, counted from 1 because a binder's is 0; '=' is the one
# non-associative entry.
INFIX = (('=>', 'imp'), ('\\/', 'or'), ('/\\', 'and'), ('=', 'eq'), ('++', 'conc'))
_PREC = {sym: i for i, (sym, _) in enumerate(INFIX, 1)}
_BY_CONST = {c: (sym, i) for i, (sym, c) in enumerate(INFIX, 1)}
_NOT = len(INFIX) + 1       # the operand of ~ holds no infix operator
_APP = _NOT + 1


# ---------------------------------------------------------------------------
# Canonical printing

def canonical_term(t, memo=None):
    """Alpha-canonical fully parenthesized rendering; parseable.  The
    variable of a binder at depth d prints as ``%d``, a name no identifier
    can spell, so alpha-equal terms print alike and distinct ones apart.
    ``memo`` is a dict shared by the calls of one caller, which owns it; see
    ``_canon``.  Without one each call starts afresh."""
    return _canon(t, 0, {} if memo is None else memo)


def _canon(t, depth, memo):
    """The canonical printing of ``t`` under ``depth`` binders.

    ``memo`` maps ``(term, depth)`` to its printing, and a term at depth 0
    by the term alone, so a subterm that comes up again, in this call or a
    later one that shares the dict, is printed once.  The key holds the
    term object itself, never its ``id()``: the dict then keeps its terms
    alive, whereas the id of a freed term may come back as that of another
    term, whose printing would then be the wrong text.  The caller owns the
    dict and drops it when it returns, so no cache outlives a call."""
    key = (t, depth) if depth else t
    s = memo.get(key)
    if s is not None:
        return s
    # applications are most of the nodes, so they are tested first
    cls = type(t)
    if cls is App:
        s = '(%s %s)' % (_canon(t.fn, depth, memo), _canon(t.arg, depth, memo))
    elif cls is Const:
        s = t.display_name
    elif cls is Bound:
        s = '%%%d' % (depth - 1 - t.index)
    elif cls is Var:
        s = '%s:%s' % (t.name, type_to_str(t.ty))
    elif cls is Abs:
        s = '(\\%%%d:%s. %s)' % (depth, type_to_str(t.ty.dom), _canon(t.body, depth + 1, memo))
    else:
        raise ParseError('not a term: %r' % (t,))
    memo[key] = s
    return s


# ---------------------------------------------------------------------------
# Pretty printing

def pretty_term(t, depth_names=False):
    """Infix rendering with the binders' hints as variable names; with
    ``depth_names`` the variable of a binder at depth d is named ``%d``, as
    in canonical printing."""
    return _pretty(t, 0, 0 if depth_names else None)


def _binder(mark, t, depth):
    # depth is None when binders print their hints
    if depth is None:
        v, body = dest_abs(t)
    else:
        v, body = dest_abs(t, '%%%d' % depth)
        depth += 1
    return '%s%s:%s. %s' % (mark, v.name, type_to_str(v.ty), _pretty(body, 0, depth))


def _wrap(s, prec, ctx):
    return '(%s)' % s if prec < ctx else s


def _pretty(t, ctx, depth):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.display_name
    if isinstance(t, Abs):
        return _wrap(_binder('\\', t, depth), 0, ctx)
    if isinstance(t, App):
        return _pretty_app(t, ctx, depth)
    raise ParseError('not a term: %r' % (t,))


def _pretty_app(t, ctx, depth):
    # walks the spine of a plain application f(a)(b)... in a loop, down to a
    # head that prints on its own, then appends the arguments
    args = []
    while True:
        fn, arg = t.fn, t.arg
        head = fn.fn if isinstance(fn, App) else None
        # an infix operator applied to its two operands
        if isinstance(head, Const) and head.name in _BY_CONST:
            sym, prec = _BY_CONST[head.name]
            s = _wrap('%s %s %s' % (_pretty(fn.arg, prec + 1, depth), sym,
                                    _pretty(arg, prec + (sym == '='), depth)), prec, ctx)
            break
        # cond[T] x y z, written cond[T](x, y, z)
        if isinstance(head, App) and isinstance(head.fn, Const) and head.fn.name == 'cond':
            parts = ', '.join(_pretty(a, 0, depth) for a in (head.arg, fn.arg, arg))
            s = '%s(%s)' % (head.fn.display_name, parts)
            break
        if isinstance(fn, Const) and fn.name == 'not':
            s = _wrap('~%s' % _pretty(arg, _NOT, depth), _NOT, ctx)
            break
        if isinstance(fn, Const) and fn.name in ('forall', 'exists') and isinstance(arg, Abs):
            s = _wrap(_binder('!' if fn.name == 'forall' else '?', arg, depth), 0, ctx)
            break
        if isinstance(fn, Abs):
            s = '(%s)(%s)' % (_pretty(fn, 0, depth), _pretty(arg, 0, depth))
            break
        args.append(arg)
        if not isinstance(fn, App):
            s = _pretty(fn, _APP, depth)
            break
        t, ctx = fn, _APP
    for a in reversed(args):
        s += '(%s)' % _pretty(a, 0, depth)
    return s


def pretty_theorem(thm, depth_names=False):
    concl = pretty_term(thm.concl, depth_names)
    if not thm.hyps:
        return '|- %s' % concl
    return '%s |- %s' % (', '.join(pretty_term(h, depth_names) for h in thm.hyps), concl)


# ---------------------------------------------------------------------------
# Lexer

_TWO_CHAR = frozenset([sym for sym, _ in INFIX if len(sym) == 2] + ['->'])
_ONE_CHAR = frozenset([sym for sym, _ in INFIX if len(sym) == 1] + list('()<>,.:\\!?~[]*'))
_IDENT_START = set('abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_')
_IDENT_CHAR = _IDENT_START | set('0123456789')
_WORD_CHAR = _IDENT_CHAR | set("'-")


class _Tok:
    __slots__ = ('kind', 'val', 'pos')

    def __init__(self, kind, val, pos):
        self.kind = kind
        self.val = val
        self.pos = pos

    def __repr__(self):
        return '%s(%r)' % (self.kind, self.val)


def _lex(s):
    toks = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
            continue
        two = s[i:i + 2]
        if two in _TWO_CHAR:
            toks.append(_Tok('sym', two, i))
            i += 2
            continue
        if c == '/':
            j = s.find('/', i + 1)
            if j < 0:
                raise ParseError('unterminated /word/ literal at %d' % i)
            inner = s[i + 1:j]
            bad = [ch for ch in inner if ch not in _WORD_CHAR and not ch.isspace()]
            if bad:
                raise ParseError('bad character %r in /word/ literal' % bad[0])
            toks.append(_Tok('word', tuple(inner.split()), i))
            i = j + 1
            continue
        if c in '$%':
            # $<digits> is a rule-body placeholder, %<digits> the name of a
            # bound variable in canonical printing
            j = i + 1
            while j < n and s[j].isdigit():
                j += 1
            if j == i + 1:
                what = 'placeholder' if c == '$' else 'bound name'
                raise ParseError('bad %s at %d' % (what, i))
            toks.append(_Tok('placeholder', int(s[i + 1:j]), i) if c == '$'
                        else _Tok('ident', s[i:j], i))
            i = j
            continue
        if c in _ONE_CHAR:
            toks.append(_Tok('sym', c, i))
            i += 1
            continue
        if c in _IDENT_START:
            j = i
            while j < n and s[j] in _IDENT_CHAR:
                j += 1
            toks.append(_Tok('ident', s[i:j], i))
            i = j
            continue
        raise ParseError('bad character %r at %d in %r' % (c, i, s))
    toks.append(_Tok('eof', None, n))
    return toks


# ---------------------------------------------------------------------------
# Term parsing

class TermEnv:
    """Resolution context for parsing terms.

    ``theory`` supplies declared constants and resolves /word/ literals (see
    ``phon_term``); ``var_types`` maps free variable names to types;
    ``default_var_type`` (when set) types unannotated unknown identifiers;
    ``placeholders`` maps operand indexes to variables, and ``sem_fn`` /
    ``phon_fn`` interpret the rule-body keywords sem(...) and phon(...).
    """

    def __init__(self, theory=None, var_types=None, default_var_type=None,
                 placeholders=None, sem_fn=None, phon_fn=None):
        self.theory = theory
        self.var_types = dict(var_types or {})
        self.default_var_type = default_var_type
        self.placeholders = placeholders
        self.sem_fn = sem_fn
        self.phon_fn = phon_fn


_BINDERS = ('\\', '!', '?')


class _Parser:
    def __init__(self, toks, env):
        self.toks = toks
        self.pos = 0
        self.env = env
        self.bound = []

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, val=None):
        t = self.next()
        if t.kind != kind or (val is not None and t.val != val):
            raise ParseError('expected %s at %d, found %r' % (val or kind, t.pos, t.val))
        return t

    def at_sym(self, val):
        t = self.peek()
        return t.kind == 'sym' and t.val == val

    def term(self, prec=0):
        """A term whose infix operators bind at least as tightly as ``prec``,
        a place in ``INFIX``: 0 admits them all, and ``_NOT``, for the
        operand of ``~``, neither an operator nor a binder.  Binders, ``~``,
        application and the infix operators are read in this one loop, so
        each level of nesting costs this frame and one of ``primary``."""
        t = self.next()
        if t.kind == 'sym' and t.val in _BINDERS and prec < _NOT:
            name = self.expect('ident').val
            self.expect('sym', ':')
            ty = self.type_atom()
            self.expect('sym', '.')
            v = Var(name, ty)
            self.bound.append(v)
            body = self.term()
            self.bound.pop()
            # a canonical name %d is no identifier, so it is no hint either: a
            # binder opened under it would give a trace a variable no reader takes
            lam = Abs(v, body, 'x' if name[0] == '%' else name)
            if t.val == '\\':
                return lam
            return App(kernel.logical_const('forall' if t.val == '!' else 'exists', (ty,)), lam)
        if t.kind == 'sym' and t.val == '~':
            left = kernel.mk_not(self.term(_NOT))
        else:
            left = self.primary(t)
        limit = _NOT
        while True:
            t = self.peek()
            # an argument can only follow a function before any infix
            # operator: an operator's right operand takes all of them
            if t.kind in ('ident', 'word', 'placeholder') or (
                    t.kind == 'sym' and t.val in ('(', '<')):
                arg = self.primary(self.next())
                if not isinstance(left.ty, FunType):
                    raise ParseError('applying non-function %s' % pretty_term(left))
                left = App(left, arg)
                continue
            op = _PREC.get(t.val) if t.kind == 'sym' else None
            # after an operator only looser ones may follow, so '=' is not
            # chained and the left operand of each is what came before
            if op is None or not prec <= op < limit:
                return left
            self.next()
            right = self.term(op + 1 if t.val == '=' else op)
            left = _mk_infix(INFIX[op - 1][1], left, right)
            limit = op

    def primary(self, t):
        """The operand that starts with the token ``t``, already read."""
        if t.kind == 'sym' and t.val == '(':
            items = [self.term()]
            while self.at_sym(','):
                self.next()
                items.append(self.term())
            self.expect('sym', ')')
            return _right_nested(terms.mk_pair, items)
        if t.kind == 'sym' and t.val == '<':
            left = self.term()
            self.expect('sym', ',')
            right = self.term()
            self.expect('sym', '>')
            return terms.mk_pair(left, right)
        if t.kind == 'word':
            return phon_term(self.env.theory, t.val)
        if t.kind == 'placeholder':
            if not self.env.placeholders or t.val not in self.env.placeholders:
                raise ParseError('placeholder $%d not available here' % t.val)
            return self.env.placeholders[t.val]
        if t.kind == 'ident':
            return self.ident_expr(t.val)
        raise ParseError('unexpected %r at %d' % (t.val, t.pos))

    def ident_expr(self, name):
        if name in ('fst', 'snd') and not self.at_sym('['):
            arg = self.primary(self.next())
            if not isinstance(arg.ty, ProdType):
                raise ParseError('%s of a term of type %s' % (name, type_to_str(arg.ty)))
            return App(kernel.logical_const(name, (arg.ty.left, arg.ty.right)), arg)
        if name in ('sem', 'phon') and (self.env.sem_fn or self.env.phon_fn):
            self.expect('sym', '(')
            arg = self.term()
            self.expect('sym', ')')
            fn = self.env.sem_fn if name == 'sem' else self.env.phon_fn
            if fn is None:
                raise ParseError('%s(...) not available here' % name)
            return fn(arg)
        targs = self._type_args()
        if targs is not None:
            if name not in kernel.LOGICAL_NAMES:
                raise ParseError('%s takes no type argument' % name)
            c = kernel.logical_const(name, targs)
            if name == 'cond' and self.at_sym('('):
                # cond[T](x, y, z) is written for C x y z, not for C applied
                # to a triple
                self.next()
                c = App(c, self.term())
                while self.at_sym(','):
                    self.next()
                    c = App(c, self.term())
                self.expect('sym', ')')
            return c
        # bound variables shadow everything else
        for v in reversed(self.bound):
            if v.name == name:
                return self._maybe_annotated_bound(v)
        if name[0] == '%':
            raise ParseError('unbound variable %s' % name)
        # an annotated identifier is a free variable, even if a constant
        # shares its name: that is how canonical_term prints variables
        ty = self._annotation()
        if ty is not None:
            self.env.var_types.setdefault(name, ty)
            return Var(name, ty)
        if name in kernel.LOGICAL_NAMES:
            if kernel._LOGICAL[name][0]:
                raise ParseError('%s needs type arguments' % name)
            return kernel.logical_const(name)
        th = self.env.theory
        if th is not None and name in th.constants:
            return th.const(name)
        ty = self.env.var_types.get(name, self.env.default_var_type)
        if ty is None:
            raise ParseError('unknown identifier %s' % name)
        return Var(name, ty)

    def _maybe_annotated_bound(self, v):
        ty = self._annotation()
        if ty is not None and ty != v.ty:
            raise ParseError('bound variable %s annotated %s, bound at %s'
                             % (v.name, type_to_str(ty), type_to_str(v.ty)))
        return v

    def _annotation(self):
        if self.at_sym(':'):
            self.next()
            return self.type_atom()
        return None

    def _type_args(self):
        if not self.at_sym('['):
            return None
        self.next()
        tys = [self.type_expr()]
        while self.at_sym(','):
            self.next()
            tys.append(self.type_expr())
        self.expect('sym', ']')
        return tuple(tys)

    # type syntax -----------------------------------------------------------

    def type_atom(self):
        t = self.next()
        if t.kind == 'sym' and t.val == '(':
            ty = self.type_expr()
            self.expect('sym', ')')
            return ty
        if t.kind == 'ident' and t.val[0] != '%':
            return self._named_type(t.val)
        raise ParseError('expected a type at %d' % t.pos)

    def type_expr(self):
        left = self.type_prod()
        if self.at_sym('->'):
            self.next()
            return FunType(left, self.type_expr())
        return left

    def type_prod(self):
        left = self.type_atom()
        if self.at_sym('*'):
            self.next()
            return ProdType(left, self.type_prod())
        return left

    def _named_type(self, name):
        th = self.env.theory
        if th is not None and name not in th.base_types:
            raise ParseError('unknown base type %s' % name)
        return kernel.BaseType(name)


_CONC = Const('conc', FunType(PHON, FunType(PHON, PHON)))


def _right_nested(mk, items):
    t = items[-1]
    for left in reversed(items[:-1]):
        t = mk(left, t)
    return t


def _conc2(left, right):
    if left.ty != PHON or right.ty != PHON:
        raise ParseError('++ needs Phon operands')
    return App(App(_CONC, left), right)


def mk_conc(*parts):
    """The right-nested concatenation ``p1 ++ (p2 ++ ...)`` of one or more
    Phon terms."""
    return _right_nested(_conc2, parts)


def _mk_infix(name, left, right):
    """The term ``left <op> right`` for the operator of ``INFIX`` whose
    constant is ``name``."""
    if name == 'conc':
        return _conc2(left, right)
    if name == 'eq':
        return kernel.mk_eq(left, right)
    return App(App(kernel.logical_const(name), left), right)


def phon_term(th, tokens):
    """The phonology term of a /word/ literal's tokens in theory ``th``.

    No token gives the unit constant ``//``, and more than one the
    right-nested concatenation of their ``/token/`` constants.  This is the
    one alphabet check: it raises ParseError for a token that has no
    ``/token/`` constant in ``th``, and when ``th`` is None or lacks the
    unit ``//``, which every grammar's theory has.
    """
    if th is None or '//' not in th.constants:
        raise ParseError('/word/ literal outside a grammar context')
    parts = []
    for tok in tokens:
        if '/%s/' % tok not in th.constants:
            raise ParseError('token %r not in the alphabet' % tok)
        parts.append(th.const('/%s/' % tok))
    return mk_conc(*parts) if parts else th.const('//')


def _parse_all(s, env, level):
    p = _Parser(_lex(s), env)
    out = level(p)
    tok = p.peek()
    if tok.kind != 'eof':
        raise ParseError('trailing input at %d: %r' % (tok.pos, tok.val))
    return out


def parse_term(s, env=None):
    """Parse a term; raises ParseError on bad input."""
    return _parse_all(s, env or TermEnv(), _Parser.term)


def parse_type(s, theory=None):
    """Parse a type (base names, right-associative ``->`` and ``*``, with
    ``*`` binding tighter); raises ParseError on bad input.  With a theory,
    every base type must be declared in it.  This is the one type reader."""
    return _parse_all(s, TermEnv(theory=theory), _Parser.type_expr)
