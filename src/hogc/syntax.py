"""Concrete syntax: parsing and printing of types and terms.

Two printers live here.  ``canonical_term`` emits a fully parenthesized
ASCII form that names the variable of a binder at depth d ``%d``; no
identifier starts with ``%``, so two terms print alike exactly when they are
alpha-equal.  It is the stable machine form of fingerprints, sort keys and
trace-verify messages, and it round-trips through ``parse_term``, which
reads ``%d`` only as a bound variable.  A caller that prints many terms
passes them one memo dict, so a subterm that recurs is printed once (see
``_canon``).  ``pretty_term`` uses infix notation for the connectives and
names a binder's variable from a table the caller passes, such as the one
the term reader fills, or else ``%d`` as above; it is for reports and error
messages only.

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

import re

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

def pretty_term(t, names=None):
    """Infix rendering.  ``names`` maps ``Abs`` nodes to their variables'
    names, as the term reader records them; the variable of a binder it does
    not name, at depth d, is named ``%d``, as in canonical printing.  It may
    also map a free variable to its text, which is otherwise its name."""
    return _pretty(t, 0, 0, names or {})


def _binder(mark, t, depth, names):
    v, body = dest_abs(t, names.get(t) or '%%%d' % depth)
    return '%s%s:%s. %s' % (mark, v.name, type_to_str(v.ty), _pretty(body, 0, depth + 1, names))


def _wrap(s, prec, ctx):
    return '(%s)' % s if prec < ctx else s


def _pretty(t, ctx, depth, names):
    if isinstance(t, Var):
        return names.get(t, t.name)
    if isinstance(t, Const):
        return t.display_name
    if isinstance(t, Abs):
        return _wrap(_binder('\\', t, depth, names), 0, ctx)
    if isinstance(t, App):
        return _pretty_app(t, ctx, depth, names)
    raise ParseError('not a term: %r' % (t,))


def _pretty_app(t, ctx, depth, names):
    # walks the spine of a plain application f(a)(b)... in a loop, down to a
    # head that prints on its own, then appends the arguments
    args = []
    while True:
        fn, arg = t.fn, t.arg
        head = fn.fn if isinstance(fn, App) else None
        # an infix operator applied to its two operands
        if isinstance(head, Const) and head.name in _BY_CONST:
            sym, prec = _BY_CONST[head.name]
            s = _wrap('%s %s %s' % (_pretty(fn.arg, prec + 1, depth, names), sym,
                                    _pretty(arg, prec + (sym == '='), depth, names)), prec, ctx)
            break
        # cond[T] x y z, written cond[T](x, y, z)
        if isinstance(head, App) and isinstance(head.fn, Const) and head.fn.name == 'cond':
            parts = ', '.join(_pretty(a, 0, depth, names) for a in (head.arg, fn.arg, arg))
            s = '%s(%s)' % (head.fn.display_name, parts)
            break
        if isinstance(fn, Const) and fn.name == 'not':
            s = _wrap('~%s' % _pretty(arg, _NOT, depth, names), _NOT, ctx)
            break
        if isinstance(fn, Const) and fn.name in ('forall', 'exists') and isinstance(arg, Abs):
            s = _wrap(_binder('!' if fn.name == 'forall' else '?', arg, depth, names), 0, ctx)
            break
        if isinstance(fn, Abs):
            s = '(%s)(%s)' % (_pretty(fn, 0, depth, names), _pretty(arg, 0, depth, names))
            break
        args.append(arg)
        if not isinstance(fn, App):
            s = _pretty(fn, _APP, depth, names)
            break
        t, ctx = fn, _APP
    for a in reversed(args):
        s += '(%s)' % _pretty(a, 0, depth, names)
    return s


def pretty_theorem(thm, names=None):
    concl = pretty_term(thm.concl, names)
    if not thm.hyps:
        return '|- %s' % concl
    return '%s |- %s' % (', '.join(pretty_term(h, names) for h in thm.hyps), concl)


# ---------------------------------------------------------------------------
# Lexer

# An identifier; a grammar's declared names are identifiers too.
IDENT = '[A-Za-z_][A-Za-z0-9_]*'
_LITERAL_CHAR = r"[A-Za-z0-9_'\s-]"
_SYMBOLS = sorted([sym for sym, _ in INFIX] + ['->'] + list('()<>,.:\\!?~[]*'),
                  key=len, reverse=True)
# after blanks, one token: a symbol, longest first, so that /\ is never a
# /word/ literal; a literal; a $<digits> placeholder; an identifier or
# %<digits>, the name of a bound variable in canonical printing; or else one
# bad character, which _bad_token names.  The number of the group that
# matched indexes the token's kind in _KINDS.
_TOKEN = re.compile(r'\s*(?:(%s)|(/%s*/)|(\$[0-9]+)|(%%[0-9]+|%s)|(\S))'
                    % ('|'.join(map(re.escape, _SYMBOLS)), _LITERAL_CHAR, IDENT))
_KINDS = (None, 'sym', 'word', 'placeholder', 'ident')


class _Tok:
    __slots__ = ('kind', 'val', 'pos')

    def __init__(self, kind, val, pos):
        self.kind = kind
        self.val = val
        self.pos = pos

    def __repr__(self):
        return '%s(%r)' % (self.kind, self.val)

    def shown(self):
        """The token as an error message names it."""
        return 'end of input' if self.kind == 'eof' else repr(self.val)


def _lex(s):
    toks = []
    for m in _TOKEN.finditer(s):
        k = m.lastindex
        i, val = m.start(k), m.group(k)
        if k == 5:
            raise ParseError(_bad_token(s, i))
        if k == 2:
            val = tuple(val[1:-1].split())
        elif k == 3:
            val = int(val[1:])
        toks.append(_Tok(_KINDS[k], val, i))
    toks.append(_Tok('eof', None, len(s)))
    return toks


def _bad_token(s, i):
    """The message for the character at ``i``, which starts no token."""
    c = s[i]
    if c == '/':
        j = s.find('/', i + 1)
        if j < 0:
            return 'unterminated /word/ literal at %d' % i
        bad = re.search('(?!%s).' % _LITERAL_CHAR, s[i + 1:j])
        return 'bad character %r in /word/ literal' % bad.group()
    if c in '$%':
        return 'bad %s at %d' % ('placeholder' if c == '$' else 'bound name', i)
    return 'bad character %r at %d in %r' % (c, i, s)


# ---------------------------------------------------------------------------
# Term parsing

class TermEnv:
    """Resolution context for parsing terms.

    ``theory`` supplies declared constants and resolves /word/ literals (see
    ``phon_term``); ``var_types`` maps free variable names to types;
    ``default_var_type`` (when set) types unannotated unknown identifiers;
    ``placeholders`` maps operand indexes to variables, and
    ``projection(kind, t)`` interprets the rule-body keywords sem(...) and
    phon(...), ``kind`` being the keyword.
    ``names`` maps each ``Abs`` node the reader builds to the name it was
    read with, the first one it met, but never a ``%d`` name.
    """

    def __init__(self, theory=None, var_types=None, default_var_type=None,
                 placeholders=None, projection=None, names=None):
        self.theory = theory
        self.names = {} if names is None else names
        self.var_types = dict(var_types or {})
        self.default_var_type = default_var_type
        self.placeholders = placeholders
        self.projection = projection


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
        """The next token, which must be of ``kind``: a symbol is asked for
        by its value ``val``, an identifier as a name."""
        t = self.next()
        if t.kind != kind or (val is not None and t.val != val):
            raise ParseError('expected %s at %d, found %s' % (val or 'a name', t.pos, t.shown()))
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
            lam = Abs(v, body)
            if name[0] != '%':
                self.env.names.setdefault(lam, name)
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
        raise ParseError('unexpected %s at %d' % (t.shown(), t.pos))

    def ident_expr(self, name):
        if name in ('fst', 'snd') and not self.at_sym('['):
            arg = self.primary(self.next())
            if not isinstance(arg.ty, ProdType):
                raise ParseError('%s of a term of type %s' % (name, type_to_str(arg.ty)))
            return App(kernel.logical_const(name, (arg.ty.left, arg.ty.right)), arg)
        if name in ('sem', 'phon') and self.env.projection:
            self.expect('sym', '(')
            arg = self.term()
            self.expect('sym', ')')
            return self.env.projection(name, arg)
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
        raise ParseError('expected a type at %d, found %s' % (t.pos, t.shown()))

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
