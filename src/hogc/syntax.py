"""Concrete syntax: parsing and printing of types and terms.

Two printers live here.  ``canonical_term`` emits a fully parenthesized
ASCII form that names the variable of a binder at depth d ``%d``; no
identifier starts with ``%``, so two terms print alike exactly when they are
alpha-equal.  It is the written form of proof traces, and it round-trips
through ``parse_term``, which reads ``%d`` only as a bound variable.  The
trace verifier compares each claimed judgement with the canonical printing
of the replayed step byte for byte.  ``pretty_term`` keeps the original
names and uses infix notation for the connectives; it is for reports and
error messages only.

Term syntax summary (loosest to tightest):

    \\x:T. b   !x:T. b   ?x:T. b        binders, extend to the right
    a => b     a \\/ b    a /\\ b        right associative
    a = b                               non-associative
    u ++ v                              phonological concatenation
    ~a
    f a   f(a)                          application, left associative
    (a, b, c)  <a, b>                   right-nested pairs
    fst t   snd t   cond[T](x,y,z)  iota[T](p)   /word/   //   x:T

Identifiers may carry one type argument in brackets (``eq[Ind]``) and free
variables may be annotated with their type (``x:(Ind -> Bool)``).  ``%0``,
``%1``, ... are identifiers too, but only a binder can introduce one.
"""

from __future__ import annotations

from . import kernel
from .kernel import (App, Abs, Const, FunType, Pair, PHON, ProdType, Proj,
                     Var, type_to_str)


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# Canonical printing

def canonical_term(t):
    """Alpha-canonical fully parenthesized rendering; parseable.  The
    variable of a binder at depth d prints as ``%d``, a name no identifier
    can spell, so alpha-equal terms print alike and distinct ones apart."""
    return _canon(t, {}, 0)


def _canon(t, env, depth):
    # applications are most of the nodes, so they are tested first
    if isinstance(t, App):
        return '(%s %s)' % (_canon(t.fn, env, depth), _canon(t.arg, env, depth))
    if isinstance(t, Const):
        return t.display_name
    if isinstance(t, Var):
        bound = env.get((t.name, t.ty))
        if bound is not None:
            return bound
        return '%s:%s' % (t.name, type_to_str(t.ty))
    if isinstance(t, Abs):
        name = '%%%d' % depth
        env2 = dict(env)
        env2[(t.var.name, t.var.ty)] = name
        return '(\\%s:%s. %s)' % (name, type_to_str(t.var.ty),
                                  _canon(t.body, env2, depth + 1))
    if isinstance(t, Pair):
        return '<%s, %s>' % (_canon(t.left, env, depth), _canon(t.right, env, depth))
    if isinstance(t, Proj):
        return '(%s %s)' % ('fst' if t.index == 1 else 'snd', _canon(t.arg, env, depth))
    raise ParseError('not a term: %r' % (t,))


def canonical_theorem(thm):
    hyps = ' ; '.join(canonical_term(h) for h in thm.hyps)
    return '%s |- %s' % (hyps, canonical_term(thm.concl))


# ---------------------------------------------------------------------------
# Pretty printing

_PREC_BINDER = 0
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_EQ = 4
_PREC_CAT = 5
_PREC_NOT = 6
_PREC_APP = 7
_PREC_ATOM = 8

_BIN_PRETTY = {'imp': ('=>', _PREC_IMP), 'or': ('\\/', _PREC_OR),
               'and': ('/\\', _PREC_AND), 'eq': ('=', _PREC_EQ)}


def pretty_term(t):
    return _pretty(t, _PREC_BINDER)


def _wrap(s, prec, ctx):
    return '(%s)' % s if prec < ctx else s


def _pretty(t, ctx):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.display_name
    if isinstance(t, Abs):
        s = '\\%s:%s. %s' % (t.var.name, type_to_str(t.var.ty),
                             _pretty(t.body, _PREC_BINDER))
        return _wrap(s, _PREC_BINDER, ctx)
    if isinstance(t, Pair):
        return '<%s, %s>' % (_pretty(t.left, _PREC_BINDER),
                             _pretty(t.right, _PREC_BINDER))
    if isinstance(t, Proj):
        word = 'fst' if t.index == 1 else 'snd'
        return '%s(%s)' % (word, _pretty(t.arg, _PREC_BINDER))
    if isinstance(t, App):
        return _pretty_app(t, ctx)
    raise ParseError('not a term: %r' % (t,))


def _pretty_app(t, ctx):
    head = t
    args = []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if isinstance(head, Const):
        name = head.name
        if name in _BIN_PRETTY and len(args) == 2:
            sym, prec = _BIN_PRETTY[name]
            s = '%s %s %s' % (_pretty(args[0], prec + 1), sym,
                              _pretty(args[1], prec if sym != '=' else prec + 1))
            return _wrap(s, prec, ctx)
        if name == 'not' and len(args) == 1:
            s = '~%s' % _pretty(args[0], _PREC_NOT)
            return _wrap(s, _PREC_NOT, ctx)
        if name in ('forall', 'exists') and len(args) == 1 and isinstance(args[0], Abs):
            mark = '!' if name == 'forall' else '?'
            b = args[0]
            s = '%s%s:%s. %s' % (mark, b.var.name, type_to_str(b.var.ty),
                                 _pretty(b.body, _PREC_BINDER))
            return _wrap(s, _PREC_BINDER, ctx)
        if name == 'cond' and len(args) == 1:
            d = kernel.dest_cond(t)
            if d is not None:
                return '%s(%s, %s, %s)' % (head.display_name,
                                           _pretty(d[0], _PREC_BINDER),
                                           _pretty(d[1], _PREC_BINDER),
                                           _pretty(d[2], _PREC_BINDER))
        if name == 'conc' and len(args) == 1 and isinstance(args[0], Pair):
            s = '%s ++ %s' % (_pretty(args[0].left, _PREC_CAT + 1),
                              _pretty(args[0].right, _PREC_CAT))
            return _wrap(s, _PREC_CAT, ctx)
    fn, arg = t.fn, t.arg
    s = '%s(%s)' % (_pretty(fn, _PREC_APP), _pretty(arg, _PREC_BINDER))
    if isinstance(fn, Abs):
        s = '(%s)(%s)' % (_pretty(fn, _PREC_BINDER), _pretty(arg, _PREC_BINDER))
    return s


def pretty_theorem(thm):
    concl = _pretty(thm.concl, _PREC_BINDER)
    if not thm.hyps:
        return '|- %s' % concl
    return '%s |- %s' % (', '.join(_pretty(h, _PREC_BINDER) for h in thm.hyps), concl)


# ---------------------------------------------------------------------------
# Lexer

_TWO_CHAR = ('/\\', '\\/', '=>', '++', '->')
_ONE_CHAR = '()<>,.:\\!?~=[]*'
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

    ``theory`` supplies declared constants; ``var_types`` maps free variable
    names to types; ``default_var_type`` (when set) types unannotated unknown
    identifiers; ``phon_resolver`` maps /word/ literals to terms;
    ``placeholders`` maps operand indexes to variables, and ``sem_fn`` /
    ``phon_fn`` interpret the rule-body keywords sem(...) and phon(...).
    """

    def __init__(self, theory=None, var_types=None, default_var_type=None,
                 phon_resolver=None, placeholders=None, sem_fn=None, phon_fn=None):
        self.theory = theory
        self.var_types = dict(var_types or {})
        self.default_var_type = default_var_type
        self.phon_resolver = phon_resolver
        self.placeholders = placeholders
        self.sem_fn = sem_fn
        self.phon_fn = phon_fn


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

    # expression levels -----------------------------------------------------

    def term(self):
        t = self.peek()
        if t.kind == 'sym' and t.val in ('\\', '!', '?'):
            return self.binder(t.val)
        return self.imp_level()

    def binder(self, mark):
        self.next()
        name = self.expect('ident').val
        self.expect('sym', ':')
        ty = self.type_atom()
        self.expect('sym', '.')
        v = Var(name, ty)
        self.bound.append(v)
        body = self.term()
        self.bound.pop()
        if mark == '\\':
            return Abs(v, body)
        if mark == '!':
            return kernel.mk_forall(v, body)
        return kernel.mk_exists(v, body)

    def imp_level(self):
        left = self.or_level()
        if self.at_sym('=>'):
            self.next()
            return kernel.mk_imp(left, self._rhs(self.imp_level))
        return left

    def or_level(self):
        left = self.and_level()
        if self.at_sym('\\/'):
            self.next()
            right = self._rhs(self.or_level)
            return kernel.mk_disj(left, right)
        return left

    def and_level(self):
        left = self.eq_level()
        if self.at_sym('/\\'):
            self.next()
            right = self._rhs(self.and_level)
            return kernel.mk_conj(left, right)
        return left

    def _rhs(self, cont):
        # a binder is allowed directly to the right of any infix operator
        t = self.peek()
        if t.kind == 'sym' and t.val in ('\\', '!', '?'):
            return self.binder(t.val)
        return cont()

    def eq_level(self):
        left = self.cat_level()
        if self.at_sym('='):
            self.next()
            right = self._rhs(self.cat_level)
            return kernel.mk_eq(left, right)
        return left

    def cat_level(self):
        left = self.unary_level()
        if self.at_sym('++'):
            self.next()
            right = self._rhs(self.cat_level)
            return _mk_conc(left, right)
        return left

    def unary_level(self):
        if self.at_sym('~'):
            self.next()
            return kernel.mk_not(self.unary_level())
        return self.app_level()

    def app_level(self):
        t = self.primary()
        while self._starts_primary():
            arg = self.primary()
            if not isinstance(t.ty, FunType):
                raise ParseError('applying non-function %s' % pretty_term(t))
            t = App(t, arg)
        return t

    def _starts_primary(self):
        t = self.peek()
        if t.kind in ('ident', 'word', 'placeholder'):
            return True
        return t.kind == 'sym' and t.val in ('(', '<')

    def primary(self):
        t = self.next()
        if t.kind == 'sym' and t.val == '(':
            return self.paren_group()
        if t.kind == 'sym' and t.val == '<':
            left = self.term()
            self.expect('sym', ',')
            right = self.term()
            self.expect('sym', '>')
            return Pair(left, right)
        if t.kind == 'word':
            if self.env.phon_resolver is None:
                raise ParseError('/word/ literal outside a grammar context')
            return self.env.phon_resolver(t.val)
        if t.kind == 'placeholder':
            if not self.env.placeholders or t.val not in self.env.placeholders:
                raise ParseError('placeholder $%d not available here' % t.val)
            return self.env.placeholders[t.val]
        if t.kind == 'ident':
            return self.ident_expr(t.val)
        raise ParseError('unexpected %r at %d' % (t.val, t.pos))

    def paren_group(self):
        items = [self.term()]
        while self.at_sym(','):
            self.next()
            items.append(self.term())
        self.expect('sym', ')')
        t = items[-1]
        for left in reversed(items[:-1]):
            t = Pair(left, t)
        return t

    def ident_expr(self, name):
        if name in ('fst', 'snd'):
            arg = self.primary()
            return Proj(1 if name == 'fst' else 2, arg)
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
            return kernel.logical_const(name, targs)
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
            c = kernel._NULLARY_LOGICAL.get(name)
            if c is None:
                raise ParseError('%s needs a type argument' % name)
            return c()
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


def _mk_conc(left, right):
    if left.ty != PHON or right.ty != PHON:
        raise ParseError('++ needs Phon operands')
    conc = Const('conc', FunType(ProdType(PHON, PHON), PHON))
    return App(conc, Pair(left, right))


def theory_phon_resolver(th):
    """A /word/ resolver against a theory's phonology constants.

    The empty literal maps to the unit constant ``//``; a multi-token word
    becomes a right-nested concatenation of its token constants.  This is
    the one alphabet check: a token without a ``/token/`` constant raises
    ParseError.
    """
    def resolve(tokens):
        if not tokens:
            return th.const('//')
        parts = []
        for tok in tokens:
            if '/%s/' % tok not in th.constants:
                raise ParseError('token %r not in the alphabet' % tok)
            parts.append(th.const('/%s/' % tok))
        t = parts[-1]
        for left in reversed(parts[:-1]):
            t = _mk_conc(left, t)
        return t
    return resolve


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
