"""Grammars as axiomatic theories.

A grammar declares an alphabet, sign types with their meaning types, a
lexicon and combination rules.  ``elaborate`` turns the declaration into a
frozen theory: each sign type becomes a base type sigma with constants
``phon_sigma : sigma -> Phon`` and ``sem_sigma : sigma -> Sem(sigma)``,
lexical entries and rules become constants with one defining axiom each,
and phonology lives in the free monoid over the alphabet (constants
``/token/``, unit ``//``, concatenation ``conc`` with associativity and
unit axioms).

Grammar file syntax, one declaration per entry (``#`` starts a comment):

    alphabet: fajdo blt
    signtype NP sem Ind
    signtype IV = NP \\ S
    const barks : Ind -> Bool
    lex FIDO : NP { phon = /fajdo/; sem = fido; }
    rule SUBJ : NP IV -> S { phon = $1 ++ $2; sem = sem($2)(sem($1)); }

``signtype a = b \\ c`` gives Sem(a) = Sem(b) -> Sem(c).  Rule phonology is
a permutation of the operand placeholders joined by ``++``; rule meanings
may use ``sem($i)`` and ``phon($i)``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import kernel, rules, syntax
from .kernel import (App, BaseType, FunType, PHON, Term, Theory, Var, mk_conj, mk_eq,
                     mk_forall)


class GrammarError(Exception):
    pass


_NAME_RE = re.compile(r'^[A-Za-z_][A-Za-z0-9_]*$')
_TOKEN_RE = re.compile(r"^[a-z0-9'][a-z0-9'_-]*$")
_RESERVED = frozenset(('pair', 'fst', 'snd', 'sem', 'phon', 'conc', 'true', 'false',
                       'not', 'and', 'or', 'imp', 'eq', 'iota', 'forall',
                       'exists', 'cond', 'Bool', 'Ind', 'Phon'))


class Word:
    """A sequence of alphabet tokens; the empty word is allowed."""

    __slots__ = ('tokens',)

    def __init__(self, tokens=()):
        if isinstance(tokens, str):
            tokens = tokens.split()
        self.tokens = tuple(tokens)

    def __eq__(self, other):
        return isinstance(other, Word) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    def __len__(self):
        return len(self.tokens)

    def __add__(self, other):
        return Word(self.tokens + other.tokens)

    def __repr__(self):
        return '/%s/' % ' '.join(self.tokens)


@dataclass
class LexDecl:
    name: str
    sign_type: str
    phon_src: str
    sem_src: str


@dataclass
class RuleDecl:
    name: str
    operands: tuple
    result: str
    phon_src: str
    sem_src: str


@dataclass
class GrammarSpec:
    """Raw grammar declaration; meaning terms are kept as source strings."""
    alphabet: tuple = ()
    sign_types: dict = field(default_factory=dict)   # name -> ('base', src) | ('slash', op, res)
    constants: list = field(default_factory=list)    # (name, type source)
    lexicon: list = field(default_factory=list)      # LexDecl
    rules: list = field(default_factory=list)        # RuleDecl

    @classmethod
    def from_text(cls, text):
        return parse_grammar_text(text)

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return parse_grammar_text(f.read())


def _logical_lines(text):
    """Physical lines joined across brace blocks, comments stripped."""
    out = []
    buf = ''
    depth = 0
    for raw in text.splitlines():
        line = raw.split('#', 1)[0].rstrip()
        if not line.strip() and depth == 0:
            continue
        buf = (buf + ' ' + line.strip()).strip() if buf else line.strip()
        depth = buf.count('{') - buf.count('}')
        if depth < 0:
            raise GrammarError('unbalanced braces near: %s' % line.strip())
        if depth == 0 and buf:
            out.append(buf)
            buf = ''
    if buf:
        raise GrammarError('unterminated brace block: %s' % buf[:60])
    return out


def _parse_block(body, where):
    fields = {}
    for part in body.split(';'):
        part = part.strip()
        if not part:
            continue
        if '=' not in part:
            raise GrammarError('bad field %r in %s' % (part, where))
        key, val = part.split('=', 1)
        key = key.strip()
        if key in fields:
            raise GrammarError('duplicate field %s in %s' % (key, where))
        fields[key] = val.strip()
    missing = {'phon', 'sem'} - set(fields)
    if missing:
        raise GrammarError('missing field %s in %s' % (sorted(missing)[0], where))
    extra = set(fields) - {'phon', 'sem'}
    if extra:
        raise GrammarError('unknown field %s in %s' % (sorted(extra)[0], where))
    return fields['phon'], fields['sem']


def parse_grammar_text(text):
    spec = GrammarSpec()
    for line in _logical_lines(text):
        if line.startswith('alphabet:'):
            toks = line[len('alphabet:'):].split()
            for t in toks:
                if not _TOKEN_RE.match(t):
                    raise GrammarError('bad alphabet token %r' % t)
            if spec.alphabet:
                raise GrammarError('duplicate alphabet declaration')
            if len(set(toks)) != len(toks):
                raise GrammarError('repeated alphabet token')
            spec.alphabet = tuple(toks)
            continue
        m = re.match(r'^signtype\s+(\S+)\s+sem\s+(.+)$', line)
        if m and '=' not in m.group(1):
            _declare_signtype(spec, m.group(1), ('base', m.group(2).strip()))
            continue
        m = re.match(r'^signtype\s+(\S+)\s*=\s*(\S+)\s*\\\s*(\S+)$', line)
        if m:
            _declare_signtype(spec, m.group(1), ('slash', m.group(2), m.group(3)))
            continue
        m = re.match(r'^const\s+(\S+)\s*:\s*(.+)$', line)
        if m:
            name = m.group(1)
            _check_name(name)
            spec.constants.append((name, m.group(2).strip()))
            continue
        m = re.match(r'^lex\s+(\S+)\s*:\s*(\S+)\s*\{(.*)\}$', line)
        if m:
            name, sty, body = m.groups()
            _check_name(name)
            phon, sem = _parse_block(body, 'lex %s' % name)
            spec.lexicon.append(LexDecl(name, sty, phon, sem))
            continue
        m = re.match(r'^rule\s+(\S+)\s*:\s*(.+?)\s*->\s*(\S+)\s*\{(.*)\}$', line)
        if m:
            name, ops, res, body = m.groups()
            _check_name(name)
            operands = tuple(ops.split())
            if not operands:
                raise GrammarError('rule %s has no operands' % name)
            phon, sem = _parse_block(body, 'rule %s' % name)
            spec.rules.append(RuleDecl(name, operands, res, phon, sem))
            continue
        raise GrammarError('cannot parse declaration: %s' % line)
    return spec


def _check_name(name):
    if not _NAME_RE.match(name):
        raise GrammarError('bad name %r' % name)
    if name in _RESERVED:
        raise GrammarError('%s is reserved' % name)


def _declare_signtype(spec, name, decl):
    _check_name(name)
    if name in spec.sign_types:
        raise GrammarError('duplicate sign type %s' % name)
    spec.sign_types[name] = decl


# ---------------------------------------------------------------------------
# Elaboration

@dataclass
class LexItem:
    name: str
    sign_type: str
    word: Word
    sem: Term
    const: Term


@dataclass
class RuleItem:
    name: str
    operands: tuple
    result: str
    pattern: tuple          # operand indexes (1-based) in surface order
    operand_vars: tuple
    sem_template: Term
    const: Term


class Grammar:
    """An elaborated grammar: the frozen theory plus lookup tables."""

    def __init__(self, spec, theory, sem_types, lexicon, rule_items):
        self.spec = spec
        self.theory = theory
        self.sem_types = sem_types
        self.lexicon = lexicon
        self.rules = rule_items

    @property
    def alphabet(self):
        return self.spec.alphabet

    def phon_fn(self, t):
        return _projection(self.theory, self.sem_types, 'phon', t)

    def sem_fn(self, t):
        return _projection(self.theory, self.sem_types, 'sem', t)

    def term_env(self, **kw):
        kw.setdefault('theory', self.theory)
        kw.setdefault('sem_fn', self.sem_fn)
        kw.setdefault('phon_fn', self.phon_fn)
        return syntax.TermEnv(**kw)

    def parse_term(self, src, **kw):
        return syntax.parse_term(src, self.term_env(**kw))


def _projection(th, sem_types, kind, t):
    """``phon_T(t)`` or ``sem_T(t)`` for a term t of sign type T."""
    if isinstance(t.ty, BaseType) and t.ty.name in sem_types:
        return App(th.const('%s_%s' % (kind, t.ty.name)), t)
    raise syntax.ParseError('%s(...) needs a sign-typed argument' % kind)


def _declared_type(th, src, where):
    """Read the type of a declaration; a bad one names the declaration."""
    try:
        return syntax.parse_type(src, th)
    except syntax.ParseError as e:
        raise syntax.ParseError('%s: bad type %r: %s' % (where, src, e))


def _sem_type(th, spec, sem_types, name, seen):
    if name in sem_types:
        return sem_types[name]
    if name not in spec.sign_types:
        raise GrammarError('unknown sign type %s' % name)
    if name in seen:
        raise GrammarError('circular sign type %s' % name)
    decl = spec.sign_types[name]
    if decl[0] == 'base':
        ty = _declared_type(th, decl[1], 'signtype %s' % name)
    else:
        _op, a, b = decl
        ty = FunType(_sem_type(th, spec, sem_types, a, seen | {name}),
                     _sem_type(th, spec, sem_types, b, seen | {name}))
    sem_types[name] = ty
    return ty


def _parse_phon_pattern(src, n, where):
    parts = [p.strip() for p in src.split('++')]
    pattern = []
    for p in parts:
        m = re.match(r'^\$(\d+)$', p)
        if not m:
            raise GrammarError('phon pattern in %s must be $i placeholders '
                               'joined by ++, found %r' % (where, p))
        pattern.append(int(m.group(1)))
    if sorted(pattern) != list(range(1, n + 1)):
        raise GrammarError('phon pattern in %s must use each of $1..$%d '
                           'exactly once' % (where, n))
    return tuple(pattern)


def elaborate(spec, name='g'):
    """Build the frozen theory of a grammar and return the Grammar."""
    if isinstance(spec, str):
        spec = parse_grammar_text(spec)
    th = Theory(name)

    for sty in spec.sign_types:
        th.add_base_type(sty)

    sem_types = {}
    for sty in spec.sign_types:
        _sem_type(th, spec, sem_types, sty, frozenset())

    th.add_constant('conc', FunType(PHON, FunType(PHON, PHON)))
    th.add_constant('//', PHON)
    for tok in spec.alphabet:
        th.add_constant('/%s/' % tok, PHON)
    for sty in spec.sign_types:
        sigma = BaseType(sty)
        th.add_constant('phon_%s' % sty, FunType(sigma, PHON))
        th.add_constant('sem_%s' % sty, FunType(sigma, sem_types[sty]))
    for cname, tsrc in spec.constants:
        th.add_constant(cname, _declared_type(th, tsrc, 'const %s' % cname))
    for lx in spec.lexicon:
        if lx.sign_type not in spec.sign_types:
            raise GrammarError('lex %s: unknown sign type %s' % (lx.name, lx.sign_type))
        th.add_constant(lx.name, BaseType(lx.sign_type))
    for r in spec.rules:
        for o in r.operands + (r.result,):
            if o not in spec.sign_types:
                raise GrammarError('rule %s: unknown sign type %s' % (r.name, o))
        ty = BaseType(r.result)
        for o in reversed(r.operands):
            ty = FunType(BaseType(o), ty)
        th.add_constant(r.name, ty)

    # free monoid axioms
    x, y, z = Var('x', PHON), Var('y', PHON), Var('z', PHON)
    cat, unit = syntax.mk_conc, th.const('//')
    th.add_axiom('phon.assoc',
                 mk_forall(x, mk_forall(y, mk_forall(z, mk_eq(
                     cat(cat(x, y), z), cat(x, cat(y, z)))))))
    th.add_axiom('phon.lunit', mk_forall(x, mk_eq(cat(unit, x), x)))
    th.add_axiom('phon.runit', mk_forall(x, mk_eq(cat(x, unit), x)))

    projections = {'%s_%s' % (kind, sty) for kind in ('phon', 'sem')
                   for sty in spec.sign_types}
    lex_items = []
    for lx in spec.lexicon:
        word, phon_term = _parse_lex_phon(th, lx)
        try:
            sem = syntax.parse_term(lx.sem_src, syntax.TermEnv(theory=th))
        except (syntax.ParseError, kernel.KernelError) as e:
            raise GrammarError('lex %s: bad meaning %r: %s' % (lx.name, lx.sem_src, e))
        want = sem_types[lx.sign_type]
        if sem.ty != want:
            raise GrammarError('lex %s: meaning has type %s, sign type %s needs %s'
                               % (lx.name, kernel.type_to_str(sem.ty), lx.sign_type,
                                  kernel.type_to_str(want)))
        if sem.free_vars:
            raise GrammarError('lex %s: meaning must be closed (free: %s); '
                               'declare constants instead'
                               % (lx.name, ' '.join(sorted(v.name for v in sem.free_vars))))
        _check_projections('lex %s' % lx.name, sem, projections, ())
        k = th.const(lx.name)
        prop = mk_conj(mk_eq(App(th.const('phon_%s' % lx.sign_type), k), phon_term),
                       mk_eq(App(th.const('sem_%s' % lx.sign_type), k), sem))
        th.add_axiom('lex.%s' % lx.name, prop)
        lex_items.append(LexItem(lx.name, lx.sign_type, word, sem, k))

    sem_fn = functools.partial(_projection, th, sem_types, 'sem')
    phon_fn = functools.partial(_projection, th, sem_types, 'phon')
    rule_items = []
    for r in spec.rules:
        n = len(r.operands)
        pattern = _parse_phon_pattern(r.phon_src, n, 'rule %s' % r.name)
        opvars = tuple(Var('x%d' % (i + 1), BaseType(o))
                       for i, o in enumerate(r.operands))
        sign = th.const(r.name)
        for v in opvars:
            sign = App(sign, v)
        env = syntax.TermEnv(theory=th, sem_fn=sem_fn, phon_fn=phon_fn,
                             placeholders={i + 1: v for i, v in enumerate(opvars)})
        try:
            sem_tmpl = syntax.parse_term(r.sem_src, env)
        except (syntax.ParseError, kernel.KernelError) as e:
            raise GrammarError('rule %s: bad meaning %r: %s' % (r.name, r.sem_src, e))
        want = sem_types[r.result]
        if sem_tmpl.ty != want:
            raise GrammarError('rule %s: meaning has type %s, result %s needs %s'
                               % (r.name, kernel.type_to_str(sem_tmpl.ty), r.result,
                                  kernel.type_to_str(want)))
        extra = sem_tmpl.free_vars - set(opvars)
        if extra:
            raise GrammarError('rule %s: meaning may only use operands $1..$%d '
                               '(free: %s)' % (r.name, n,
                                               ' '.join(sorted(v.name for v in extra))))
        _check_projections('rule %s' % r.name, sem_tmpl, projections, opvars)
        rhs = cat(*(App(th.const('phon_%s' % r.operands[i - 1]), opvars[i - 1])
                    for i in pattern))
        prop = mk_conj(mk_eq(App(th.const('phon_%s' % r.result), sign), rhs),
                       mk_eq(App(th.const('sem_%s' % r.result), sign), sem_tmpl))
        for v in reversed(opvars):
            prop = mk_forall(v, prop)
        th.add_axiom('rule.%s' % r.name, prop)
        rule_items.append(RuleItem(r.name, r.operands, r.result, pattern,
                                   opvars, sem_tmpl, th.const(r.name)))

    th.freeze()
    return Grammar(spec, th, sem_types, lex_items, rule_items)


def _check_projections(where, t, projections, operands):
    """Meanings may use phon_T/sem_T only as phon($i)/sem($i): applied to a
    free operand variable, so parse proofs can replace every one of them by
    the operand's proven value and none is left for a parent to rewrite."""
    if isinstance(t, kernel.Const) and t.name in projections:
        raise GrammarError('%s: meaning mentions %s; sign projections may '
                           'only appear as phon($i) or sem($i)' % (where, t.name))
    if isinstance(t, App) and isinstance(t.fn, kernel.Const) and t.arg in operands:
        return
    # a binder's own variable is a Bound index in its body, never an operand
    for f in t._children:
        _check_projections(where, getattr(t, f), projections, operands)


def _parse_lex_phon(th, lx):
    src = lx.phon_src.strip()
    m = re.match(r'^/([^/]*)/$', src)
    if not m:
        raise GrammarError('lex %s: phon must be a single /word/ literal, '
                           'found %r' % (lx.name, src))
    word = Word(m.group(1))
    try:
        return word, syntax.phon_term(th, word.tokens)
    except syntax.ParseError as e:
        raise GrammarError('lex %s: %s' % (lx.name, e))


def load_grammar(path, name=None):
    """Parse and elaborate a grammar file."""
    import os
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return elaborate(GrammarSpec.from_file(path), name=name)


# ---------------------------------------------------------------------------
# Words and phonology

def word_to_phon(g, word):
    """The canonical phonology term of a word: // for the empty word, the
    token constant for one token, right-nested concatenation otherwise."""
    if isinstance(word, str):
        word = Word(word)
    try:
        return syntax.phon_term(g.theory, word.tokens)
    except syntax.ParseError as e:
        raise GrammarError(str(e))


def _phon_schemas(th):
    """The monoid axioms specialised to _X, _Y and _Z by name, not to the
    binders' hints, which are first-come for each alpha-class."""
    def build():
        assoc = kernel.axiom(th, 'phon.assoc')
        for v in (_X, _Y, _Z):
            assoc = rules.spec(v, assoc)
        return {
            'assoc': assoc,
            'lunit': rules.spec(_X, kernel.axiom(th, 'phon.lunit')),
            'runit': rules.spec(_X, kernel.axiom(th, 'phon.runit')),
        }
    return rules._cached(th, 'phon_schemas', build)


_X, _Y, _Z = Var('x', PHON), Var('y', PHON), Var('z', PHON)


def _append_vars(n):
    return [Var('x%d' % i, PHON) for i in range(1, n + 1)]


def _append_schema(th, n):
    """|- (x1 ++ ... ++ xn) ++ z = x1 ++ ... ++ xn ++ z, right-nested, for
    n >= 2.  Derived once per theory and length, shortest first: n = 2 is an
    instance of phon.assoc, and each longer schema is assoc followed by the
    one before it under x1 ++ _."""
    cache = th._derived_cache
    if ('phon_append', n) not in cache:
        assoc = _phon_schemas(th)['assoc']
        for k in range(2, n + 1):
            if ('phon_append', k) in cache:
                continue
            xs = _append_vars(k)
            e = kernel.instantiate(assoc, {_X: xs[0], _Y: syntax.mk_conc(*xs[1:])})
            if k > 2:
                # |- (x2 ++ ... ++ xk) ++ z = x2 ++ ... ++ xk ++ z
                shifted = kernel.instantiate(cache[('phon_append', k - 1)],
                                             dict(zip(xs, xs[1:])))
                e = kernel.transitivity(e, rules.ap_term(rules.rhs(e).fn, shifted))
            cache[('phon_append', k)] = e
    return cache[('phon_append', n)]


def _dest_cat(t):
    return kernel.dest_bin('conc', t)


def _is_unit(t):
    return isinstance(t, kernel.Const) and t.name == '//'


def phon_step(th, t):
    """One normalising step at a ``++`` node, or None: a unit operand goes,
    and a left operand x1 ++ ... ++ xn moves right by one instance of the
    append schema for n.  The rewrite pass applies it bottom-up."""
    d = _dest_cat(t)
    if d is None:
        return None
    l, r = d
    if _is_unit(l):
        return kernel.instantiate(_phon_schemas(th)['lunit'], {_X: r})
    if _is_unit(r):
        return kernel.instantiate(_phon_schemas(th)['runit'], {_X: l})
    parts = []
    while (inner := _dest_cat(l)) is not None:
        parts.append(inner[0])
        l = inner[1]
    if not parts:
        return None
    parts.append(l)
    m = dict(zip(_append_vars(len(parts)), parts))
    m[_Z] = r
    return kernel.instantiate(_append_schema(th, len(parts)), m)


def phon_norm(g, t):
    """|- t = nf where nf is the right-nested unit-free normal form."""
    return rules.depth_rewrite(g.theory, t, phon_step)


def phon_to_word(g, t):
    """Read a normal-form phonology term back as a Word; None otherwise."""
    toks = []
    while True:
        d = _dest_cat(t)
        if d is not None:
            head, t = d
            tok = _const_token(g, head)
            if tok is None:
                return None
            toks.append(tok)
            continue
        if _is_unit(t):
            if toks:
                return None
            return Word(())
        tok = _const_token(g, t)
        if tok is None:
            return None
        toks.append(tok)
        return Word(tuple(toks))


def _const_token(g, t):
    if (isinstance(t, kernel.Const) and t.name.startswith('/')
            and t.name.endswith('/') and len(t.name) > 2):
        return t.name[1:-1]
    return None


def phon_homomorphism(g, u, v):
    """|- /u/ ++ /v/ = /uv/ for words u, v."""
    if isinstance(u, str):
        u = Word(u)
    if isinstance(v, str):
        v = Word(v)
    e = phon_norm(g, syntax.mk_conc(word_to_phon(g, u), word_to_phon(g, v)))
    want = word_to_phon(g, u + v)
    if rules.rhs(e) != want:
        raise GrammarError('phonology normalization failed for %r ++ %r' % (u, v))
    return e
