"""Grammars as axiomatic theories.

A grammar declares an alphabet, sign types with their meaning types, a
lexicon and combination rules.  ``elaborate`` turns the declaration into a
frozen theory: each sign type becomes a base type sigma with constants
``phon_sigma : sigma -> Phon`` and ``sem_sigma : sigma -> Sem(sigma)``,
lexical entries and rules become constants, and phonology lives in the free
monoid over the alphabet (constants ``/token/``, unit ``//``, concatenation
``conc`` with associativity and unit axioms).  Each lexeme or rule c gets two
axioms, ``lex.c.phon``/``rule.c.phon`` and ``.sem``: the plain equations
``phon_T(c x1 ... xn) = P`` and ``sem_T(c x1 ... xn) = M``, whose operand
variables ``xi`` are free, so a proof instantiates them as they stand.  The
monoid laws state theirs with ``x``, ``y`` and ``z`` free in the same way.

A lexeme is the sign constructor with no operands: ``lex`` and ``rule``
lines read into one declaration record, and each is elaborated by one path
into one ``Constructor`` record, which the chart and the proof builder read.

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

import os
import re
from dataclasses import dataclass, field
from types import MappingProxyType

from . import kernel, rules, syntax
from .kernel import App, BaseType, FunType, PHON, Term, Theory, Var, mk_eq


class GrammarError(Exception):
    pass


_TOKEN_RE = re.compile(r"^[a-z0-9'][a-z0-9'_-]*$")
# the logical constants, the reader's keywords sem and phon, the monoid's
# conc and the core base types
_RESERVED = kernel.LOGICAL_NAMES | {'sem', 'phon', 'conc'} | set(kernel.CORE_BASE_TYPES)
_X, _Y, _Z = Var('x', PHON), Var('y', PHON), Var('z', PHON)     # free in the monoid laws


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

    def __repr__(self):
        return '/%s/' % ' '.join(self.tokens)


@dataclass
class ConstructorDecl:
    """A ``lex`` or ``rule`` declaration; a lexeme has no operands."""
    name: str
    operands: tuple         # the operands' sign types
    result: str             # the sign type it builds
    phon_src: str
    sem_src: str

    @property
    def kind(self):
        return 'rule' if self.operands else 'lex'


@dataclass
class GrammarSpec:
    """Raw grammar declaration; meaning terms are kept as source strings."""
    alphabet: tuple = ()
    sign_types: dict = field(default_factory=dict)   # name -> ('base', src) | ('slash', op, res)
    constants: list = field(default_factory=list)    # (name, type source)
    lexicon: list = field(default_factory=list)      # ConstructorDecl, no operands
    rules: list = field(default_factory=list)        # ConstructorDecl


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
        m = (re.match(r'^(lex)\s+(\S+)\s*:()\s*(\S+)\s*\{(.*)\}$', line)
             or re.match(r'^(rule)\s+(\S+)\s*:\s*(.+?)\s*->\s*(\S+)\s*\{(.*)\}$', line))
        if m:
            kind, name, ops, res, body = m.groups()
            _check_name(name)
            operands = tuple(ops.split())
            if kind == 'rule' and not operands:
                raise GrammarError('rule %s has no operands' % name)
            phon, sem = _parse_block(body, '%s %s' % (kind, name))
            (spec.rules if operands else spec.lexicon).append(
                ConstructorDecl(name, operands, res, phon, sem))
            continue
        raise GrammarError('cannot parse declaration: %s' % line)
    return spec


def _check_name(name):
    if not re.fullmatch(syntax.IDENT, name):
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
class Constructor:
    """An elaborated lexeme or rule: the constant ``const`` builds a sign of
    type ``result`` from signs of the types ``operands``, none for a
    lexeme, and its axioms are ``prefix.phon`` and ``prefix.sem``."""
    name: str
    prefix: str             # lex.<name> or rule.<name>
    operands: tuple
    result: str
    surface: object         # a lexeme's Word; a rule's operand indexes (1-based) in surface order
    operand_vars: tuple
    meaning: Term           # over the operand variables
    const: Term
    reads_phon: bool        # the meaning uses some phon($i)
    slots: tuple            # the operands' sign types in surface order
    order: tuple            # the slots' places in operand order


class Grammar:
    """An elaborated grammar: the frozen theory plus its constructors, the
    lexemes in ``lexicon`` and the rules in ``rules``, and ``constructors``
    maps each one's constant to its record.  Reports print with ``names``,
    which maps each binder of the source's meanings to the first name it
    was written with."""

    def __init__(self, spec, theory, sem_types, names):
        self.spec = spec
        self.theory = theory
        self.sem_types = sem_types
        self.lexicon, self.rules, self.constructors = [], [], {}    # filled by elaborate
        self.names = names
        self.proofs = None      # every parsed sign's proofs, made at the first parse

    def projection(self, kind, t):
        """``phon_T(t)`` or ``sem_T(t)``, by ``kind``, for a term t of sign
        type T."""
        if isinstance(t.ty, BaseType) and t.ty.name in self.sem_types:
            return App(self.theory.const(projection_name(kind, t.ty.name)), t)
        raise syntax.ParseError('%s(...) needs a sign-typed argument' % kind)

    def term_env(self, **kw):
        kw.setdefault('theory', self.theory)
        kw.setdefault('projection', self.projection)
        return syntax.TermEnv(**kw)


def projection_name(kind, sty):
    """The name of sign type sty's projection ``phon_sty`` or ``sem_sty``."""
    return '%s_%s' % (kind, sty)


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
        m = re.match(r'^\$([0-9]+)$', p)
        if not m:
            raise GrammarError('phon pattern in %s must be $i placeholders '
                               'joined by ++, found %r' % (where, p))
        pattern.append(int(m.group(1)))
    if sorted(pattern) != list(range(1, n + 1)):
        raise GrammarError('phon pattern in %s must use each of $1..$%d '
                           'exactly once' % (where, n))
    return tuple(pattern)


def elaborate(text, name='g'):
    """Build the frozen theory of a grammar's source text and return the
    Grammar."""
    spec = parse_grammar_text(text)
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
        th.add_constant(projection_name('phon', sty), FunType(sigma, PHON))
        th.add_constant(projection_name('sem', sty), FunType(sigma, sem_types[sty]))
    for cname, tsrc in spec.constants:
        th.add_constant(cname, _declared_type(th, tsrc, 'const %s' % cname))
    decls = spec.lexicon + spec.rules
    for d in decls:
        for o in d.operands + (d.result,):
            if o not in spec.sign_types:
                raise GrammarError('%s %s: unknown sign type %s' % (d.kind, d.name, o))
        # a lexeme's type is its sign type, a rule's the curried function type
        ty = BaseType(d.result)
        for o in reversed(d.operands):
            ty = FunType(BaseType(o), ty)
        th.add_constant(d.name, ty)

    names = {}      # binder -> name, filled by the term reader
    g = Grammar(spec, th, sem_types, MappingProxyType(names))
    # free monoid axioms
    cat, unit = syntax.mk_conc, th.const('//')
    th.add_axiom('phon.assoc', mk_eq(cat(cat(_X, _Y), _Z), cat(_X, _Y, _Z)))
    th.add_axiom('phon.lunit', mk_eq(cat(unit, _X), _X))
    th.add_axiom('phon.runit', mk_eq(cat(_X, unit), _X))

    projections = {projection_name(kind, sty): kind for kind in ('phon', 'sem')
                   for sty in spec.sign_types}
    for d in decls:
        where, n = '%s %s' % (d.kind, d.name), len(d.operands)
        opvars = tuple(Var('x%d' % i, BaseType(o)) for i, o in enumerate(d.operands, 1))
        sign = th.const(d.name)
        for v in opvars:
            sign = App(sign, v)
        if n:
            surface = _parse_phon_pattern(d.phon_src, n, where)
            phon = cat(*(g.projection('phon', opvars[i - 1]) for i in surface))
            slots = tuple(d.operands[i - 1] for i in surface)
            order = tuple(sorted(range(n), key=surface.__getitem__))
        else:
            (surface, phon), slots, order = _parse_lex_phon(th, d, where), (), ()
        env = syntax.TermEnv(theory=th, placeholders=dict(enumerate(opvars, 1)),
                             projection=g.projection if n else _no_operand, names=names)
        try:
            sem = syntax.parse_term(d.sem_src, env)
        except (syntax.ParseError, kernel.KernelError) as e:
            raise GrammarError('%s: bad meaning %r: %s' % (where, d.sem_src, e))
        want = sem_types[d.result]
        if sem.ty != want:
            raise GrammarError('%s: meaning has type %s, %s %s needs %s'
                               % (where, kernel.type_to_str(sem.ty),
                                  'result' if n else 'sign type', d.result,
                                  kernel.type_to_str(want)))
        extra = sem.free_vars - set(opvars)
        if extra:
            free = ' '.join(sorted(v.name for v in extra))
            raise GrammarError('%s: meaning may only use operands $1..$%d (free: %s)'
                               % (where, n, free) if n else
                               '%s: meaning must be closed (free: %s); declare '
                               'constants instead' % (where, free))
        reads_phon = _check_projections(where, sem, projections, opvars)
        prefix = '%s.%s' % (d.kind, d.name)
        _add_sign_axioms(g, prefix, sign, phon, sem)
        c = Constructor(d.name, prefix, d.operands, d.result, surface, opvars, sem,
                        th.const(d.name), reads_phon, slots, order)
        (g.rules if n else g.lexicon).append(c)
        g.constructors[c.const] = c

    th.freeze()
    return g


def _no_operand(kind, t):
    raise syntax.ParseError('%s(...) reads an operand, and a lexeme has none' % kind)


def _add_sign_axioms(g, name, sign, phon, sem):
    """The axioms ``name.phon``, phon_T(sign) = phon, and ``name.sem``,
    sem_T(sign) = sem, for a sign of type T."""
    for kind, rhs in (('phon', phon), ('sem', sem)):
        g.theory.add_axiom('%s.%s' % (name, kind), mk_eq(g.projection(kind, sign), rhs))


def _check_projections(where, t, projections, operands):
    """Meanings may use phon_T/sem_T only as phon($i)/sem($i): applied to a
    free operand variable, so parse proofs can replace every one of them by
    the operand's proven value and none is left for a parent to rewrite.
    Whether t uses some phon($i); ``projections`` maps each projection's
    name to its kind."""
    if isinstance(t, kernel.Const) and t.name in projections:
        raise GrammarError('%s: meaning mentions %s; sign projections may '
                           'only appear as phon($i) or sem($i)' % (where, t.name))
    if isinstance(t, App) and isinstance(t.fn, kernel.Const) and t.arg in operands:
        return projections.get(t.fn.name) == 'phon'
    # a binder's own variable is a Bound index in its body, never an operand;
    # a list, not a generator, so every child is checked
    return any([_check_projections(where, getattr(t, f), projections, operands)
                for f in t._children])


def _parse_lex_phon(th, d, where):
    src = d.phon_src.strip()
    m = re.match(r'^/([^/]*)/$', src)
    if not m:
        raise GrammarError('%s: phon must be a single /word/ literal, '
                           'found %r' % (where, src))
    word = Word(m.group(1))
    try:
        return word, syntax.phon_term(th, word.tokens)
    except syntax.ParseError as e:
        raise GrammarError('%s: %s' % (where, e))


def load_grammar(path):
    """Elaborate a grammar file into a theory named after the file's stem."""
    with open(path) as f:
        text = f.read()
    return elaborate(text, name=os.path.splitext(os.path.basename(path))[0])


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


def law(th, name):
    """The axiom ``name`` of a grammar's theory as a theorem, made once per
    theory, so the proofs that instantiate it share one step."""
    return rules._cached(th, ('axiom', name), lambda: kernel.axiom(th, name))


def _dest_cat(t):
    return kernel.dest_bin('conc', t)


def _is_unit(t):
    return isinstance(t, kernel.Const) and t.name == '//'


def phon_step(th, t, memo=None):
    """|- t = nf, or None when t is nf already, where nf is the right-nested
    unit-free normal form of the top ``++`` spine of t.  Only that spine is
    normalised: every other node is an atom, a ``++`` tree under another
    constant too.  The proof uses phon.assoc, phon.lunit and phon.runit
    alone: for t = x ++ y, y is normalised first and x joined to it, a unit
    by its law and a ++ b by one assoc step that joins b, then a.  Each step
    adds O(1) terms, a subterm of t ++ a suffix of nf.  ``memo`` maps each
    term proved to its result and each nf to None."""
    if memo is None:
        memo = {}
    d = _dest_cat(t)
    if d is None or t in memo:
        return memo.get(t)
    x, y = d
    e = phon_step(th, y, memo)
    if e is not None:
        e = rules.ap_term(t.fn, e)      # x ++ y = x ++ y', x still to join
    elif _is_unit(y):
        e = kernel.instantiate(law(th, 'phon.runit'), {_X: x})
    elif _is_unit(x):
        e = kernel.instantiate(law(th, 'phon.lunit'), {_X: y})
    elif _dest_cat(x) is not None:
        # (a ++ b) ++ y = a ++ (b ++ y), whose step joins b to y, then a
        e = kernel.instantiate(law(th, 'phon.assoc'), {_X: x.fn.arg, _Y: x.arg, _Z: y})
    if e is not None:
        rest = phon_step(th, rules.rhs(e), memo)
        if rest is not None:
            e = kernel.transitivity(e, rest)
        memo[rules.rhs(e)] = None
    memo[t] = e
    return e
