"""Proof trace export and independent re-verification.

A trace is line-oriented text: a header of ``#`` lines, then one primitive
inference per step line.  The first line is the version line
``# hogc trace v2``, and a trace with any other first line is rejected.
Then come comment lines, ``# theory <name> <sha256>``, which records the
theory fingerprint (a name may hold blanks, not a line break),
``# roots <index>...``, the root step indexes, and the tables:

    #B <name>           base type            #v <name> <type>   variable
    #F <type> <type>    function type        #c <name> <type>...  constant
    #P <type> <type>    product type         #a <term> <term>   application
                                             #l <term> <term>   abstraction

The n-th type line (``#B``, ``#F``, ``#P``) defines type n and the n-th term
line term n, counting from 0, and a line names only ids defined before it.
An id is written as a decimal numeral without leading zeros.  No line is
written twice, so each type, and each term outside a binder, has one id,
numbered by first appearance.  A constant lists its type arguments: none
for a declared one.  ``#l v b`` binds the variable term ``v`` in ``b``; the
exporter names the variable of a binder at depth d ``%d``, which no
identifier can spell.  A term keeps no binder names, so none reach a
trace.

A step line is

    <index> <rule-name> <args> ==> <hyps> |- <conclusion>

Arguments are ``@N`` references to earlier steps, ``{id}`` terms and
``"name"`` or ``"name[t1,...]"`` axiom names (an axiom schema at its type
ids); ``instantiate`` alternates ``{var} {term}`` pairs after the premise.
Hypotheses are term ids separated by `` ; `` and the conclusion is a term
id.  Each distinct judgement (hypotheses and conclusion) is one step; a
later use refers to that step.  A rule name is one of
``kernel.PRIMITIVE_RULES``; any other fails with ``unknown rule``.  Every
other ``#`` line is a comment; the exporter writes a comment line that
starts with ``theory`` or ``roots`` as ``# # ...``.

``verify_trace`` builds each table entry once with the kernel's public
constructors, replays every step through the kernel of a freshly supplied
theory, and accepts a claim only when its ids name exactly the replayed
hypotheses and conclusion: interned terms are one object per alpha-class,
so the test is identity.  It parses no term and prints none unless it
words a mismatch, so a trace is evidence that can be checked without
trusting the process that produced it, or the printer and parser.
"""

from __future__ import annotations

import re

from . import kernel, syntax
from .kernel import (Abs, App, BaseType, Bound, Const, FunType, ProdType, Theorem, Var,
                     type_to_str)

# SHA-256 from CPython's own module (_sha2 from 3.12, _sha256 before), which
# maps no OpenSSL; hashlib, which maps OpenSSL's libcrypto, only where
# neither exists, and then at the first fingerprint
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        def _sha256():
            import hashlib
            return hashlib.sha256()

VERSION = '# hogc trace v2'


class TraceError(Exception):
    def __init__(self, message, step=None):
        if step is not None:
            message = 'step %d: %s' % (step, message)
        super().__init__(message)
        self.step = step


def theory_fingerprint(th, theory_name=None):
    """Stable digest of a theory's name (or ``theory_name``), declared
    signature and axioms: SHA-256, in hex."""
    h = _sha256()
    h.update((th.name if theory_name is None else theory_name).encode())
    for name in sorted(th.base_types):
        h.update(('T %s\n' % name).encode())
    for name in sorted(th.constants):
        h.update(('C %s : %s\n' % (name, type_to_str(th.constants[name]))).encode())
    memo = {}
    for name in sorted(th.axioms):
        axiom = syntax.canonical_term(th.axioms[name], memo)
        h.update(('A %s : %s\n' % (name, axiom)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Export

def _steps(roots):
    """The distinct judgements of the roots' derivations, one theorem each,
    in dependency order, and a map from ``id()`` of every theorem met to the
    index of the step with its judgement.  Iterative: chains get deep."""
    order = []
    step = {}
    first = {}   # (hyps, concl) -> step index
    for root in roots:
        stack = [(root, False)]
        while stack:
            thm, expanded = stack.pop()
            if id(thm) in step:
                continue
            judgement = (thm.hyps, thm.concl)
            i = first.get(judgement)
            if i is None and expanded:
                i = first[judgement] = len(order)
                order.append(thm)
            if i is not None:
                step[id(thm)] = i
                continue
            stack.append((thm, True))
            for a in reversed(thm.args):
                if isinstance(a, Theorem):
                    stack.append((a, False))
    return order, step


# a name the table can hold: one field, and not a %d binder variable
_NAME = re.compile(r'[^\s%]\S*')


def _name(s):
    if not _NAME.fullmatch(s):
        raise TraceError('cannot write the name %r in a trace' % s)
    return s


class _Tables:
    """The type and term tables of one export.  Each distinct line is one
    entry, so each distinct type or term is written once, and ids count
    lines in order of first appearance."""

    def __init__(self, th):
        self.th = th
        self.types, self.type_lines = {}, []
        self.ids, self.term_lines = {}, []   # line -> id
        # a term with loose bound variables is written by its depth too
        self.memo = {}          # term or (term, depth) -> id

    def type(self, ty):
        i = self.types.get(ty)
        if i is None:
            cls = type(ty)
            if cls is BaseType:
                line = '#B ' + _name(ty.name)
            elif cls is FunType:
                line = '#F %d %d' % (self.type(ty.dom), self.type(ty.cod))
            else:
                line = '#P %d %d' % (self.type(ty.left), self.type(ty.right))
            i = self.types[ty] = len(self.type_lines)
            self.type_lines.append(line)
        return i

    def term(self, t, depth=0):
        """The id of ``t`` under ``depth`` binders, by an explicit stack, so no
        term is too deep: fn before arg, a binder's ``#v`` line before its body."""
        i = self.memo.get((t, depth) if t._loose else t)
        if i is not None:   # most calls: no stack to build
            return i
        ids, todo = [], [(t, depth, None)]
        while todo:
            t, depth, v = todo.pop()   # v is None on the way down
            key = (t, depth) if t._loose else t
            i = self.memo.get(key) if v is None else None
            if i is None:
                # applications are most of the nodes, so they are tested first
                cls = type(t)
                if cls is App and v is None:
                    todo += ((t, depth, ()), (t.arg, depth, None), (t.fn, depth, None))
                    continue
                elif cls is App:
                    line = '#a %d %d' % (ids.pop(-2), ids.pop())
                elif cls is Const:
                    line = ' '.join(['#c', _name(t.name)] + [str(self.type(a)) for a in t.targs])
                elif cls is Var:
                    line = '#v %s %d' % (_name(t.name), self.type(t.ty))
                elif cls is Bound:
                    line = '#v %%%d %d' % (depth - 1 - t.index, self.type(t.ty))
                elif v is None:
                    v = self._line('#v %%%d %d' % (depth, self.type(t.ty.dom)))
                    todo += ((t, depth, v), (t.body, depth + 1, None))
                    continue
                else:
                    line = '#l %d %d' % (v, ids.pop())
                i = self.memo[key] = self._line(line)
            ids.append(i)
        return ids.pop()

    def _line(self, line):
        i = self.ids.get(line)
        if i is None:
            i = self.ids[line] = len(self.term_lines)
            self.term_lines.append(line)
        return i

    def axiom(self, label):
        """``name[T1,...]`` with each type written as its id."""
        name, sep, inner = label.partition('[')
        if not sep:
            return label
        tys = [syntax.parse_type(s, self.th) for s in inner[:-1].split(',')]
        return '%s[%s]' % (name, ','.join(str(self.type(ty)) for ty in tys))


def _fmt_args(args, step, tables):
    out = []
    for a in args:
        if isinstance(a, Theorem):
            out.append('@%d' % step[id(a)])
        elif isinstance(a, str):
            out.append('"%s"' % tables.axiom(a))
        elif isinstance(a, tuple):
            for v, t in a:
                out.append('{%d} {%d}' % (tables.term(v), tables.term(t)))
        else:
            out.append('{%d}' % tables.term(a))
    return ' '.join(out)


def export_trace(thms, comment=None):
    """Serialize theorems (with their whole derivations) to trace text; each
    line of ``comment`` becomes a ``#`` line of the header."""
    if isinstance(thms, Theorem):
        thms = [thms]
    if not thms:
        raise TraceError('nothing to export')
    th = thms[0].theory
    for t in thms:
        if t.theory is not th:
            raise TraceError('theorems from different theories in one trace')
    # the verifier splits lines with splitlines, at '\r' and the like too
    if len((th.name + '.').splitlines()) > 1:
        raise TraceError('theory name %r holds a line break, which no theory line can carry'
                         % th.name)
    order, step = _steps(thms)
    tables = _Tables(th)
    body = []
    for i, t in enumerate(order):
        args = _fmt_args(t.args, step, tables)
        hyps = ' ; '.join([str(tables.term(h)) for h in t.hyps])
        body.append('%d %s %s ==> %s |- %d' % (i, t.rule, args, hyps, tables.term(t.concl)))
    lines = [VERSION]
    for c in comment.splitlines() if comment else ():
        # a line that starts with a header word is written '# # ...', which
        # the verifier reads as a comment
        header = c.split()[:1] in (['roots'], ['theory'])
        lines.append(('# # %s' if header else '# %s') % c)
    lines.append('# theory %s %s' % (th.name, theory_fingerprint(th)))
    lines.append('# roots %s' % ' '.join(str(step[id(t)]) for t in thms))
    return '\n'.join(lines + tables.type_lines + tables.term_lines + body) + '\n'


# ---------------------------------------------------------------------------
# Verification

# a step index or table id: a decimal numeral without leading zeros, of at
# most 18 digits, which int() reads in any Python version
_INDEX = re.compile('0|[1-9][0-9]{0,17}')
# the name is all between 'theory' and the fingerprint, blanks included
_THEORY_LINE = re.compile(r'#\s*theory\s(.*)\s([0-9a-f]{64})\s*')

# rule -> whether it takes the theory first, and the kinds of its
# arguments: @ a step, { a term, v a variable term
_ARG_KINDS = {
    'reflexivity': (True, '{'), 'symmetry': (False, '@'),
    'transitivity': (False, '@@'), 'congruence': (False, '@@'),
    'abstraction': (False, 'v@'), 'beta_conversion': (True, '{'),
    'assume': (True, '{'), 'modus_ponens_eq': (False, '@@'),
    'deduct_antisym': (False, '@@'),
}
_VAR_ROLE = {'abstraction': 'abstraction binder', 'instantiate': 'instantiate target'}


def _run_step(th, rule, text, steps, types, terms, step):
    """Replay one step from its rule name and argument field.  ``steps`` and
    the tables map an id as written to its entry, so each id has one
    written form, the decimal numeral without leading zeros."""
    if rule == 'axiom':
        return _axiom(th, text, types, step)
    toks = text.split(' ') if text else []
    if rule == 'instantiate':
        if len(toks) % 2 == 0:
            raise TraceError('malformed instantiate arguments', step)
        with_theory, kinds = False, '@' + 'v{' * (len(toks) // 2)
    elif rule in _ARG_KINDS:
        with_theory, kinds = _ARG_KINDS[rule]
    else:
        raise TraceError('unknown rule %s' % rule, step)
    if len(toks) != len(kinds):
        raise TraceError('malformed arguments', step)
    vals = [th] if with_theory else []
    # in order, so a binder or target is checked before what follows it
    for kind, tok in zip(kinds, toks):
        c = tok[:1]
        if c == '@' and kind == '@':
            val = steps.get(tok[1:])
            if val is None:
                raise TraceError('%s @%s' % ('forward or dangling reference'
                                             if _INDEX.fullmatch(tok[1:])
                                             else 'bad step reference', tok[1:]), step)
        elif c == '{' and tok[-1] == '}' and kind != '@':
            val = terms.get(tok[1:-1])
            if val is None:
                raise TraceError('bad term id %r' % tok[1:-1], step)
            if kind == 'v':
                if type(val) is not Var:
                    raise TraceError('%s is not a variable' % _VAR_ROLE[rule], step)
                if rule == 'abstraction':
                    # its type must be the theory's, as for any term a rule
                    # takes in
                    kernel.type_of(val, th)
        elif c == '{' and tok[-1] != '}':
            raise TraceError('unterminated term argument', step)
        elif c not in ('@', '{'):
            raise TraceError('bad argument syntax near %r' % tok[:10], step)
        else:
            raise TraceError('malformed arguments', step)
        vals.append(val)
    if rule == 'instantiate':
        return kernel.instantiate(vals[0], dict(zip(vals[1::2], vals[2::2])))
    return getattr(kernel, rule)(*vals)


def _axiom(th, text, types, step):
    """Replay ``axiom "name"`` or ``axiom "name[t1,...]"``."""
    if len(text) < 2 or text[0] != '"' or text[-1] != '"' or '"' in text[1:-1]:
        raise TraceError('malformed arguments', step)
    label = text[1:-1]
    name, sep, inner = label.partition('[')
    if sep and not inner.endswith(']'):
        raise TraceError('malformed axiom name %r' % label, step)
    targs = []
    for s in inner[:-1].split(',') if sep else ():
        if s not in types:
            raise TraceError('bad type id %r in axiom name %r' % (s, label), step)
        targs.append(types[s])
    return kernel.axiom(th, name, targs)


# table tag -> number of fields after it; a constant has its name and then
# any number of type ids.  verify_trace reads #a lines itself.
_FIELDS = {'B': 1, 'F': 2, 'P': 2, 'v': 2, 'c': None, 'l': 2}
_TABLE_LINE = frozenset('#%s ' % tag for tag in _FIELDS)


def _read_entry(line, types, terms, th):
    """Build the type or term of one table line other than ``#a`` under the
    next id."""
    tag, *f = line[1:].split(' ')
    n = _FIELDS[tag]
    if not f or n is not None and len(f) != n:
        raise TraceError('table line %r: malformed' % line)
    try:
        if tag == 'l':
            entry = Abs(terms[f[0]], terms[f[1]])
        elif tag == 'v':
            entry = Var(f[0], types[f[1]])
        elif tag == 'c':
            targs = tuple(types[s] for s in f[1:])
            if f[0] in kernel.LOGICAL_NAMES:
                entry = kernel.logical_const(f[0], targs)
            elif targs:
                raise TraceError('declared constant %s takes no types' % f[0])
            else:
                entry = th.const(f[0])
        elif tag == 'B':
            entry = BaseType(f[0])
        else:
            entry = (FunType if tag == 'F' else ProdType)(types[f[0]], types[f[1]])
    except KeyError as e:
        raise TraceError('table line %r: bad id %r' % (line, e.args[0]))
    except (TraceError, kernel.KernelError) as e:
        raise TraceError('table line %r: %s' % (line, e))
    table = types if tag in 'BFP' else terms
    table[str(len(table))] = entry


def verify_trace(text, th, strict_fingerprint=False):
    """Replay a trace in theory ``th`` and return its root theorems.

    The first line must be ``# hogc trace v2``.  Every table line is built
    once, every step is re-executed through the kernel, and its claim must
    name the result's hypotheses and conclusion; any mismatch, malformed
    line or failing rule raises TraceError, carrying the step index when a
    step line is at fault.  A ``# roots`` line, when present, must list one
    or more step indexes; the last step is the root otherwise.  With
    ``strict_fingerprint`` exactly one ``# theory <name> <sha256>`` line
    must come before the first step, and its fingerprint must be ``th``'s;
    when it is ``th``'s under the trace's theory name, the error says that
    only the names differ.
    """
    lines = text.splitlines()
    if not lines or lines[0] != VERSION:
        raise TraceError('the first line is %r, not the version line %r'
                         % (lines[0] if lines else '', VERSION))
    # id as written -> entry, for the two tables and the steps
    types, terms, steps = {}, {}, {}
    roots = roots_line = None
    fingerprinted = False
    for line in lines[1:]:
        if not line:
            continue
        if line[0] == '#':
            if line[:3] == '#a ':
                # applications are most of the table, so they are read here,
                # without a call to _read_entry
                fn, _, arg = line[3:].partition(' ')
                try:
                    terms[str(len(terms))] = App(terms[fn], terms[arg])
                except KeyError as e:
                    if not arg or ' ' in arg:
                        raise TraceError('table line %r: malformed' % line)
                    raise TraceError('table line %r: bad id %r' % (line, e.args[0]))
                except kernel.KernelError as e:
                    raise TraceError('table line %r: %s' % (line, e))
                continue
            if line[:3] in _TABLE_LINE:
                _read_entry(line, types, terms, th)
                continue
            parts = line[1:].split()
            if parts[:1] == ['roots']:
                if roots_line is not None:
                    raise TraceError('more than one roots line: %r' % line)
                if not parts[1:] or not all(_INDEX.fullmatch(p) for p in parts[1:]):
                    raise TraceError('bad roots line %r: want one or more step indexes'
                                     % line)
                roots, roots_line = parts[1:], line
            elif parts[:1] == ['theory'] and strict_fingerprint:
                if fingerprinted:
                    raise TraceError('more than one theory line: %r' % line)
                m = _THEORY_LINE.fullmatch(line)
                if not m:
                    raise TraceError('bad theory line %r: want # theory <name> <sha256>'
                                     % line)
                _check_fingerprint(m[1], m[2], th)
                fingerprinted = True
            continue
        if strict_fingerprint and not fingerprinted:
            raise TraceError('no theory line before the first step')
        expect = len(steps)
        head, sep, claim = line.partition(' ==> ')
        if not sep:
            raise TraceError('missing ==> in line: %r' % line, expect)
        fields = head.split(' ', 2)
        if len(fields) < 2:
            raise TraceError('malformed step line: %r' % line, expect)
        index = str(expect)
        if fields[0] != index:
            if not _INDEX.fullmatch(fields[0]):
                raise TraceError('bad step index in %r' % line, expect)
            raise TraceError('step index %s out of order (expected %d)'
                             % (fields[0], expect), expect)
        try:
            thm = _run_step(th, fields[1], fields[2] if len(fields) > 2 else '', steps,
                            types, terms, expect)
        except kernel.KernelError as e:
            raise TraceError('rule failed: %s' % e, expect)
        _check_claim(thm, claim, expect, terms)
        steps[index] = thm
    if not steps:
        raise TraceError('empty trace')
    if roots is None:
        return [steps[str(len(steps) - 1)]]
    if any(i not in steps for i in roots):
        raise TraceError('root index out of range in %r: the last step is %d'
                         % (roots_line, len(steps) - 1))
    return [steps[i] for i in roots]


def _check_fingerprint(name, fingerprint, th):
    if fingerprint == theory_fingerprint(th):
        return
    if name != th.name and fingerprint == theory_fingerprint(th, name):
        raise TraceError('theory name mismatch: trace %s, theory %s '
                         '(signature and axioms are the same)' % (name, th.name))
    raise TraceError('theory fingerprint mismatch: trace %s, theory %s'
                     % (fingerprint, theory_fingerprint(th)))


def _check_claim(thm, claim, step, terms):
    """Check a claimed judgement against the replayed theorem: its ids must
    name the theorem's hypotheses, in order, and its conclusion.  Terms are
    interned, so naming is identity.  Any other text in the conclusion or
    the hypothesis field is a mismatch there."""
    parts = claim.split(' |- ')
    if len(parts) != 2:
        raise TraceError('malformed judgement: %r' % claim, step)
    hyps = parts[0].split(' ; ') if parts[0] else []
    if terms.get(parts[1]) is not thm.concl:
        what = 'conclusion'
    elif tuple(map(terms.get, hyps)) != thm.hyps:
        what = 'hypothesis'
    else:
        return
    memo = {}

    def show(t):
        return syntax.canonical_term(t, memo)

    def claimed(s):
        return show(terms[s]) if s in terms else repr(s)

    raise TraceError('%s: %s mismatch: claimed %s, derived %s' % (
        thm.rule, what, _judgement(map(claimed, hyps), claimed(parts[1])),
        _judgement(map(show, thm.hyps), show(thm.concl))), step)


def _judgement(hyps, concl):
    hyps = ' ; '.join(hyps)
    return '%s |- %s' % (hyps, concl) if hyps else '|- ' + concl
