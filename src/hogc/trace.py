"""Proof trace export and independent re-verification.

A trace is line-oriented text, one primitive inference per line:

    <index> <rule-name> <args> ==> <hyps> |- <conclusion>

Arguments are ``@N`` references to earlier steps, ``{term}`` literals in
canonical syntax, and ``"name"`` or ``"name[T1,...]"`` axiom names (an
axiom schema at its type arguments); ``instantiate`` alternates
``{var} {term}`` pairs after the premise.  Hypotheses are ``;``-separated
canonical terms.  Lines starting with ``#`` are comments, except the
``# theory <name> <sha256>`` and ``# roots <index>...`` headers, where the
exporter records the theory fingerprint and the root step indexes; it writes
a comment line that starts with ``theory`` or ``roots`` as ``# # ...``.
Lines are read byte for byte: a blank at the end of a claim is a mismatch.
A rule name is one of ``kernel.PRIMITIVE_RULES``; any other fails with
``unknown rule``.

``verify_trace`` replays every step through the kernel of a freshly
supplied theory and checks the claimed judgement against the replayed one,
so a trace is evidence that can be checked without trusting the process
that produced it.  A claim must be byte-equal to the canonical printing of
the replayed step, which two judgements share only when they are
alpha-equal; claims are never parsed, only ``{term}`` literals are.

Export and replay each print a subterm once per call: one memo, owned by
the call and dropped when it returns, holds the canonical printing of every
subterm met so far.  The verifier also looks each literal up there: a
literal whose text is the printing of a subterm of an earlier step's
judgement, outside any binder, is that term, and only the others are parsed.
The lookup matches exact text, so a literal in any other written form is
parsed as before.
"""

from __future__ import annotations

import hashlib
import re

from . import kernel, syntax
from .kernel import Theorem, Var


class TraceError(Exception):
    def __init__(self, message, step=None):
        if step is not None:
            message = 'step %d: %s' % (step, message)
        super().__init__(message)
        self.step = step


def theory_fingerprint(th, theory_name=None):
    """Stable digest of a theory's name (or ``theory_name``), declared
    signature and axioms."""
    h = hashlib.sha256()
    h.update((th.name if theory_name is None else theory_name).encode())
    for name in sorted(th.base_types):
        h.update(('T %s\n' % name).encode())
    for name in sorted(th.constants):
        h.update(('C %s : %s\n' % (name, kernel.type_to_str(th.constants[name]))).encode())
    memo = {}
    for name in sorted(th.axioms):
        axiom = syntax.canonical_term(th.axioms[name], memo)
        h.update(('A %s : %s\n' % (name, axiom)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Export

def _postorder(roots):
    """Provenance DAG in dependency order, iteratively (chains get deep)."""
    order = []
    seen = set()
    for root in roots:
        stack = [(root, False)]
        while stack:
            thm, expanded = stack.pop()
            if id(thm) in seen:
                continue
            if expanded:
                seen.add(id(thm))
                order.append(thm)
                continue
            stack.append((thm, True))
            for a in reversed(thm.args):
                if isinstance(a, Theorem):
                    stack.append((a, False))
    return order


def _fmt_args(rule, args, idx, memo):
    out = []
    for a in args:
        if isinstance(a, Theorem):
            out.append('@%d' % idx[id(a)])
        elif isinstance(a, str):
            out.append('"%s"' % a)
        elif isinstance(a, tuple):
            for v, t in a:
                out.append('{%s}' % syntax.canonical_term(v, memo))
                out.append('{%s}' % syntax.canonical_term(t, memo))
        else:
            out.append('{%s}' % syntax.canonical_term(a, memo))
    return ' '.join(out)


def export_trace(thms, comment=None):
    """Serialize theorems (with their whole derivations) to trace text; each
    line of ``comment`` becomes a ``#`` line of the header.  Every literal
    and claim is printed through one memo, so each subterm is printed once
    per call."""
    if isinstance(thms, Theorem):
        thms = [thms]
    if not thms:
        raise TraceError('nothing to export')
    th = thms[0].theory
    for t in thms:
        if t.theory is not th:
            raise TraceError('theorems from different theories in one trace')
    order = _postorder(thms)
    idx = {id(t): i for i, t in enumerate(order)}
    lines = ['# hogc trace v1']
    for c in comment.splitlines() if comment else ():
        # a line that starts with a header word is written '# # ...', which
        # the verifier reads as a comment
        header = c.split()[:1] in (['roots'], ['theory'])
        lines.append(('# # %s' if header else '# %s') % c)
    lines.append('# theory %s %s' % (th.name, theory_fingerprint(th)))
    lines.append('# roots %s' % ' '.join(str(idx[id(t)]) for t in thms))
    memo = {}
    for i, t in enumerate(order):
        lines.append('%d %s %s ==> %s' % (i, t.rule, _fmt_args(t.rule, t.args, idx, memo),
                                          syntax.canonical_theorem(t, memo)))
    return '\n'.join(lines) + '\n'


# ---------------------------------------------------------------------------
# Verification

def _parse_args(s, step):
    """Split an argument field into @refs, {term} literals and "names"."""
    args = []
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c == ' ':
            i += 1
        elif c == '@':
            j = i + 1
            while j < n and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise TraceError('bad step reference', step)
            args.append(('ref', int(s[i + 1:j])))
            i = j
        elif c == '{':
            j = s.find('}', i)
            if j < 0:
                raise TraceError('unterminated term literal', step)
            args.append(('term', s[i + 1:j]))
            i = j + 1
        elif c == '"':
            j = s.find('"', i + 1)
            if j < 0:
                raise TraceError('unterminated name', step)
            args.append(('name', s[i + 1:j]))
            i = j + 1
        else:
            raise TraceError('bad argument syntax near %r' % s[i:i + 10], step)
    return args


def _need(args, step, *kinds):
    if len(args) != len(kinds) or any(a[0] != k for a, k in zip(args, kinds)):
        raise TraceError('malformed arguments', step)
    return [a[1] for a in args]


def _split_axiom_name(th, name, step):
    """Split ``"name[T1,...,Tn]"`` into the name and its parsed types (types
    contain no commas)."""
    base, sep, inner = name.partition('[')
    if not sep:
        return base, ()
    if not inner.endswith(']'):
        raise TraceError('malformed axiom name %r' % name, step)
    try:
        return base, tuple(syntax.parse_type(s, th) for s in inner[:-1].split(','))
    except syntax.ParseError as e:
        raise TraceError('bad type in axiom name %r: %s' % (name, e), step)


# rule -> whether it takes the theory first, then its argument kinds; the
# term of ``abstraction`` is its binder
_ARG_KINDS = {
    'reflexivity': (True, 'term'), 'symmetry': (False, 'ref'),
    'transitivity': (False, 'ref', 'ref'), 'congruence': (False, 'ref', 'ref'),
    'abstraction': (False, 'term', 'ref'), 'beta_conversion': (True, 'term'),
    'assume': (True, 'term'),
    'modus_ponens_eq': (False, 'ref', 'ref'), 'deduct_antisym': (False, 'ref', 'ref'),
}


def _run_step(th, rule, args, steps, step, parse_literal):
    def ref(i):
        if not 0 <= i < len(steps):
            raise TraceError('forward or dangling reference @%d' % i, step)
        return steps[i]

    def term(s):
        try:
            return parse_literal(s)
        except (syntax.ParseError, kernel.KernelError) as e:
            raise TraceError('bad term %r: %s' % (s, e), step)

    def var(s, what):
        v = term(s)
        if not isinstance(v, Var):
            raise TraceError('%s is not a variable' % what, step)
        return v

    if rule in _ARG_KINDS:
        with_theory, *kinds = _ARG_KINDS[rule]
        vals = [th] if with_theory else []
        for kind, a in zip(kinds, _need(args, step, *kinds)):
            if kind == 'ref':
                vals.append(ref(a))
            elif rule == 'abstraction':
                vals.append(var(a, 'abstraction binder'))
            else:
                vals.append(term(a))
        return getattr(kernel, rule)(*vals)
    if rule == 'axiom':
        (name,) = _need(args, step, 'name')
        return kernel.axiom(th, *_split_axiom_name(th, name, step))
    if rule == 'instantiate':
        if not args or args[0][0] != 'ref' or len(args) % 2 == 0:
            raise TraceError('malformed instantiate arguments', step)
        prem = ref(args[0][1])
        mapping = {}
        rest = args[1:]
        for k in range(0, len(rest), 2):
            if rest[k][0] != 'term' or rest[k + 1][0] != 'term':
                raise TraceError('malformed instantiate pair', step)
            v = var(rest[k][1], 'instantiate target')
            mapping[v] = term(rest[k + 1][1])
        return kernel.instantiate(prem, mapping)
    raise TraceError('unknown rule %s' % rule, step)


_INDEX = re.compile('[0-9]+')
_SHA256 = re.compile('[0-9a-f]{64}')


def verify_trace(text, th, strict_fingerprint=False):
    """Replay a trace in theory ``th`` and return its root theorems.

    Every step is re-executed through the kernel, and its claimed judgement
    must be the canonical printing of the result; any mismatch, malformed
    line or failing rule raises TraceError carrying the step index.  Claims
    are printed through one memo for the call (``syntax._canon``), which
    also maps the printing of each subterm outside binders back to its term.
    Each distinct ``{term}`` literal is looked up there, else parsed once per
    call in a fresh TermEnv; by the round trip of ``canonical_term`` through
    ``parse_term`` either way gives the same term, so a literal's term
    depends only on its text and the theory.  A ``# roots`` line, when
    present, must list one or more step indexes; the last step is the root
    otherwise.  With ``strict_fingerprint`` exactly
    one ``# theory <name> <sha256>`` line must come before the first step,
    and its fingerprint must be ``th``'s; when it is ``th``'s under the
    trace's theory name, the error says that only the names differ.
    """
    memo = {}

    def parse_literal(s):
        t = memo.get(s)
        if t is None:
            t = memo[s] = syntax.parse_term(s, syntax.TermEnv(theory=th))
        return t

    steps = []
    roots = roots_line = None
    fingerprinted = False
    expect = 0
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith('#'):
            parts = line[1:].split()
            if parts[:1] == ['roots']:
                if roots_line is not None:
                    raise TraceError('more than one roots line: %r' % line)
                if not parts[1:] or not all(_INDEX.fullmatch(p) for p in parts[1:]):
                    raise TraceError('bad roots line %r: want one or more step indexes'
                                     % line)
                roots, roots_line = [int(p) for p in parts[1:]], line
            elif parts[:1] == ['theory'] and strict_fingerprint:
                if fingerprinted:
                    raise TraceError('more than one theory line: %r' % line)
                if len(parts) != 3 or not _SHA256.fullmatch(parts[2]):
                    raise TraceError('bad theory line %r: want # theory <name> <sha256>'
                                     % line)
                _check_fingerprint(parts[1], parts[2], th)
                fingerprinted = True
            continue
        if strict_fingerprint and not fingerprinted:
            raise TraceError('no theory line before the first step')
        head, sep, claim = line.partition(' ==> ')
        if not sep:
            raise TraceError('missing ==> in line: %r' % line, expect)
        fields = head.split(None, 2)
        if len(fields) < 2:
            raise TraceError('malformed step line: %r' % line, expect)
        try:
            index = int(fields[0])
        except ValueError:
            raise TraceError('bad step index in %r' % line, expect)
        if index != expect:
            raise TraceError('step index %d out of order (expected %d)'
                             % (index, expect), expect)
        rule = fields[1]
        args = _parse_args(fields[2] if len(fields) > 2 else '', index)
        try:
            thm = _run_step(th, rule, args, steps, index, parse_literal)
        except kernel.KernelError as e:
            raise TraceError('rule failed: %s' % e, index)
        _check_claim(thm, claim, index, memo)
        steps.append(thm)
        expect += 1
    if not steps:
        raise TraceError('empty trace')
    if roots is None:
        return [steps[-1]]
    if max(roots) >= len(steps):
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


def _check_claim(thm, claim, step, memo):
    """Check a claimed judgement against the replayed theorem: the claim must
    be its canonical printing, byte for byte."""
    derived = syntax.canonical_theorem(thm, memo)
    if claim == derived:
        return
    parts = claim.split(' |- ')
    if len(parts) != 2:
        raise TraceError('malformed judgement: %r' % claim, step)
    what = 'conclusion' if parts[1] != derived.partition(' |- ')[2] else 'hypothesis'
    raise TraceError('%s: %s mismatch: claimed %s, derived %s'
                     % (thm.rule, what, claim.strip(), derived.strip()), step)
