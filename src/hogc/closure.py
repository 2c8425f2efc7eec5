"""Logical closure over the decidable boolean fragment, and parse merging.

The fragment consists of boolean variables, ``true``, ``false``, ``~``,
``/\\``, ``\\/``, ``=`` between booleans, and the boolean conditional; it
is defined once, by ``rules.fragment_vars``.  Validity in the fragment is
decided by ``bool_valid``, a bit-parallel truth-table evaluator with no
connection to the proof kernel; the kernel only enters when a certificate
theorem is built from a decision.

A *universe* is a finite set of fragment terms.  A subset M of the universe
is logically closed when every universe term a with ``|= (a = b) \\/ (a = c)``
for some b, c already in M is itself in M; ``closure_saturate`` computes the
least closed superset and records a witness pair for every term it adds.

``merge_parses`` is the certificate rule: given two parses of the same word
at the same sign type and a theorem ``|- (a = a1) \\/ (a = a2)`` about their
meanings, it builds the conditional sign ``C(s1, s2, a = a1)`` and derives
kernel-checked phonology and meaning equations for it, the meaning equation
concluding ``= a``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel, rules, syntax
from .grammar import Word
from .kernel import (App, Abs, Var, Term, Theorem, BOOL, dest_conj,
                     dest_disj, dest_eq, dest_not, dest_cond,
                     is_false, is_true, mk_cond, mk_disj, mk_eq, substitute,
                     true_c, false_c)
from .parser import ParseResult
from .rules import FragmentError, fragment_vars


class ClosureError(Exception):
    pass


# ---------------------------------------------------------------------------
# The truth-table oracle

def in_fragment(t):
    try:
        fragment_vars(t)
    except FragmentError:
        return False
    return True


def _var_masks(vs):
    """Each variable's column of the truth table over ``vs`` as an int, and
    the all-true vector.  Bit i is the value under the i-th assignment in
    ``itertools.product`` order, so the first variable is the most
    significant bit of i."""
    rows = 1 << len(vs)
    masks = {v: sum(1 << i for i in range(rows) if i >> (len(vs) - 1 - k) & 1)
             for k, v in enumerate(vs)}
    return masks, (1 << rows) - 1


def _truth_vector(t, masks, full):
    """The truth vector of a fragment term in one walk, all assignments at
    once: each connective is a bitwise operation on the columns."""
    if isinstance(t, Var):
        return masks[t]
    if is_true(t):
        return full
    if is_false(t):
        return 0
    a = dest_not(t)
    if a is not None:
        return full ^ _truth_vector(a, masks, full)
    d = dest_conj(t)
    if d is not None:
        return _truth_vector(d[0], masks, full) & _truth_vector(d[1], masks, full)
    d = dest_disj(t)
    if d is not None:
        return _truth_vector(d[0], masks, full) | _truth_vector(d[1], masks, full)
    d = dest_eq(t)
    if d is not None:
        return full ^ _truth_vector(d[0], masks, full) ^ _truth_vector(d[1], masks, full)
    x, y, z = (_truth_vector(u, masks, full) for u in dest_cond(t))
    return (z & x) | ((full ^ z) & y)


def bool_valid(t):
    """Truth-table validity for a fragment term.  Independent of the kernel."""
    masks, full = _var_masks(fragment_vars(t))
    return _truth_vector(t, masks, full) == full


# ---------------------------------------------------------------------------
# Term universes

class TermUniverse:
    """A finite, duplicate-free, ordered set of fragment terms.

    ``vectors`` maps each term to its truth vector over ``vars``, an int
    whose bit i is the term's value under the i-th assignment of
    ``itertools.product((False, True), repeat=len(vars))``.
    """

    def __init__(self, terms):
        seen = {}
        vs = set()
        for t in terms:
            if t not in seen:
                vs.update(fragment_vars(t))
                seen[t] = None
        self.type = BOOL
        self.terms = tuple(seen)
        self.vars = tuple(sorted(vs, key=lambda v: v.name))
        masks, full = _var_masks(self.vars)
        self.vectors = {t: _truth_vector(t, masks, full) for t in self.terms}
        # realized vector -> first universe term realizing it, in first-seen order
        self._rep = {}
        for t in self.terms:
            self._rep.setdefault(self.vectors[t], t)

    @classmethod
    def from_text(cls, text, theory=None):
        th = theory if theory is not None else kernel.core_theory()
        env = syntax.TermEnv(theory=th, default_var_type=BOOL)
        terms = []
        for line in text.splitlines():
            line = line.split('#', 1)[0].strip()
            if line:
                terms.append(syntax.parse_term(line, env))
        return cls(terms)

    @classmethod
    def from_file(cls, path, theory=None):
        with open(path) as f:
            return cls.from_text(f.read(), theory=theory)

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __contains__(self, t):
        return t in self.vectors


def _check_subset(universe, subset):
    out = []
    seen = {}
    for t in subset:
        if t not in universe:
            raise ClosureError('term not in the universe: %s'
                               % syntax.pretty_term(t))
        if t not in seen:
            seen[t] = None
            out.append(t)
    return out


def _saturate(universe, subset):
    """(members in universe order, witness dict added-term -> (b, c)).

    A term a is in the closure iff its truth vector is a pointwise mix of
    two member vectors, so saturation runs as a fixpoint over the realized
    vectors of the universe, then one scan assigns terms to vector classes.
    """
    subset = _check_subset(universe, subset)
    vt, universe_rep = universe.vectors, universe._rep
    rep = {}
    for t in subset:
        rep.setdefault(vt[t], t)
    active = [v for v in universe_rep if v in rep]
    wit_vec = {}
    changed = True
    while changed:
        changed = False
        for u in universe_rep:
            if u in rep:
                continue
            # u agrees with b or with c at every assignment
            found = next(((b, c) for b in active for c in active
                          if not (u ^ b) & (u ^ c)), None)
            if found:
                rep[u] = universe_rep[u]
                wit_vec[u] = found
                active.append(u)
                changed = True
    members = []
    witness = {}
    inset = set(subset)
    for t in universe.terms:
        u = vt[t]
        if u not in rep:
            continue
        members.append(t)
        if t not in inset:
            if u in wit_vec:
                b, c = wit_vec[u]
                witness[t] = (rep[b], rep[c])
            else:
                witness[t] = (rep[u], rep[u])
    return members, witness


def closure_saturate(universe, subset):
    """The least logically closed superset, in universe order."""
    return _saturate(universe, subset)[0]


def is_logically_closed(universe, subset):
    subset = _check_subset(universe, subset)
    closed = closure_saturate(universe, subset)
    return len(closed) == len(subset)


def closure_violation(universe, subset):
    """None when closed, else (a, (b, c)): a joins the closure because of
    members b and c but is not in the subset."""
    subset = _check_subset(universe, subset)
    closed, witness = _saturate(universe, subset)
    inset = set(subset)
    for t in closed:
        if t not in inset:
            return t, witness[t]
    return None


def sets_equivalent(universe, s1, s2):
    """Logical equivalence of subsets: equal closures."""
    return closure_saturate(universe, s1) == closure_saturate(universe, s2)


def logical_singleton(word, meaning, universe):
    """The closure of the one-pair language {(word, meaning)}: the word
    paired with every term in the closure of {meaning}."""
    if not isinstance(word, Word):
        word = Word(word)
    return [(word, t) for t in closure_saturate(universe, [meaning])]


def identity_language(universe):
    """Each universe term paired with its own spelling as the expression.

    The alphabet here is the spelling of terms themselves (one token per
    term), so the language relates every expression to exactly one meaning:
    the term it spells.
    """
    return [(Word((syntax.canonical_term(t),)), t) for t in universe.terms]


def language_violation(universe, pairs):
    """None when the (word, meaning) relation is logically closed over the
    universe, else ((word, a), (b, c)): the word also means a because it
    means both b and c, yet (word, a) is missing."""
    by_word = {}
    order = []
    for w, t in pairs:
        if w not in by_word:
            by_word[w] = []
            order.append(w)
        if not any(t == u for u in by_word[w]):
            by_word[w].append(t)
    for w in order:
        v = closure_violation(universe, by_word[w])
        if v is not None:
            return (w, v[0]), v[1]
    return None


def language_logically_closed(universe, pairs):
    return language_violation(universe, pairs) is None


def closure_report(universe, subset):
    """A plain-text closure table, deterministic byte for byte."""
    subset = _check_subset(universe, subset)
    closed, witness = _saturate(universe, subset)
    inset = set(subset)
    closedset = set(closed)
    rows = []
    for t in universe.terms:
        wit = '-'
        if t in witness:
            wit = '%s ; %s' % (syntax.pretty_term(witness[t][0]),
                               syntax.pretty_term(witness[t][1]))
        rows.append((syntax.pretty_term(t),
                     'yes' if t in inset else 'no',
                     'yes' if t in closedset else 'no',
                     wit))
    head = ('term', 'input', 'closure', 'witness')
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(4)]
    lines = []
    lines.append('universe: %d terms over variables %s'
                 % (len(universe), ' '.join(v.name for v in universe.vars) or '(none)'))
    lines.append('input: %d terms' % len(subset))
    lines.append('closure: %d terms' % len(closed))
    lines.append('input logically closed: %s'
                 % ('yes' if len(closed) == len(subset) else 'no'))
    lines.append('')
    fmt = '  '.join('%%-%ds' % w for w in widths)
    lines.append(fmt % head)
    for r in rows:
        lines.append((fmt % r).rstrip())
    return '\n'.join(lines) + '\n'


# ---------------------------------------------------------------------------
# Certificates

@dataclass
class ClosureCertificate:
    """A theorem ``|- (target = left) \\/ (target = right)``."""
    target: Term
    left: Term
    right: Term
    proof: Theorem

    def __repr__(self):
        return 'ClosureCertificate(%s)' % syntax.pretty_theorem(self.proof)


def _check_certificate(th, cert):
    if cert.proof.theory is not th:
        raise ClosureError('certificate proved in a different theory')
    if cert.proof.hyps:
        raise ClosureError('certificate proof has hypotheses')
    want = mk_disj(mk_eq(cert.target, cert.left), mk_eq(cert.target, cert.right))
    if cert.proof.concl != want:
        raise ClosureError('certificate proof does not match its fields')


def certificate_left(th, a1, a2):
    """target = a1, by reflexivity on the left disjunct."""
    thm = rules.disj1(kernel.reflexivity(th, a1), mk_eq(a1, a2))
    return ClosureCertificate(a1, a1, a2, thm)


def certificate_right(th, a1, a2):
    """target = a2, by reflexivity on the right disjunct."""
    thm = rules.disj2(mk_eq(a2, a1), kernel.reflexivity(th, a2))
    return ClosureCertificate(a2, a1, a2, thm)


def certificate_cases(th, a1, a2, q):
    """target = C(a1, a2, q), by case analysis on the boolean q."""
    if q.ty != BOOL:
        raise ClosureError('case condition must be Bool')
    avoid = rules._avoid_from(a1, a2, q)
    h = Var(rules.fresh_name('h', avoid), BOOL)
    tmpl = mk_disj(mk_eq(mk_cond(a1, a2, h), a1), mk_eq(mk_cond(a1, a2, h), a2))
    t_true = substitute(tmpl, h, true_c())
    t_false = substitute(tmpl, h, false_c())
    bt = rules.disj1(rules.cond_true(th, a1, a2), dest_disj(t_true)[1])
    bf = rules.disj2(dest_disj(t_false)[0], rules.cond_false(th, a1, a2))
    thm = rules.bool_cases_split(th, q, h, tmpl, bt, bf)
    return ClosureCertificate(mk_cond(a1, a2, q), a1, a2, thm)


def certificate_taut(th, target, a1, a2):
    """Any fragment target provably equal to a1 or to a2, by truth tables
    inside the kernel."""
    thm = rules.taut(th, mk_disj(mk_eq(target, a1), mk_eq(target, a2)))
    return ClosureCertificate(target, a1, a2, thm)


def certificate_from_script(th, text, a1, a2):
    """Build a certificate from a two-line script, one line of each kind.

    ::

        target <term>
        by left | by right | by cases <term> | by taut

    Accepts the grammar or its theory.
    """
    if hasattr(th, 'theory'):
        env = th.term_env(default_var_type=BOOL)
        th = th.theory
    else:
        env = syntax.TermEnv(theory=th, default_var_type=BOOL)
    target = None
    route = None
    for line in text.splitlines():
        line = line.split('#', 1)[0].strip()
        if not line:
            continue
        if line.startswith('target '):
            if target is not None:
                raise ClosureError('duplicate target line: %r' % line)
            target = syntax.parse_term(line[len('target '):], env)
        elif route is not None and line.startswith('by '):
            raise ClosureError('duplicate by line: %r' % line)
        elif line == 'by left':
            route = ('left',)
        elif line == 'by right':
            route = ('right',)
        elif line.startswith('by cases '):
            route = ('cases', syntax.parse_term(line[len('by cases '):], env))
        elif line == 'by taut':
            route = ('taut',)
        else:
            raise ClosureError('unrecognized certificate line: %r' % line)
    if target is None or route is None:
        raise ClosureError('certificate script needs a target and a by line')
    if route[0] == 'left':
        if target != a1:
            raise ClosureError('by left requires the target to be the first meaning')
        return certificate_left(th, a1, a2)
    if route[0] == 'right':
        if target != a2:
            raise ClosureError('by right requires the target to be the second meaning')
        return certificate_right(th, a1, a2)
    if route[0] == 'cases':
        q = route[1]
        if target != mk_cond(a1, a2, q):
            raise ClosureError('by cases requires the target C(a1, a2, q)')
        return certificate_cases(th, a1, a2, q)
    return certificate_taut(th, target, a1, a2)


# ---------------------------------------------------------------------------
# The certificate rule: merging two parses into a conditional sign

def _rewrite_branches(th, thm, eq_left, eq_right):
    """Extend A |- L = C(u, v, z) to |- L = C(u', v', z) from theorems
    |- u = u' and |- v = v', rewriting only the branch slots."""
    d = dest_cond(rules.rhs(thm))
    if d is None:
        raise ClosureError('expected a conditional right-hand side')
    u, v, z = d
    lu, ru = dest_eq(eq_left.concl)
    lv, rv = dest_eq(eq_right.concl)
    if lu != u or lv != v:
        raise ClosureError('branch equations do not match the conditional')
    avoid = rules._avoid_from(rules.rhs(thm), ru, rv)
    hole = Var(rules.fresh_name('slot', avoid), u.ty)
    thm = kernel.transitivity(
        thm, rules.subst_context(th, mk_cond(hole, v, z), hole, eq_left))
    hole = Var(rules.fresh_name('slot', avoid), v.ty)
    thm = kernel.transitivity(
        thm, rules.subst_context(th, mk_cond(ru, hole, z), hole, eq_right))
    return thm


def merge_parses(th, p1, p2, cert):
    """From parses of one word at one sign type and a certificate
    ``|- (a = a1) \\/ (a = a2)`` about their meanings, build the sign
    ``C(s1, s2, a = a1)`` with kernel-checked equations: its phonology is
    the shared word and its meaning is a.  Accepts the grammar's theory or
    the grammar itself."""
    th = getattr(th, 'theory', th)
    if p1.word != p2.word:
        raise ClosureError('parses disagree on the word')
    if p1.sign_type != p2.sign_type:
        raise ClosureError('parses disagree on the sign type')
    _check_certificate(th, cert)
    a, a1, a2 = cert.target, cert.left, cert.right
    if a1 != p1.meaning or a2 != p2.meaning:
        raise ClosureError('certificate sides do not match the parse meanings')
    sty = p1.sign_type
    c = mk_eq(a, a1)
    sign = mk_cond(p1.sign, p2.sign, c)

    phon_c = th.const('phon_%s' % sty)
    phon = rules.cond_distrib(th, phon_c, p1.sign, p2.sign, c)
    phon = _rewrite_branches(th, phon, p1.phon_proof, p2.phon_proof)
    w = syntax.phon_term(th, p1.word.tokens)
    if rules.rhs(phon) != mk_cond(w, w, c):
        raise ClosureError('merged phonologies differ')
    phon = kernel.transitivity(phon, rules.cond_idem(th, w, c))

    sem_c = th.const('sem_%s' % sty)
    sem = rules.cond_distrib(th, sem_c, p1.sign, p2.sign, c)
    sem = _rewrite_branches(th, sem, p1.sem_proof, p2.sem_proof)
    # |- C(a = a1, a = a2, a = a1), by reading the certificate as a conditional
    k = kernel.modus_ponens_eq(rules.or_as_cond(th, c, mk_eq(a, a2)),
                               cert.proof)
    # distribute \x. a = x over C(a1, a2, c) and collapse the betas
    x = Var(rules.fresh_name('x', rules._avoid_from(a, a1, a2)), a1.ty)
    f = Abs(x, mk_eq(a, x))
    d = rules.cond_distrib(th, f, a1, a2, c)
    d = _rewrite_branches(th, d,
                          kernel.beta_conversion(th, App(f, a1)),
                          kernel.beta_conversion(th, App(f, a2)))
    eq = kernel.transitivity(kernel.symmetry(d), kernel.beta_conversion(
        th, App(f, mk_cond(a1, a2, c))))
    # eq : |- C(a = a1, a = a2, c) = (a = C(a1, a2, c))
    final = kernel.symmetry(kernel.modus_ponens_eq(eq, k))
    sem = rules.rewrite_rhs(kernel.transitivity(sem, final), rules._bp_step)
    return ParseResult(p1.word, sign, sty, rules.rhs(sem), phon, sem,
                       max(p1.depth, p2.depth))
