"""Logical closure over the decidable boolean fragment, and parse merging.

The fragment consists of boolean variables, ``true``, ``false``, ``~``,
``/\\``, ``\\/``, ``=`` between booleans, and the boolean conditional; it
is defined once, by the table ``rules.FRAGMENT_CONNECTIVES``, which reads
each connective from a node's head constant with its number of operands.
Validity in the fragment is decided by ``bool_valid``, a bit-parallel
truth-table evaluator with no connection to the proof kernel; the kernel
only enters when a certificate theorem is built from a decision.
``bool_valid`` and ``TermUniverse`` classify each distinct subterm once,
through ``rules.fragment_dag``, and evaluate it once, after its operands,
in a memo that the call owns and drops when it returns.

A *universe* is a finite set of fragment terms.  A subset M of the universe
is logically closed when every universe term a with ``|= (a = b) \\/ (a = c)``
for some b, c already in M is itself in M; ``closure_saturate`` computes the
least closed superset, and ``closure_report`` and ``closure_violation`` also
give a witness pair for every term it adds.

``merge_parses`` is the certificate rule: given two parses of the same word
at the same sign type and a theorem ``|- (a = a1) \\/ (a = a2)`` about their
meanings, it builds the conditional sign ``C(s1, s2, a = a1)`` and proves its
phonology and meaning equations by one instance of the sign type's merge
law, which is proved once per theory; the parse proofs and the certificate
discharge its hypotheses.  ``certificate_cases`` is an instance of a law too.
Each law has fixed variables, and instantiation is parallel, so nothing can
be captured and no rule here names a variable at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel, rules, syntax
from .grammar import Word, projection_name
from .kernel import (App, Var, Term, Theorem, BOOL, mk_cond, mk_conj, mk_disj, mk_eq,
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


def _truth_vectors(terms):
    """(the variables of ``terms`` sorted by name, the truth vector of each
    distinct subterm, the all-true vector), all assignments at once.  Each
    subterm of ``rules.fragment_dag`` is evaluated once, after its operands,
    each connective as a bitwise operation on their vectors."""
    nodes = rules.fragment_dag(terms)
    vs = sorted((t for t, (c, _) in nodes.items() if c is None), key=lambda v: v.name)
    vec, full = _var_masks(vs)    # a variable's vector is its column
    for t, (c, ops) in nodes.items():
        if c == 'and':
            vec[t] = vec[ops[0]] & vec[ops[1]]
        elif c == 'or':
            vec[t] = vec[ops[0]] | vec[ops[1]]
        elif c == 'eq':
            vec[t] = full ^ vec[ops[0]] ^ vec[ops[1]]
        elif c == 'not':
            vec[t] = full ^ vec[ops[0]]
        elif c == 'cond':
            z = vec[ops[2]]
            vec[t] = (z & vec[ops[0]]) | ((full ^ z) & vec[ops[1]])
        elif c == 'true':
            vec[t] = full
        elif c == 'false':
            vec[t] = 0
    return vs, vec, full


def bool_valid(t):
    """Truth-table validity for a fragment term.  Independent of the kernel."""
    _, vec, full = _truth_vectors((t,))
    return vec[t] == full


# ---------------------------------------------------------------------------
# Term universes

class _Bound(dict):
    """Truth vector v -> the classes true on every row where v is true
    (``up``), or false on every row where v is false (not ``up``): an AND of
    row bitmaps or of their complements, made once, on first use.  Each four
    rows have a table of the ANDs over each subset of them, so a bound ANDs
    one entry per four rows."""

    def __init__(self, rows, up):
        self.flip = 0 if up else -1     # v ^ flip sets the bits of the rows to AND
        rows = [row if up else ~row for row in rows]
        rows += [-1] * (-len(rows) % 4)     # rows past the last hold every class
        self.tables = []
        for at in range(0, len(rows), 4):
            table = [-1]    # entry i: the AND over the rows of i's set bits
            for row in rows[at:at + 4]:
                table += [b & row for b in table]
            self.tables.append(table)

    def __missing__(self, v):
        b, s = -1, v ^ self.flip
        for table in self.tables:
            b &= table[s & 15]
            s >>= 4
        self[v] = b
        return b


class TermUniverse:
    """A finite, duplicate-free, ordered set of fragment terms.

    ``vectors`` maps each term to its truth vector over ``vars``, an int
    whose bit i is the term's value under the i-th assignment of
    ``itertools.product((False, True), repeat=len(vars))``.  Terms with
    one vector form a class; classes are numbered in first-seen order,
    ``_positions[k]`` lists the positions of class k's terms, and for each
    truth-table row, bit k of ``_rows[row]`` says whether class k is true on
    that row.  ``_up`` and ``_down`` are the memoised bounds that saturation
    tests pairs with.
    """

    def __init__(self, terms):
        self.type = BOOL
        self.terms = tuple(dict.fromkeys(terms))
        vs, vec, full = _truth_vectors(self.terms)
        self.vars = tuple(vs)
        self.vectors = {t: vec[t] for t in self.terms}
        index = {}      # realized vector -> class index
        class_of, positions = {}, []    # term -> class; class -> its terms' positions
        for i, (t, v) in enumerate(self.vectors.items()):
            k = class_of[t] = index.setdefault(v, len(index))
            if k == len(positions):
                positions.append([i])
            else:
                positions[k].append(i)
        self._class_of, self._positions = class_of, positions
        self._class_vectors = tuple(index)
        self._rows = tuple(sum(1 << k for k, v in enumerate(index) if v >> r & 1)
                           for r in range(full.bit_length()))
        self._up = _Bound(self._rows, True)
        self._down = _Bound(self._rows, False)

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


def _saturate(universe, subset, witnesses=False):
    """(members in universe order, and with ``witnesses`` a dict added-term
    -> (b, c) in the same order, else None).  The one check that each subset
    term is in the universe.

    A term a is in the closure iff its truth vector u agrees with b or with
    c on every row for two members b, c, that is ``b & c <= u <= b | c``.
    Saturation is a semi-naive fixpoint over truth-vector classes: when a
    class joins, each pair it makes with a member is tested once, and the
    classes that pair produces, ``up(b & c) & down(b | c)`` from the
    universe's memoised bounds, go into ``cover``, until no class is left
    open.  Passes run over the classes in universe order and a covered
    class joins when its pass reaches it, as a scan of every pair on every
    pass would have it.  The members are the terms at the member classes'
    positions.  Only with ``witnesses`` is a witness looked up, when its
    class joins: the first member b in member order, and with it the first
    member c.
    """
    class_of, cvec, rows = universe._class_of, universe._class_vectors, universe._rows
    terms, positions, up, down = universe.terms, universe._positions, universe._up, universe._down
    rep = {}
    for t in subset:
        if t not in universe:
            raise ClosureError('term not in the universe: %s'
                               % syntax.pretty_term(t))
        rep.setdefault(class_of[t], t)
    members = []                    # class indices, in the order they joined
    member_rows = [0] * len(rows)   # per row, the member positions true on it
    cover = 0                       # non-members that a pair of members produces
    open_ = (1 << len(cvec)) - 1    # classes neither members nor covered

    def join(k):
        nonlocal cover, open_
        x = cvec[k]
        if witnesses:
            bit = 1 << len(members)
            for r in range(len(rows)):
                if x >> r & 1:
                    member_rows[r] |= bit
        cover &= ~(1 << k)
        open_ &= ~(1 << k)
        for b in members:
            if not open_:
                break       # every class is a member or covered
            y = cvec[b]
            s = open_ & up[x & y] & down[x | y]
            cover |= s
            open_ ^= s
        members.append(k)

    def witness_pair(u):
        everyone = (1 << len(members)) - 1
        agree = [m if u >> r & 1 else everyone ^ m for r, m in enumerate(member_rows)]
        for b in members:
            differ = cvec[b] ^ u
            cs = everyone
            while differ:
                low = differ & -differ
                cs &= agree[low.bit_length() - 1]
                differ ^= low
            if cs:
                return b, members[(cs & -cs).bit_length() - 1]

    for k in sorted(rep):
        join(k)
    wit = {}
    start = 0
    while cover:
        todo = cover >> start << start
        if not todo:
            start = 0
            continue
        k = (todo & -todo).bit_length() - 1
        if witnesses:
            wit[k] = witness_pair(cvec[k])
            rep[k] = terms[positions[k][0]]
        join(k)
        start = k + 1
    out = [terms[i] for i in sorted([i for k in members for i in positions[k]])]
    if not witnesses:
        return out, None
    inset = set(subset)
    witness = {}
    for t in out:
        if t not in inset:
            k = class_of[t]
            b, c = wit.get(k, (k, k))
            witness[t] = (rep[b], rep[c])
    return out, witness


def closure_saturate(universe, subset):
    """The least logically closed superset, in universe order."""
    return _saturate(universe, subset)[0]


def is_logically_closed(universe, subset):
    return len(_saturate(universe, subset)[0]) == len(set(subset))


def closure_violation(universe, subset):
    """None when closed, else (a, (b, c)): a joins the closure because of
    members b and c but is not in the subset."""
    return next(iter(_saturate(universe, subset, witnesses=True)[1].items()), None)


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
    for w, t in pairs:
        by_word.setdefault(w, {})[t] = None
    for w, meanings in by_word.items():
        v = closure_violation(universe, meanings)
        if v is not None:
            return (w, v[0]), v[1]
    return None


def language_logically_closed(universe, pairs):
    return language_violation(universe, pairs) is None


def closure_report(universe, subset):
    """A plain-text closure table, deterministic byte for byte."""
    closed, witness = _saturate(universe, subset, witnesses=True)
    closedset = set(closed)
    inset = closedset.difference(witness)
    printed = {t: syntax.pretty_term(t) for t in universe.terms}
    # the term column, the header's cell first, padded alike
    cells = ('term', *printed.values())
    width = max(map(len, cells))
    column = [s.ljust(width) for s in cells]
    wit = {t: '%s ; %s' % (printed[b], printed[c]) for t, (b, c) in witness.items()}
    lines = []
    lines.append('universe: %d terms over variables %s'
                 % (len(universe), ' '.join(v.name for v in universe.vars) or '(none)'))
    lines.append('input: %d terms' % len(inset))
    lines.append('closure: %d terms' % len(closed))
    lines.append('input logically closed: %s'
                 % ('yes' if len(closed) == len(inset) else 'no'))
    lines.append('')
    # the witness column comes last: rows leave it unpadded, and only the
    # header pads it, to the widest witness
    lines.append('%s  input  closure  %-*s'
                 % (column[0], max(map(len, wit.values()), default=0), 'witness'))
    for t, cell in zip(universe.terms, column[1:]):
        lines.append('%s  %-5s  %-7s  %s' % (cell, 'yes' if t in inset else 'no',
                                             'yes' if t in closedset else 'no',
                                             wit.get(t, '-')))
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
    """target = C(a1, a2, q), by case analysis on the boolean q: an instance
    of |- (C(x, y, z) = x) \\/ (C(x, y, z) = y), proved once per type by one
    case split on z."""
    if q.ty != BOOL:
        raise ClosureError('case condition must be Bool')
    x, y, z = Var('x', a1.ty), Var('y', a1.ty), Var('z', BOOL)

    def build():
        c = mk_cond(x, y, z)
        bt = rules.disj1(rules.cond_true(th, x, y), mk_eq(mk_cond(x, y, true_c()), y))
        bf = rules.disj2(mk_eq(mk_cond(x, y, false_c()), x), rules.cond_false(th, x, y))
        return rules.bool_cases_split(th, z, z, mk_disj(mk_eq(c, x), mk_eq(c, y)), bt, bf)
    law = rules._cached(th, ('cond_cases', a1.ty), build)
    return ClosureCertificate(mk_cond(a1, a2, q), a1, a2,
                              kernel.instantiate(law, {x: a1, y: a2, z: q}))


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

def _merge_law(th, sty, *args):
    """The merge law of sign type ``sty``, proved once per theory by one case
    split on ``a = a1``, at ``args``, the values of s1, s2, w, a1, a2 and a::

        {phon_S s1 = w, phon_S s2 = w, sem_S s1 = a1, sem_S s2 = a2,
         (a = a1) \\/ (a = a2)}
        |- phon_S C(s1, s2, a = a1) = w /\\ sem_S C(s1, s2, a = a1) = a
    """
    vs = [Var(n, t.ty) for n, t in zip(('s1', 's2', 'w', 'a1', 'a2', 'a'), args)]

    def build():
        phon_c, sem_c = (th.const(projection_name(k, sty)) for k in ('phon', 'sem'))
        s1, s2, w, a1, a2, a = vs
        c, h = mk_eq(a, a1), Var('h', BOOL)

        def branch(cond_law, s, a_s, a_s_a):
            # {phon_S s = w, sem_S s = a_s, ...} |- the template at a truth value
            phon = kernel.transitivity(rules.ap_term(phon_c, cond_law),
                                       kernel.assume(th, mk_eq(App(phon_c, s), w)))
            sem = kernel.transitivity(rules.ap_term(sem_c, cond_law),
                                      kernel.assume(th, mk_eq(App(sem_c, s), a_s)))
            return rules.conj(phon, kernel.transitivity(sem, a_s_a))

        a1_a = kernel.symmetry(rules.eqt_elim(kernel.assume(th, mk_eq(c, true_c()))))
        # {c = false} |- a2 = a, as c = false refutes the first disjunct
        refuted = kernel.modus_ponens_eq(kernel.assume(th, mk_eq(c, false_c())),
                                         kernel.assume(th, c))
        a2_a = rules.disj_cases(kernel.assume(th, mk_disj(c, mk_eq(a, a2))),
                                rules.contr(mk_eq(a2, a), refuted),
                                kernel.symmetry(kernel.assume(th, mk_eq(a, a2))))
        sign = mk_cond(s1, s2, h)
        tmpl = mk_conj(mk_eq(App(phon_c, sign), w), mk_eq(App(sem_c, sign), a))
        return rules.bool_cases_split(
            th, c, h, tmpl, branch(rules.cond_true(th, s1, s2), s1, a1, a1_a),
            branch(rules.cond_false(th, s1, s2), s2, a2, a2_a))
    law = rules._cached(th, ('merge_law', sty), build)
    return kernel.instantiate(law, dict(zip(vs, args)))


def merge_parses(th, p1, p2, cert):
    """From parses of one word at one sign type and a certificate
    ``|- (a = a1) \\/ (a = a2)`` about their meanings, build the sign
    ``C(s1, s2, a = a1)`` with kernel-checked equations: its phonology is
    the shared word and its meaning is a: an instance of the sign type's
    ``_merge_law`` whose hypotheses the parse proofs and the certificate
    discharge.  Accepts the grammar's theory or the grammar itself."""
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
    phon_c, sem_c = (th.const(projection_name(k, sty)) for k in ('phon', 'sem'))
    w = syntax.phon_term(th, p1.word.tokens)
    for p in (p1, p2):
        if (rules.lhs(p.phon_proof) != App(phon_c, p.sign)
                or p.sem_proof.concl != mk_eq(App(sem_c, p.sign), p.meaning)):
            raise ClosureError('parse proofs are not about the parse signs')
        if rules.rhs(p.phon_proof) != w:
            raise ClosureError('merged phonologies differ')
    law = _merge_law(th, sty, p1.sign, p2.sign, w, a1, a2, a)
    both = rules._discharge(law, p1.phon_proof, p2.phon_proof, p1.sem_proof,
                            p2.sem_proof, cert.proof)
    phon = rules.conjunct1(both)
    sem = rules.rewrite_rhs(rules.conjunct2(both), rules._bp_step)
    return ParseResult(p1.word, mk_cond(p1.sign, p2.sign, mk_eq(a, a1)), sty,
                       rules.rhs(sem), phon, sem, max(p1.depth, p2.depth))
