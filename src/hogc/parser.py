"""Chart parsing with kernel-checked proofs.

``parse`` fills a chart up to an explicit derivation-depth bound: lexical
signs have depth 1 and a rule application is one deeper than its deepest
child.  The chart indexes its items by start position and sign type, and
builds depth d in one semi-naive round: a rule extends only from items
that exist, slot by slot, and keeps a combination only if some child was
new in round d - 1.  Items may be empty spans, so empty-phonology entries
participate.  Every result carries two theorems derived from the
grammar's axioms: the phonology equation ``phon_sigma(sign) = /w/`` and the
meaning equation ``sem_sigma(sign) = meaning`` with the meaning in beta
normal form.

``enumerate_signs`` is an independent oracle: it generates every derivable
sign up to the depth bound by plain recursion, without touching the proof
machinery, computing words and meanings directly.  ``check_membership``
answers whether a word means a given term, carrying a parse's meaning
equation to a non-identical but provably equal boolean meaning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import grammar as gmod
from . import kernel, rules, syntax
from .grammar import GrammarError, Word, word_to_phon
from .kernel import App, BOOL, PHON, Term, Theorem, Var, beta_normalize


@dataclass
class ParseResult:
    word: Word
    sign: Term
    sign_type: str
    meaning: Term
    phon_proof: Theorem
    sem_proof: Theorem
    depth: int

    def __repr__(self):
        return ('ParseResult(%r, sign=%s, type=%s, meaning=%s, depth=%d)'
                % (self.word, syntax.pretty_term(self.sign), self.sign_type,
                   syntax.pretty_term(self.meaning), self.depth))


class _Chart:
    """The signs over the spans of a word, found depth by depth.

    ``index`` maps (start, sign type) to the items ``(end, sign, depth)``
    starting there.  A rule's round at depth d walks its surface slots left to right through
    the index, each slot continuing at the end of the item chosen for the
    one before, and keeps a combination only if some child has depth
    d - 1: every child already has a smaller depth, so each combination is
    built once, at the depth it belongs to.  No item needs deduplication: a
    sign fixes its children and so the words they span, so an item has one
    combination.
    """

    def __init__(self, g, word, depth_bound):
        self.index = {}
        self.deriv = {}     # sign -> (axiom name, operand variables, children, reads_phon)
        self._fill(g, word, depth_bound)

    def _add(self, i, j, sign, sty, depth, deriv):
        self.index.setdefault((i, sty), []).append((j, sign, depth))
        self.deriv[sign] = deriv

    def _fill(self, g, word, bound):
        n = len(word)
        if bound < 1:
            return
        for lx in g.lexicon:
            lex = ('lex.%s' % lx.name, (), (), False)
            k = len(lx.word)
            for i in range(n - k + 1):
                if word.tokens[i:i + k] == lx.word.tokens:
                    self._add(i, i + k, lx.const, lx.sign_type, 1, lex)
        for d in range(2, bound + 1):
            pending = []
            for rule in g.rules:
                for i in range(n + 1):
                    for j, children in self._extend(rule, i, d - 1):
                        sign = rule.const
                        for c in children:
                            sign = App(sign, c)
                        pending.append((i, j, sign, rule.result,
                                        ('rule.%s' % rule.name, rule.operand_vars, children,
                                         rule.reads_phon)))
            if not pending:
                break
            for i, j, sign, sty, deriv in pending:
                self._add(i, j, sign, sty, d, deriv)

    def _extend(self, rule, start, top):
        """(end, children in operand order) for each way to fill the rule's
        surface slots from ``start`` with a child of depth ``top`` among
        them."""
        partial = [(start, (), False)]
        last = len(rule.pattern) - 1
        for s, p in enumerate(rule.pattern):
            want = rule.operands[p - 1]
            partial = [(end, combo + (sign,), fresh or depth == top)
                       for pos, combo, fresh in partial
                       for end, sign, depth in self.index.get((pos, want), ())
                       if s < last or fresh or depth == top]
        order = sorted(range(last + 1), key=lambda s: rule.pattern[s])
        return [(end, tuple(combo[s] for s in order)) for end, combo, _fresh in partial]


def _sign_conjuncts(th, axname, opvars):
    """The phon and sem conjuncts of a lexeme or rule axiom, specialised to
    its operand variables ``opvars``; derived once per theory.  They are
    named, not taken from the binders: a binder's hint is whichever name its
    alpha-class was first built with."""
    def build():
        ax = kernel.axiom(th, axname)
        for v in opvars:
            ax = rules.spec(v, ax)
        return rules.conjunct1(ax), rules.conjunct2(ax)
    return rules._cached(th, ('sign_conjuncts', axname), build)


def _phon_schema(th, axname, opvars):
    """{phon_T1(x1) = w1, ..., phon_Tm(xm) = wm} |- phon_T(R x1 ... xm) =
    w_p1 ++ ... ++ w_pm: the rule's phon conjunct with each operand's
    phonology replaced by a variable; derived once per theory."""
    def build():
        memo = {}
        for i, v in enumerate(opvars):
            p = App(th.const('phon_%s' % v.ty.name), v)
            memo[p] = kernel.assume(th, kernel.mk_eq(p, _phon_var(i)))
        phon, _sem = _sign_conjuncts(th, axname, opvars)
        return rules.rewrite_rhs(phon, lambda th, t: None, memo)
    return rules._cached(th, ('phon_schema', axname), build)


def _phon_var(i):
    return Var('w%d' % (i + 1), PHON)


class _ProofBuilder:
    """The proofs of a parse's chart signs, each sign's built once.  The
    memos serve the whole parse: the sem rewrite's, so each child's value is
    walked once, and phon_step's, so normalisations share their joins."""

    def __init__(self, g):
        self.th = g.theory
        self.memo, self.sem_memo, self.phon_memo = {}, {}, {}

    def normal_phon(self, phon):
        """A phon proof carried on to the normal form of its word."""
        nf = gmod.phon_step(self.th, rules.rhs(phon), self.phon_memo)
        return phon if nf is None else kernel.transitivity(phon, nf)

    def build(self, sign, deriv_map):
        """(phon_proof, sem_proof) for a chart sign.  The phon proof is one
        instance of the rule's phon schema, each hypothesis discharged by the
        child's phon proof, in the rule's tree form.  The sem proof is the
        axiom's sem conjunct at the children, rewritten in one pass that
        takes each child's equations from the memo as they stand."""
        if sign in self.memo:
            return self.memo[sign]
        th = self.th
        axname, opvars, children, reads_phon = deriv_map[sign]
        phon, sem = _sign_conjuncts(th, axname, opvars)
        child_phon = []
        for c in children:   # a plain loop: one frame per level of the sign
            cp, cs = self.build(c, deriv_map)
            child_phon.append(cp)
            # phon($i) stands for the child's word, so it gets the normal form
            if reads_phon and rules.lhs(cp) not in self.sem_memo:
                self.sem_memo[rules.lhs(cp)] = self.normal_phon(cp)
            self.sem_memo[rules.lhs(cs)] = cs
        if children:
            inst = dict(zip(opvars, children))
            sem = kernel.instantiate(sem, inst)
            for i, cp in enumerate(child_phon):
                inst[_phon_var(i)] = rules.rhs(cp)
            phon = kernel.instantiate(_phon_schema(th, axname, opvars), inst)
            for cp in child_phon:
                if cp.concl in phon.hyps:   # two equal children share one
                    phon = rules.prove_hyp(cp, phon)
        out = (phon, rules.rewrite_rhs(sem, rules._bp_step, self.sem_memo))
        self.memo[sign] = out
        return out


def parse(g, word, depth_bound):
    """All parses of a word up to the derivation depth bound."""
    if depth_bound < 0:
        raise GrammarError('depth bound must be at least 0, got %d' % depth_bound)
    if isinstance(word, (str, tuple, list)):
        word = Word(word)
    phon_term = word_to_phon(g, word)  # rejects tokens outside the alphabet
    chart = _Chart(g, word, depth_bound)
    builder = _ProofBuilder(g)
    results = []
    n = len(word)
    top = [(sign, sty, depth) for (i, sty), items in chart.index.items() if i == 0
           for j, sign, depth in items if j == n]
    for sign, sty, depth in top:
        phon, sem = builder.build(sign, chart.deriv)
        phon = builder.normal_phon(phon)   # once, at the root
        if rules.rhs(phon) != phon_term:
            raise GrammarError('phonology proof does not match the word')
        results.append(ParseResult(word, sign, sty, rules.rhs(sem), phon, sem, depth))
    if len(results) > 1:
        memo = {}
        results.sort(key=lambda r: (r.depth, syntax.canonical_term(r.sign, memo)))
    return results


# ---------------------------------------------------------------------------
# Independent enumeration oracle

def _plain_replace(t, target, repl):
    """Replace free occurrences of a closed term, no proofs involved."""
    if t is target:
        return repl
    if isinstance(t, App):
        return App(_plain_replace(t.fn, target, repl),
                   _plain_replace(t.arg, target, repl))
    if isinstance(t, kernel.Abs):
        v, body = kernel.dest_abs(t)
        return kernel.Abs(v, _plain_replace(body, target, repl))
    return t


def _compose_meaning(g, rule, children, child_words, child_meanings):
    t = rule.sem_template
    t = kernel.subst_parallel(t, dict(zip(rule.operand_vars, children)))
    for i, c in enumerate(children):
        sty = rule.operands[i]
        sem_c = App(g.theory.const('sem_%s' % sty), c)
        phon_c = App(g.theory.const('phon_%s' % sty), c)
        t = _plain_replace(t, sem_c, child_meanings[i])
        t = _plain_replace(t, phon_c, word_to_phon(g, child_words[i]))
    return beta_normalize(t)


def enumerate_signs(g, depth_bound):
    """Every derivable (sign, word, meaning) up to the depth bound.

    Computed by plain recursive generation, independent of the chart and of
    the proof machinery.
    """
    levels = {1: [(lx.const, lx.sign_type, lx.word, beta_normalize(lx.sem))
                  for lx in g.lexicon]}
    for d in range(2, depth_bound + 1):
        level = []
        pool = [(c, sty, w, m, dd) for dd in range(1, d) for (c, sty, w, m) in levels[dd]]
        for rule in g.rules:
            m = len(rule.operands)
            def go(i, acc):
                if i == m:
                    if max(e[4] for e in acc) != d - 1:
                        return
                    children = [e[0] for e in acc]
                    words = [e[2] for e in acc]
                    meanings = [e[3] for e in acc]
                    sign = rule.const
                    for c in children:
                        sign = App(sign, c)
                    word = Word(())
                    for s in range(m):
                        word = word + words[rule.pattern[s] - 1]
                    meaning = _compose_meaning(g, rule, children, words, meanings)
                    level.append((sign, rule.result, word, meaning))
                    return
                for e in pool:
                    if e[1] == rule.operands[i]:
                        go(i + 1, acc + [e])
            go(0, [])
        levels[d] = level
    out = []
    for d in range(1, depth_bound + 1):
        for sign, sty, w, meaning in levels.get(d, ()):
            out.append((sign, w, meaning))
    return out


# ---------------------------------------------------------------------------
# Membership

def check_membership(g, word, meaning, depth_bound):
    """A parse of the word with the given meaning, or None.

    The meaning is compared after beta normalization.  When no parse
    matches syntactically but a parse's meaning is provably equal to the
    requested one in the boolean fragment, the result is that parse's sign
    with its meaning equation carried to the requested meaning by one
    ``transitivity`` with the ``taut`` proof of their equivalence.
    """
    from . import closure
    th = g.theory
    kernel.type_of(meaning, th)
    nf = beta_normalize(meaning)
    results = parse(g, word, depth_bound)
    for r in results:
        if r.meaning == nf:
            return r
    if nf.ty == BOOL and closure.in_fragment(nf):
        for r in results:
            if not closure.in_fragment(r.meaning):
                continue
            if not closure.bool_valid(kernel.mk_eq(nf, r.meaning)):
                continue
            eq = kernel.symmetry(rules.taut(th, kernel.mk_eq(nf, r.meaning)))
            return replace(r, meaning=nf, sem_proof=kernel.transitivity(r.sem_proof, eq))
    return None
