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
normal form.  Each starts from the ``.phon`` or ``.sem`` axiom of the
sign's lexeme or rule, an equation whose operand variables are free, so it
is instantiated at the children as it stands and rewritten at the
children's proofs: no step assumes or discharges a hypothesis.  A sign
term is its own derivation, its head constant the lexeme or rule and its
arguments the children, so the chart keeps no other.  A sign's proofs
depend on the sign alone, so the grammar keeps them: ``Grammar.proofs``
holds every sign's proofs and every parsed word's normal form from the
first parse on, and a later parse builds only the signs no earlier parse
built.  Dropping the grammar frees them.

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
from .kernel import App, BOOL, Term, Theorem, beta_normalize


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
    starting there.  A rule's round at depth d walks its surface slots left
    to right through the index, from each start with an item of the first
    slot's type, each slot continuing at the end of the item chosen for the
    one before, and keeps a combination only if some child has depth d - 1:
    every child already has a smaller depth, so each combination is built
    once, at the depth it belongs to.  No item needs deduplication: a
    sign fixes its children and so the words they span, so an item has one
    combination.
    """

    def __init__(self, g, word, depth_bound):
        self.index = {}
        self._fill(g, word, depth_bound)

    def _add(self, i, j, sign, sty, depth):
        self.index.setdefault((i, sty), []).append((j, sign, depth))

    def _fill(self, g, word, bound):
        n = len(word)
        if bound < 1:
            return
        for lx in g.lexicon:
            k = len(lx.surface)
            for i in range(n - k + 1):
                if word.tokens[i:i + k] == lx.surface.tokens:
                    self._add(i, i + k, lx.const, lx.result, 1)
        for d in range(2, bound + 1):
            pending = []
            for rule in g.rules:
                for i in range(n + 1):
                    if (i, rule.slots[0]) not in self.index:
                        continue
                    for j, combo, _fresh in self._extend(rule.slots, i, d - 1):
                        sign = rule.const
                        for s in rule.order:    # the children back in operand order
                            sign = App(sign, combo[s])
                        pending.append((i, j, sign, rule.result))
            if not pending:
                break
            for i, j, sign, sty in pending:
                self._add(i, j, sign, sty, d)

    def _extend(self, wants, start, top):
        """(end, children in surface order, True) for each way to fill
        surface slots of the types ``wants`` from ``start`` with a child of
        depth ``top`` among them."""
        partial = [(start, (), False)]
        last = len(wants) - 1
        for s, want in enumerate(wants):
            partial = [(end, combo + (sign,), fresh or depth == top)
                       for pos, combo, fresh in partial
                       for end, sign, depth in self.index.get((pos, want), ())
                       if s < last or fresh or depth == top]
        return partial


class _ProofBuilder:
    """The proofs of a grammar's chart signs, each sign's built once and
    kept on the ``Grammar`` for every later parse.  A sign's proofs depend
    on the sign alone, so a parse gets the same ones whichever words came
    before, and a repeated parse derives nothing.  ``constructors`` is the
    grammar's map from each sign constructor to its record.  The memos serve
    every parse too: the phon rewrite's, which holds each built sign's
    tree-form phon proof; the sem rewrite's, which also holds each built
    sign's sem proof and normal phon proof, so each child's value is walked
    once; and phon_step's, so normalisations share their joins.  Threads
    may share them: a race at worst builds a sign twice, both times the
    same way."""

    def __init__(self, g):
        self.th = g.theory
        self.constructors = g.constructors
        self.memo, self.tree_memo, self.sem_memo, self.phon_memo = {}, {}, {}, {}

    def normal_phon(self, phon):
        """A sign's phon proof carried on to the normal form of its word,
        built once."""
        out = self.sem_memo.get(rules.lhs(phon))
        if out is None:
            nf = gmod.phon_step(self.th, rules.rhs(phon), self.phon_memo)
            out = phon if nf is None else kernel.transitivity(phon, nf)
            self.sem_memo[rules.lhs(phon)] = out
        return out

    def build(self, sign):
        """(phon_proof, sem_proof) for a chart sign: the phon and sem axioms
        of its head constant's lexeme or rule, instantiated at its children
        and each rewritten in one pass that takes the children's equations
        from a memo as they stand.  The phon proof, in the rule's tree form,
        cites the children's phon proofs; the sem proof their sem proofs and
        the normal phon proofs of those whose word the meaning reads."""
        out = self.memo.get(sign)
        if out is not None:
            return out
        head, children = sign, ()
        while isinstance(head, App):
            head, children = head.fn, (head.arg,) + children
        ctor = self.constructors[head]
        for c in children:   # a plain loop: one frame per level of the sign
            cp, _cs = self.build(c)
            if ctor.reads_phon:  # phon($i) stands for the child's word: its normal form
                self.normal_phon(cp)
        phon, sem = (gmod.law(self.th, ctor.prefix + k) for k in ('.phon', '.sem'))
        if children:
            inst = dict(zip(ctor.operand_vars, children))
            phon = rules.rewrite_rhs(kernel.instantiate(phon, inst), lambda th, t: None,
                                     self.tree_memo)
            sem = kernel.instantiate(sem, inst)
        self.tree_memo[rules.lhs(phon)] = phon
        sem = rules.rewrite_rhs(sem, rules._bp_step, self.sem_memo)
        self.sem_memo[rules.lhs(sem)] = sem
        out = self.memo[sign] = (phon, sem)
        return out


def parse(g, word, depth_bound):
    """All parses of a word up to the derivation depth bound."""
    if depth_bound < 0:
        raise GrammarError('depth bound must be at least 0, got %d' % depth_bound)
    if isinstance(word, (str, tuple, list)):
        word = Word(word)
    phon_term = word_to_phon(g, word)  # rejects tokens outside the alphabet
    chart = _Chart(g, word, depth_bound)
    builder = g.proofs
    if builder is None:
        builder = g.proofs = _ProofBuilder(g)
    results = []
    n = len(word)
    top = [(sign, sty, depth) for (i, sty), items in chart.index.items() if i == 0
           for j, sign, depth in items if j == n]
    for sign, sty, depth in top:
        phon, sem = builder.build(sign)
        phon = builder.normal_phon(phon)   # the root's word in normal form
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
        v, body = kernel.dest_abs(t, 'x')
        return kernel.Abs(v, _plain_replace(body, target, repl))
    return t


def _compose_meaning(g, rule, children, child_words, child_meanings):
    t = kernel.subst_parallel(rule.meaning, dict(zip(rule.operand_vars, children)))
    for i, c in enumerate(children):
        t = _plain_replace(t, g.projection('sem', c), child_meanings[i])
        t = _plain_replace(t, g.projection('phon', c), word_to_phon(g, child_words[i]))
    return beta_normalize(t)


def enumerate_signs(g, depth_bound):
    """Every derivable (sign, word, meaning) up to the depth bound.

    Computed by plain recursive generation, independent of the chart and of
    the proof machinery.
    """
    levels = {1: [(lx.const, lx.result, lx.surface, beta_normalize(lx.meaning))
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
                    word = Word(sum((words[i - 1].tokens for i in rule.surface), ()))
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
