"""Boolean fragment, term universes, closure saturation, certificates, merging."""

import hashlib
import itertools
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from hogc import closure, grammar, kernel, parser, rules, syntax
from hogc.closure import (
    ClosureCertificate, ClosureError, FragmentError, TermUniverse,
    bool_valid, certificate_cases, certificate_from_script, certificate_left,
    certificate_right, certificate_taut, closure_report, closure_saturate,
    closure_violation, identity_language, in_fragment, is_logically_closed,
    language_logically_closed, language_violation, logical_singleton,
    merge_parses, sets_equivalent,
)
from hogc.grammar import Word
from hogc.kernel import (
    App, BOOL, IND, Var, false_c, mk_conj, mk_cond, mk_disj, mk_eq,
    mk_forall, mk_imp, mk_not, true_c,
)
from hogc.terms import dest_cond, dest_not

import helpers
from test_kernel import FRAG

P, Q = Var('p', BOOL), Var('q', BOOL)


# ---------------------------------------------------------------------------
# The fragment and its truth-table oracle

def test_in_fragment():
    assert in_fragment(P)
    assert in_fragment(mk_cond(P, mk_not(Q), mk_eq(P, Q)))
    assert in_fragment(true_c())
    assert not in_fragment(mk_imp(P, Q))
    assert not in_fragment(Var('x', IND))
    assert not in_fragment(mk_eq(Var('x', IND), Var('x', IND)))
    assert not in_fragment(mk_forall(P, P))
    assert not in_fragment(kernel.Abs(P, P))
    assert not in_fragment(kernel.Const('c', BOOL))


def test_bool_valid_hand_cases():
    assert bool_valid(mk_disj(P, mk_not(P)))
    assert bool_valid(mk_eq(mk_conj(P, Q), mk_conj(Q, P)))
    assert bool_valid(mk_disj(mk_eq(P, Q), mk_eq(P, mk_not(Q))))
    assert bool_valid(mk_eq(mk_cond(P, Q, true_c()), P))
    assert bool_valid(mk_eq(mk_cond(P, Q, false_c()), Q))
    assert not bool_valid(P)
    assert not bool_valid(mk_disj(P, Q))
    assert not bool_valid(mk_eq(P, Q))


def test_bool_valid_rejects_non_fragment():
    with pytest.raises(FragmentError):
        bool_valid(mk_imp(P, P))


@pytest.mark.parametrize('t', [
    mk_imp(P, Q),
    mk_forall(P, P),
    kernel.Abs(P, P),
    Var('x', IND),
    kernel.Const('c', BOOL),
    mk_eq(Var('x', IND), Var('y', IND)),
], ids=['imp', 'forall', 'lambda', 'ind-var', 'bool-const', 'eq-at-ind'])
def test_one_fragment_for_closure_and_taut(t):
    with pytest.raises(FragmentError):
        bool_valid(t)
    with pytest.raises(FragmentError):
        TermUniverse([P, t])
    with pytest.raises(FragmentError):
        rules.taut(kernel.core_theory(), t)
    assert issubclass(FragmentError, kernel.RuleError)


@given(st.randoms(use_true_random=False), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_universe_vectors_match_local_evaluator(rng, nvars):
    # every variable is in the universe, so each column of the layout is
    # checked; nvars = 0 gives closed terms only
    names = ('p', 'q', 'r', 's', 't')[:nvars]
    terms = [Var(n, BOOL) for n in names]
    terms += [helpers.random_fragment(rng, names, 3) for _ in range(6)]
    u = TermUniverse(terms)
    assert [v.name for v in u.vars] == list(names)
    for t in u.terms:
        for i, bits in enumerate(itertools.product((False, True), repeat=nvars)):
            want = helpers.eval_fragment(t, dict(zip(names, bits)))
            assert (u.vectors[t] >> i & 1) == want, (t, bits)


@given(FRAG)
@settings(max_examples=80, deadline=None)
def test_bool_valid_matches_local_evaluator(t):
    names = sorted({v.name for v in t.free_vars})
    want = all(helpers.eval_fragment(t, dict(zip(names, bits)))
               for bits in itertools.product((False, True), repeat=len(names)))
    assert bool_valid(t) == want


# ---------------------------------------------------------------------------
# Term universes

def test_universe_construction():
    u = TermUniverse([P, mk_conj(P, Q), P, Q])
    assert len(u) == 3  # duplicates collapse
    assert [v.name for v in u.vars] == ['p', 'q']
    assert P in u and mk_disj(P, Q) not in u


def test_universe_rejects_bad_terms():
    with pytest.raises(FragmentError):
        TermUniverse([Var('x', IND)])
    with pytest.raises(FragmentError):
        TermUniverse([mk_imp(P, Q)])


# Bad terms after terms that share their good subterms, with pinned
# messages.  The walk enters a node before its operands and the last operand
# first, and a universe must name the bad node that a walk of the bad term
# alone meets first.
PQ, NOT_PQ = mk_conj(P, Q), mk_not(mk_conj(P, Q))
X_IND, Y_IND = Var('x', IND), Var('y', IND)
SHARED_BAD = [
    ([PQ, NOT_PQ, mk_disj(NOT_PQ, mk_imp(P, Q))],
     'term outside the boolean fragment: p => q'),
    ([PQ, NOT_PQ, mk_conj(mk_eq(X_IND, Y_IND), mk_disj(NOT_PQ, mk_imp(PQ, P)))],
     'term outside the boolean fragment: p /\\ q => p'),
    ([PQ, NOT_PQ, mk_cond(mk_imp(Q, P), mk_eq(X_IND, Y_IND), mk_conj(NOT_PQ, mk_imp(P, Q)))],
     'term outside the boolean fragment: p => q'),
    ([PQ, mk_disj(PQ, Var('r', BOOL)),
      mk_conj(mk_disj(PQ, Var('r', BOOL)), mk_not(mk_forall(P, mk_disj(PQ, Var('r', BOOL)))))],
     # built in code, so no name table names its binder
     'term outside the boolean fragment: !%0:Bool. %0 /\\ q \\/ r'),
    ([PQ, mk_conj(NOT_PQ, mk_eq(X_IND, Y_IND)), mk_imp(P, Q)],
     'variable y is not Bool'),
    ([PQ, NOT_PQ, mk_eq(mk_cond(X_IND, Y_IND, PQ), X_IND)],
     'variable x is not Bool'),
]


@pytest.mark.parametrize('terms,message', SHARED_BAD)
def test_universe_error_names_the_first_bad_subterm(terms, message):
    bad = next(t for t in terms if not in_fragment(t))
    with pytest.raises(FragmentError) as alone:
        rules.fragment_vars(bad)
    with pytest.raises(FragmentError) as in_universe:
        TermUniverse(terms)
    with pytest.raises(FragmentError) as valid:
        bool_valid(bad)
    assert str(in_universe.value) == str(alone.value) == str(valid.value) == message


def _shared_universe(rng, names, nterms):
    """Variables and constants, then terms that each apply a connective to
    earlier terms, each at most 60 nodes as a tree."""
    terms = [Var(n, BOOL) for n in names] + [true_c(), false_c()]
    size = dict.fromkeys(terms, 1)
    builders = [mk_not, mk_conj, mk_disj, mk_eq, mk_cond]
    for _ in range(nterms):
        mk = rng.choice(builders)
        ops = [rng.choice(terms) for _ in range({mk_not: 1, mk_cond: 3}.get(mk, 2))]
        n = 1 + sum(size[u] for u in ops)
        t = mk(*ops)
        if n <= 60 and t not in size:
            size[t] = n
            terms.append(t)
    return terms


@given(st.randoms(use_true_random=False), st.integers(0, 3), st.integers(0, 40),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_universe_over_shared_subterms(rng, nvars, nterms, reverse):
    names = ('p', 'q', 'r')[:nvars]
    terms = _shared_universe(rng, names, nterms)
    if reverse:
        terms.reverse()     # every term before its operands
    u = TermUniverse(terms)
    assert u.terms == tuple(terms)
    assert [v.name for v in u.vars] == list(names)
    classes = {}            # vector -> class, numbered in first-seen order
    for t in terms:
        vector = sum(helpers.eval_fragment(t, dict(zip(names, bits))) << i
                     for i, bits in enumerate(itertools.product((False, True),
                                                                repeat=nvars)))
        assert u.vectors[t] == vector, t
        assert u._class_of[t] == classes.setdefault(vector, len(classes))
    assert u._class_vectors == tuple(classes)
    assert u._positions == [[i for i, t in enumerate(terms) if u.vectors[t] == v]
                            for v in classes]
    assert u._rows == tuple(sum(1 << k for k, v in enumerate(classes) if v >> r & 1)
                            for r in range(1 << nvars))
    # the memoised bounds, on every truth vector over the rows
    everyone = (1 << len(classes)) - 1
    for v in range(1 << (1 << nvars)):
        assert u._up[v] & everyone == sum(1 << k for k, c in enumerate(classes)
                                          if v & c == v)
        assert u._down[v] & everyone == sum(1 << k for k, c in enumerate(classes)
                                            if v | c == v)


def _fragment_subterms(t, out):
    """Add to ``out`` every subterm of a fragment term that is a variable, a
    constant or a connective applied to all its operands, found with the
    recognisers of ``hogc.terms``."""
    out.add(t)
    a = dest_not(t)
    ops = (a,) if a is not None else (kernel.dest_bin('and', t) or kernel.dest_bin('or', t)
                                      or kernel.dest_bin('eq', t) or dest_cond(t) or ())
    for u in ops:
        _fragment_subterms(u, out)
    return out


def test_universe_classifies_each_distinct_subterm_once(monkeypatch):
    terms = _shared_universe(random.Random(25), ('p', 'q', 'r'), 300)
    terms += [mk_conj(t, u) for t, u in zip(terms, reversed(terms))]
    calls = []
    classify = rules.fragment_node
    monkeypatch.setattr(rules, 'fragment_node', lambda t: calls.append(t) or classify(t))
    TermUniverse(terms)
    distinct = set()
    for t in terms:
        _fragment_subterms(t, distinct)
    assert len(calls) == len(set(calls)) == len(distinct)
    assert set(calls) == distinct


def test_universe_evaluates_deep_terms():
    # no walk over the fragment recurses, so nesting is not bounded by the
    # interpreter's recursion limit
    t = P
    for _ in range(20000):
        t = mk_not(t)
    u = TermUniverse([t, mk_not(t)])
    assert u.vectors[t] == 0b10 and u.vectors[mk_not(t)] == 0b01
    assert not bool_valid(t)


def test_universe_from_text():
    u = TermUniverse.from_text("""
    # two variables and a conditional
    p
    q
    p /\\ q
    cond[Bool](p, q, q)
    """)
    assert len(u) == 4
    assert u.terms[3] == mk_cond(P, Q, Q)


def test_universe_sizes():
    assert len(TermUniverse(helpers.bool_universe_terms(2))) == 8
    assert len(TermUniverse(helpers.bool_universe_terms(3))) == 60
    assert len(TermUniverse(helpers.bool_universe_terms(4))) == 272


def test_subset_must_come_from_the_universe(universe2):
    with pytest.raises(ClosureError):
        closure_saturate(universe2, [mk_conj(P, Q)])


# ---------------------------------------------------------------------------
# Saturation against the reference oracle

def test_closure_of_p_q_frozen(universe2):
    # hand-checked: a joins {p, q} iff (a = p) \/ (a = q) is valid; among
    # the eight size-2 terms nothing else qualifies
    got = closure_saturate(universe2, [P, Q])
    assert got == [P, Q]
    assert is_logically_closed(universe2, [P, Q])


def test_closure_of_p_q_with_connectives():
    u = TermUniverse([P, Q, mk_conj(P, Q), mk_disj(P, Q), mk_not(P),
                      mk_not(Q), mk_eq(P, Q), mk_cond(P, Q, Q)])
    got = [syntax.pretty_term(t) for t in closure_saturate(u, [P, Q])]
    # frozen by hand truth tables: the conjunction, disjunction and the
    # conditional all satisfy (a = p) \/ (a = q); negations and the
    # biconditional do not
    assert got == ['p', 'q', 'p /\\ q', 'p \\/ q', 'cond[Bool](p, q, q)']
    assert not is_logically_closed(u, [P, Q])
    v = closure_violation(u, [P, Q])
    assert v is not None
    a, (b, c) = v
    assert a == mk_conj(P, Q) and {b, c} <= {P, Q}
    assert bool_valid(mk_disj(mk_eq(a, b), mk_eq(a, c)))


def test_saturate_agrees_with_naive_exhaustively(universe2):
    terms = list(universe2.terms)
    for mask in range(1 << len(terms)):
        subset = [t for i, t in enumerate(terms) if mask >> i & 1]
        assert closure_saturate(universe2, subset) == \
            helpers.naive_closure(universe2, subset), mask


def test_saturate_agrees_with_naive_random(universe3):
    rng = random.Random(3)
    terms = list(universe3.terms)
    for _ in range(10):
        subset = rng.sample(terms, rng.randrange(0, 6))
        assert closure_saturate(universe3, subset) == \
            helpers.naive_closure(universe3, subset)


def test_empty_subset_is_closed(universe2):
    assert closure_saturate(universe2, []) == []
    assert is_logically_closed(universe2, [])
    assert closure_violation(universe2, []) is None


def _report_witnesses(u, report):
    """{added term: (b, c)} read back from the report's witness column."""
    by_text = {syntax.pretty_term(t): t for t in u.terms}
    out = {}
    for t, row in zip(u.terms, report.split('\n')[6:-1]):
        cols = row[len(syntax.pretty_term(t)):].split(None, 2)
        if cols[2] != '-':
            b, c = cols[2].split(' ; ')
            out[t] = (by_text[b], by_text[c])
    return out


@given(st.randoms(use_true_random=False), st.integers(0, 5), st.integers(0, 8))
@example(random.Random(0), 0, 8)
@example(random.Random(1), 1, 8)
@example(random.Random(2), 2, 8)
@example(random.Random(3), 3, 8)
@example(random.Random(4), 4, 8)
@example(random.Random(5), 5, 8)
@settings(max_examples=60, deadline=None)
def test_saturate_properties_on_generated_universes(rng, nvars, nterms):
    # 1 to 32 truth-table rows, as every variable is a universe term, each
    # count at least once; nvars = nterms = 0 is the empty universe
    names = ('p', 'q', 'r', 's', 't')[:nvars]
    u = TermUniverse([Var(n, BOOL) for n in names]
                     + [helpers.random_fragment(rng, names, 2) for _ in range(nterms)])
    assert [v.name for v in u.vars] == list(names)
    subset = rng.sample(list(u.terms), rng.randint(0, min(4, len(u))))
    closed = closure_saturate(u, subset)
    assert closed == helpers.naive_closure(u, subset)
    assert closure_saturate(u, closed) == closed
    witnesses = list(_report_witnesses(u, closure_report(u, subset)).items())
    assert {t for t, _ in witnesses} == set(closed) - set(subset)
    v = closure_violation(u, subset)
    assert is_logically_closed(u, subset) == (v is None) == (set(closed) == set(subset))
    if v is not None:
        witnesses.append(v)
    for a, (b, c) in witnesses:
        assert a in closed and b in closed and c in closed
        assert bool_valid(mk_disj(mk_eq(a, b), mk_eq(a, c)))
    # the memoised bounds, read from tables of four rows each, against a scan
    # of every row: each vector up to 8 rows, 1,000 seeded ones above that
    rows = u._rows
    vectors = (range(1 << len(rows)) if len(rows) <= 8
               else [rng.getrandbits(len(rows)) for _ in range(1000)])
    for x in vectors:
        up = down = -1
        for r, row in enumerate(rows):
            if x >> r & 1:
                up &= row
            else:
                down &= ~row
        assert (u._up[x], u._down[x]) == (up, down), x


def test_closure_keeps_universe_order(universe3):
    rng = random.Random(5)
    subset = rng.sample(list(universe3.terms), 4)
    got = closure_saturate(universe3, subset)
    idx = {t: i for i, t in enumerate(universe3.terms)}
    assert [idx[t] for t in got] == sorted(idx[t] for t in got)


def test_sets_equivalent(universe3):
    c = closure_saturate(universe3, [P, Q])
    assert sets_equivalent(universe3, [P, Q], c)
    assert sets_equivalent(universe3, [P, Q], [Q, P])
    assert not sets_equivalent(universe3, [P], [Q])


def test_closure_report(universe2):
    rep = closure_report(universe2, [P, Q])
    assert rep.startswith('universe: 8 terms over variables p q\n')
    assert 'input: 2 terms' in rep
    assert 'input logically closed: yes' in rep
    assert closure_report(universe2, [P, Q]) == rep  # deterministic
    rep2 = closure_report(TermUniverse([P, Q, mk_conj(P, Q)]), [P, Q])
    assert 'input logically closed: no' in rep2
    assert 'p ; q' in rep2 or 'q ; p' in rep2  # witness column filled


# Closed terms, four in each of the two classes; and a universe with a
# class realized five ways, two of them listed before ``p`` itself, so which
# term stands for a class depends on the subset's order.
CLOSED_TERMS = [true_c(), false_c(), mk_not(true_c()), mk_conj(true_c(), false_c()),
                mk_disj(false_c(), true_c()), mk_eq(true_c(), false_c()),
                mk_not(false_c()), mk_cond(true_c(), false_c(), true_c())]
SHARED_TERMS = [mk_not(mk_not(P)), mk_conj(P, P), P, Q, mk_disj(P, P),
                mk_conj(P, Q), mk_not(mk_not(Q)), mk_cond(P, P, Q),
                mk_disj(P, Q), mk_conj(Q, P), mk_eq(P, Q), mk_not(P),
                mk_not(Q), mk_disj(Q, P), mk_eq(P, mk_not(Q)), true_c()]
# Three variables, so that a class can be covered only after a later
# class joins and the order of passes shows in the witnesses.
THREE_VAR_TERMS = [helpers.random_fragment(random.Random(2009 + i), ('p', 'q', 'r'), 3)
                   for i in range(40)]
WITNESS_DIGEST = 'fef94145888f1a20a4919b129eb45ff2749f1de17819e585e7f6d67cf0b08b57'


def test_closure_report_witnesses_pinned(universe2, universe3):
    # One digest of the report text, witnesses included, for seeded
    # subsets of each universe: which pair witnesses a term is part of the
    # contract, since merging closure members follows the witnesses.
    rng = random.Random(17)
    h = hashlib.sha256()
    for u in (universe2, universe3, TermUniverse(CLOSED_TERMS),
              TermUniverse(SHARED_TERMS), TermUniverse(THREE_VAR_TERMS)):
        terms = list(u.terms)
        for _ in range(40):
            subset = rng.sample(terms, rng.randint(0, min(5, len(terms))))
            h.update(closure_report(u, subset).encode())
    assert h.hexdigest() == WITNESS_DIGEST


# Four variables, so sixteen rows.  The reports of seeded subsets,
# witnesses included, are pinned byte for byte in REPORTS_4VAR; rewrite it
# with ``python -c 'import test_closure as t; print(t.four_var_reports(),
# end="")' > data/closure-reports-4var.txt`` from ``tests/`` (with ``src``
# on the path) only for a deliberate change of the report.
FOUR_VAR_TERMS = [Var(n, BOOL) for n in 'pqrs'] + [
    helpers.random_fragment(random.Random(4096 + i), ('p', 'q', 'r', 's'), 2)
    for i in range(28)]
REPORTS_4VAR = os.path.join(os.path.dirname(__file__), 'data', 'closure-reports-4var.txt')


def four_var_reports():
    """A line naming each seeded subset, then its closure report."""
    u = TermUniverse(FOUR_VAR_TERMS)
    rng = random.Random(16)
    out = []
    for _ in range(10):
        subset = rng.sample(u.terms, rng.randint(0, 5))
        out.append('== subset: %s\n' % ' ; '.join(map(syntax.pretty_term, subset)))
        out.append(closure_report(u, subset))
    return ''.join(out)


def test_closure_reports_pinned_over_four_variables():
    with open(REPORTS_4VAR) as f:
        assert four_var_reports() == f.read()


# ---------------------------------------------------------------------------
# Languages

def test_logical_singleton(universe3):
    got = logical_singleton('hi', P, universe3)
    expect = [(Word('hi'), t) for t in closure_saturate(universe3, [P])]
    assert got == expect


def test_identity_language_words(universe2):
    pairs = identity_language(universe2)
    assert len(pairs) == len(universe2)
    for w, t in pairs:
        assert w == Word((syntax.canonical_term(t),))


def test_identity_language_not_closed(universe3):
    pairs = identity_language(universe3)
    v = language_violation(universe3, pairs)
    assert v is not None
    (w, a), (b, c) = v
    # the violating word spells a term equal to a but distinct from it
    assert bool_valid(mk_disj(mk_eq(a, b), mk_eq(a, c)))
    assert (w, a) not in pairs
    assert (w, b) in pairs and (w, c) in pairs
    assert not language_logically_closed(universe3, pairs)


def test_language_closed_positive_case(universe3):
    # pairing one word with a closed meaning set is logically closed
    c = closure_saturate(universe3, [P, Q])
    pairs = [(Word('w'), t) for t in c]
    assert language_logically_closed(universe3, pairs)
    assert language_violation(universe3, pairs) is None


# ---------------------------------------------------------------------------
# Certificates

@pytest.fixture(scope='module')
def th():
    return kernel.core_theory()


def test_certificate_left_right(th):
    a1, a2 = mk_conj(P, Q), mk_disj(P, Q)
    cl = certificate_left(th, a1, a2)
    assert cl.target == a1 and cl.left == a1 and cl.right == a2
    assert cl.proof.hyps == ()
    assert cl.proof.concl == mk_disj(mk_eq(a1, a1), mk_eq(a1, a2))
    cr = certificate_right(th, a1, a2)
    assert cr.target == a2
    assert cr.proof.concl == mk_disj(mk_eq(a2, a1), mk_eq(a2, a2))


def test_certificate_cases(th):
    a1, a2, q = P, mk_not(P), Q
    cc = certificate_cases(th, a1, a2, q)
    t = mk_cond(a1, a2, q)
    assert cc.target == t
    assert cc.proof.hyps == ()
    assert cc.proof.concl == mk_disj(mk_eq(t, a1), mk_eq(t, a2))
    with pytest.raises(ClosureError):
        certificate_cases(th, Var('x', IND), Var('y', IND), Var('z', IND))


def test_certificate_taut(th):
    # true is provably equal to p or to ~p, whichever way p falls
    cert = certificate_taut(th, true_c(), mk_disj(P, mk_not(P)), P)
    assert cert.proof.concl == mk_disj(
        mk_eq(true_c(), mk_disj(P, mk_not(P))), mk_eq(true_c(), P))
    with pytest.raises(kernel.RuleError):
        certificate_taut(th, true_c(), P, P)


def test_certificate_scripts(th):
    a1, a2 = mk_conj(P, Q), mk_disj(P, Q)
    c = certificate_from_script(th, 'target p /\\ q\nby left', a1, a2)
    assert c.target == a1
    c = certificate_from_script(th, '# choose the second\n'
                                    'target p \\/ q\nby right', a1, a2)
    assert c.target == a2
    c = certificate_from_script(th, 'target cond[Bool](p /\\ q, p \\/ q, q)\n'
                                    'by cases q', a1, a2)
    assert c.target == mk_cond(a1, a2, Q)
    c = certificate_from_script(th, 'target p \\/ q\nby taut',
                                mk_conj(P, Q), mk_disj(P, Q))
    assert c.target == a2


@pytest.mark.parametrize('script,frag', [
    ('by left', 'needs a target'),
    ('target p\nwibble', 'unrecognized'),
    ('target p\nby left', 'by left requires'),
    ('target q\nby right', 'by right requires'),
    ('target p\nby cases q', 'by cases requires'),
    ('target p\ntarget q\nby right', "duplicate target line: 'target q'"),
    ('target p\nby left\nby right', "duplicate by line: 'by right'"),
    ('by taut\ntarget p\nby taut', "duplicate by line: 'by taut'"),
])
def test_certificate_script_errors(th, script, frag):
    with pytest.raises(ClosureError) as e:
        certificate_from_script(th, script, mk_conj(P, Q), mk_disj(P, Q))
    assert frag in str(e.value)


def test_certificate_script_against_grammar(boolsem):
    results = parser.parse(boolsem, 'nicht ja en nee', 3)
    a1, a2 = [r.meaning for r in results]
    cert = certificate_from_script(
        boolsem, 'target %s\nby cases q' % syntax.pretty_term(
            mk_cond(a1, a2, Q)), a1, a2)
    assert cert.proof.theory is boolsem.theory


# ---------------------------------------------------------------------------
# Merging parses through certificates

def _merge_fixture(ambig):
    results = parser.parse(ambig, 'fajdo blt', 3)
    assert len(results) == 2
    return results


def test_merge_left(ambig):
    p1, p2 = _merge_fixture(ambig)
    th = ambig.theory
    cert = certificate_left(th, p1.meaning, p2.meaning)
    m = merge_parses(ambig, p1, p2, cert)
    c = mk_eq(p1.meaning, p1.meaning)
    assert m.sign == mk_cond(p1.sign, p2.sign, c)
    assert m.sign_type == 'S'
    assert m.word == p1.word
    assert m.meaning == p1.meaning
    assert m.depth == 2
    assert m.phon_proof.hyps == () and m.sem_proof.hyps == ()
    assert m.phon_proof.concl == mk_eq(
        App(th.const('phon_S'), m.sign),
        grammar.word_to_phon(ambig, p1.word))
    assert m.sem_proof.concl == mk_eq(
        App(th.const('sem_S'), m.sign), p1.meaning)


def test_merge_right(ambig):
    p1, p2 = _merge_fixture(ambig)
    cert = certificate_right(ambig.theory, p1.meaning, p2.meaning)
    m = merge_parses(ambig, p1, p2, cert)
    assert m.meaning == p2.meaning
    c = mk_eq(p2.meaning, p1.meaning)
    assert m.sign == mk_cond(p1.sign, p2.sign, c)
    assert m.sem_proof.concl == mk_eq(
        App(ambig.theory.const('sem_S'), m.sign), p2.meaning)


def test_merge_cases(ambig):
    p1, p2 = _merge_fixture(ambig)
    th = ambig.theory
    cert = certificate_cases(th, p1.meaning, p2.meaning, Q)
    m = merge_parses(ambig, p1, p2, cert)
    t = mk_cond(p1.meaning, p2.meaning, Q)
    assert m.meaning == t
    assert m.sem_proof.concl == mk_eq(App(th.const('sem_S'), m.sign), t)
    assert m.sign == mk_cond(p1.sign, p2.sign, mk_eq(t, p1.meaning))


def test_merge_self_with_taut(boolsem):
    # {~true} also means false: certify false = ~true by truth tables
    (r,) = parser.parse(boolsem, 'nicht ja', 3)
    th = boolsem.theory
    eq = rules.taut(th, mk_eq(false_c(), r.meaning))
    cert = ClosureCertificate(false_c(), r.meaning, r.meaning,
                              rules.disj1(eq, mk_eq(false_c(), r.meaning)))
    m = merge_parses(boolsem, r, r, cert)
    assert m.meaning == false_c()
    assert m.sem_proof.concl == mk_eq(
        App(th.const('sem_S'), m.sign), false_c())


def test_merge_validation_errors(toy, ambig, boolsem):
    p1, p2 = _merge_fixture(ambig)
    th = ambig.theory
    # certificate sides must match the parse meanings in order
    with pytest.raises(ClosureError):
        merge_parses(ambig, p1, p2,
                     certificate_left(th, p2.meaning, p1.meaning))
    # words must agree
    (ja,) = parser.parse(boolsem, 'ja', 1)
    (nee,) = parser.parse(boolsem, 'nee', 1)
    with pytest.raises(ClosureError) as e:
        merge_parses(boolsem, ja, nee,
                     certificate_left(boolsem.theory, ja.meaning, nee.meaning))
    assert 'word' in str(e.value)
    # sign types must agree
    (np,) = parser.parse(ambig, 'fajdo', 1)
    fake = parser.ParseResult(p1.word, np.sign, np.sign_type, np.meaning,
                              np.phon_proof, np.sem_proof, np.depth)
    with pytest.raises(ClosureError) as e:
        merge_parses(ambig, p1, fake,
                     certificate_left(th, p1.meaning, p1.meaning))
    assert 'sign type' in str(e.value)
    # certificates from another theory are rejected
    foreign = certificate_left(toy.theory, p1.meaning, p2.meaning)
    with pytest.raises(ClosureError):
        merge_parses(ambig, p1, p2, foreign)
    # hand-built certificates must prove exactly the advertised disjunction
    bogus = ClosureCertificate(
        p1.meaning, p1.meaning, p2.meaning,
        kernel.reflexivity(th, p1.meaning))
    with pytest.raises(ClosureError):
        merge_parses(ambig, p1, p2, bogus)
    # a parse whose phonology or meaning proof is about the other parse's
    # sign is a ClosureError, not a kernel error from deep inside a proof
    for phon, sem, meaning in ((p1.phon_proof, p2.sem_proof, p2.meaning),
                               (p2.phon_proof, p1.sem_proof, p1.meaning)):
        fake = parser.ParseResult(p2.word, p2.sign, p2.sign_type, meaning,
                                  phon, sem, p2.depth)
        with pytest.raises(ClosureError):
            merge_parses(ambig, p1, fake, certificate_left(th, p1.meaning, meaning))


def test_merged_parse_merges_again(ambig):
    # the merge output is itself a parse result fit for further merging
    p1, p2 = _merge_fixture(ambig)
    th = ambig.theory
    m = merge_parses(ambig, p1, p2,
                     certificate_cases(th, p1.meaning, p2.meaning, Q))
    cert = certificate_left(th, m.meaning, p1.meaning)
    mm = merge_parses(ambig, m, p1, cert)
    assert mm.meaning == m.meaning
    assert mm.sem_proof.hyps == ()


def test_merges_on_a_warm_theory_instantiate_the_merge_law(monkeypatch):
    # the first merge proves the sign type's merge law; a later merge, by
    # left or by cases, is one instance of it: no new cached lemma, and 17
    # primitive rules (one instantiate, five discharges, two projections)
    g = grammar.elaborate(helpers.AMBIG, name='ambig')
    th = g.theory
    p1, p2 = parser.parse(g, helpers.AMBIG_WORD, 2)
    cases = certificate_cases(th, p1.meaning, p2.meaning, Q)
    left = certificate_left(th, p1.meaning, p2.meaning)
    before = set(th._derived_cache)
    merge_parses(g, p1, p2, cases)
    assert ('merge_law', 'S') in th._derived_cache.keys() - before
    cached = dict(th._derived_cache)
    rules_run = []
    real = kernel._thm
    monkeypatch.setattr(kernel, '_thm', lambda *a: rules_run.append(a[3]) or real(*a))
    for cert in (left, cases):
        del rules_run[:]
        m = merge_parses(g, p1, p2, cert)
        assert m.meaning == cert.target and m.sem_proof.hyps == ()
        assert 0 < len(rules_run) <= 20
        assert th._derived_cache == cached


def test_sign_axioms_stay_consistent_under_merge(ambig):
    # the merged sign's meaning equation is a theorem, not a new axiom:
    # the axiom count of the theory is untouched
    before = dict(ambig.theory.axioms)
    p1, p2 = _merge_fixture(ambig)
    merge_parses(ambig, p1, p2,
                 certificate_left(ambig.theory, p1.meaning, p2.meaning))
    assert ambig.theory.axioms == before
