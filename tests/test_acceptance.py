"""End-to-end guarantees, one test per advertised property.

Every test records a PASS/FAIL line for the terminal summary (see
conftest).  These are the strongest desk-scale facts the package claims:
kernel-derived conditional laws, schema instances collapsing at the
boolean poles, certificate-backed merging that re-verifies in fresh
kernels, parser/enumeration agreement, and the closure-operator laws.
"""

import random
import time

from hogc import closure, grammar, kernel, parser, rules, syntax, terms, trace
from hogc.kernel import (Abs, App, BOOL, FunType, IND, PHON, ProdType, Var,
                         beta_normalize, dest_eq, false_c, mk_cond, mk_disj,
                         mk_eq, true_c)

import helpers

FIVE_TYPES = (BOOL, IND, PHON, FunType(IND, BOOL), ProdType(BOOL, IND))


def _collapse_node(th, t):
    """Rewrite step: conditionals at true/false, ground booleans to their
    value."""
    d = terms.dest_cond(t)
    if d is not None:
        x, y, z = d
        if terms.is_true(z):
            return rules.cond_true(th, x, y)
        if terms.is_false(z):
            return rules.cond_false(th, x, y)
    if (t.ty == BOOL and not t.free_vars and closure.in_fragment(t)
            and not (terms.is_true(t) or terms.is_false(t))):
        return rules.ground_eval(th, t)
    return None


def _reflexive_after_rewrite(thm):
    r = helpers.rewrite_sides(thm, _collapse_node)
    a, b = dest_eq(r.concl)
    return a == b


def test_criterion_1_conditional_selection_laws(acceptance):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        th = kernel.core_theory()
        rng = random.Random(20260815)
        pairs = 0
        reverified = 0
        for ty in FIVE_TYPES:
            thms = []
            for _ in range(10):
                x = helpers.random_term(rng, ty)
                y = helpers.random_term(rng, ty)
                tt = rules.cond_true(th, x, y)
                ff = rules.cond_false(th, x, y)
                assert isinstance(tt, kernel.Theorem) and tt.hyps == ()
                assert isinstance(ff, kernel.Theorem) and ff.hyps == ()
                assert tt.concl == mk_eq(mk_cond(x, y, true_c()), x)
                assert ff.concl == mk_eq(mk_cond(x, y, false_c()), y)
                thms.extend((tt, ff))
                pairs += 1
            text = trace.export_trace(thms)
            fresh = kernel.core_theory()
            roots = trace.verify_trace(text, fresh, strict_fingerprint=True)
            assert [r.concl for r in roots] == [t.concl for t in thms]
            assert all(r.theory is fresh for r in roots)
            reverified += len(roots)
        assert pairs == 50 and reverified == 100
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('50 (x, y) pairs at 5 types: both selection laws '
                            'derived, 100 traces re-verified in fresh kernels'
                            '; %.1fs' % elapsed)
    finally:
        acceptance(1, ok, detail)


def test_criterion_2_conditional_schemas(acceptance):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        th = kernel.core_theory()
        rng = random.Random(20260816)
        z = Var('z9', BOOL)
        oracle = 0
        # C(x, x, z) = x
        for i in range(50):
            x = helpers.random_term(rng, FIVE_TYPES[i % 5])
            thm = rules.cond_idem(th, x, z)
            assert isinstance(thm, kernel.Theorem) and thm.hyps == ()
            assert thm.concl == mk_eq(mk_cond(x, x, z), x)
            for v in (true_c(), false_c()):
                assert _reflexive_after_rewrite(kernel.instantiate(thm, {z: v}))
        # x \/ y = C(x, y, x); the condition slot is x itself
        for i in range(50):
            x = helpers.random_fragment(rng)
            y = helpers.random_fragment(rng)
            thm = rules.or_as_cond(th, x, y)
            assert isinstance(thm, kernel.Theorem) and thm.hyps == ()
            assert thm.concl == mk_eq(mk_disj(x, y), mk_cond(x, y, x))
            assert closure.bool_valid(thm.concl)
            oracle += 1
            yg = helpers.random_ground_fragment(rng)
            for v in (true_c(), false_c()):
                assert _reflexive_after_rewrite(rules.or_as_cond(th, v, yg))
        # f(C(x, y, z)) = C(f x, f y, z)
        w = Var('w', BOOL)
        for i in range(50):
            a, b = FIVE_TYPES[i % 5], FIVE_TYPES[(i + 2) % 5]
            f = helpers.random_term(rng, FunType(a, b))
            x = helpers.random_term(rng, a)
            y = helpers.random_term(rng, a)
            thm = rules.cond_distrib(th, f, x, y, z)
            assert isinstance(thm, kernel.Theorem) and thm.hyps == ()
            assert thm.concl == mk_eq(App(f, mk_cond(x, y, z)),
                                      mk_cond(App(f, x), App(f, y), z))
            for v in (true_c(), false_c()):
                assert _reflexive_after_rewrite(kernel.instantiate(thm, {z: v}))
            fb = Abs(w, helpers.random_fragment(rng, names=('p', 'q', 'w')))
            xb = helpers.random_fragment(rng)
            yb = helpers.random_fragment(rng)
            zb = helpers.random_fragment(rng)
            nf = beta_normalize(rules.cond_distrib(th, fb, xb, yb, zb).concl)
            assert closure.in_fragment(nf)
            assert closure.bool_valid(nf)
            oracle += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('3 schemas x 50 instances: theorems derived, '
                            'true/false instances collapse to reflexivity, '
                            '%d Bool instances truth-table confirmed; %.1fs'
                            % (oracle, elapsed))
    finally:
        acceptance(2, ok, detail)


def test_criterion_3_certified_merging(acceptance, toy, ambig, boolsem, eps):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        corpus = {'toy': toy, 'ambig': ambig, 'boolsem': boolsem, 'eps': eps}
        assert len(corpus) >= 3
        q = Var('q', BOOL)
        merges = 0
        for name, word, k in (('ambig', 'fajdo blt', 2),
                              ('boolsem', 'nicht ja en nee', 3)):
            g = corpus[name]
            p1, p2 = parser.parse(g, word, k)
            a1, a2 = p1.meaning, p2.meaning
            assert a1 != a2
            if closure.in_fragment(a1) and closure.in_fragment(a2):
                assert not closure.bool_valid(mk_eq(a1, a2))
            th = g.theory
            routes = (
                (closure.certificate_left(th, a1, a2), a1),
                (closure.certificate_right(th, a1, a2), a2),
                (closure.certificate_cases(th, a1, a2, q), mk_cond(a1, a2, q)),
            )
            fresh = grammar.elaborate(getattr(helpers, name.upper()), name=name)
            for cert, want in routes:
                m = closure.merge_parses(g, p1, p2, cert)
                assert m.meaning == want
                assert m.sign == mk_cond(p1.sign, p2.sign, mk_eq(want, a1))
                assert m.phon_proof.hyps == () and m.sem_proof.hyps == ()
                text = trace.export_trace([m.phon_proof, m.sem_proof])
                roots = trace.verify_trace(text, fresh.theory,
                                           strict_fingerprint=True)
                assert [r.concl for r in roots] == [m.phon_proof.concl,
                                                    m.sem_proof.concl]
                merges += 1
        assert merges == 6
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('4-grammar corpus, 2 ambiguous words with '
                            'non-equivalent meanings, 3 certificate routes '
                            'each: 6/6 merges re-verified in fresh kernels; '
                            '%.1fs' % elapsed)
    finally:
        acceptance(3, ok, detail)


def test_criterion_4_parser_matches_enumeration(acceptance, toy, ambig,
                                                boolsem, eps):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        queries = 0
        for g in (toy, ambig, boolsem, eps):
            for k in (1, 2, 3):
                by_word = {}
                for sign, w, meaning in parser.enumerate_signs(g, k):
                    by_word.setdefault(w, []).append(
                        (syntax.canonical_term(sign),
                         syntax.canonical_term(meaning)))
                assert by_word
                for w, expect in by_word.items():
                    got = [(syntax.canonical_term(r.sign),
                            syntax.canonical_term(r.meaning))
                           for r in parser.parse(g, w, k)]
                    assert sorted(got) == sorted(expect), \
                        (g.theory.name, w.tokens, k)
                    queries += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('4 grammars x depth bounds 1..3: parse agreed '
                            'exactly with the sign enumeration on all %d '
                            'enumerated words; %.1fs' % (queries, elapsed))
    finally:
        acceptance(4, ok, detail)


def test_criterion_5_closure_operator_laws(acceptance, universe):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        assert len(universe) == 272
        rng = random.Random(20260819)
        terms = list(universe.terms)

        def sat(s):
            return closure.closure_saturate(universe, s)

        def sample():
            return rng.sample(terms, rng.randrange(0, 9))

        for _ in range(100):  # extensive and idempotent
            s = sample()
            c = sat(s)
            assert set(s) <= set(c)
            assert sat(c) == c
        for _ in range(100):  # monotone
            a = sample()
            b = a + rng.sample(terms, rng.randrange(0, 5))
            assert set(sat(a)) <= set(sat(b))
        base = sample() or [terms[0]]
        want = sat(base)
        for _ in range(10):  # input order cannot matter
            shuf = base[:]
            rng.shuffle(shuf)
            assert sat(shuf) == want

        def eqv(x, y):
            return closure.sets_equivalent(universe, x, y)

        for _ in range(50):  # the induced relation is an equivalence
            a = sample()
            ca = sat(a)
            b = rng.sample(a, len(a)) + ([rng.choice(ca)] if ca else [])
            c = b + ([rng.choice(sat(b))] if sat(b) else [])
            assert eqv(a, a) and eqv(b, b) and eqv(c, c)
            assert eqv(a, b) and eqv(b, a)
            assert eqv(b, c) and eqv(a, c) and eqv(c, a)
            d = sample()
            assert eqv(a, d) == eqv(d, a)
            assert eqv(a, d) == (sat(d) == ca)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('272-term universe: extensive+idempotent on 100 '
                            'subsets, monotone on 100 pairs, order-free '
                            'under 10 shuffles, equivalence laws on 50 '
                            'triples, 0 violations; %.1fs' % elapsed)
    finally:
        acceptance(5, ok, detail)


def test_criterion_6_identity_language_not_closed(acceptance, universe):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        pairs = closure.identity_language(universe)
        assert len(pairs) == 272
        assert not closure.language_logically_closed(universe, pairs)
        v = closure.language_violation(universe, pairs)
        assert v is not None
        (w, a), (b, c) = v
        assert closure.bool_valid(mk_disj(mk_eq(a, b), mk_eq(a, c)))
        assert (w, b) in pairs and (w, c) in pairs
        assert (w, a) not in pairs
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('identity language over 272 pairs is not '
                            'logically closed; witness: word %r also means '
                            '%s; %.1fs' % (' '.join(w.tokens),
                                           syntax.pretty_term(a), elapsed))
    finally:
        acceptance(6, ok, detail)


def test_criterion_7_logical_singleton_law(acceptance, universe):
    ok, detail = False, 'crashed'
    t0 = time.perf_counter()
    try:
        rng = random.Random(20260821)
        terms = list(universe.terms)
        for _ in range(20):
            w = grammar.Word(tuple('w%d' % rng.randrange(9)
                                   for _ in range(rng.randrange(0, 4))))
            a = rng.choice(terms)
            got = closure.logical_singleton(w, a, universe)
            assert got == [(w, t)
                           for t in closure.closure_saturate(universe, [a])]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        ok, detail = True, ('20 random (word, meaning) pairs: the singleton '
                            'language closure equals {word} x '
                            'closure({meaning}) exactly; %.1fs' % elapsed)
    finally:
        acceptance(7, ok, detail)
