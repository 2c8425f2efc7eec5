"""Derived inference rules on top of the kernel primitives.

Everything here bottoms out in kernel rules, so every theorem produced
carries a full primitive-step provenance and can be exported as a trace.
The layer covers the standard propositional toolkit for the equality-based
connectives, a small conversion framework (context substitution, full
beta normalization, bottom-up rewriting that proves nothing
about the subterms it leaves unchanged and keeps what it proves in a memo
that later passes with the same rule read), the derived rules for the
if-then-else constants C and their laws, and a case-split tautology prover
for the quantifier-free boolean fragment.
That fragment is defined here once, by the table ``FRAGMENT_CONNECTIVES``
of its connectives and the one classifier ``fragment_node`` that reads it;
``fragment_vars`` and the closure lab's truth tables walk terms with it.

Rule schemas (the propositional rules, the C laws, the boolean
simplification lemmas) are derived once per theory and type and cached on
the theory; requests at concrete arguments are answered by instantiating
the cached schema.

* A propositional rule is one instance of a schema over p, q, r whose
  hypotheses stand for its premises, for example {p, q} |- p /\\ q for
  ``conj``.  Each premise discharges its hypothesis (``prove_hyp``, two
  steps), the last premise first, so the result lists the premises'
  hypotheses in their order: ``conj`` costs one instantiate and four more
  steps however large p and q are.  A discharge is a cut, so a premise's
  hypothesis that another premise proves goes too: ``conj`` of A |- p and
  B |- q has the hypotheses A u (B - {p}).
* ``disch`` cannot be an instance, as it drops a hypothesis.  It takes one
  ``deduct_antisym`` between instances of {p} |- q = p /\\ q and
  {p /\\ q} |- p, folded by the cached unfolded
  |- (p ==> q) = (p /\\ q = p).  ``disj_cases`` discharges its branches'
  implications, built by ``disch``.
"""

from __future__ import annotations

from . import kernel
from .kernel import (Abs, App, BOOL, FunType, RuleError, Var, abstraction, assume, axiom,
                     beta_conversion, congruence, deduct_antisym, dest_bin, dest_eq, false_c,
                     instantiate, mk_conj, mk_cond, mk_disj, mk_eq, mk_forall, mk_imp,
                     mk_not, modus_ponens_eq, reflexivity, subst_parallel, symmetry,
                     transitivity, true_c)
from .terms import dest_cond, dest_forall, dest_not, is_false, is_true


def lhs(thm):
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('expected an equation: %r' % thm)
    return e[0]


def rhs(thm):
    e = dest_eq(thm.concl)
    if e is None:
        raise RuleError('expected an equation: %r' % thm)
    return e[1]


def ap_term(f, thm):
    """From A |- a = b derive A |- f a = f b."""
    return congruence(reflexivity(thm.theory, f), thm)


def ap_thm(thm, a):
    """From A |- f = g derive A |- f a = g a."""
    return congruence(thm, reflexivity(thm.theory, a))


def _cached(th, key, build):
    cache = th._derived_cache
    if key not in cache:
        cache[key] = build()
    return cache[key]


# ---------------------------------------------------------------------------
# Unfolding defined constants

def unfold_head(th, t):
    """|- t = t' where the defined head constant of t is unfolded and the
    resulting outer beta redexes are contracted."""
    head = t
    args = []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if not (isinstance(head, kernel.Const) and head.name in kernel._DEFINED_ORDER):
        raise RuleError('no defined head constant in %r' % t)
    e = axiom(th, 'def.' + head.name, head.targs)
    for a in args:
        e = ap_thm(e, a)
    for i in range(len(args)):
        r = rhs(e)
        # contract the innermost application of the remaining spine
        spine = []
        while isinstance(r, App) and len(spine) < len(args) - i:
            spine.append(r.arg)
            r = r.fn
        spine.reverse()
        redex = App(r, spine[0])
        b = beta_conversion(th, redex)
        for a in spine[1:]:
            b = ap_thm(b, a)
        e = transitivity(e, b)
    return e


# ---------------------------------------------------------------------------
# Truth and the equality/implication interface

def truth(th):
    """|- true"""
    def build():
        p = Var('p', BOOL)
        r = reflexivity(th, Abs(p, p))
        return modus_ponens_eq(symmetry(axiom(th, 'def.true')), r)
    return _cached(th, 'truth', build)


def eqt_intro(thm):
    """From A |- p derive A |- p = true."""
    return deduct_antisym(thm, truth(thm.theory))


def eqt_elim(thm):
    """From A |- p = true derive A |- p."""
    return modus_ponens_eq(symmetry(thm), truth(thm.theory))


def prove_hyp(thm_p, thm):
    """From A |- p and B |- q derive A u (B - {p}) |- q."""
    return modus_ponens_eq(deduct_antisym(thm_p, thm), thm_p)


# ---------------------------------------------------------------------------
# Propositional rules, each an instance of a schema over p, q, r

_P, _Q, _R, _Z = Var('p', BOOL), Var('q', BOOL), Var('r', BOOL), Var('z', BOOL)


def _discharge(e, *prems):
    """Discharge a schema instance's hypotheses with ``prems``, the last
    first, so the result's hypotheses follow the premises' order."""
    for prem in reversed(prems):
        e = prove_hyp(prem, e)
    return e


def _def_pq(th, name):
    """|- p <c> q = ..., the definition of the connective ``name`` (and, imp
    or or) unfolded at the schema variables."""
    t = App(App(kernel.logical_const(name), _P), _Q)
    return _cached(th, ('rule', 'def.' + name), lambda: unfold_head(th, t))


def _conj_schema(th):
    """{p, q} |- p /\\ q"""
    def build():
        u = _def_pq(th, 'and')
        f = Var('f', FunType(BOOL, FunType(BOOL, BOOL)))
        body = congruence(congruence(reflexivity(th, f), eqt_intro(assume(th, _P))),
                          eqt_intro(assume(th, _Q)))
        return modus_ponens_eq(symmetry(u), abstraction(f, body))
    return _cached(th, ('rule', 'conj'), build)


def conj(thm1, thm2):
    """From A |- p and B |- q derive A u B |- p /\\ q."""
    e = instantiate(_conj_schema(thm1.theory), {_P: thm1.concl, _Q: thm2.concl})
    return _discharge(e, thm1, thm2)


def _conjunct_schema(th, first):
    """{p /\\ q} |- p (first) or {p /\\ q} |- q."""
    def build():
        u = modus_ponens_eq(_def_pq(th, 'and'), assume(th, mk_conj(_P, _Q)))
        ua, vb = Var('u', BOOL), Var('v', BOOL)
        sel = Abs(ua, Abs(vb, ua if first else vb))
        ap = ap_thm(u, sel)

        def reduce_side(x, y):
            # |- (\f. f x y) sel = x  (or y when sel picks the second)
            f = Var('f', sel.ty)
            e0 = beta_conversion(th, App(Abs(f, App(App(f, x), y)), sel))
            e1 = ap_thm(beta_conversion(th, App(sel, x)), y)
            e2 = beta_conversion(th, rhs(e1))
            return transitivity(e0, transitivity(e1, e2))

        el = reduce_side(_P, _Q)
        er = reduce_side(true_c(), true_c())
        return eqt_elim(transitivity(symmetry(el), transitivity(ap, er)))
    return _cached(th, ('rule', 'conjunct1' if first else 'conjunct2'), build)


def _conjunct(thm, first):
    d = dest_bin('and', thm.concl)
    if d is None:
        raise RuleError('not a conjunction: %r' % thm)
    e = instantiate(_conjunct_schema(thm.theory, first), {_P: d[0], _Q: d[1]})
    return _discharge(e, thm)


def conjunct1(thm):
    """From A |- p /\\ q derive A |- p."""
    return _conjunct(thm, True)


def conjunct2(thm):
    """From A |- p /\\ q derive A |- q."""
    return _conjunct(thm, False)


def _conj_eq_schema(th):
    """{p} |- q = p /\\ q"""
    def build():   # {p, q} |- p /\ q and {p /\ q} |- q give {p} |- p /\ q = q
        return symmetry(deduct_antisym(_conj_schema(th), _conjunct_schema(th, False)))
    return _cached(th, ('rule', 'conj_eq'), build)


def disch(p, thm):
    """From A |- q derive A - {p} |- p => q."""
    th = thm.theory
    m = {_P: p, _Q: thm.concl}
    t1 = modus_ponens_eq(instantiate(_conj_eq_schema(th), m), thm)  # {p} u A |- p /\ q
    t2 = instantiate(_conjunct_schema(th, True), m)                 # {p /\ q} |- p
    fold = symmetry(instantiate(_def_pq(th, 'imp'), m))
    return modus_ponens_eq(fold, deduct_antisym(t1, t2))


def _mp_schema(th):
    """{p ==> q, p} |- q"""
    def build():
        imp = mk_imp(_P, _Q)
        e = modus_ponens_eq(_def_pq(th, 'imp'), assume(th, imp))
        return conjunct2(modus_ponens_eq(symmetry(e), assume(th, _P)))
    return _cached(th, ('rule', 'mp'), build)


def mp(thm_imp, thm):
    """From A |- p => q and B |- p derive A u B |- q."""
    d = dest_bin('imp', thm_imp.concl)
    if d is None:
        raise RuleError('not an implication: %r' % thm_imp)
    if d[0] != thm.concl:
        raise RuleError('modus ponens mismatch')
    e = instantiate(_mp_schema(thm_imp.theory), {_P: d[0], _Q: d[1]})
    return _discharge(e, thm_imp, thm)


def gen(v, thm):
    """From A |- p derive A |- !v. p, v not free in A."""
    th = thm.theory
    a = abstraction(v, eqt_intro(thm))
    u = unfold_head(th, mk_forall(v, thm.concl))
    return modus_ponens_eq(symmetry(u), a)


def spec(a, thm):
    """From A |- !x. p derive A |- p[a/x]."""
    th = thm.theory
    if dest_forall(thm.concl) is None:
        raise RuleError('not a universal: %r' % thm)
    u = modus_ponens_eq(unfold_head(th, thm.concl), thm)
    ap = ap_thm(u, a)
    bl = beta_conversion(th, lhs(ap))
    br = beta_conversion(th, rhs(ap))
    return eqt_elim(transitivity(symmetry(bl), transitivity(ap, br)))


def _disj_schema(th, first):
    """{p} |- p \\/ q (first) or {q} |- p \\/ q."""
    def build():
        m = instantiate(_mp_schema(th), {_P: _P if first else _Q, _Q: _R})
        d = disch(mk_imp(_P, _R), disch(mk_imp(_Q, _R), m))
        return modus_ponens_eq(symmetry(_def_pq(th, 'or')), gen(_R, d))
    return _cached(th, ('rule', 'disj1' if first else 'disj2'), build)


def disj1(thm, q):
    """From A |- p derive A |- p \\/ q."""
    e = instantiate(_disj_schema(thm.theory, True), {_P: thm.concl, _Q: q})
    return _discharge(e, thm)


def disj2(p, thm):
    """From A |- q derive A |- p \\/ q."""
    e = instantiate(_disj_schema(thm.theory, False), {_P: p, _Q: thm.concl})
    return _discharge(e, thm)


def _disj_cases_schema(th):
    """{p \\/ q, p ==> r, q ==> r} |- r"""
    def build():
        u = modus_ponens_eq(_def_pq(th, 'or'), assume(th, mk_disj(_P, _Q)))
        sp = spec(_R, u)
        return mp(mp(sp, assume(th, mk_imp(_P, _R))), assume(th, mk_imp(_Q, _R)))
    return _cached(th, ('rule', 'disj_cases'), build)


def disj_cases(thm_disj, thm1, thm2):
    """From A |- p \\/ q, B |- s, C |- s derive A u (B-{p}) u (C-{q}) |- s."""
    d = dest_bin('or', thm_disj.concl)
    if d is None:
        raise RuleError('not a disjunction: %r' % thm_disj)
    if thm1.concl != thm2.concl:
        raise RuleError('branch conclusions differ')
    p, q = d
    e = instantiate(_disj_cases_schema(thm_disj.theory), {_P: p, _Q: q, _R: thm1.concl})
    return _discharge(e, thm_disj, disch(p, thm1), disch(q, thm2))


def _contr_schema(th):
    """{false} |- p"""
    def build():
        u = modus_ponens_eq(axiom(th, 'def.false'), assume(th, false_c()))
        return spec(_P, u)
    return _cached(th, ('rule', 'contr'), build)


def contr(p, thm):
    """From A |- false derive A |- p."""
    if not is_false(thm.concl):
        raise RuleError('contr needs |- false')
    return _discharge(instantiate(_contr_schema(thm.theory), {_P: p}), thm)


def not_elim(thm):
    """From A |- ~p derive A |- p => false."""
    th = thm.theory
    p = dest_not(thm.concl)
    if p is None:
        raise RuleError('not a negation: %r' % thm)
    return modus_ponens_eq(unfold_head(th, thm.concl), thm)


def not_intro(thm):
    """From A |- p => false derive A |- ~p."""
    th = thm.theory
    d = dest_bin('imp', thm.concl)
    if d is None or not is_false(d[1]):
        raise RuleError('not_intro needs |- p => false')
    u = unfold_head(th, mk_not(d[0]))
    return modus_ponens_eq(symmetry(u), thm)


# ---------------------------------------------------------------------------
# Boolean simplification lemmas (schemas over p, q)

def _bool_lemma(th, name):
    def build():
        p = Var('p', BOOL)
        t, f = true_c(), false_c()
        if name == 'and_true_l':      # true /\ p = p
            t1 = conjunct2(assume(th, mk_conj(t, p)))
            t2 = conj(truth(th), assume(th, p))
            return deduct_antisym(t2, t1)
        if name == 'and_false_l':     # false /\ p = false
            t1 = conjunct1(assume(th, mk_conj(f, p)))
            fa = assume(th, f)
            t2 = conj(fa, contr(p, fa))
            return deduct_antisym(t2, t1)
        if name == 'or_true_l':       # true \/ p = true
            return deduct_antisym(disj1(truth(th), p), truth(th))
        if name == 'or_false_l':      # false \/ p = p
            a = assume(th, mk_disj(f, p))
            t1 = disj_cases(a, contr(p, assume(th, f)), assume(th, p))
            t2 = disj2(f, assume(th, p))
            return deduct_antisym(t2, t1)
        if name == 'or_false_r':      # p \/ false = p
            a = assume(th, mk_disj(p, f))
            t1 = disj_cases(a, assume(th, p), contr(p, assume(th, f)))
            t2 = disj1(assume(th, p), f)
            return deduct_antisym(t2, t1)
        if name == 'not_true':        # ~true = false
            n = assume(th, mk_not(t))
            t1 = mp(not_elim(n), truth(th))
            t2 = contr(mk_not(t), assume(th, f))
            return deduct_antisym(t2, t1)
        if name == 'not_false':       # ~false = true
            d = disch(f, assume(th, f))
            return eqt_intro(not_intro(d))
        if name == 'eq_tt':           # (true = true) = true
            return eqt_intro(reflexivity(th, t))
        if name == 'eq_ff':           # (false = false) = true
            return eqt_intro(reflexivity(th, f))
        if name == 'eq_tf':           # (true = false) = false
            t1 = contr(mk_eq(t, f), assume(th, f))
            t2 = modus_ponens_eq(assume(th, mk_eq(t, f)), truth(th))
            return deduct_antisym(t1, t2)
        if name == 'eq_ft':           # (false = true) = false
            t1 = eqt_intro(assume(th, f))
            t2 = modus_ponens_eq(symmetry(assume(th, mk_eq(f, t))), truth(th))
            return deduct_antisym(t1, t2)
        raise RuleError('unknown lemma %s' % name)
    return _cached(th, ('lemma', name), build)


def _inst1(schema, value):
    p = Var('p', BOOL)
    return instantiate(schema, {p: value})


# ---------------------------------------------------------------------------
# Conversions

def subst_context(th, tmpl, v, eqthm):
    """From A |- a = b derive A |- tmpl[a/v] = tmpl[b/v]."""
    a, b = dest_eq(eqthm.concl)
    if v.ty != a.ty:
        raise RuleError('context variable type mismatch')
    lam = Abs(v, tmpl)
    b1 = beta_conversion(th, App(lam, a))
    b2 = beta_conversion(th, App(lam, b))
    c = congruence(reflexivity(th, lam), eqthm)
    return transitivity(symmetry(b1), transitivity(c, b2))


def depth_rewrite(th, t, node_fn):
    """|- t = t' by applying node_fn bottom-up until no rule applies.

    node_fn(th, u) returns an equation theorem for a single node or None;
    its results must have no hypotheses.  Rewritten results are descended
    into again, so node_fn must be terminating (e.g. size-decreasing or
    normalizing).  A term that nothing rewrites gets |- t = t by one
    reflexivity step.
    """
    e = _rewrite(th, t, node_fn)
    return reflexivity(th, t) if e is None else e


def rewrite_rhs(thm, node_fn, memo=None):
    """From A |- a = b derive A |- a = b' with b rewritten as by
    depth_rewrite; thm itself when nothing rewrites.

    ``memo`` maps terms to what passes with this node_fn proved about them:
    an equation l = r whose r node_fn leaves as it is, or None for a term
    left unchanged.  A subterm found there gets its entry as it stands,
    without descending into it or walking r, and every subterm the pass
    enters is added, so passes that share a memo walk each term once.  An
    entry's hypotheses pass to the result.
    """
    e = _rewrite(thm.theory, rhs(thm), node_fn, memo)
    return thm if e is None else transitivity(thm, e)


def _rewrite(th, t, node_fn, memo=None):
    # |- t = t', or None when t is left unchanged: unchanged subterms get
    # no proof at all, so no reflexivity or congruence step concludes t = t
    if memo is None:
        memo = {}
    if t in memo:
        return memo[t]
    e = _children_rewrite(th, t, node_fn, memo)
    r = node_fn(th, t if e is None else rhs(e))
    if r is not None:
        if r.hyps:
            raise RuleError('rewrite rules must be hypothesis-free')
        e2 = _rewrite(th, rhs(r), node_fn, memo)
        if e2 is not None:
            r = transitivity(r, e2)
        e = r if e is None else transitivity(e, r)
    memo[t] = e
    return e


def _children_rewrite(th, t, node_fn, memo):
    if isinstance(t, App):
        ef = _rewrite(th, t.fn, node_fn, memo)
        ea = _rewrite(th, t.arg, node_fn, memo)
        if ef is None and ea is None:
            return None
        return congruence(reflexivity(th, t.fn) if ef is None else ef,
                          reflexivity(th, t.arg) if ea is None else ea)
    if isinstance(t, Abs):
        # one fixed name, the one def.cond gives the binder that merges open
        v, body = kernel.dest_abs(t, 'w')
        eb = _rewrite(th, body, node_fn, memo)
        return None if eb is None else abstraction(v, eb)
    return None


def _bp_step(th, t):
    if isinstance(t, App) and isinstance(t.fn, Abs):
        return beta_conversion(th, t)
    return None


# ---------------------------------------------------------------------------
# The if-then-else constant family

def _cond_schema(th, ty, z):
    """|- C(x, y, z) = x for z = true, |- C(x, y, z) = y for z = false."""
    def build():
        x, y = Var('x', ty), Var('y', ty)
        u = rewrite_rhs(unfold_head(th, mk_cond(x, y, z)), _ground_simp)
        desc = spec(x if is_true(z) else y, axiom(th, 'description', (ty,)))
        return transitivity(u, desc)
    return _cached(th, ('cond_true' if is_true(z) else 'cond_false', ty), build)


def cond_true(th, x, y):
    """|- C(x, y, true) = x"""
    sx, sy = Var('x', x.ty), Var('y', x.ty)
    return instantiate(_cond_schema(th, x.ty, true_c()), {sx: x, sy: y})


def cond_false(th, x, y):
    """|- C(x, y, false) = y"""
    sx, sy = Var('x', x.ty), Var('y', x.ty)
    return instantiate(_cond_schema(th, x.ty, false_c()), {sx: x, sy: y})


def bool_cases_split(th, z, hole, tmpl, thm_true, thm_false):
    """Case analysis on a boolean: from A |- tmpl[true/hole] and
    B |- tmpl[false/hole] derive (A - {z = true}) u (B - {z = false})
    |- tmpl[z/hole], so each branch may assume its own case."""
    if z.ty != BOOL:
        raise RuleError('case split needs a Bool term')
    bc = instantiate(_cached(th, ('rule', 'bool_cases'),
                             lambda: spec(_Z, axiom(th, 'bool-cases'))), {_Z: z})
    et = assume(th, mk_eq(z, true_c()))
    ef = assume(th, mk_eq(z, false_c()))
    ct = subst_context(th, tmpl, hole, et)
    cf = subst_context(th, tmpl, hole, ef)
    bt = modus_ponens_eq(symmetry(ct), thm_true)
    bf = modus_ponens_eq(symmetry(cf), thm_false)
    return disj_cases(bc, bt, bf)


def _cond_idem_schema(th, ty):
    def build():
        x, z = Var('x', ty), Var('z', BOOL)
        h = Var('h', BOOL)
        tmpl = mk_eq(mk_cond(x, x, h), x)
        return bool_cases_split(th, z, h, tmpl,
                                cond_true(th, x, x), cond_false(th, x, x))
    return _cached(th, ('cond_idem', ty), build)


def cond_idem(th, x, z):
    """|- C(x, x, z) = x"""
    sx, sz = Var('x', x.ty), Var('z', BOOL)
    return instantiate(_cond_idem_schema(th, x.ty), {sx: x, sz: z})


def _cond_distrib_schema(th, tya, tyb):
    def build():
        f = Var('f', FunType(tya, tyb))
        x, y, z = Var('x', tya), Var('y', tya), Var('z', BOOL)
        h = Var('h', BOOL)
        fx, fy = App(f, x), App(f, y)
        tmpl = mk_eq(App(f, mk_cond(x, y, h)), mk_cond(fx, fy, h))
        tt = transitivity(ap_term(f, cond_true(th, x, y)),
                          symmetry(cond_true(th, fx, fy)))
        tf = transitivity(ap_term(f, cond_false(th, x, y)),
                          symmetry(cond_false(th, fx, fy)))
        return bool_cases_split(th, z, h, tmpl, tt, tf)
    return _cached(th, ('cond_distrib', tya, tyb), build)


def cond_distrib(th, f, x, y, z):
    """|- f(C(x, y, z)) = C(f x, f y, z)"""
    if not isinstance(f.ty, FunType):
        raise RuleError('cond_distrib needs a function')
    tya, tyb = f.ty.dom, f.ty.cod
    sf = Var('f', f.ty)
    sx, sy, sz = Var('x', tya), Var('y', tya), Var('z', BOOL)
    return instantiate(_cond_distrib_schema(th, tya, tyb),
                       {sf: f, sx: x, sy: y, sz: z})


def _or_as_cond_schema(th):
    def build():
        x, y = Var('x', BOOL), Var('y', BOOL)
        h = Var('h', BOOL)
        tmpl = mk_eq(mk_disj(h, y), mk_cond(h, y, h))
        t, f = true_c(), false_c()
        tt = transitivity(_inst1(_bool_lemma(th, 'or_true_l'), y),
                          symmetry(cond_true(th, t, y)))
        tf = transitivity(_inst1(_bool_lemma(th, 'or_false_l'), y),
                          symmetry(cond_false(th, f, y)))
        return bool_cases_split(th, x, h, tmpl, tt, tf)
    return _cached(th, 'or_as_cond', build)


def or_as_cond(th, x, y):
    """|- x \\/ y = C(x, y, x)"""
    sx, sy = Var('x', BOOL), Var('y', BOOL)
    return instantiate(_or_as_cond_schema(th), {sx: x, sy: y})


# ---------------------------------------------------------------------------
# The decidable boolean fragment

class FragmentError(RuleError):
    """A term outside the decidable boolean fragment."""


# The fragment's connectives, each read from a node's head constant with the
# number of operands it takes.  The leaves are true, false and the Bool
# variables.  = and C need no type test: every node accepted here is Bool,
# so operands at another type are rejected when they are classified.
FRAGMENT_CONNECTIVES = {'true': 0, 'false': 0, 'not': 1, 'and': 2, 'or': 2, 'eq': 2,
                        'cond': 3}


def fragment_node(t):
    """(connective, operands) of one node of a fragment term: the name of
    its head constant and the arguments in order, or (None, ()) for a Bool
    variable.  Raises FragmentError for any other node; the operands are
    not looked at."""
    if type(t) is Var:
        if t.ty is not BOOL:
            raise FragmentError('variable %s is not Bool' % t.name)
        return None, ()
    head, ops = t, ()
    while type(head) is App:
        ops = (head.arg, *ops)
        head = head.fn
    if type(head) is not kernel.Const or FRAGMENT_CONNECTIVES.get(head.name) != len(ops):
        raise FragmentError('term outside the boolean fragment: %r' % (t,))
    return head.name, ops


def fragment_dag(terms):
    """Each distinct subterm of ``terms`` mapped to its ``fragment_node``,
    with every subterm after its operands.

    Each term is walked from the root, a node before its operands and the
    last operand first, and a subterm already in the dict is neither pushed
    nor entered again, as it holds no bad node.  So each distinct subterm is
    classified once, and a bad input raises at the node that a walk of each
    term in turn would meet first.  The dict is keyed by the term object and
    keeps its keys alive: terms are hash-consed, one object per alpha-class,
    with no ``__eq__``, so a lookup is an identity test.
    """
    nodes = {}
    for root in terms:
        todo = [root]   # terms to enter, and (term, node) once its operands are in
        while todo:
            t = todo.pop()
            if type(t) is tuple:
                nodes[t[0]] = t[1]
            elif t not in nodes:
                node = fragment_node(t)
                todo.append((t, node))
                for u in node[1]:
                    if u not in nodes:
                        todo.append(u)
    return nodes


def fragment_vars(t):
    """The variables of a boolean-fragment term, sorted by name.  Raises
    FragmentError for a term outside the fragment."""
    return sorted((u for u, (c, _) in fragment_dag((t,)).items() if c is None),
                  key=lambda v: v.name)


# ---------------------------------------------------------------------------
# Ground boolean evaluation and the tautology rule

def _ground_simp(th, t):
    d = dest_bin('and', t)
    if d is not None:
        if is_true(d[0]):
            return _inst1(_bool_lemma(th, 'and_true_l'), d[1])
        if is_false(d[0]):
            return _inst1(_bool_lemma(th, 'and_false_l'), d[1])
        return None
    d = dest_bin('or', t)
    if d is not None:
        if is_true(d[0]):
            return _inst1(_bool_lemma(th, 'or_true_l'), d[1])
        if is_false(d[0]):
            return _inst1(_bool_lemma(th, 'or_false_l'), d[1])
        if is_false(d[1]):
            return _inst1(_bool_lemma(th, 'or_false_r'), d[0])
        return None
    a = dest_not(t)
    if a is not None:
        if is_true(a):
            return _bool_lemma(th, 'not_true')
        if is_false(a):
            return _bool_lemma(th, 'not_false')
        return None
    e = dest_eq(t)
    if e is not None and e[0].ty == BOOL:
        a, b = e
        if is_true(a) and is_true(b):
            return _bool_lemma(th, 'eq_tt')
        if is_false(a) and is_false(b):
            return _bool_lemma(th, 'eq_ff')
        if is_true(a) and is_false(b):
            return _bool_lemma(th, 'eq_tf')
        if is_false(a) and is_true(b):
            return _bool_lemma(th, 'eq_ft')
        return None
    c = dest_cond(t)
    if c is not None:
        x, y, z = c
        if is_true(z):
            return cond_true(th, x, y)
        if is_false(z):
            return cond_false(th, x, y)
    return None


def ground_eval(th, t):
    """|- t = true or |- t = false for a variable-free fragment term."""
    e = depth_rewrite(th, t, _ground_simp)
    v = rhs(e)
    if not (is_true(v) or is_false(v)):
        raise RuleError('could not evaluate %r (got %r)' % (t, v))
    return e


def taut(th, t):
    """|- t for a valid term of the boolean fragment, by case splitting.

    Raises FragmentError when t is outside the fragment and RuleError when
    it is not valid.
    """
    return _taut(th, t, fragment_vars(t))


def _taut(th, t, vs):
    if not vs:
        e = ground_eval(th, t)
        if not is_true(rhs(e)):
            raise RuleError('not a tautology: %r' % (t,))
        return eqt_elim(e)
    v = vs[0]
    tt = _taut(th, subst_parallel(t, {v: true_c()}), vs[1:])
    tf = _taut(th, subst_parallel(t, {v: false_c()}), vs[1:])
    return bool_cases_split(th, v, v, t, tt, tf)
