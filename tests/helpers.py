"""Grammar sources and independent oracles shared across the test modules.

The oracles here deliberately avoid the code paths they check: the closure
reference implementation is a plain pairwise fixpoint over the truth-table
validity checker, and the random term generators build kernel terms
directly from the constructors.
"""

import random

from hogc import kernel, rules, terms
from hogc.closure import bool_valid
from hogc.kernel import (
    Abs, App, BOOL, FunType, IND, PHON, ProdType, Var,
    false_c, mk_conj, mk_cond, mk_disj, mk_eq, mk_not, true_c,
)

TOY = r"""
# one proper name, two intransitive verbs
alphabet: fajdo blt awl
signtype S sem Bool
signtype NP sem Ind
signtype IV = NP \ S
const fido : Ind
const barks : Ind -> Bool
const howls : Ind -> Bool
lex FIDO : NP { phon = /fajdo/; sem = fido; }
lex BARKS : IV { phon = /blt/; sem = \x:Ind. barks(x); }
lex HOWLS : IV { phon = /awl/; sem = \x:Ind. howls(x); }
rule SUBJ : NP IV -> S { phon = $1 ++ $2; sem = sem($2)(sem($1)); }
"""

# same as TOY but the two verbs share a spelling: /fajdo blt/ is ambiguous
AMBIG = r"""
alphabet: fajdo blt
signtype S sem Bool
signtype NP sem Ind
signtype IV = NP \ S
const fido : Ind
const barks : Ind -> Bool
const howls : Ind -> Bool
lex FIDO : NP { phon = /fajdo/; sem = fido; }
lex BARKS : IV { phon = /blt/; sem = \x:Ind. barks(x); }
lex HOWLS : IV { phon = /blt/; sem = \x:Ind. howls(x); }
rule SUBJ : NP IV -> S { phon = $1 ++ $2; sem = sem($2)(sem($1)); }
"""

# truth-functional meanings; /nicht ja en nee/ has two non-equivalent parses
BOOLSEM = r"""
alphabet: ja nee nicht en
signtype S sem Bool
signtype NEG = S \ S
signtype CONJ sem Bool -> Bool -> Bool
lex YES : S { phon = /ja/; sem = true; }
lex NO : S { phon = /nee/; sem = false; }
lex NOT : NEG { phon = /nicht/; sem = \p:Bool. ~p; }
lex AND : CONJ { phon = /en/; sem = \p:Bool. \q:Bool. p /\ q; }
rule NEGATE : NEG S -> S { phon = $1 ++ $2; sem = sem($1)(sem($2)); }
rule COORD : S CONJ S -> S { phon = $1 ++ $2 ++ $3; sem = sem($2)(sem($1))(sem($3)); }
"""

# an empty-phonology lexeme: /blt/ has one parse per depth level
EPS = r"""
alphabet: blt
signtype S sem Bool
signtype E sem Ind
const it : Ind
const wag : Ind -> Bool
lex NULL : E { phon = //; sem = it; }
lex BARK : S { phon = /blt/; sem = wag(it); }
rule PAD : E S -> S { phon = $1 ++ $2; sem = sem($2); }
"""

# a meaning that reads a phonology: QUOTE's sem is q(phon($1)), and its
# operand may be left-branching (L) or padded by the empty lexeme U (PAD)
QUOTE = r"""
alphabet: a b
signtype S sem Bool
signtype W sem Bool
signtype E sem Bool
signtype Q sem Bool
const t : Bool
const q : Phon -> Bool
lex A : W { phon = /a/; sem = t; }
lex B : S { phon = /b/; sem = t; }
lex U : E { phon = //; sem = t; }
rule L : S W -> S { phon = $1 ++ $2; sem = sem($1) /\ sem($2); }
rule PAD : E S -> S { phon = $1 ++ $2; sem = sem($2); }
rule QUOTE : S -> Q { phon = $1; sem = q(phon($1)); }
"""

# surface order differs from operand order: TRI spells its operands 3, 1, 2,
# and its operand 1 (E) may be empty, so /c b/ is TRI(GAP, BE, SEE) as well
# as FLIP(BE, SEE), whose two operands are swapped on the surface
PERM = r"""
alphabet: a b c
signtype S sem Bool
signtype E sem Bool
signtype B sem Bool
lex GAP : E { phon = //; sem = true; }
lex AH : E { phon = /a/; sem = false; }
lex BE : B { phon = /b/; sem = false; }
lex SEE : S { phon = /c/; sem = true; }
rule TRI : E B S -> S { phon = $3 ++ $1 ++ $2; sem = (sem($1) /\ ~sem($2)) \/ ~sem($3); }
rule FLIP : B S -> S { phon = $2 ++ $1; sem = sem($1) \/ ~sem($2); }
"""

GRAMMARS = {'toy': TOY, 'ambig': AMBIG, 'boolsem': BOOLSEM, 'eps': EPS, 'perm': PERM}

# right-branching: the n-token word a ... a b has one parse, at depth n, so
# its terms, proofs and trace lines nest n deep
CHAIN = r"""
alphabet: a b
signtype S sem Bool
signtype W sem Bool
const t : Bool
lex A : W { phon = /a/; sem = t; }
lex B : S { phon = /b/; sem = t; }
rule R : W S -> S { phon = $1 ++ $2; sem = sem($1) /\ sem($2); }
"""


def chain_word(n):
    """The n-token word of CHAIN."""
    return ' '.join(['a'] * (n - 1) + ['b'])


# left-branching: the n-token word b a ... a has one parse, at depth n, and
# its phonology proof appends a word of every length from 1 to n - 1
LEFT_CHAIN = r"""
alphabet: a b
signtype S sem Bool
signtype W sem Bool
const t : Bool
lex A : W { phon = /a/; sem = t; }
lex B : S { phon = /b/; sem = t; }
rule L : S W -> S { phon = $1 ++ $2; sem = sem($1) /\ sem($2); }
"""


def left_chain_word(n):
    """The n-token word of LEFT_CHAIN."""
    return ' '.join(['b'] + ['a'] * (n - 1))


# LEFT_CHAIN with a second W token: a seeded word b x2 ... xn over a and c
# has one left-branching parse too, but the flat phonologies of its
# prefixes end in different runs of tokens, so they share few suffixes
LEFT_MIXED = r"""
alphabet: a b c
signtype S sem Bool
signtype W sem Bool
const t : Bool
lex A : W { phon = /a/; sem = t; }
lex C : W { phon = /c/; sem = t; }
lex B : S { phon = /b/; sem = t; }
rule L : S W -> S { phon = $1 ++ $2; sem = sem($1) /\ sem($2); }
"""


def left_mixed_word(n, seed=14):
    """The n-token word of LEFT_MIXED for the seed; a shorter word of the
    same seed is a prefix of a longer one."""
    rng = random.Random(seed)
    return ' '.join(['b'] + [rng.choice('ac') for _ in range(n - 1)])


AMBIG_WORD = 'fajdo blt'


def bool_universe_terms(max_size=4):
    """Every boolean-fragment term over p, q up to the given size.

    Size counts connective and leaf nodes; negation feeds on the previous
    level, the binary connectives on every split, and the conditional on
    three size-1 parts.  max_size=4 yields 272 distinct terms.
    """
    p, q = Var('p', BOOL), Var('q', BOOL)
    by_size = {1: [p, q, true_c(), false_c()]}
    for n in range(2, max_size + 1):
        level = []
        for t in by_size[n - 1]:
            level.append(mk_not(t))
        for i in range(1, n - 1):
            for a in by_size[i]:
                for b in by_size[n - 1 - i]:
                    level.append(mk_conj(a, b))
                    level.append(mk_disj(a, b))
                    level.append(mk_eq(a, b))
        if n == 4:
            for a in by_size[1]:
                for b in by_size[1]:
                    for c in by_size[1]:
                        level.append(mk_cond(a, b, c))
        by_size[n] = level
    out = []
    for n in range(1, max_size + 1):
        out.extend(by_size[n])
    return out


def naive_closure(universe, subset):
    """Reference closure: scan every universe term against every member
    pair with the truth-table oracle.  Quadratic; small universes only."""
    members = []
    for t in subset:
        if not any(t == m for m in members):
            members.append(t)
    changed = True
    while changed:
        changed = False
        for t in universe:
            if any(t == m for m in members):
                continue
            if any(bool_valid(mk_disj(mk_eq(t, b), mk_eq(t, c)))
                   for b in members for c in members):
                members.append(t)
                changed = True
    return [t for t in universe if any(t == m for m in members)]


def random_term(rng, ty, depth=2):
    """A random well-typed term of the given type over a small variable pool."""
    if depth <= 0 or rng.random() < 0.35:
        if isinstance(ty, FunType) and rng.random() < 0.5:
            v = Var('w%d' % rng.randrange(4), ty.dom)
            return Abs(v, random_term(rng, ty.cod, 0))
        return Var('%s%d' % (rng.choice('uvst'), rng.randrange(4)), ty)
    shape = rng.randrange(3)
    if shape == 0 and isinstance(ty, FunType):
        v = Var('w%d' % rng.randrange(4), ty.dom)
        return Abs(v, random_term(rng, ty.cod, depth - 1))
    if shape == 1 and isinstance(ty, ProdType):
        return terms.mk_pair(random_term(rng, ty.left, depth - 1),
                             random_term(rng, ty.right, depth - 1))
    dom = rng.choice((BOOL, IND, PHON))
    f = random_term(rng, FunType(dom, ty), depth - 1)
    return App(f, random_term(rng, dom, depth - 1))


def random_fragment(rng, names=('p', 'q'), depth=3):
    """A random boolean-fragment term, possibly with free variables."""
    if depth <= 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return Var(rng.choice(names), BOOL)
        return true_c() if rng.random() < 0.5 else false_c()
    k = rng.randrange(5)
    if k == 0:
        return mk_not(random_fragment(rng, names, depth - 1))
    a = random_fragment(rng, names, depth - 1)
    b = random_fragment(rng, names, depth - 1)
    if k == 1:
        return mk_conj(a, b)
    if k == 2:
        return mk_disj(a, b)
    if k == 3:
        return mk_eq(a, b)
    return mk_cond(a, b, random_fragment(rng, names, depth - 1))


def random_ground_fragment(rng, depth=3):
    """A closed boolean-fragment term."""
    return random_fragment(rng, (), depth)


def eval_fragment(t, env):
    """Tiny standalone truth evaluator used to cross-check the oracle."""
    if isinstance(t, Var):
        return env[t.name]
    if terms.is_true(t):
        return True
    if terms.is_false(t):
        return False
    n = terms.dest_not(t)
    if n is not None:
        return not eval_fragment(n, env)
    for name, op in (('and', lambda a, b: a and b),
                     ('or', lambda a, b: a or b),
                     ('eq', lambda a, b: a == b)):
        d = kernel.dest_bin(name, t)
        if d is not None:
            return op(eval_fragment(d[0], env), eval_fragment(d[1], env))
    d = terms.dest_cond(t)
    if d is not None:
        return eval_fragment(d[0], env) if eval_fragment(d[2], env) \
            else eval_fragment(d[1], env)
    raise ValueError('not a fragment term: %r' % t)


def undisch(thm):
    """From A |- p => q derive A u {p} |- q."""
    d = terms.dest_imp(thm.concl)
    if d is None:
        raise kernel.RuleError('not an implication: %r' % thm)
    return rules.mp(thm, kernel.assume(thm.theory, d[0]))


def bp_norm(th, t):
    """|- t = nf(t), full beta normalization inside the logic."""
    return rules.depth_rewrite(th, t, rules._bp_step)


def rewrite_sides(thm, node_fn):
    """From A |- a = b derive A |- a' = b' with both sides rewritten."""
    ea = rules._rewrite(thm.theory, rules.lhs(thm), node_fn)
    thm = rules.rewrite_rhs(thm, node_fn)
    return thm if ea is None else kernel.transitivity(kernel.symmetry(ea), thm)
