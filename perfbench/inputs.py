"""Seeded inputs and independent oracles for the benchmark.

Nothing here calls into ``hogc`` except the kernel's term constructors and
destructors: the word lists come from a direct recursion over the
grammars' shapes, and the closure oracle runs on truth vectors computed by
the test suite's standalone evaluator (``tests/helpers.eval_fragment``), so
a fault in the parser or in ``hogc.closure`` cannot hide itself.
"""

from helpers import eval_fragment
from hogc import kernel
from hogc.kernel import BOOL, Var, mk_conj, mk_cond, mk_disj, mk_eq, mk_not

# The grammar sources are copied here so the workloads stay fixed when the
# repository's own test grammars change.
TOY = r"""
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

GRAMMARS = {'toy': TOY, 'ambig': AMBIG, 'boolsem': BOOLSEM, 'eps': EPS}

# Every word the three small grammars derive at any depth.
SMALL_WORDS = {
    'toy': ('fajdo', 'blt', 'awl', 'fajdo blt', 'fajdo awl'),
    'ambig': ('fajdo', 'blt', 'fajdo blt'),
    'eps': ('', 'blt'),
}


def boolsem_words(k):
    """word (token tuple) -> number of BOOLSEM signs spelling it, depth <= k.

    Lexical signs have depth 1; NEGATE and COORD build S signs one deeper
    than their deepest child.  Distinct derivation trees are distinct signs,
    so the count is the number of parses the chart must return.
    """
    exact = {1: {('ja',): 1, ('nee',): 1}}
    for d in range(2, k + 1):
        level = {}
        for w, c in exact[d - 1].items():
            key = ('nicht',) + w
            level[key] = level.get(key, 0) + c
        for d1 in range(1, d):
            for d2 in range(1, d):
                if max(d1, d2) != d - 1:
                    continue
                for w1, c1 in exact[d1].items():
                    for w2, c2 in exact[d2].items():
                        key = w1 + ('en',) + w2
                        level[key] = level.get(key, 0) + c1 * c2
        exact[d] = level
    out = {('nicht',): 1, ('en',): 1}
    for d in range(1, k + 1):
        for w, c in exact[d].items():
            out[w] = out.get(w, 0) + c
    return out


# ---------------------------------------------------------------------------
# The boolean fragment: generator, evaluator, closure oracle

FRAGMENT_VARS = ('p', 'q', 'r')


def random_fragment(rng, depth):
    """A random fragment term over p, q, r built from the kernel constructors."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.75:
            return Var(rng.choice(FRAGMENT_VARS), BOOL)
        return kernel.true_c() if rng.random() < 0.5 else kernel.false_c()
    k = rng.randrange(5)
    if k == 0:
        return mk_not(random_fragment(rng, depth - 1))
    a = random_fragment(rng, depth - 1)
    b = random_fragment(rng, depth - 1)
    if k == 1:
        return mk_conj(a, b)
    if k == 2:
        return mk_disj(a, b)
    if k == 3:
        return mk_eq(a, b)
    return mk_cond(a, b, random_fragment(rng, depth - 1))


_ASSIGNMENTS = [dict(zip(FRAGMENT_VARS, ((i >> 2) & 1 == 1, (i >> 1) & 1 == 1,
                                         i & 1 == 1))) for i in range(8)]


def truth_vector(t):
    """The term's truth table over p, q, r as an 8-bit integer."""
    return sum(1 << i for i, env in enumerate(_ASSIGNMENTS) if eval_fragment(t, env))


def valid(t):
    return truth_vector(t) == 0xFF


def vector_closure(vectors, realized, limit=256):
    """Least set of realized truth vectors containing ``vectors`` and every
    vector that agrees, position by position, with one of two members.

    The vectors that mix b and c are b on the positions where b and c agree
    and anything elsewhere, so each new pair is expanded by enumerating the
    submasks of b ^ c.  Stops early, with a partial set, once the set has
    more than ``limit`` members.
    """
    members = []
    inset = set()
    for v in vectors:
        if v not in inset:
            inset.add(v)
            members.append(v)
    i = 0
    while i < len(members):
        b = members[i]
        for j in range(i + 1):
            c = members[j]
            diff = b ^ c
            base = b & ~diff
            s = diff
            while True:
                u = base | s
                if u not in inset and u in realized:
                    inset.add(u)
                    members.append(u)
                    if len(members) > limit:
                        return inset
                if s == 0:
                    break
                s = (s - 1) & diff
        i += 1
    return inset
