"""Command-line front end.

Commands: ``check`` (elaborate a grammar, list its axioms), ``parse``
(parse a word, optionally test a meaning), ``merge`` (combine two parses
through a certificate script), ``closure`` (saturation report over a term
universe), ``trace-verify`` (replay an exported proof trace in a fresh
kernel; the trace's theory fingerprint must match the grammar's).

Reports are deterministic byte for byte.  ``HOGC_COLOR=1`` (or
``--color``) adds ANSI color, on the terminal only — files written with
``-o`` or ``--emit-proof`` stay plain.  Exit status: 0 on success, 1 when
the requested fact does not hold (no such meaning, verification failure),
2 on bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

from . import closure as cmod
from . import grammar as gmod
from . import kernel, parser, syntax, trace


@dataclass
class RunConfig:
    command: str
    grammar: str = None
    word: str = None
    meaning: str = None
    depth: int = 3
    universe: str = None
    out: str = None
    emit_proof: str = None
    cert: str = None
    indices: tuple = None
    terms: tuple = ()
    trace_path: str = None
    color: bool = None


GREEN = '\x1b[32m'
RED = '\x1b[31m'
RESET = '\x1b[0m'


class _Report:
    def __init__(self, config):
        self.lines = []
        if config.color is None:
            self.color = os.environ.get('HOGC_COLOR', '0') == '1'
        else:
            self.color = config.color
        self.out = config.out

    def add(self, line=''):
        self.lines.append(line)

    def emit(self):
        text = '\n'.join(self.lines) + '\n'
        if self.out:
            with open(self.out, 'w') as f:
                f.write(text)
        else:
            shown = text
            if self.color:
                shown = shown.replace(' ok\n', ' %sok%s\n' % (GREEN, RESET))
                shown = shown.replace(' FAIL', ' %sFAIL%s' % (RED, RESET))
            sys.stdout.write(shown)


def _load_grammar(config):
    if not config.grammar:
        raise gmod.GrammarError('a grammar file is required (-g)')
    return gmod.load_grammar(config.grammar)


def _load_theory(config):
    """The grammar's theory, or the core theory when no grammar is given."""
    return _load_grammar(config).theory if config.grammar else kernel.core_theory()


def _meaning_env(g):
    return g.term_env(default_var_type=kernel.BOOL)


def _result_block(rep, g, r, idx=None):
    head = 'sign type %s, depth %d' % (r.sign_type, r.depth)
    if idx is not None:
        head = '[%d] %s' % (idx, head)
    rep.add(head)
    rep.add('    sign:    %s' % syntax.pretty_term(r.sign, g.names))
    rep.add('    meaning: %s' % syntax.pretty_term(r.meaning, g.names))
    rep.add('    phon:    %s' % syntax.pretty_theorem(r.phon_proof, g.names))
    rep.add('    sem:     %s' % syntax.pretty_theorem(r.sem_proof, g.names))


def _emit_proofs(path, results, comment):
    thms = []
    for r in results:
        thms.extend([r.phon_proof, r.sem_proof])
    with open(path, 'w') as f:
        f.write(trace.export_trace(thms, comment=comment))


def _run_check(config, rep):
    g = _load_grammar(config)
    rep.add('grammar: %s' % g.theory.name)
    rep.add('alphabet: %s' % (' '.join(g.alphabet) or '(empty)'))
    rep.add('sign types: %s' % (' '.join(g.spec.sign_types) or '(none)'))
    rep.add('lexemes: %d  rules: %d' % (len(g.lexicon), len(g.rules)))
    names = sorted(g.theory.axioms)
    width = max(map(len, names), default=0)
    rep.add('axioms (%d):' % len(names))
    for n in names:
        # a free variable prints typed, as canonical_term prints it, so the
        # line reads back as the axiom even where a constant shares its name
        ax = g.theory.axioms[n]
        shown = {**g.names, **{v: syntax.canonical_term(v) for v in ax.free_vars}}
        rep.add('  %-*s %s' % (width, n, syntax.pretty_term(ax, shown)))
    rep.add('check ok')
    return 0


def _run_parse(config, rep):
    g = _load_grammar(config)
    word = gmod.Word(config.word or '')
    rep.add('word: %s' % (' '.join(word.tokens) or '(empty)'))
    rep.add('depth bound: %d' % config.depth)
    if config.meaning is not None:
        target = syntax.parse_term(config.meaning, _meaning_env(g))
        r = parser.check_membership(g, word, target, config.depth)
        if r is None:
            rep.add('meaning: %s' % config.meaning.strip())
            rep.add('member: no')
            return 1
        rep.add('meaning: %s' % syntax.pretty_term(r.meaning, g.names))
        rep.add('member: yes')
        _result_block(rep, g, r)
        if config.emit_proof:
            _emit_proofs(config.emit_proof, [r], 'membership of %s' % ' '.join(word.tokens))
        rep.add('parse ok')
        return 0
    results = parser.parse(g, word, config.depth)
    rep.add('parses: %d' % len(results))
    for i, r in enumerate(results):
        _result_block(rep, g, r, i)
    if config.emit_proof:
        _emit_proofs(config.emit_proof, results, 'parses of %s' % ' '.join(word.tokens))
    rep.add('parse ok')
    return 0


def _run_merge(config, rep):
    g = _load_grammar(config)
    word = gmod.Word(config.word or '')
    if not config.cert:
        raise cmod.ClosureError('merge needs a certificate script (--cert)')
    if not config.indices or len(config.indices) != 2:
        raise cmod.ClosureError('merge needs two parse indices')
    i, j = config.indices
    results = parser.parse(g, word, config.depth)
    if not (0 <= i < len(results) and 0 <= j < len(results)):
        raise cmod.ClosureError('parse indices out of range (found %d parses)'
                                % len(results))
    p1, p2 = results[i], results[j]
    with open(config.cert) as f:
        script = f.read()
    cert = cmod.certificate_from_script(g, script, p1.meaning, p2.meaning)
    merged = cmod.merge_parses(g, p1, p2, cert)
    rep.add('word: %s' % (' '.join(word.tokens) or '(empty)'))
    rep.add('merged parses %d and %d' % (i, j))
    rep.add('certificate: %s' % syntax.pretty_theorem(cert.proof, g.names))
    _result_block(rep, g, merged)
    if config.emit_proof:
        _emit_proofs(config.emit_proof, [merged], 'merge for %s' % ' '.join(word.tokens))
    rep.add('merge ok')
    return 0


def _run_closure(config, rep):
    if not config.universe:
        raise cmod.ClosureError('a universe file is required (-u)')
    th = _load_theory(config)
    u = cmod.TermUniverse.from_file(config.universe, theory=th)
    env = syntax.TermEnv(theory=th, default_var_type=kernel.BOOL)
    subset = [syntax.parse_term(s, env) for s in config.terms]
    rep.add(cmod.closure_report(u, subset).rstrip('\n'))
    rep.add('closure ok')
    return 0


def _run_trace_verify(config, rep):
    if not config.trace_path:
        raise trace.TraceError('a trace file is required')
    th = _load_theory(config)
    with open(config.trace_path) as f:
        text = f.read()
    try:
        roots = trace.verify_trace(text, th, strict_fingerprint=True)
    except trace.TraceError as e:
        rep.add('trace-verify FAIL: %s' % e)
        return 1
    rep.add('theory: %s' % th.name)
    rep.add('verified roots: %d' % len(roots))
    for t in roots:
        # a trace carries no binder names, so none are printed
        rep.add('  %s' % syntax.pretty_theorem(t))
    rep.add('trace-verify ok')
    return 0


_RUNNERS = {
    'check': _run_check,
    'parse': _run_parse,
    'merge': _run_merge,
    'closure': _run_closure,
    'trace-verify': _run_trace_verify,
}


def run(config):
    """Execute one command; returns the exit status after emitting the report."""
    rep = _Report(config)
    try:
        status = _RUNNERS[config.command](config, rep)
    except (gmod.GrammarError, cmod.ClosureError, syntax.ParseError,
            kernel.KernelError, trace.TraceError, OSError, UnicodeDecodeError) as e:
        rep.add('%s error: %s' % (config.command, e))
        rep.emit()
        return 2
    except RecursionError:
        rep.add('%s error: input nested too deeply' % config.command)
        rep.emit()
        return 2
    rep.emit()
    return status


def _build_argparser():
    ap = argparse.ArgumentParser(prog='hogc',
                                 description='proof-carrying grammar toolkit')
    sub = ap.add_subparsers(dest='command', required=True)

    def common(p, grammar=True, word=False):
        if grammar:
            p.add_argument('-g', '--grammar', help='grammar file (.hog)')
        if word:
            p.add_argument('-w', '--word', default='', help='space-separated tokens')
            p.add_argument('-k', '--depth', type=int, default=3,
                           help='derivation depth bound (default 3)')
        p.add_argument('-o', '--out', help='write the report to a file')
        p.add_argument('--color', action='store_true', default=None,
                       help='force ANSI color (default: HOGC_COLOR=1)')

    p = sub.add_parser('check', help='elaborate a grammar and list its axioms')
    common(p)

    p = sub.add_parser('parse', help='parse a word, optionally test a meaning')
    common(p, word=True)
    p.add_argument('-m', '--meaning', help='meaning term to test for membership')
    p.add_argument('--emit-proof', help='write a proof trace of the results')

    p = sub.add_parser('merge', help='merge two parses through a certificate')
    common(p, word=True)
    p.add_argument('indices', nargs=2, type=int, metavar='I',
                   help='two parse indices from the parse listing')
    p.add_argument('--cert', required=True, help='certificate script file')
    p.add_argument('--emit-proof', help='write a proof trace of the result')

    p = sub.add_parser('closure', help='logical closure report over a universe')
    common(p)
    p.add_argument('-u', '--universe', help='universe file, one term per line')
    p.add_argument('terms', nargs='*', help='input subset terms')

    p = sub.add_parser('trace-verify', help='replay a proof trace in a fresh kernel')
    common(p)
    p.add_argument('trace_path', metavar='TRACE', help='trace file to verify')
    return ap


def main(argv=None):
    ns = _build_argparser().parse_args(argv)
    config = RunConfig(**{f.name: getattr(ns, f.name) for f in fields(RunConfig)
                          if hasattr(ns, f.name)})
    return run(config)


if __name__ == '__main__':
    sys.exit(main())
