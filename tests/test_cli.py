"""Command-line behavior: reports, exit codes, proof emission, determinism."""

import ast
import os
import re
import shlex
import subprocess
import sys

import pytest

from hogc import cli, grammar, syntax, trace
from hogc.cli import main

import helpers


@pytest.fixture(scope='module')
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp('cli')
    paths = {}
    for name in ('toy', 'ambig', 'boolsem', 'eps'):
        p = d / ('%s.hog' % name)
        p.write_text(getattr(helpers, name.upper()))
        paths[name] = str(p)
    u = d / 'universe.txt'
    u.write_text('p\nq\np /\\ q\n')
    paths['universe'] = str(u)
    paths['dir'] = d
    return paths


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# check

def test_check(files, capsys):
    code, out = _run(capsys, ['check', '-g', files['toy']])
    assert code == 0
    assert 'grammar: toy' in out
    assert 'alphabet: fajdo blt awl' in out
    assert 'lexemes: 3  rules: 1' in out
    assert 'lex.FIDO' in out and 'rule.SUBJ' in out
    assert out.endswith('check ok\n')



def test_unwritable_report_path_is_bad_input(files, tmp_path, capsys):
    # the report cannot be written, so its error goes to stdout instead
    out_path = str(tmp_path / 'missing' / 'out')
    code, out = _run(capsys, ['check', '-g', files['toy'], '-o', out_path])
    assert (code, out) == (2, "check error: [Errno 2] No such file or directory: %r\n"
                              % out_path)


# TOY with constants named like the axioms' free variables
_TOY_VAR_CONSTS = helpers.TOY + ''.join('const %s : Ind\n' % n
                                         for n in ('x', 'y', 'z', 'x1', 'x2'))


@pytest.mark.parametrize('name', [*helpers.GRAMMARS, 'quote', 'toy_var_consts'])
def test_check_lines_read_back_as_the_axioms(tmp_path, capsys, name):
    # each axiom line, read with the grammar's theory, is that axiom: a free
    # variable prints typed, so it reads as the variable, not as a constant
    # of its name
    path = tmp_path / ('%s.hog' % name)
    path.write_text(_TOY_VAR_CONSTS if name == 'toy_var_consts'
                    else getattr(helpers, name.upper()))
    code, out = _run(capsys, ['check', '-g', str(path)])
    th = grammar.load_grammar(str(path)).theory
    lines = out.split('axioms (%d):\n' % len(th.axioms))[1].splitlines()[:-1]
    assert code == 0 and len(lines) == len(th.axioms)
    for line in lines:
        n, src = line.split(None, 1)
        assert syntax.parse_term(src, syntax.TermEnv(theory=th)) is th.axioms[n]


_CHECKED = ('toy', 'ambig', 'boolsem', 'eps', 'quote', 'perm', 'chain', 'left_chain',
            'left_mixed')


@pytest.mark.parametrize('name', _CHECKED)
def test_check_report_bytes(tmp_path, capsys, name):
    # the whole check report of each helper grammar, byte for byte
    path = tmp_path / ('%s.hog' % name)
    path.write_text(getattr(helpers, name.upper()))
    code, out = _run(capsys, ['check', '-g', str(path)])
    want = os.path.join(os.path.dirname(__file__), 'data', 'check', '%s.txt' % name)
    with open(want) as f:
        assert (code, out) == (0, f.read())


def test_check_requires_grammar(capsys):
    code, out = _run(capsys, ['check'])
    assert code == 2
    assert 'check error:' in out and 'grammar file is required' in out


def test_check_missing_file(capsys):
    code, out = _run(capsys, ['check', '-g', '/nonexistent/g.hog'])
    assert code == 2
    assert 'check error:' in out


@pytest.mark.parametrize('argv', [['check', '-g'], ['trace-verify'], ['closure', '-u']])
def test_undecodable_file_is_bad_input(files, capsys, argv):
    p = files['dir'] / 'undecodable'
    p.write_bytes(b'\xff\xfe')
    code, out = _run(capsys, argv + [str(p)])
    assert code == 2
    assert out.startswith('%s error: ' % argv[0]) and "can't decode byte 0xff" in out


@pytest.mark.parametrize('command,line', [
    ('parse', 'parse error: bad placeholder at 0'),
    ('check', "check error: signtype NP: bad type '$\u00b2': bad placeholder at 0"),
])
def test_non_ascii_placeholder_digit_is_bad_input(files, command, line):
    # a superscript two is no digit of a $n placeholder, in a meaning or a
    # declared type alike
    p = files['dir'] / 'superscript.hog'
    p.write_text(helpers.TOY.replace('signtype NP sem Ind', 'signtype NP sem $\u00b2'))
    argv = (['parse', '-g', files['toy'], '-w', 'fajdo blt', '-m', '$\u00b2']
            if command == 'parse' else ['check', '-g', str(p)])
    r = subprocess.run([sys.executable, '-m', 'hogc.cli'] + argv, capture_output=True,
                       text=True, encoding='utf-8', env=dict(os.environ, PYTHONIOENCODING='utf-8'))
    assert (r.returncode, r.stdout.splitlines()[-1]) == (2, line)
    assert 'Traceback' not in r.stdout + r.stderr


@pytest.mark.parametrize('depth,code,last', [
    (100, 0, 'check ok'), (1000, 2, 'check error: input nested too deeply')])
def test_deeply_nested_meaning(files, capsys, depth, code, last):
    # the reader spends two frames per parenthesis: 100 levels read, and
    # 1000 exceed the interpreter's recursion limit, which is bad input
    p = files['dir'] / 'deep.hog'
    p.write_text('alphabet: a\nsigntype S sem Bool\n'
                 'lex A : S { phon = /a/; sem = %strue%s; }\n' % ('(' * depth, ')' * depth))
    got, out = _run(capsys, ['check', '-g', str(p)])
    assert (got, out.splitlines()[-1]) == (code, last)


def test_bad_grammar_source(files, capsys):
    p = files['dir'] / 'bad.hog'
    p.write_text('alphabet: a\nsigntype S sem Bool\nsigntype S sem Bool\n')
    code, out = _run(capsys, ['check', '-g', str(p)])
    assert code == 2
    assert 'duplicate sign type' in out


@pytest.mark.parametrize('name', ['pair', 'fst', 'snd'])
def test_pair_constant_names_are_reserved(files, capsys, name):
    # pair, fst and snd are logical constants, so no grammar may declare one
    p = files['dir'] / 'reserved.hog'
    p.write_text('alphabet: a\nsigntype S sem Bool\nconst %s : Ind\n' % name)
    code, out = _run(capsys, ['check', '-g', str(p)])
    assert (code, out) == (2, 'check error: %s is reserved\n' % name)


@pytest.mark.parametrize('decl,msg', [
    ('const c : Ind ->', "const c: bad type 'Ind ->': expected a type at 6, found end of input"),
    ('signtype T sem Ind * Und', "signtype T: bad type 'Ind * Und': unknown base type Und"),
    ('signtype T sem (Ind', "signtype T: bad type '(Ind': expected ) at 4, found end of input"),
])
def test_bad_declared_type(files, capsys, decl, msg):
    p = files['dir'] / 'badtype.hog'
    p.write_text('alphabet: a\nsigntype S sem Bool\n%s\n' % decl)
    code, out = _run(capsys, ['check', '-g', str(p)])
    assert code == 2
    assert out == 'check error: %s\n' % msg


# ---------------------------------------------------------------------------
# parse

def test_parse_listing(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt'])
    assert code == 0
    assert 'word: fajdo blt' in out
    assert 'parses: 1' in out
    assert '[0] sign type S, depth 2' in out
    assert 'meaning: barks(fido)' in out
    assert out.endswith('parse ok\n')


def test_parse_ambiguous_order(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['ambig'], '-w', 'fajdo blt'])
    assert code == 0
    assert 'parses: 2' in out
    assert out.index('barks(fido)') < out.index('howls(fido)')


def test_parse_member_yes(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                              '-m', 'barks(fido)'])
    assert code == 0
    assert 'member: yes' in out


def test_parse_member_no(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                              '-m', 'howls(fido)'])
    assert code == 1
    assert 'member: no' in out and 'parse ok' not in out


def test_parse_member_up_to_equivalence(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['boolsem'],
                              '-w', 'nicht ja', '-m', 'false'])
    assert code == 0
    assert 'member: yes' in out and 'meaning: false' in out
    code, out = _run(capsys, ['parse', '-g', files['boolsem'],
                              '-w', 'nicht ja', '-m', 'true'])
    assert code == 1


def test_parse_bad_inputs(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                              '-m', 'barks('])
    assert code == 2 and 'parse error:' in out
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'zzz'])
    assert code == 2 and 'alphabet' in out


@pytest.mark.parametrize('text,msg', [
    ('barks(', 'unexpected end of input at 6'),
    ('(fido', 'expected ) at 5, found end of input'),
    ('\\x:Ind.', 'unexpected end of input at 7'),
    ('<fido,', 'unexpected end of input at 6'),
    ('fido = ', 'unexpected end of input at 7'),
    ('~', 'unexpected end of input at 1'),
    ('cond[Bool', 'expected ] at 9, found end of input'),
    ('', 'unexpected end of input at 0'),
    ('\\', 'expected a name at 1, found end of input'),
    ('!', 'expected a name at 1, found end of input'),
    ('?', 'expected a name at 1, found end of input'),
    ('\\x:', 'expected a type at 3, found end of input'),
    ('x:', 'expected a type at 2, found end of input'),
])
def test_truncated_meaning_names_end_of_input(files, capsys, text, msg):
    # the end-of-input token has no value; the reader names it in words
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt', '-m', text])
    assert code == 2
    assert 'None' not in out
    assert out.splitlines()[-1] == 'parse error: ' + msg


def test_parse_negative_depth_bound(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo', '-k', '-3'])
    assert code == 2
    assert out == ('word: fajdo\ndepth bound: -3\n'
                   'parse error: depth bound must be at least 0, got -3\n')
    code, out = _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo', '-k', '0'])
    assert code == 0
    assert out == 'word: fajdo\ndepth bound: 0\nparses: 0\nparse ok\n'


def test_merge_negative_depth_bound(files, capsys):
    cert = files['dir'] / 'left.cert'
    cert.write_text('target barks(fido)\nby left\n')
    code, out = _run(capsys, ['merge', '-g', files['ambig'], '-w', 'fajdo blt',
                              '-k', '-3', '0', '1', '--cert', str(cert)])
    assert code == 2
    assert out == 'merge error: depth bound must be at least 0, got -3\n'


def test_parse_empty_word(files, capsys):
    code, out = _run(capsys, ['parse', '-g', files['eps'], '-w', '', '-k', '1'])
    assert code == 0
    assert 'word: (empty)' in out and 'parses: 1' in out


# ---------------------------------------------------------------------------
# proof emission and trace-verify

@pytest.mark.parametrize('name,args', [
    ('toy', ['-w', 'fajdo blt']),
    # a membership answer, its meaning proved equal to the target by taut
    ('boolsem', ['-w', 'nicht ja en nee', '-k', '4', '-m', 'false /\\ true'])],
    ids=['toy', 'boolsem-membership'])
def test_emit_proof_then_verify(files, capsys, name, args):
    tr = str(files['dir'] / ('%s-parse.trace' % name))
    code, _ = _run(capsys, ['parse', '-g', files[name], *args, '--emit-proof', tr])
    assert code == 0
    text = open(tr).read()
    assert text.startswith('# hogc trace v2\n')
    code, out = _run(capsys, ['trace-verify', '-g', files[name], tr])
    assert code == 0
    assert 'verified roots: 2' in out
    assert out.endswith('trace-verify ok\n')


@pytest.mark.parametrize('name,word,lex,sem,meaning,verified', [
    ('toy', 'blt', 'lex.BARKS.sem  sem_IV(BARKS)', 'sem_IV(BARKS)',
     '\\x:Ind. barks(x)', '\\%0:Ind. barks(%0)'),
    ('boolsem', 'en', 'lex.AND.sem      sem_CONJ(AND)', 'sem_CONJ(AND)',
     '\\p:Bool. \\q:Bool. p /\\ q', '\\%0:Bool. \\%1:Bool. %0 /\\ %1')], ids=['toy', 'boolsem'])
def test_reports_print_binder_hints_and_trace_verify_depth_names(
        files, capsys, name, word, lex, sem, meaning, verified):
    # the verified root holds the grammar's own term object, but a trace
    # carries no binder names, so trace-verify prints the canonical ones
    _, out = _run(capsys, ['check', '-g', files[name]])
    assert '  %s = (%s)\n' % (lex, meaning) in out
    tr = str(files['dir'] / ('%s-hints.trace' % name))
    _, out = _run(capsys, ['parse', '-g', files[name], '-w', word, '-k', '1',
                           '--emit-proof', tr])
    assert '    meaning: %s\n' % meaning in out
    code, out = _run(capsys, ['trace-verify', '-g', files[name], tr])
    assert code == 0 and '  |- %s = (%s)\n' % (sem, verified) in out


def test_trace_verify_detects_tampering(files, capsys):
    tr = str(files['dir'] / 'tampered.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    lines = open(tr).read().splitlines()
    content = [i for i, l in enumerate(lines) if l and not l.startswith('#')]
    i = content[-1]
    lines[i] = lines[i].partition(' ==> ')[0] + ' ==>  |- true'
    open(tr, 'w').write('\n'.join(lines) + '\n')
    code, out = _run(capsys, ['trace-verify', '-g', files['toy'], tr])
    assert code == 1
    assert 'trace-verify FAIL' in out and 'mismatch' in out


def test_trace_verify_wrong_theory(files, capsys):
    tr = str(files['dir'] / 'toy.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    code, out = _run(capsys, ['trace-verify', tr])  # core theory, no grammar
    assert code == 1
    assert 'trace-verify FAIL' in out


@pytest.mark.parametrize('other', ['toy2.hog', 'other/toy.hog'])
def test_trace_verify_wrong_grammar(files, capsys, other):
    # TOY plus one lexeme, under another file name and under the same one:
    # the trace's theory fingerprint covers the theory name (the file's
    # stem) and every axiom
    tr = str(files['dir'] / 'toy.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    p = files['dir'] / other
    p.parent.mkdir(exist_ok=True)
    p.write_text(helpers.TOY + 'lex REX : NP { phon = /awl/; sem = fido; }\n')
    code, out = _run(capsys, ['trace-verify', '-g', str(p), tr])
    assert code == 1
    assert out == ('trace-verify FAIL: theory fingerprint mismatch: trace %s, theory %s\n'
                   % (trace.theory_fingerprint(grammar.load_grammar(files['toy']).theory),
                      trace.theory_fingerprint(grammar.load_grammar(str(p)).theory)))


def test_trace_verify_renamed_grammar(files, capsys):
    # the same grammar saved under another name: the fingerprint differs
    # only through the theory name, and the message says so
    tr = str(files['dir'] / 'toy.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    p = files['dir'] / 'toy_copy.hog'
    p.write_text(helpers.TOY)
    code, out = _run(capsys, ['trace-verify', '-g', str(p), tr])
    assert code == 1
    assert out == ('trace-verify FAIL: theory name mismatch: trace toy, theory toy_copy '
                   '(signature and axioms are the same)\n')


def test_trace_verify_needs_the_theory_line(files, capsys):
    # without its fingerprint line a trace cannot be matched to a grammar,
    # so it fails even against a grammar it does not belong to
    tr = str(files['dir'] / 'toy.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    text = open(tr).read()
    p = files['dir'] / 'toy2.hog'
    p.write_text(helpers.TOY + 'lex REX : NP { phon = /awl/; sem = fido; }\n')
    for theory_line, msg in (
            ('', 'no theory line before the first step'),
            ('# theory toy\n', "bad theory line '# theory toy': "
                                'want # theory <name> <sha256>')):
        bad = str(files['dir'] / 'no_theory.trace')
        open(bad, 'w').write(re.sub('^# theory .*\n', theory_line, text, flags=re.M))
        for g in (files['toy'], str(p)):
            code, out = _run(capsys, ['trace-verify', '-g', g, bad])
            assert (code, out) == (1, 'trace-verify FAIL: %s\n' % msg)



def test_theory_name_with_a_blank_verifies_its_own_trace(tmp_path, capsys):
    # the theory is named after the file's stem, 'my toy', blank included
    g = tmp_path / 'my toy.hog'
    g.write_text(helpers.TOY)
    tr = str(tmp_path / 't.trace')
    code, _ = _run(capsys, ['parse', '-g', str(g), '-w', 'fajdo blt', '-k', '2',
                            '--emit-proof', tr])
    assert code == 0
    code, out = _run(capsys, ['trace-verify', '-g', str(g), tr])
    assert code == 0
    assert out.splitlines()[:2] == ['theory: my toy', 'verified roots: 2']


@pytest.mark.parametrize('roots,msg', [
    ('x', "bad roots line '# roots x': want one or more step indexes"),
    ('-1', "bad roots line '# roots -1': want one or more step indexes"),
    ('', "bad roots line '# roots': want one or more step indexes"),
    ('0 9999', "root index out of range in '# roots 0 9999': the last step is %d"),
])
def test_trace_verify_bad_roots_line(files, capsys, roots, msg):
    tr = str(files['dir'] / 'roots.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo', '-k', '1',
                  '--emit-proof', tr])
    text = open(tr).read()
    n_steps = sum(1 for l in text.splitlines() if l and not l.startswith('#'))
    open(tr, 'w').write(re.sub('^# roots .*$', ('# roots ' + roots).rstrip(),
                               text, flags=re.M))
    code, out = _run(capsys, ['trace-verify', '-g', files['toy'], tr])
    assert code == 1
    assert out == 'trace-verify FAIL: %s\n' % (msg % (n_steps - 1) if '%d' in msg else msg)


# the first lines of a trace in the earlier v1 format, which spelled out
# every term: hogc reads only v2
_V1_TRACE = '''# hogc trace v1
# parses of fajdo
# theory toy 1f7a591d8bf43ef1d43b2f41e5bb22c2766015d5564444f7e741f2c966a46e98
# roots 41 67
0 axiom "lex.FIDO" ==>  |- ((and ((eq[Phon] (phon_NP FIDO)) /fajdo/)) ((eq[Ind] (sem_NP FIDO)) fido))
'''


def test_trace_verify_names_the_version_line_of_an_old_trace(files, capsys):
    tr = str(files['dir'] / 'v1.trace')
    open(tr, 'w').write(_V1_TRACE)
    code, out = _run(capsys, ['trace-verify', '-g', files['toy'], tr])
    assert (code, out) == (1, "trace-verify FAIL: the first line is '# hogc trace v1', "
                              "not the version line '# hogc trace v2'\n")


def test_trace_verify_missing_file(capsys):
    code, out = _run(capsys, ['trace-verify', '/nonexistent.trace'])
    assert code == 2


@pytest.mark.parametrize('argv', [
    ['merge', '-w', 'fajdo blt', '0', '1'],
    ['merge', '-w', 'fajdo blt', '0', '--cert', 'c.cert'],
    ['trace-verify'],
])
def test_incomplete_command_is_a_usage_error(capsys, argv):
    # argparse refuses the command line before any file is opened
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert 'usage: hogc' in capsys.readouterr().err


# ---------------------------------------------------------------------------
# merge

def test_merge_with_cases_certificate(files, capsys):
    cert = files['dir'] / 'cases.cert'
    cert.write_text('target cond[Bool](barks(fido), howls(fido), q)\n'
                    'by cases q\n')
    tr = str(files['dir'] / 'merge.trace')
    code, out = _run(capsys, ['merge', '-g', files['ambig'],
                              '-w', 'fajdo blt', '0', '1',
                              '--cert', str(cert), '--emit-proof', tr])
    assert code == 0
    assert 'merged parses 0 and 1' in out
    assert 'meaning: cond[Bool](barks(fido), howls(fido), q)' in out
    assert out.endswith('merge ok\n')
    code, out = _run(capsys, ['trace-verify', '-g', files['ambig'], tr])
    assert code == 0 and 'verified roots: 2' in out


def test_merge_with_left_certificate(files, capsys):
    cert = files['dir'] / 'left.cert'
    cert.write_text('target barks(fido)\nby left\n')
    code, out = _run(capsys, ['merge', '-g', files['ambig'],
                              '-w', 'fajdo blt', '0', '1',
                              '--cert', str(cert)])
    assert code == 0
    assert 'meaning: barks(fido)' in out


def test_merge_errors(files, capsys):
    cert = files['dir'] / 'stale.cert'
    cert.write_text('target howls(fido)\nby left\n')
    code, out = _run(capsys, ['merge', '-g', files['ambig'],
                              '-w', 'fajdo blt', '0', '1',
                              '--cert', str(cert)])
    assert code == 2 and 'by left requires' in out
    code, out = _run(capsys, ['merge', '-g', files['ambig'],
                              '-w', 'fajdo blt', '0', '5',
                              '--cert', str(cert)])
    assert code == 2 and 'out of range' in out


def test_merge_rejects_a_repeated_certificate_line(files, capsys):
    cert = files['dir'] / 'twice.cert'
    cert.write_text('target barks(fido)\ntarget howls(fido)\nby right\n')
    code, out = _run(capsys, ['merge', '-g', files['ambig'], '-w', 'fajdo blt',
                              '0', '1', '--cert', str(cert)])
    assert code == 2
    assert out == "merge error: duplicate target line: 'target howls(fido)'\n"
    cert.write_text('target barks(fido)\nby left\nby left\n')
    code, out = _run(capsys, ['merge', '-g', files['ambig'], '-w', 'fajdo blt',
                              '0', '1', '--cert', str(cert)])
    assert code == 2
    assert out == "merge error: duplicate by line: 'by left'\n"


# ---------------------------------------------------------------------------
# closure

def test_closure_report(files, capsys):
    code, out = _run(capsys, ['closure', '-u', files['universe'], 'p', 'q'])
    assert code == 0
    assert 'universe: 3 terms over variables p q' in out
    assert 'input logically closed: no' in out
    assert out.endswith('closure ok\n')
    code2, out2 = _run(capsys, ['closure', '-u', files['universe'], 'p', 'q'])
    assert (code2, out2) == (code, out)


def test_closure_requires_universe(capsys):
    code, out = _run(capsys, ['closure', 'p'])
    assert code == 2 and 'universe file is required' in out


def test_closure_bad_subset_term(files, capsys):
    code, out = _run(capsys, ['closure', '-u', files['universe'], 'p \\/ q'])
    assert code == 2 and 'not in the universe' in out


# ---------------------------------------------------------------------------
# output modes

def test_out_file_plain_even_with_color(files, capsys, monkeypatch):
    monkeypatch.setenv('HOGC_COLOR', '1')
    rpt = files['dir'] / 'report.txt'
    code, out = _run(capsys, ['check', '-g', files['toy'], '-o', str(rpt)])
    assert code == 0 and out == ''
    text = rpt.read_text()
    assert text.endswith('check ok\n') and '\x1b[' not in text


def test_color_env(files, capsys, monkeypatch):
    monkeypatch.setenv('HOGC_COLOR', '1')
    code, out = _run(capsys, ['check', '-g', files['toy']])
    assert code == 0
    assert out.endswith('check \x1b[32mok\x1b[0m\n')
    monkeypatch.setenv('HOGC_COLOR', '0')
    _, out = _run(capsys, ['check', '-g', files['toy']])
    assert '\x1b[' not in out


def test_color_flag(files, capsys):
    code, out = _run(capsys, ['check', '-g', files['toy'], '--color'])
    assert '\x1b[32mok\x1b[0m' in out


def test_color_marks_failures(files, capsys, monkeypatch):
    monkeypatch.setenv('HOGC_COLOR', '1')
    tr = str(files['dir'] / 'color.trace')
    _run(capsys, ['parse', '-g', files['toy'], '-w', 'fajdo blt',
                  '--emit-proof', tr])
    lines = open(tr).read().splitlines()
    i = max(i for i, l in enumerate(lines) if l and not l.startswith('#'))
    lines[i] = lines[i].partition(' ==> ')[0] + ' ==>  |- true'
    open(tr, 'w').write('\n'.join(lines) + '\n')
    code, out = _run(capsys, ['trace-verify', '-g', files['toy'], tr])
    assert code == 1 and '\x1b[31mFAIL\x1b[0m' in out


def test_run_config_api(files, tmp_path):
    rpt = tmp_path / 'direct.txt'
    code = main(['parse', '-g', files['toy'], '-w', 'fajdo blt', '-k', '2', '-o', str(rpt)])
    assert code == 0
    assert 'parses: 1' in rpt.read_text()


# ---------------------------------------------------------------------------
# determinism across interpreter hash seeds

def test_reports_hash_seed_independent(files):
    def run_with_seed(seed, argv):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop('HOGC_COLOR', None)
        r = subprocess.run([sys.executable, '-m', 'hogc.cli'] + argv,
                           capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout

    for argv in (['parse', '-g', files['ambig'], '-w', 'fajdo blt'],
                 ['closure', '-u', files['universe'], 'p', 'q'],
                 ['check', '-g', files['boolsem']]):
        assert run_with_seed('0', argv) == run_with_seed('1', argv)


def test_reports_and_traces_do_not_depend_on_object_addresses(files, tmp_path):
    # terms hash by identity, so a set of terms iterates in address order;
    # the malloc allocator puts every object elsewhere than pymalloc does
    cert = tmp_path / 'cases.cert'
    cert.write_text('target cond[Bool](barks(fido), howls(fido), q:Bool)\nby cases q:Bool\n')
    trace_path = tmp_path / 'run.trace'

    def run(argv, malloc):
        env = dict(os.environ, PYTHONHASHSEED='0')
        env.pop('HOGC_COLOR', None)
        env.pop('PYTHONMALLOC', None)
        if malloc:
            env['PYTHONMALLOC'] = 'malloc'
        trace_path.unlink(missing_ok=True)
        r = subprocess.run([sys.executable, '-m', 'hogc.cli'] + argv,
                           capture_output=True, env=env)
        assert r.returncode == 0, r.stderr
        return r.stdout, trace_path.read_bytes() if '--emit-proof' in argv else None

    emit = ['--emit-proof', str(trace_path)]
    for argv in (['check', '-g', files['boolsem']],
                 ['parse', '-g', files['boolsem'], '-w', 'nicht ja en nee en ja', '-k', '4',
                  '-m', '~(true /\\ false /\\ true)', *emit],
                 ['merge', '-g', files['ambig'], '-w', helpers.AMBIG_WORD, '-k', '2', '0', '1',
                  '--cert', str(cert), *emit],
                 ['closure', '-u', files['universe'], 'p', 'q']):
        assert run(argv, False) == run(argv, True), argv


# ---------------------------------------------------------------------------
# the README's examples

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'README.md')


def test_readme_examples_match_the_cli(tmp_path, monkeypatch, capsys):
    # each `$ hogc ...` line of a README example, run through cli.main in a
    # directory of the files the README shows (a block that starts with
    # "# <file> — ..."), prints the lines the README shows under it.  The one
    # elision allowed is the theory fingerprint, a line that ends in "...",
    # which stands for the rest of the line
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv('HOGC_COLOR', raising=False)
    with open(README) as f:
        blocks = re.findall(r'^```text\n(.*?)^```', f.read(), re.M | re.S)
    files = {'ambig.hog': helpers.AMBIG, 'boolsem.hog': helpers.BOOLSEM}
    for b in blocks:
        shown_file = re.match(r'# (\S+) — ', b)
        if shown_file:
            files[shown_file.group(1)] = b
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    commands = elisions = 0
    for block in blocks:
        for run in re.split(r'^\$ ', block, flags=re.M)[1:]:
            command, _, shown = run.partition('\n')
            argv = shlex.split(command)
            if argv[0] in ('head', 'tail'):    # head -<n> <file>, tail -<n> <file>
                with open(argv[2]) as f:
                    lines = f.readlines()
                n = int(argv[1][1:])
                out = ''.join(lines[:n] if argv[0] == 'head' else lines[-n:])
            else:
                assert argv[0] == 'hogc' and main(argv[1:]) == 0, command
                out = capsys.readouterr().out
                commands += 1
            got, want = out.splitlines(), shown.splitlines()
            assert len(got) == len(want), (command, out)
            for g, w in zip(got, want):
                if w.endswith('...'):
                    elisions += 1
                    w, g = w[:-3], g[:len(w) - 3]
                assert g == w, command
    assert commands == 7 and elisions == 1


def test_readme_library_block_runs(tmp_path, monkeypatch):
    # the python block of the Library section runs in a directory that holds
    # ambig.hog; each line commented with a value evaluates to it, and the
    # closing verify_trace call returns the merge's two roots
    monkeypatch.chdir(tmp_path)
    (tmp_path / 'ambig.hog').write_text(helpers.AMBIG)
    with open(README) as f:
        section = f.read().split('\n## Library\n', 1)[1]
    block = re.match(r'\s*```python\n(.*?)^```', section, re.M | re.S).group(1)
    tree = ast.parse(block)
    *body, last = tree.body
    env = {}
    exec(compile(ast.Module(body, []), 'README.md', 'exec'), env)
    assert len(eval(compile(ast.Expression(last.value), 'README.md', 'eval'), env)) == 2
    shown = re.findall(r'^(\S.*?)\s+# (.*?)(?:\s+\(.*\))?$', block, re.M)
    assert [(expr, repr(eval(expr, env))) for expr, _ in shown] == shown
    assert [value for _, value in shown] == [
        'barks(fido)', '|- sem_S(SUBJ(FIDO)(BARKS)) = barks(fido)']
