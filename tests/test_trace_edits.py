"""Edited traces: the benchmark's tamper kinds and random one-line edits.

``perfbench/merge_audit.tamper`` splits trace lines by hand; these tests
import it unchanged and check that the verifier rejects each tampered trace
at exactly the step it returns.  A hypothesis property then checks that any
one-line edit of a trace either verifies or fails with ``TraceError``,
through the library and through ``hogc trace-verify``.
"""

import contextlib
import functools
import io
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hogc import cli, closure, grammar, parser
from hogc.kernel import BOOL, Var
from hogc.trace import TraceError, export_trace, verify_trace

import helpers

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                'perfbench'))
from merge_audit import TAMPERS, tamper  # noqa: E402

Q = Var('q', BOOL)


def _merge(src, name, word, k):
    g = grammar.elaborate(src, name=name)
    p1, p2 = parser.parse(g, word, k)[:2]
    cert = closure.certificate_cases(g.theory, p1.meaning, p2.meaning, Q)
    m = closure.merge_parses(g, p1, p2, cert)
    return export_trace([m.phon_proof, m.sem_proof])


# name -> (grammar source, theory name, trace): the benchmark's pinned merge
# and a BOOLSEM merge of the kind its jobs make
@functools.lru_cache(maxsize=None)
def _tamper_traces():
    return {
        'pinned': (helpers.AMBIG, 'ambig', _merge(helpers.AMBIG, 'ambig', helpers.AMBIG_WORD, 2)),
        'boolsem': (helpers.BOOLSEM, 'boolsem',
                    _merge(helpers.BOOLSEM, 'boolsem', 'nicht ja en nee', 3)),
    }


@pytest.mark.parametrize('which', ['pinned', 'boolsem'])
@pytest.mark.parametrize('kind', TAMPERS)
def test_each_tamper_kind_is_rejected_at_its_step(which, kind):
    src, name, text = _tamper_traces()[which]
    th = grammar.elaborate(src, name=name).theory
    for seed in range(5):
        bad, step = tamper(text, kind, random.Random(seed))
        assert bad != text
        with pytest.raises(TraceError) as e:
            verify_trace(bad, th, strict_fingerprint=True)
        assert e.value.step == step, (seed, str(e.value))


# name -> (grammar source, trace): parse and merge traces of TOY and AMBIG
@functools.lru_cache(maxsize=None)
def _edit_traces():
    def parse_trace(src, name, word, k):
        rs = parser.parse(grammar.elaborate(src, name=name), word, k)
        return export_trace([t for r in rs for t in (r.phon_proof, r.sem_proof)])

    return {
        ('toy', 'parse'): parse_trace(helpers.TOY, 'toy', 'fajdo blt', 2),
        ('ambig', 'parse'): parse_trace(helpers.AMBIG, 'ambig', helpers.AMBIG_WORD, 2),
        ('ambig', 'merge'): _merge(helpers.AMBIG, 'ambig', helpers.AMBIG_WORD, 2),
    }


@functools.lru_cache(maxsize=None)
def _theory(name):
    return grammar.elaborate(getattr(helpers, name.upper()), name=name).theory


@st.composite
def _edits(draw):
    """(grammar name, a trace with one line deleted, duplicated or swapped
    with another, or one integer in it changed)."""
    key = draw(st.sampled_from(sorted(_edit_traces())))
    lines = _edit_traces()[key].split('\n')[:-1]
    kind = draw(st.sampled_from(['delete', 'duplicate', 'swap', 'integer']))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == 'delete':
        del lines[i]
    elif kind == 'duplicate':
        lines.insert(i, lines[i])
    elif kind == 'swap':
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        numbers = [(k, m) for k, line in enumerate(lines)
                   for m in re.finditer('[0-9]+', line)]
        k, m = numbers[draw(st.integers(0, len(numbers) - 1))]
        new = draw(st.integers(0, 3 * int(m.group()) + 3).filter(lambda n: n != int(m.group())))
        lines[k] = lines[k][:m.start()] + str(new) + lines[k][m.end():]
    return key[0], '\n'.join(lines) + '\n'


@given(_edits())
@settings(max_examples=40, deadline=None)
def test_an_edited_trace_verifies_or_fails_with_a_trace_error(edit):
    name, text = edit
    try:
        verify_trace(text, _theory(name), strict_fingerprint=True)
        failed = False
    except TraceError:
        failed = True
    with tempfile.TemporaryDirectory() as d:
        g, tr = os.path.join(d, name + '.hog'), os.path.join(d, 'edited.trace')
        with open(g, 'w') as f:
            f.write(getattr(helpers, name.upper()))
        with open(tr, 'w') as f:
            f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(['trace-verify', '-g', g, tr])
    out = out.getvalue()
    assert 'Traceback' not in out
    if failed:
        assert code == 1 and out.startswith('trace-verify FAIL: ') and out.count('\n') == 1
    else:
        assert code == 0 and out.endswith('trace-verify ok\n')

