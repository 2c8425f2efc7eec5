import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import helpers  # noqa: E402

from hogc import closure, grammar  # noqa: E402


_ACCEPTANCE = {}


@pytest.fixture
def acceptance():
    """Recorder for the one-line-per-criterion summary."""
    def record(n, ok, detail):
        _ACCEPTANCE[n] = (bool(ok), detail)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section('acceptance criteria')
    for n in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[n]
        terminalreporter.write_line('criterion %d: %s  [%s]'
                                    % (n, 'PASS' if ok else 'FAIL', detail))


@pytest.fixture(scope='session')
def toy():
    return grammar.elaborate(helpers.TOY, name='toy')


@pytest.fixture(scope='session')
def ambig():
    return grammar.elaborate(helpers.AMBIG, name='ambig')


@pytest.fixture(scope='session')
def boolsem():
    return grammar.elaborate(helpers.BOOLSEM, name='boolsem')


@pytest.fixture(scope='session')
def eps():
    return grammar.elaborate(helpers.EPS, name='eps')


@pytest.fixture(scope='session')
def perm():
    return grammar.elaborate(helpers.PERM, name='perm')


@pytest.fixture(scope='session')
def quote():
    return grammar.elaborate(helpers.QUOTE, name='quote')


@pytest.fixture(scope='session')
def raised():
    return grammar.elaborate(helpers.RAISED, name='raised')


@pytest.fixture(scope='session')
def universe():
    """All 272 fragment terms over p, q up to size 4."""
    return closure.TermUniverse(helpers.bool_universe_terms(4))


@pytest.fixture(scope='session')
def universe3():
    """The 60-term size-3 slice, small enough for the naive oracle."""
    return closure.TermUniverse(helpers.bool_universe_terms(3))


@pytest.fixture(scope='session')
def universe2():
    """The 8-term size-2 slice, exhaustively checkable."""
    return closure.TermUniverse(helpers.bool_universe_terms(2))
