"""Run the test suite against each fault of ``tests/data/kernel-faults.txt``.

Each entry of the list is an exact run of whole lines of
``src/hogc/kernel.py`` and the faulty lines that replace it, most often a
check that no longer fires.  The driver copies what the tests read
(``src``, ``tests``, ``perfbench``, ``README.md``) to a temporary
directory, applies one fault at a time there and runs ``python -m pytest
-q -x tests`` on the copy.  A fault that passes every
test shows a kernel check that no test needs.

It exits 1, naming each offending entry, when a fault passes every test,
when a snippet does not occur exactly once in ``kernel.py`` (a stale
entry), when a faulty kernel does not compile, or when some ``raise`` in
``kernel.py`` is covered by no entry; an entry covers a ``raise`` when its
snippet holds that line or the ``if`` line that guards it.  The unfaulted
copy must pass first.  It tests two faults at a time, each in its own
copy.  Run it from the repository root:

    python tests/kernel_faults.py

The file name does not start with ``test_``, so pytest does not collect it.
"""

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join('src', 'hogc', 'kernel.py')
FAULTS = os.path.join(ROOT, 'tests', 'data', 'kernel-faults.txt')
PYTEST = [sys.executable, '-m', 'pytest', '-q', '-x', '-p', 'no:cacheprovider',
          '--hypothesis-seed=0', 'tests']
TIMEOUT = 900   # seconds; a fault that hangs the suite counts as found
JOBS = 2


def read_faults(path):
    """[(name, snippet, replacement)]: an entry starts at a ``## name`` line,
    and a ``=>`` line parts its snippet from its replacement.  Lines before
    the first entry are comments."""
    with open(path) as f:
        lines = f.read().splitlines()
    faults = []
    entry = None
    for line in lines:
        if line.startswith('## '):
            entry = [line[3:].strip(), [], None]
            faults.append(entry)
        elif entry is None:
            continue
        elif line == '=>' and entry[2] is None:
            entry[2] = []
        else:
            (entry[1] if entry[2] is None else entry[2]).append(line)
    out = []
    for name, old, new in faults:
        while new and not new[-1].strip():
            new.pop()
        out.append((name, '\n'.join(old), None if new is None else '\n'.join(new)))
    return out


def _span(source, snippet):
    """The 1-based line numbers of the one occurrence of ``snippet`` as whole
    lines of ``source``, or the number of occurrences when it is not one."""
    padded, probe = '\n' + source, '\n' + snippet + '\n'
    count = padded.count(probe)
    if count != 1:
        return count
    first = padded[:padded.index(probe) + 1].count('\n')
    return range(first, first + snippet.count('\n') + 1)


def _guard_lines(source):
    """For each ``raise`` in ``source``: its line and the line of the ``if``
    whose body holds it (or None)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else ():
                if isinstance(child, ast.Raise):
                    guarded = isinstance(node, ast.If) and field == 'body'
                    out.append((child.lineno, node.lineno if guarded else None))
    return out


def apply_fault(source, old, new):
    """``source`` with the one whole-line occurrence of ``old`` made ``new``."""
    return ('\n' + source).replace('\n' + old + '\n', '\n' + new + '\n', 1)[1:]


def check_list(source, faults):
    """The problems with the fault list itself, as messages."""
    problems = []
    covered = set()
    for name, old, new in faults:
        span = _span(source, old) if old else 0
        if new is None:
            problems.append('%s: no "=>" line' % name)
        elif isinstance(span, int):
            problems.append('%s: snippet occurs %d times in %s, not once' % (name, span, KERNEL))
        elif new == old:
            problems.append('%s: the replacement is the snippet' % name)
        else:
            covered.update(span)
            try:
                compile(apply_fault(source, old, new), KERNEL, 'exec')
            except SyntaxError as e:
                problems.append('%s: the faulty kernel does not compile: %s' % (name, e))
    for line, guard in _guard_lines(source):
        if line not in covered and guard not in covered:
            problems.append('raise at %s:%d is covered by no fault' % (KERNEL, line))
    return problems


def _copy_repo(dest):
    skip = shutil.ignore_patterns('__pycache__', '.hypothesis', '.pytest_cache')
    for part in ('src', 'tests', 'perfbench'):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=skip)
    for part in ('README.md', 'pyproject.toml'):
        shutil.copy(os.path.join(ROOT, part), dest)


def run_suite(copy):
    """(passed, the first failing test or a note) for the copy as it stands."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, 'src'), PYTHONDONTWRITEBYTECODE='1')
    try:
        r = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                           timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, 'timed out after %d s' % TIMEOUT
    failed = [l for l in r.stdout.splitlines() if l.startswith(('FAILED ', 'ERROR '))]
    return r.returncode == 0, (failed[0] if failed else 'exit status %d' % r.returncode)


def main():
    with open(os.path.join(ROOT, KERNEL)) as f:
        source = f.read()
    faults = read_faults(FAULTS)
    problems = check_list(source, faults)
    if problems:
        for p in problems:
            print('fault list: %s' % p)
        return 1
    with tempfile.TemporaryDirectory(prefix='kernel-faults-') as tmp:
        copies = queue.Queue()
        for k in range(JOBS):
            copy = os.path.join(tmp, str(k))
            _copy_repo(copy)
            copies.put(copy)
        ok, note = run_suite(copies.queue[0])
        if not ok:
            print('the unfaulted copy fails the tests: %s' % note)
            return 1

        def try_fault(fault):
            copy = copies.get()
            path = os.path.join(copy, KERNEL)
            try:
                with open(path, 'w') as f:
                    f.write(apply_fault(source, *fault[1:]))
                return run_suite(copy)
            finally:
                with open(path, 'w') as f:
                    f.write(source)
                copies.put(copy)

        survivors = []
        with ThreadPoolExecutor(JOBS) as pool:
            for (name, _, _), (passed, note) in zip(faults, pool.map(try_fault, faults)):
                print('%-8s %s%s' % ('SURVIVED' if passed else 'killed', name,
                                     '' if passed else '  [%s]' % note), flush=True)
                if passed:
                    survivors.append(name)
    print('%d faults, %d killed, %d survived' % (len(faults), len(faults) - len(survivors),
                                                len(survivors)))
    for name in survivors:
        print('SURVIVED %s' % name)
    return 1 if survivors else 0


if __name__ == '__main__':
    sys.exit(main())
