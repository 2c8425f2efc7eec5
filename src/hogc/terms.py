"""Untrusted term helpers: recognisers and builders for the connectives.

Nothing here can make a ``Theorem``.  These functions only take terms apart
or build them through the kernel's constructors, so a fault here can make a
proof fail, never make a false one.  The helpers that the kernel's own rules
and axiom schemas use (``mk_eq``, ``dest_eq``, ``mk_forall``, ``mk_imp`` and
the like) stay in ``hogc.kernel``.
"""

from .kernel import Abs, App, Const, dest_abs, logical_const


def mk_exists(v, body):
    return App(logical_const('exists', (v.ty,)), Abs(v, body))


def mk_pair(a, b):
    return App(App(logical_const('pair', (a.ty, b.ty)), a), b)


def dest_not(t):
    if isinstance(t, App) and isinstance(t.fn, Const) and t.fn.name == 'not':
        return t.arg
    return None


def dest_forall(t):
    """Open ``!x. b`` into (x, b) as ``dest_abs`` does; None when not of
    that shape."""
    if (isinstance(t, App) and isinstance(t.fn, Const)
            and t.fn.name == 'forall' and isinstance(t.arg, Abs)):
        return dest_abs(t.arg, 'x')
    return None


def dest_cond(t):
    """Split C x y z into (x, y, z); None when not of that shape."""
    if isinstance(t, App) and isinstance(t.fn, App) and isinstance(t.fn.fn, App):
        c = t.fn.fn.fn
        if isinstance(c, Const) and c.name == 'cond':
            return t.fn.fn.arg, t.fn.arg, t.arg
    return None


def is_true(t):
    return isinstance(t, Const) and t.name == 'true'


def is_false(t):
    return isinstance(t, Const) and t.name == 'false'
