"""Proof-kernel-backed toolkit for higher order grammars.

Grammars are axiomatic theories in classical simply typed higher-order
logic; parsing a word produces kernel-checked proofs of its phonology and
meaning, ambiguity is resolved by certificate-driven merging through the
if-then-else constants, and a small laboratory explores logical closure of
boolean meaning sets.
"""

from .kernel import (Abs, App, BOOL, BaseType, Const, FunType, IND, KernelError,
                     PHON, ProdType, RuleError, Term, Theorem,
                     Theory, TheoryError, Type, TypingError, Var, axiom,
                     beta_normalize, core_theory, type_of)
from .terms import substitute
from .syntax import ParseError, TermEnv, canonical_term, parse_term, pretty_term, \
    pretty_theorem
from .grammar import Grammar, GrammarError, GrammarSpec, Word, elaborate, \
    load_grammar, word_to_phon
from .parser import ParseResult, check_membership, enumerate_signs, parse
from .rules import FragmentError
from .closure import (ClosureCertificate, ClosureError, TermUniverse,
                      bool_valid, certificate_cases, certificate_from_script,
                      certificate_left, certificate_right, certificate_taut,
                      closure_report, closure_saturate, closure_violation,
                      identity_language, in_fragment, is_logically_closed,
                      language_logically_closed, logical_singleton,
                      merge_parses, sets_equivalent)
from .trace import TraceError, export_trace, theory_fingerprint, verify_trace

__version__ = '0.1.0'

__all__ = [
    'Abs', 'App', 'BOOL', 'BaseType', 'ClosureCertificate', 'ClosureError',
    'Const', 'FragmentError', 'FunType', 'Grammar', 'GrammarError',
    'GrammarSpec', 'IND', 'KernelError', 'PHON',
    'ParseError', 'ParseResult', 'ProdType', 'RuleError', 'Term',
    'TermEnv', 'TermUniverse', 'Theorem', 'Theory', 'TheoryError',
    'TraceError', 'Type', 'TypingError', 'Var', 'Word', 'axiom',
    'beta_normalize', 'bool_valid', 'canonical_term',
    'certificate_cases', 'certificate_from_script', 'certificate_left',
    'certificate_right', 'certificate_taut', 'check_membership',
    'closure_report', 'closure_saturate', 'closure_violation',
    'core_theory', 'elaborate', 'enumerate_signs', 'export_trace',
    'identity_language', 'in_fragment', 'is_logically_closed',
    'language_logically_closed', 'load_grammar', 'logical_singleton',
    'merge_parses', 'parse', 'parse_term', 'pretty_term', 'pretty_theorem',
    'sets_equivalent', 'substitute', 'theory_fingerprint', 'type_of',
    'verify_trace', 'word_to_phon',
]
