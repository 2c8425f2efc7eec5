"""Proof-kernel-backed toolkit for higher order grammars.

Grammars are axiomatic theories in classical simply typed higher-order
logic; parsing a word produces kernel-checked proofs of its phonology and
meaning, ambiguity is resolved by certificate-driven merging through the
if-then-else constants, and a small laboratory explores logical closure of
boolean meaning sets.

The API is the submodules, imported as ``from hogc import grammar, parser``;
the package itself defines no name.
"""
