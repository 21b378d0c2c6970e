"""Exact-arithmetic toolkit for the Cayley graphs on symmetric groups that
join permutations agreeing on exactly t-1 points: character-theoretic
spectra, Hoffman-type bounds, extremal families, exact independent-set
search, and weighted-bound optimization.

The package root re-exports nothing: import from the modules, e.g.
``from snspectra import bounds`` or ``from snspectra.spectrum import full_spectrum``."""

__version__ = "0.1.0"
