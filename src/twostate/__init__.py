"""Numerical toolkit for pre- and post-selected quantum systems.

Conditional probabilities for intermediate ideal measurements, weak values
and their pointer-level von Neumann dynamics, superposed time evolutions
with binomial amplification, and protective measurements, plus a scenario
registry and CLI packaging the canonical worked examples.  Each object is
imported from its module (``from twostate.ideal import abl``).
"""

__version__ = "0.1.0"
