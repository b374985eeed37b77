"""Exact counting of positive integer tuples (a_1, ..., a_n) solving
M_n(a_1, ..., a_n) = +/-M, where M_n is the product of the elementary
matrices [[a_i, -1], [1, 0]] and M is one of the classical generators
of the modular group (Id, S, T, T^-1, TS, ST, TSTS, STST).

Every count is available through at least two independent routes:
closed-form coefficient formulas (`formulas`), generating-series algebra
(`series`, `census`), and an exhaustive matrix-product search (`oracle`).
The `verify` module cross-checks all routes against frozen reference
tables; the `cli` module exposes the whole thing as a command line tool.
"""

from .matrices import Mat2, elem, m_n, word_to_matrix, equal_up_to_sign, parse_target, TARGETS
from .series import TruncSeries
from .census import CountTable, census_table, count_solutions
from .oracle import OracleQuery, SolutionSet, solve, survey

__version__ = "0.1.0"

__all__ = [
    "Mat2", "elem", "m_n", "word_to_matrix", "equal_up_to_sign",
    "parse_target", "TARGETS", "TruncSeries", "CountTable", "census_table",
    "count_solutions", "OracleQuery", "SolutionSet", "solve", "survey",
    "__version__",
]
