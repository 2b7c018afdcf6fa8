"""Exact tower constructions with certified partial-sum distributions."""

from .blocks import (Block, BlockError, BlockStats, concat, concat_many,
                     is_normalized, normalizing_copies, self_concat, stats)
from .distributions import (FiniteDist, Splitting, SymRep, cdf_dominates_below,
                            rho, uniform_dist, vasershtein)

__version__ = "0.1.0"
