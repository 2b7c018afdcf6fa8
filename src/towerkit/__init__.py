"""Exact tower constructions with certified partial-sum distributions."""

from .blocks import (Block, BlockError, is_normalized, normalizing_copies,
                     self_concat)
from .distributions import FiniteDist, Splitting, SymRep, rho

__version__ = "0.1.0"
