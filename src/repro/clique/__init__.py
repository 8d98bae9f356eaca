"""The CLIQUE baseline (Agrawal et al., SIGMOD'98) the paper compares
against: uniform grids, global density threshold, prefix join with
a-priori pruning, optional MDL subspace pruning, greedy rectangle
cover — serial and parallel."""

from .clique import clique, clique_rank, pclique
from .cover import box_cells, minimal_cover
from .grid import uniform_grid
from .join import apriori_prune, prefix_join_all, prefix_join_block
from .mdl import mdl_cut, prune_units, subspace_coverage

__all__ = [
    "apriori_prune",
    "box_cells",
    "clique",
    "clique_rank",
    "mdl_cut",
    "minimal_cover",
    "pclique",
    "prefix_join_all",
    "prefix_join_block",
    "prune_units",
    "subspace_coverage",
    "uniform_grid",
]
