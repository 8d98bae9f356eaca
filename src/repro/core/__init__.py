"""The paper's primary contribution: (p)MAFIA — subspace clustering with
adaptive grids, serial and SPMD-parallel."""

from .adaptive_grid import build_dimension_grid, build_grid, merge_windows, window_maxima
from .candidates import (HashJoinPlan, JoinResult, hash_join_plan,
                         join_all, join_block)
from .checkpoint import (CHECKPOINT_VERSION, check_compatible,
                         checkpoint_path, clear_checkpoints,
                         latest_checkpoint, load_checkpoint,
                         load_latest_checkpoint, save_checkpoint)
from .dedup import drop_repeats, repeat_flags_block
from .dnf import (dnf_terms, greedy_cover, grow_box, maximal_mask,
                  merged_mask, projections)
from .histogram import (fine_histogram_global, fine_histogram_local,
                        global_domains, local_domains)
from .identify import dense_flags_block, dense_units, unit_thresholds
from .export import (result_from_dict, result_from_json, result_to_dict,
                     result_to_json)
from .mafia import PMafiaRun, mafia, pmafia, pmafia_resumable
from .merge import UnionFind, face_adjacent_components
from .partition import (even_splits, prefix_work, row_work, split_range,
                        triangular_splits)
from .pmafia import assemble_clusters, pmafia_rank
from .population import populate_global, populate_local
from .result import ClusteringResult, LevelTrace
from .units import (MAX_BINS, MAX_DIMS, UnitTable, first_occurrence,
                    pack_tokens)

__all__ = [
    "CHECKPOINT_VERSION",
    "ClusteringResult",
    "HashJoinPlan",
    "JoinResult",
    "LevelTrace",
    "MAX_BINS",
    "MAX_DIMS",
    "PMafiaRun",
    "UnionFind",
    "UnitTable",
    "assemble_clusters",
    "build_dimension_grid",
    "build_grid",
    "check_compatible",
    "checkpoint_path",
    "clear_checkpoints",
    "dense_flags_block",
    "dense_units",
    "dnf_terms",
    "drop_repeats",
    "even_splits",
    "face_adjacent_components",
    "fine_histogram_global",
    "fine_histogram_local",
    "first_occurrence",
    "global_domains",
    "greedy_cover",
    "grow_box",
    "hash_join_plan",
    "join_all",
    "join_block",
    "latest_checkpoint",
    "load_checkpoint",
    "load_latest_checkpoint",
    "local_domains",
    "mafia",
    "maximal_mask",
    "merged_mask",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
    "merge_windows",
    "pack_tokens",
    "pmafia",
    "pmafia_rank",
    "pmafia_resumable",
    "save_checkpoint",
    "populate_global",
    "populate_local",
    "prefix_work",
    "projections",
    "repeat_flags_block",
    "row_work",
    "split_range",
    "triangular_splits",
    "unit_thresholds",
    "window_maxima",
]
