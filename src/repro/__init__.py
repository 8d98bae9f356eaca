"""repro — reproduction of *"A Scalable Parallel Subspace Clustering
Algorithm for Massive Data Sets"* (Nagesh, Goil, Choudhary — ICPP 2000).

Public API highlights:

* :func:`repro.mafia` / :func:`repro.pmafia` — the paper's algorithm,
  serial and SPMD-parallel (thread or simulated-IBM-SP2 backends);
* :func:`repro.clique.clique` — the CLIQUE baseline it is evaluated
  against;
* :mod:`repro.datagen` — the §5.1 synthetic generator plus surrogates
  for the paper's real data sets;
* :mod:`repro.parallel` — the from-scratch message-passing substrate;
* :mod:`repro.analysis` — clustering quality metrics and the paper's
  closed-form complexity model;
* :mod:`repro.obs` — per-rank tracing and metrics
  (``MafiaParams(trace=True, metrics=True)``, Chrome-trace export).
"""

from .core import (ClusteringResult, PMafiaRun, mafia, pmafia,
                   pmafia_resumable)
from .errors import (CheckpointError, ChecksumError, CommAborted, CommError,
                     CommTimeoutError, DataError, GridError, ParameterError,
                     RecordFileError, ReproError)
from .obs import (RankObsData, RunObs, as_run_obs, write_chrome_trace,
                  write_metrics_snapshot)
from .params import CliqueParams, MafiaParams
from .parallel import (CrashPoint, FaultPlan, MachineSpec, MessageFault,
                       ReadFault, run_spmd)
from .types import Cluster, DimensionGrid, DNFTerm, Grid, Subspace

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "ChecksumError",
    "CliqueParams",
    "Cluster",
    "ClusteringResult",
    "CommAborted",
    "CommError",
    "CommTimeoutError",
    "CrashPoint",
    "DNFTerm",
    "DataError",
    "DimensionGrid",
    "FaultPlan",
    "Grid",
    "GridError",
    "MachineSpec",
    "MessageFault",
    "MafiaParams",
    "PMafiaRun",
    "ParameterError",
    "RankObsData",
    "ReadFault",
    "RecordFileError",
    "ReproError",
    "RunObs",
    "Subspace",
    "__version__",
    "as_run_obs",
    "mafia",
    "pmafia",
    "pmafia_resumable",
    "run_spmd",
    "write_chrome_trace",
    "write_metrics_snapshot",
]
