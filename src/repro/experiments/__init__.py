"""Experiment harnesses: one module per paper figure/table.

| Module                | Reproduces            | Registry ids        |
|-----------------------|-----------------------|---------------------|
| ``workload_figs``     | Fig. 1, Fig. 2        | ``fig1``, ``fig2``  |
| ``motivation``        | Fig. 4, Fig. 6        | ``fig4``, ``fig6``  |
| ``concurrency``       | Fig. 5, Fig. 7        | ``fig5``, ``fig7``  |
| ``large_scale``       | Fig. 8                | ``fig8``            |
| ``properties``        | Fig. 9                | ``fig9``            |
| ``fairness``          | Fig. 10               | ``fig10``           |
| ``multihop``          | Fig. 11               | ``fig11``           |
| ``fattree``           | Fig. 12, Table I      | ``fig12``, ``table1``|
| ``testbed``           | Fig. 13               | ``fig13a``, ``fig13be``|
| ``ablation``          | design-choice studies | ``ablations``       |
| ``incast``            | incast collapse       | ``incast``          |

Every experiment implements the :class:`Experiment` protocol — a params
dataclass with ``paper()``/``quick()`` presets, a :meth:`points`
enumeration of independent simulation points, a per-point
:meth:`run_point`, and a :meth:`reduce` fold — and registers itself
under its figure ids::

    from repro.experiments import registry
    from repro.runner import SweepRunner

    experiment = registry.get("fig8")
    params = experiment.make_params("quick", protocol="trim")
    payload = SweepRunner(jobs=4).run(experiment, params, seed=1)

``python -m repro.experiments <id>`` is the command-line face of the
same machinery.
"""

from __future__ import annotations

from repro.experiments import registry
from repro.experiments.ablation import (
    AblationParams,
    AlphaCase,
    KSweepCase,
    ProbePolicyCase,
)
from repro.experiments.base import Experiment, Point
from repro.experiments.concurrency import ConcurrencyCase, ConcurrencyParams
from repro.experiments.fairness import FairnessParams, FairnessResult
from repro.experiments.fattree import FatTreeParams, FatTreeResult
from repro.experiments.incast import IncastCase, IncastParams
from repro.experiments.large_scale import LargeScaleCase, LargeScaleParams
from repro.experiments.motivation import MotivationParams, MotivationResult
from repro.experiments.multihop import MultiHopParams, MultiHopResult
from repro.experiments.properties import PropertiesCase, PropertiesParams
from repro.experiments.scenarios import (
    ConnectionSet,
    dctcp_threshold_pkts,
    ecn_threshold_for,
    packets_per_second,
    run_until,
)
from repro.experiments.testbed import (
    ArctCase,
    ArctParams,
    WebServiceParams,
    WebServiceResult,
)
from repro.experiments.workload_figs import WorkloadFigures, WorkloadParams

__all__ = [
    "AblationParams",
    "AlphaCase",
    "ArctCase",
    "ArctParams",
    "ConcurrencyCase",
    "ConcurrencyParams",
    "ConnectionSet",
    "Experiment",
    "FairnessParams",
    "FairnessResult",
    "FatTreeParams",
    "FatTreeResult",
    "IncastCase",
    "IncastParams",
    "KSweepCase",
    "LargeScaleCase",
    "LargeScaleParams",
    "MotivationParams",
    "MotivationResult",
    "MultiHopParams",
    "MultiHopResult",
    "Point",
    "ProbePolicyCase",
    "PropertiesCase",
    "PropertiesParams",
    "WebServiceParams",
    "WebServiceResult",
    "WorkloadFigures",
    "WorkloadParams",
    "dctcp_threshold_pkts",
    "ecn_threshold_for",
    "packets_per_second",
    "registry",
    "run_until",
]
