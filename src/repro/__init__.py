"""DistrEdge reproduction package.

Reproduction of *DistrEdge: Speeding up Convolutional Neural Network
Inference on Distributed Edge Devices* (IPDPS 2022).  Subpackages:

``repro.nn``
    NumPy CNN substrate: layer configurations, operators, the model zoo and
    the Vertical-Splitting Law used to cut layer-volumes by height.
``repro.devices``
    Edge-device models (Pi3 / Nano / TX2 / Xavier) with nonlinear compute
    latency, plus the latency profiler and profile representations.
``repro.network``
    WiFi bandwidth traces and the transmission-latency model (air time plus
    I/O read/write overheads).
``repro.runtime``
    Distribution plans, the per-device lane scheduler, the single-image
    latency evaluator and the image-stream (IPS) simulator.
``repro.core``
    The DistrEdge algorithms: LC-PSS partitioning, the splitting MDP, a
    NumPy DDPG agent, OSDS, the planner facade and online adaptation.
``repro.baselines``
    CoEdge, MoDNN, MeDNN, DeepThings, DeeperThings, AOFL and Offload.
``repro.serving``
    Multi-tenant open-loop serving: arrival processes behind the
    ``traffic:`` grammar, tenants with SLOs and admission control, and the
    serving loops (the array engine, the contended loop and their scalar
    reference loops).
``repro.experiments``
    Scenario catalogue (Tables I-III) and regeneration of every evaluation
    figure (Figs. 4-15).

Quickstart
----------
>>> from repro import model_zoo, make_cluster, NetworkModel, PlanEvaluator, DistrEdge
>>> model = model_zoo.get("vgg16")
>>> devices = make_cluster([("xavier", 300), ("nano", 300)])
>>> network = NetworkModel.constant_from_devices(devices)
>>> plan = DistrEdge().plan(model, devices, network)      # doctest: +SKIP
>>> PlanEvaluator(devices, network).ips(plan)             # doctest: +SKIP
"""

from repro.version import __version__

from repro.nn import (
    ConvSpec,
    DenseSpec,
    ModelBuilder,
    ModelSpec,
    PoolSpec,
    SplitDecision,
    model_zoo,
)
from repro.devices import (
    DEVICE_CATALOG,
    DeviceInstance,
    DeviceType,
    LatencyProfiler,
    make_cluster,
)
from repro.network import BandwidthTrace, Link, NetworkModel
from repro.runtime import (
    BatchPlanEvaluator,
    DistributionPlan,
    PlanEvaluator,
    StreamingSimulator,
)
from repro.core import DistrEdge, DistrEdgeConfig, LCPSS, OSDS, OSDSConfig
from repro.baselines import BASELINE_REGISTRY
from repro.serving import SLO, ServingReport, ServingSimulator, TenantSpec
from repro.experiments import ExperimentHarness, HarnessConfig, ScenarioCatalog

__all__ = [
    "__version__",
    # nn
    "ModelSpec",
    "ModelBuilder",
    "ConvSpec",
    "PoolSpec",
    "DenseSpec",
    "SplitDecision",
    "model_zoo",
    # devices
    "DeviceType",
    "DeviceInstance",
    "DEVICE_CATALOG",
    "make_cluster",
    "LatencyProfiler",
    # network
    "BandwidthTrace",
    "Link",
    "NetworkModel",
    # runtime
    "DistributionPlan",
    "PlanEvaluator",
    "BatchPlanEvaluator",
    "StreamingSimulator",
    # core
    "DistrEdge",
    "DistrEdgeConfig",
    "LCPSS",
    "OSDS",
    "OSDSConfig",
    # serving
    "ServingSimulator",
    "ServingReport",
    "TenantSpec",
    "SLO",
    # baselines / experiments
    "BASELINE_REGISTRY",
    "ExperimentHarness",
    "HarnessConfig",
    "ScenarioCatalog",
]
