"""Deterministic round-based WSN simulator with in-network staircase filtering."""

from .config import ScenarioConfig, load_scenario, parse_scenario
from .engine import RunResult, run
from .metrics import MetricsReport, serialize
from .pipeline import ClassifierModel, train_classifier

__version__ = "0.1.0"

__all__ = [
    "ClassifierModel",
    "MetricsReport",
    "RunResult",
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario",
    "run",
    "serialize",
    "train_classifier",
    "__version__",
]
