"""Disk-failure prediction substrate: SMART traces, predictors, monitor."""

from .monitor import ClusterFailureMonitor, MissedFailure, MonitorReport, StfEvent
from .cart import CartPredictor, training_windows
from .traces_io import TraceFormatError, load_traces, save_traces
from .predictor import (
    FailurePredictor,
    LogisticPredictor,
    PredictionMetrics,
    ThresholdPredictor,
    evaluate,
    first_alarm_day,
    window_features,
)
from .smart import (
    DEGRADATION_ATTRIBUTES,
    SMART_ATTRIBUTES,
    DiskTrace,
    SmartSample,
    SmartTraceGenerator,
    daily_samples,
)

__all__ = [
    "CartPredictor",
    "ClusterFailureMonitor",
    "training_windows",
    "DEGRADATION_ATTRIBUTES",
    "DiskTrace",
    "FailurePredictor",
    "LogisticPredictor",
    "MissedFailure",
    "MonitorReport",
    "PredictionMetrics",
    "SMART_ATTRIBUTES",
    "SmartSample",
    "SmartTraceGenerator",
    "StfEvent",
    "ThresholdPredictor",
    "TraceFormatError",
    "daily_samples",
    "load_traces",
    "save_traces",
    "evaluate",
    "first_alarm_day",
    "window_features",
]
