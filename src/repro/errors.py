"""Exception hierarchy for the EdgeBERT reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class ShapeError(ReproError):
    """Tensor/array operands have incompatible shapes."""


class GradientError(ReproError):
    """Backward pass was invoked in an invalid state (e.g. no grad tape)."""


class TokenizationError(ReproError):
    """Input text could not be tokenized or encoded."""


class QuantizationError(ReproError):
    """A float format or quantization request is invalid."""


class SparsityError(ReproError):
    """Bitmask encoding/decoding received inconsistent mask/data operands."""


class ScheduleError(ReproError):
    """A pruning/training schedule was queried outside its valid range."""


class EnvmError(ReproError):
    """Invalid eNVM (ReRAM) cell configuration or fault-injection request."""


class DvfsError(ReproError):
    """DVFS controller could not satisfy a latency/voltage request."""


class HardwareError(ReproError):
    """Accelerator simulator was configured or driven inconsistently."""


class PipelineError(ReproError):
    """End-to-end EdgeBERT pipeline failed a consistency check."""


class ServingError(ReproError):
    """The multi-task serving layer was configured or driven inconsistently."""


class ClusterError(ReproError):
    """The cluster simulator was configured or driven inconsistently."""


class EnergyError(ReproError):
    """The energy governor/budget subsystem was driven inconsistently."""


class ArtifactError(ReproError):
    """A trained-model artifact is missing or failed validation."""


class FleetError(ReproError):
    """The multi-site fleet orchestrator was configured or driven
    inconsistently."""


class SiteConfigError(FleetError, ClusterError):
    """A fleet site's configuration failed its simulator's checks."""


class TelemetryError(ReproError):
    """The tracing/metrics layer was configured or driven inconsistently."""
