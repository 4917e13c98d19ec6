"""Exception types shared across the toolkit."""


class MemxbarError(Exception):
    """Base class for all toolkit errors."""


class AboveThresholdError(MemxbarError):
    """Read voltage would disturb the device state."""


class AmplitudeOutOfRangeError(MemxbarError):
    """Programming pulse amplitude outside the allowed ramp range."""


class StuckDeviceError(MemxbarError):
    """Device is frozen at a resistance outside the requested tolerance band."""


class ProgrammingFailedError(MemxbarError):
    """Write-verify loop exhausted its iteration budget."""


class InputOverrangeError(MemxbarError):
    """Input signal amplitude exceeds the configured data-voltage limit."""


class OddRowCountError(MemxbarError):
    """Differential pairing requires an even number of rows."""


class BiasViolationError(MemxbarError):
    """A half-selected cell would see a state-disturbing voltage drop."""


class ShapeMismatchError(MemxbarError):
    """Array arguments disagree in shape."""


class EmptyBatchError(MemxbarError):
    """A batch to score holds no patterns."""


class NonFiniteLossError(MemxbarError):
    """Training loss became NaN or infinite."""


class WeightOutOfRangeError(MemxbarError):
    """Requested weight exceeds what the resistance range can realize."""


class NoPassingPointError(MemxbarError):
    """Tolerance synthesis found no limits meeting the accuracy target."""


class CountMismatchError(MemxbarError):
    """Dataset class counts do not match the expected split."""


class MissingArtifactError(MemxbarError):
    """A pipeline stage requires an artifact that has not been produced."""


class ConfigError(MemxbarError):
    """Run configuration is invalid or references missing files."""
