"""Exception types shared across the toolkit."""


class VcutError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VcutError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantError(VcutError):
    """A structural invariant (duplicate edge, bad id, s == t, ...) is violated."""


class SizeGuardError(VcutError):
    """Brute-force oracle invoked beyond its guarded input size."""


class ConstructionFailed(VcutError):
    """A pseudorandom-object backend could not certify the requested property."""


class GenerationFailed(VcutError):
    """Planted-instance generator exhausted its retry budget."""


class EmptyKernel(VcutError):
    """Kernel graph construction found no cluster vertices left after pruning."""


class MixedSketchError(VcutError):
    """Recovery attempted on sketches built with different parameters."""


class Exhausted(VcutError):
    """Gap enlargement ran out of non-adjacent partners to patch degrees with."""
