"""Serialization: lossless JSON plus a columnar binary fast path.

JSON (:mod:`.json_io`) is the interchange format — readable, generic,
and lossless for every built-in region class.  The array codec
(:mod:`.array_io`) flattens closed-form instances into one buffer whose
coordinate block is a single int64 array; the process backend ships
these bytes to pool workers, and the segment store and shard wire
protocol carry instances in it too.
"""

from .array_io import instance_from_buffer, instance_to_buffer
from .json_io import (
    instance_from_json,
    instance_to_json,
    invariant_from_json,
    invariant_to_json,
)

__all__ = [
    "instance_from_buffer",
    "instance_to_buffer",
    "instance_from_json",
    "instance_to_json",
    "invariant_from_json",
    "invariant_to_json",
]
