"""Payload codecs for the simulated communication paths.

A codec shrinks one exchange's payload before it hits the fabric and
expands it on arrival. Three deterministic quantities summarise each
codec, mirroring how compression enters a real training system:

* ``ratio`` — wire bytes per raw byte, *including* any framing
  overhead (top-k ships indices next to the surviving values);
* ``error_per_value`` — a deterministic accuracy proxy: the relative
  RMS perturbation the lossy transform applies to each exchanged
  value. The simulation never trains a real model, so this term is an
  analytical stand-in that lets the sweep rank codecs on a
  traffic-vs-accuracy plane rather than pretending compression is
  free;
* ``work_factor`` — encode+decode passes over the raw payload,
  charged at the cost model's memory bandwidth
  (:meth:`Codec.codec_seconds`), so aggressive codecs pay visible
  time for their savings.

The :class:`NullCodec` is the identity: ratio 1, zero error, zero
work. A null-codec run is the pre-codec baseline bit for bit: DistGNN
branches on :meth:`Codec.is_null` and takes the pre-codec code path;
DistDGL prices the null codec with the same array expressions as any
other, where its ``x 1.0`` and ``+ 0.0`` are exact in floating point
(pinned by ``tests/oracles/test_distdgl_identity.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "CODEC_NAMES",
    "Codec",
    "NullCodec",
    "FloatHalfCodec",
    "Int8Codec",
    "TopKCodec",
    "make_codec",
]


class Codec:
    """One compression scheme for simulated exchanges.

    Subclasses set :attr:`name`, :attr:`ratio`,
    :attr:`error_per_value` and :attr:`work_factor`; everything else
    derives from those four constants, so a codec is fully described
    by deterministic arithmetic — the serial and parallel runners
    reconstruct identical behaviour from the codec name alone.
    """

    #: Registry name (the ``compression`` knob's value).
    name: str = "base"
    #: Wire bytes per raw byte, framing overhead included.
    ratio: float = 1.0
    #: Relative RMS perturbation per exchanged value (accuracy proxy).
    error_per_value: float = 0.0
    #: Encode+decode passes over the raw payload.
    work_factor: float = 0.0

    def is_null(self) -> bool:
        """True for the identity codec (engines skip the codec path)."""
        return self.ratio >= 1.0 and self.work_factor == 0.0

    def wire_bytes(self, raw_bytes: float) -> float:
        """Bytes that actually cross the fabric for ``raw_bytes``."""
        return self.ratio * raw_bytes

    def saved_bytes(self, raw_bytes: float) -> float:
        """Bytes the codec keeps off the fabric for ``raw_bytes``."""
        return raw_bytes - self.wire_bytes(raw_bytes)

    def codec_seconds(self, raw_bytes: float, cost_model) -> float:
        """Simulated encode+decode time for ``raw_bytes`` of payload.

        Charged at the cost model's memory bandwidth: codecs are
        bandwidth-bound transforms, ``work_factor`` passes over the
        raw payload (a scalar or an array of payloads).
        """
        return self.work_factor * raw_bytes / cost_model.memory_bandwidth

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"ratio={self.ratio}, error={self.error_per_value}, "
            f"work={self.work_factor})"
        )


class NullCodec(Codec):
    """Identity codec: the uncompressed baseline."""

    name = "none"
    ratio = 1.0
    error_per_value = 0.0
    work_factor = 0.0


class FloatHalfCodec(Codec):
    """fp32 -> fp16 cast: halves the payload, one pass each way.

    The error proxy is half-precision's unit roundoff (``2^-11``):
    every value lands within that relative distance of its fp32
    original.
    """

    name = "fp16"
    ratio = 0.5
    error_per_value = 2.0 ** -11
    work_factor = 1.0


class Int8Codec(Codec):
    """Linear 8-bit quantisation against a per-message scale.

    Quarter-size payloads; the error proxy is the RMS of a uniform
    quantisation step over a normalised range (``1/512``), and the
    work factor covers the extra scale-computation pass on top of
    quantise/dequantise.
    """

    name = "int8"
    ratio = 0.25
    error_per_value = 1.0 / 512.0
    work_factor = 2.0


class TopKCodec(Codec):
    """Top-k magnitude sparsification: ship the largest fraction.

    Keeps ``keep_fraction`` of the values plus a 4-byte index per
    survivor (doubling each survivor's footprint), so the default 10%
    keep rate yields a 0.2 wire ratio. The error proxy scales with
    the dropped mass — far coarser than quantisation, which is
    exactly the frontier shape the tradeoff analysis should expose.
    The selection pass makes it the most expensive codec.
    """

    name = "topk"
    work_factor = 3.0

    #: Relative RMS error per unit of dropped fraction.
    DROP_ERROR_SCALE = 0.2
    #: Index bytes shipped per surviving value, as payload fraction.
    INDEX_OVERHEAD = 1.0

    def __init__(self, keep_fraction: float = 0.1) -> None:
        if not 0.0 < keep_fraction < 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1), got {keep_fraction}"
            )
        self.keep_fraction = keep_fraction
        self.ratio = keep_fraction * (1.0 + self.INDEX_OVERHEAD)
        self.error_per_value = self.DROP_ERROR_SCALE * (
            1.0 - keep_fraction
        )


#: Codec registry: knob value -> factory.
_CODECS: Dict[str, type] = {
    NullCodec.name: NullCodec,
    FloatHalfCodec.name: FloatHalfCodec,
    Int8Codec.name: Int8Codec,
    TopKCodec.name: TopKCodec,
}

#: Valid ``compression`` knob values, least to most aggressive.
CODEC_NAMES: Tuple[str, ...] = ("none", "fp16", "int8", "topk")


def make_codec(name: str) -> Codec:
    """Instantiate the codec registered under ``name``.

    Raises :class:`ValueError` for unknown names, listing the valid
    ones — the same eager-validation shape the partitioner factories
    use, so a typo'd sweep flag fails at argument parsing rather than
    mid-sweep.
    """
    factory = _CODECS.get(name.lower())
    if factory is None:
        raise ValueError(
            f"unknown compression codec {name!r}; expected one of "
            f"{CODEC_NAMES}"
        )
    return factory()
