"""MAC frame formats and the frame-splitting arithmetic of Section 4.2.

Both protocols transmit messages as a sequence of frames.  Each frame
carries ``info_bits`` of payload plus ``overhead_bits`` of header/trailer
(preamble, delimiters, addresses, FCS — 112 bits in the paper's
experiments).  A synchronous message of ``C_i^b`` payload bits therefore
splits into

* ``L_i = floor(C_i^b / F_info^b)`` full frames, and
* ``K_i = ceil(C_i^b / F_info^b)`` frames in total,

so ``K_i == L_i`` means every frame is full and ``K_i == L_i + 1`` means
the last frame is short.  :meth:`FrameFormat.split` returns this bookkeeping
as a :class:`FrameSplit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import transmission_time

__all__ = ["FrameFormat", "FrameSplit"]


@dataclass(frozen=True)
class FrameSplit:
    """How one message divides into frames (notation of Section 4.2).

    Attributes:
        payload_bits: the message payload length ``C_i^b``.
        full_frames: ``L_i``, number of maximum-length frames.
        total_frames: ``K_i``, total number of frames.
        last_frame_info_bits: payload bits carried by the final frame
            (equals ``info_bits`` when ``K_i == L_i`` and the residual
            otherwise; zero only for an empty message).
    """

    payload_bits: float
    full_frames: int
    total_frames: int
    last_frame_info_bits: float

    @property
    def has_short_last_frame(self) -> bool:
        """True when ``K_i == L_i + 1`` (the last frame is not full)."""
        return self.total_frames == self.full_frames + 1


@dataclass(frozen=True)
class FrameFormat:
    """The information/overhead split of a MAC frame.

    Attributes:
        info_bits: maximum payload bits per frame (``F_info^b``).
        overhead_bits: header + trailer bits per frame (``F_ovhd^b``).
    """

    info_bits: float
    overhead_bits: float

    def __post_init__(self) -> None:
        if self.info_bits <= 0:
            raise ConfigurationError(
                f"frame info field must be positive, got {self.info_bits!r}"
            )
        if self.overhead_bits < 0:
            raise ConfigurationError(
                f"frame overhead must be non-negative, got {self.overhead_bits!r}"
            )

    # -- sizes --------------------------------------------------------------

    @property
    def total_bits(self) -> float:
        """``F^b``: total length of a maximum-size frame in bits."""
        return self.info_bits + self.overhead_bits

    @property
    def overhead_fraction(self) -> float:
        """Fraction of a full frame spent on overhead, ``F_ovhd^b / F^b``."""
        return self.overhead_bits / self.total_bits

    # -- times --------------------------------------------------------------

    def frame_time(self, bandwidth_bps: float) -> float:
        """``F``: time to transmit a maximum-size frame, in seconds."""
        return transmission_time(self.total_bits, bandwidth_bps)

    def info_time(self, bandwidth_bps: float) -> float:
        """``F_info``: time to transmit the payload part of a full frame."""
        return transmission_time(self.info_bits, bandwidth_bps)

    def overhead_time(self, bandwidth_bps: float) -> float:
        """``F_ovhd``: time to transmit the overhead part of a frame."""
        return transmission_time(self.overhead_bits, bandwidth_bps)

    def partial_frame_time(self, payload_bits: float, bandwidth_bps: float) -> float:
        """Time to transmit a frame carrying ``payload_bits`` of payload.

        Overhead bits are always transmitted in full, even for a short
        frame.  ``payload_bits`` must not exceed ``info_bits``.
        """
        if payload_bits > self.info_bits:
            raise ConfigurationError(
                f"payload of {payload_bits!r} bits exceeds the frame info "
                f"field of {self.info_bits!r} bits"
            )
        return transmission_time(payload_bits + self.overhead_bits, bandwidth_bps)

    # -- splitting ----------------------------------------------------------

    def split(self, payload_bits: float) -> FrameSplit:
        """Split a message payload into frames (computes ``K_i``, ``L_i``).

        **Zero-payload policy**: a zero-length message occupies *zero*
        frames and zero wire bits.  There is nothing to transmit, both
        analyses charge it nothing (:func:`repro.analysis.pdp
        .pdp_augmented_length` returns 0, the local TTP scheme allocates
        only the per-visit overhead), and the simulators complete it
        instantly — so charging it a frame here would double-count
        overhead nowhere else accounted.  The scalar and vectorized
        paths implement this identically; :mod:`repro.verify` fuzzes the
        bit-level agreement.

        Floating-point payload sizes are accepted because Monte Carlo
        sampling produces continuous lengths; the frame counts are still
        exact integers.
        """
        if payload_bits < 0:
            raise ConfigurationError(
                f"payload must be non-negative, got {payload_bits!r}"
            )
        if payload_bits == 0:
            return FrameSplit(0.0, 0, 0, 0.0)
        ratio = payload_bits / self.info_bits
        full = int(math.floor(ratio))
        # max() guards against subnormal payloads whose ratio underflows to
        # zero: any positive payload needs at least one frame.  The same
        # expression (ceil then clamp) appears in split_counts; keep the
        # two in lockstep.
        total = max(int(math.ceil(ratio)), 1)
        if total == full:
            last = float(self.info_bits)
        else:
            last = float(payload_bits - full * self.info_bits)
        return FrameSplit(float(payload_bits), full, total, last)

    def split_counts(self, payloads_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized frame counts ``(K_i, L_i)`` for a payload array.

        Returns ``(total_frames, full_frames)`` as float arrays of the same
        shape as ``payloads_bits`` (float because they enter arithmetic
        immediately; the values are exact integers).  Agrees elementwise
        and bit for bit with :meth:`split` — the same ``ratio``/floor/
        ceil/clamp sequence — including the zero-payload (zero frames)
        and subnormal-payload (at least one frame) cases.
        """
        arr = np.asarray(payloads_bits, dtype=float)
        if np.any(arr < 0):
            raise ConfigurationError("payloads must be non-negative")
        ratio = arr / self.info_bits
        full = np.floor(ratio)
        total = np.maximum(np.ceil(ratio), 1.0)
        zero = arr == 0
        if np.any(zero):
            full = np.where(zero, 0.0, full)
            total = np.where(zero, 0.0, total)
        return total, full

    def frames_needed(self, payload_bits: float) -> int:
        """``K_i``: total frames needed for ``payload_bits`` of payload."""
        return self.split(payload_bits).total_frames

    def message_wire_bits(self, payload_bits: float) -> float:
        """Total bits on the wire for a message: payload + per-frame overhead."""
        return float(payload_bits) + self.frames_needed(payload_bits) * self.overhead_bits
