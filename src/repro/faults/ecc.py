"""SECDED error model for DRAM data beats.

HBM2 stacks carry SECDED ECC side-band bits: a single flipped bit per
32 B beat is corrected transparently, a double flip is detected but
uncorrectable (the AXI read returns poisoned data / SLVERR).  The model
here decides, for every data beat a pseudo-channel transfers while a
``DATA_CORRUPT`` fault window is active, whether the beat is clean,
corrected, or uncorrectable.

Determinism is the whole design: the decision is a pure function of
``(seed, pch, beat_index)`` through a splitmix64-style integer hash, so

* repeated runs with the same :class:`~repro.faults.FaultPlan` flip the
  same beats,
* the engine's vector tier and the legacy per-cycle loop — which service
  exactly the same beats in the same order, just with different amounts
  of idle scanning in between — observe bit-identical fault behaviour,
* no ``random`` / ``numpy`` stream state needs to be threaded through
  the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

_M64 = (1 << 64) - 1

#: Outcome codes of :meth:`SecdedModel.classify_beat`.
BEAT_CLEAN = 0
BEAT_CORRECTED = 1
BEAT_UNCORRECTABLE = 2


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass
class SecdedModel:
    """Counter-hash SECDED classifier.

    Parameters
    ----------
    seed:
        Folded into every hash; comes from the fault plan.
    dbit_fraction:
        Fraction of corrupted beats that flip two bits (uncorrectable)
        instead of one (corrected).
    """

    seed: int = 0
    dbit_fraction: float = 0.1

    def classify_beat(self, pch: int, beat_index: int, rate: float) -> int:
        """Classify one transferred beat under corruption rate ``rate``.

        ``beat_index`` must be unique and monotone per channel (the
        channel's cumulative transferred-beat counter serves); the result
        is one of :data:`BEAT_CLEAN`, :data:`BEAT_CORRECTED`,
        :data:`BEAT_UNCORRECTABLE`.
        """
        h = _splitmix64((self.seed << 32) ^ (pch << 24) ^ beat_index)
        if (h & 0xFFFFFFFF) / 4294967296.0 >= rate:
            return BEAT_CLEAN
        if ((h >> 32) & 0xFFFFFFFF) / 4294967296.0 < self.dbit_fraction:
            return BEAT_UNCORRECTABLE
        return BEAT_CORRECTED

    def classify_burst(self, pch: int, first_beat: int, burst_len: int,
                       rate: float) -> tuple[int, int]:
        """Classify a burst of beats; returns ``(corrected, uncorrectable)``
        counts."""
        corrected = uncorrectable = 0
        for b in range(burst_len):
            outcome = self.classify_beat(pch, first_beat + b, rate)
            if outcome == BEAT_CORRECTED:
                corrected += 1
            elif outcome == BEAT_UNCORRECTABLE:
                uncorrectable += 1
        return corrected, uncorrectable
