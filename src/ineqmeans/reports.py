"""Shared report type for three-term inequality chains, and the one chain
verdict every module uses (notes/decisions.md, "Chain verdicts")."""

from __future__ import annotations

from dataclasses import dataclass

CHAIN_RTOL = 1e-12


def holds(slack: float, scale: float, tol: float = CHAIN_RTOL) -> bool:
    """True when ``slack`` is nonnegative up to ``tol`` relative to ``scale``."""
    return slack >= -tol * scale


@dataclass(frozen=True)
class ChainReport:
    """Evaluated left/middle/right terms of a chain plus the ordering verdict.

    For a forward chain (left <= middle <= right) the slacks are
    middle - left and right - middle; a reversed chain (left >= middle >=
    right, e.g. the Lorentz-space refinement) orients them as left - middle
    and middle - right.  Either way, ``ordered`` means both slacks are
    >= -tol * scale with scale = max(|left|, |middle|, |right|), tol being
    the relative tolerance the terms were computed to; a CLI chain command
    exits 1 exactly when ``ordered`` is false.
    """

    left: float
    middle: float
    right: float
    slack_left: float
    slack_right: float
    ordered: bool

    @property
    def scale(self) -> float:
        return max(abs(self.left), abs(self.middle), abs(self.right))


def chain_report(left: float, middle: float, right: float,
                 tol: float = CHAIN_RTOL, reverse: bool = False) -> ChainReport:
    slacks = (left - middle, middle - right) if reverse else (middle - left, right - middle)
    scale = max(abs(left), abs(middle), abs(right))
    return ChainReport(left, middle, right, *slacks, all(holds(s, scale, tol) for s in slacks))
