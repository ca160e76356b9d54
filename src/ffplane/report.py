"""Structured LHS/RHS verdict records shared by the bound checkers."""

import math
from dataclasses import dataclass, field

# Guard band for verdicts: exact-equality cases (e.g. 0 <= 0) must not flip
# to False on float rounding.
VERDICT_EPS = 1e-9

# A bool's JSON text, indexed by the bool; the report-line layouts write
# flags with it.
JSON_BOOL = ("false", "true")


def safe_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs with 0/0 -> 0 and x/0 -> inf; never raises."""
    if rhs != 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: name, sides, verdict, and its inputs.

    ``inputs`` carries everything needed to reproduce the check (q, t, set
    sizes, seed); ``extra`` holds secondary recorded values such as
    alternate thresholds or hypothesis flags that are logged but not
    asserted.
    """

    name: str
    lhs: float
    rhs: float
    holds: bool
    ratio: float
    inputs: dict
    extra: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "ratio": self.ratio if math.isfinite(self.ratio) else None,
            "slack": self.slack,
            "inputs": dict(self.inputs),
        }
        if self.extra:
            obj["extra"] = dict(self.extra)
        return obj


def make_report(name: str, lhs: float, rhs: float, inputs: dict,
                extra: dict | None = None, holds: bool | None = None) -> BoundReport:
    """Build a report; the verdict is ``holds`` when given (an exact
    comparison), otherwise the standard rule lhs <= rhs + eps."""
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + VERDICT_EPS if holds is None else holds,
        ratio=safe_ratio(lhs, rhs),
        inputs=inputs,
        extra=extra or {},
    )
