"""Structured LHS/RHS verdict records shared by the bound checkers: one
BoundReport per checked inequality, and ReportBatch, the reports of one
check on one instance as columns, with the fixed text of its report lines
(line_parts) and its csv rows (csv_lines)."""

import math
from dataclasses import dataclass, field

# Guard band for verdicts: exact-equality cases (e.g. 0 <= 0) must not flip
# to False on float rounding.
VERDICT_EPS = 1e-9

# A bool's JSON text, indexed by the bool; the report-line layouts write
# flags with it.
JSON_BOOL = ("false", "true")


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


class ReportBatch:
    """One check's reports on one instance, held as columns.

    ``inputs`` and ``extra`` hold what every report of the batch shares (q,
    the set sizes, a sweep's trial and seed; a mean, a hypothesis flag).
    ``row_inputs`` and ``row_extra`` map each key that varies to its column,
    and lhs, rhs, ratio, slack and holds are columns as well, one entry per
    report, as the check computed them.  A None in a ``row_extra`` column
    leaves that key out of its report.  BoundReports are built only when
    asked for.
    """

    __slots__ = ("name", "inputs", "extra", "row_inputs", "row_extra",
                 "lhs", "rhs", "ratio", "slack", "holds")

    def __init__(self, name: str, inputs: dict, extra: dict, row_inputs: dict,
                 row_extra: dict, lhs: list, rhs: list, ratio: list, slack: list,
                 holds: list):
        self.name = name
        self.inputs = inputs
        self.extra = extra
        self.row_inputs = row_inputs
        self.row_extra = row_extra
        self.lhs = lhs
        self.rhs = rhs
        self.ratio = ratio
        self.slack = slack
        self.holds = holds

    def __len__(self) -> int:
        return len(self.holds)

    def report(self, k: int) -> BoundReport:
        """The k-th report of the batch."""
        inputs = dict(self.inputs)
        for key, column in self.row_inputs.items():
            inputs[key] = column[k]
        extra = dict(self.extra)
        for key, column in self.row_extra.items():
            if column[k] is not None:
                extra[key] = column[k]
        return BoundReport(self.name, self.lhs[k], self.rhs[k], self.holds[k],
                           self.ratio[k], inputs, extra)

    def reports(self) -> list:
        return [self.report(k) for k in range(len(self))]


# The columns of a csv report table.
CSV_COLUMNS = ("name", "lhs", "rhs", "holds", "ratio", "slack")


def csv_lines(batch: ReportBatch) -> str:
    """The batch's csv rows, one per report, from its columns: the
    CSV_COLUMNS values of each report's to_json_obj as JSON literals (ints
    and floats by repr, flags by JSON_BOOL, an infinite ratio as null).
    lhs, rhs and slack are finite, as in the report lines."""
    name = batch.name
    return "".join([
        f'{name},{lhs!r},{rhs!r},{JSON_BOOL[h]},'
        f'{repr(r) if math.isfinite(r) else "null"},{s!r}\n'
        for lhs, rhs, h, r, s in zip(batch.lhs, batch.rhs, batch.holds,
                                     batch.ratio, batch.slack)])


def line_parts(batch: ReportBatch, prng: str, pre: str, post: str) -> tuple:
    """The fixed text of a batch's report lines, for its check's layout.

    ``pre`` is the body of inputs up to the first varying input and ``post``
    the rest after the last one.  Returns the text from the end of extra up
    to that first input, indexed by holds; from ``post`` up to lhs; from lhs
    up to ratio; and from ratio up to slack when every report shares rhs.
    """
    return (tuple(f'}}, "holds": {flag}, "inputs": {{{pre}' for flag in JSON_BOOL),
            f'{post}}}, "lhs": ',
            f', "name": "{batch.name}", "prng": {prng}, "ratio": ',
            f', "rhs": {batch.rhs[0]!r}, "slack": ')
