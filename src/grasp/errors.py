"""Exception hierarchy shared by every grasp module.

Every failure the package signals deliberately derives from
:class:`GraspError`, so callers (notably the CLI) can distinguish
data/validation problems from genuine bugs.
"""

from __future__ import annotations


class GraspError(Exception):
    """Base class for all errors raised deliberately by this package."""


# --- appraisal engine ---


class UnresolvableMatching(GraspError):
    """A study carries neither a matching override nor any matching flags."""


class UnresolvableQuality(GraspError):
    """Quality cannot be resolved under the active policy."""


class EmptyBucket(GraspError):
    """An evidence bucket was built from zero studies."""


class AdjudicationRequired(GraspError):
    """Mixed evidence tied at every cascade step under the failing policy."""


class NoGradableEvidence(GraspError):
    """A tool has no study that can enter a grading bucket."""


class InvalidReferenceYear(GraspError):
    """Reference year precedes the tool's publication year."""


# --- statistics ---


class DegenerateInput(GraspError):
    """Rank correlation is undefined (constant or too-short vector)."""


class TooLarge(GraspError):
    """The exact permutation test is bounded at n = 10."""


class LengthMismatch(GraspError):
    """Paired vectors differ in length."""


class EmptyResponses(GraspError):
    """A survey question has no responses."""


class OutOfRange(GraspError):
    """A value lies outside its documented range (e.g. Likert 1..5)."""


# --- corpus I/O ---


class CorpusError(GraspError):
    """Base class for corpus, rater-sheet, and survey-sheet rejections.

    ``path`` names the faulty place: a field path such as ``$.tools[7].year``,
    a sheet such as ``rater sheet: line 4``, or "" for a fault of the whole
    input. ``detail`` says what is wrong there.
    """

    def __init__(self, path: str, detail: str):
        super().__init__(path, detail)
        self.path, self.detail = path, detail

    def __str__(self) -> str:
        return f"{self.path}: {self.detail}" if self.path else self.detail


class CorpusSyntaxError(CorpusError):
    """Input is not a well-formed document (bad UTF-8, bad JSON, bad CSV)."""


class SchemaError(CorpusError):
    """A field is missing, of the wrong type, unknown, or duplicated."""


class DanglingReferenceError(CorpusError):
    """A study references a tool id that does not exist."""


class ConsistencyError(CorpusError):
    """Fields are individually valid but mutually contradictory."""


class UnknownGrade(CorpusError):
    """A rater sheet contains a token outside the grade scale."""


class DuplicateTool(CorpusError):
    """A rater sheet lists the same tool twice."""


class ResponseOutOfRange(CorpusError, OutOfRange):
    """A survey sheet holds a response outside the Likert range 1..5."""


class UnknownTool(GraspError):
    """A tool id was requested that the corpus does not hold."""


# --- report generation ---


class FormatUnsupported(GraspError):
    """The requested report format is not implemented."""
