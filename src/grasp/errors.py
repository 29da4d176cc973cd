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
    """Base class for corpus, rater-sheet, and survey-sheet rejections."""


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


class UnknownTool(GraspError):
    """A tool id was requested that the corpus does not hold."""


# --- report generation ---


class FormatUnsupported(GraspError):
    """The requested report format is not implemented."""
