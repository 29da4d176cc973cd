"""Ordinal statistics: tie-corrected rank correlation, exact permutation
p-values, interrater comparison, and Likert survey aggregation.

The rank correlation assigns mid-ranks to ties and correlates the rank
vectors, which is the tie-correct form (the difference-of-ranks shortcut is
wrong in the presence of ties). Significance is exact: a dynamic program
counts the arrangements, out of all n!, whose correlation is at least as
extreme as the observed one, without listing them; it is bounded at n = 10.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DegenerateInput,
    EmptyResponses,
    LengthMismatch,
    OutOfRange,
    TooLarge,
)
from .model import GradeLevel, RaterComparison, ordinal_rank

#: Exact permutation test bound (10! = 3,628,800 arrangements).
MAX_EXACT_N = 10


def _doubled_midranks(values: Sequence[float]) -> list[int]:
    """Twice each mid-rank minus n + 1: tied values share the mean of their positions."""
    ordered = sorted(values)
    return [bisect_left(ordered, v) + bisect_right(ordered, v) - len(values) for v in values]


def _centred_ranks(x: Sequence[float], y: Sequence[float]) -> tuple[list[int], list[int]]:
    """Doubled, centred mid-ranks of a valid pair, so every rank is an integer."""
    if len(x) != len(y):
        raise LengthMismatch(f"paired vectors differ in length: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DegenerateInput("rank correlation needs at least two observations")
    dx, dy = _doubled_midranks(x), _doubled_midranks(y)
    if not any(dx) or not any(dy):
        raise DegenerateInput("rank correlation is undefined for a constant vector")
    return dx, dy


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(u * v for u, v in zip(a, b))


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Spearman rank correlation of two ordinal vectors."""
    dx, dy = _centred_ranks(x, y)
    return _dot(dx, dy) / math.sqrt(_dot(dx, dx) * _dot(dy, dy))


def permutation_p(x: Sequence[float], y: Sequence[float]) -> float:
    """Exact two-sided permutation p-value for the observed correlation.

    Counts the arrangements pi of y with |rho(x, pi(y))| at least the
    observed |rho| over all n! arrangements; arrangements that coincide
    because of ties still count separately. The count runs position by
    position: a state is the multiset of y-ranks not yet placed and the
    partial sum of rank products, and placing one of c equal ranks counts
    c ways.
    """
    dx, dy = _centred_ranks(x, y)
    n = len(dx)
    if n > MAX_EXACT_N:
        raise TooLarge(f"exact permutation test is bounded at n={MAX_EXACT_N}, got {n}")
    observed = abs(_dot(dx, dy))

    counts = Counter(dy)
    ranks = sorted(counts)
    # unplaced y-rank counts -> {partial sum of rank products: arrangements}
    layer = {tuple(counts[r] for r in ranks): Counter({0: 1})}
    for a in dx:
        following: defaultdict[tuple[int, ...], Counter] = defaultdict(Counter)
        for unplaced, sums in layer.items():
            for k, c in enumerate(unplaced):
                if c:
                    after = following[unplaced[:k] + (c - 1,) + unplaced[k + 1 :]]
                    for total, ways in sums.items():
                        after[total + a * ranks[k]] += ways * c
        layer = following
    (sums,) = layer.values()
    hits = sum(ways for total, ways in sums.items() if abs(total) >= observed)
    return hits / math.factorial(n)


def compare_raters(
    grades_a: Sequence[GradeLevel], grades_b: Sequence[GradeLevel]
) -> RaterComparison:
    """Compare two raters' paired grades of the same tools on the ordinal scale.

    Grades map through their ordinal rank; the comparison carries the
    tie-corrected correlation, the exact permutation p-value, and the count
    of tools graded identically.
    """
    ranks_a = [ordinal_rank(g) for g in grades_a]
    ranks_b = [ordinal_rank(g) for g in grades_b]
    rho = spearman_rho(ranks_a, ranks_b)
    return RaterComparison(
        rho=rho,
        p_value=permutation_p(ranks_a, ranks_b),
        exact_agreement=sum(a is b for a, b in zip(grades_a, grades_b)),
    )


class AgreementLabel(Enum):
    """Meaning of a five-point Likert mean, split into equal-width bins."""

    STRONGLY_DISAGREE = "strongly_disagree"
    SOMEWHAT_DISAGREE = "somewhat_disagree"
    NEITHER = "neither"
    SOMEWHAT_AGREE = "somewhat_agree"
    STRONGLY_AGREE = "strongly_agree"

    @property
    def display(self) -> str:
        return _LABELS[self][0]


#: One row per label, in bin order: (display, upper bin edge). Each bin is
#: half-open below except the first; the edges are literals, as computed
#: edges such as 1 + 0.8 * 3 are not exact in floating point.
_LABELS = {
    AgreementLabel.STRONGLY_DISAGREE: ("Strongly Disagree", 1.8),
    AgreementLabel.SOMEWHAT_DISAGREE: ("Somewhat Disagree", 2.6),
    AgreementLabel.NEITHER: ("Neither Agree nor Disagree", 3.4),
    AgreementLabel.SOMEWHAT_AGREE: ("Somewhat Agree", 4.2),
    AgreementLabel.STRONGLY_AGREE: ("Strongly Agree", 5.0),
}


def likert_mean(responses: Sequence[int]) -> float:
    """Arithmetic mean of five-point Likert responses."""
    if not responses:
        raise EmptyResponses("no responses to average")
    for value in responses:
        if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= 5:
            raise OutOfRange(f"Likert response must be an integer 1..5, got {value!r}")
    return sum(responses) / len(responses)


def agreement_label(mean_score: float) -> AgreementLabel:
    """Label for a Likert mean: 1.0-1.8 strongly disagree up to 4.2-5.0 strongly agree."""
    if not 1.0 <= mean_score <= 5.0:
        raise OutOfRange(f"Likert mean must lie in [1, 5], got {mean_score!r}")
    for label, (_, upper) in _LABELS.items():
        if mean_score <= upper:
            return label


class LikertSummary(NamedTuple):
    """Aggregated responses to one survey question."""

    question_id: str
    mean_score: float
    n: int
    label: AgreementLabel


def summarize_survey(
    responses_by_question: Mapping[str, Sequence[int]],
) -> list[LikertSummary]:
    """Per-question Likert summaries, in the mapping's question order."""
    return [
        LikertSummary(
            question_id=qid,
            mean_score=(mean := likert_mean(responses)),
            n=len(responses),
            label=agreement_label(mean),
        )
        for qid, responses in responses_by_question.items()
    ]


def overall_summary(responses_by_question: Mapping[str, Sequence[int]]) -> LikertSummary:
    """Summary of all responses pooled across questions."""
    pooled = [r for responses in responses_by_question.values() for r in responses]
    mean = likert_mean(pooled)
    return LikertSummary(
        question_id="overall", mean_score=mean, n=len(pooled), label=agreement_label(mean)
    )
