from __future__ import annotations

from pathlib import Path

import pytest

from grasp.corpus import parse_corpus, parse_rater_sheet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: Authors' grades of the eight reference tools.
AUTHOR_GRADES = {
    "centor": "B3",
    "chalice": "B2",
    "dietrich": "C0",
    "lace": "C1",
    "manuck": "C2",
    "ottawa-knee": "A1",
    "pecarn": "A2",
    "taylor": "C3",
}


@pytest.fixture(scope="session")
def corpus8():
    return parse_corpus((FIXTURES / "grasp8.json").read_bytes())


@pytest.fixture(scope="session")
def corpus8_bytes():
    return (FIXTURES / "grasp8.json").read_bytes()


@pytest.fixture(scope="session")
def rater_sheets():
    return {
        name: parse_rater_sheet((FIXTURES / "raters" / f"{name}.csv").read_bytes())
        for name in ("r1", "r2", "authors")
    }
