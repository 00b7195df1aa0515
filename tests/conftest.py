import sys
from pathlib import Path

import pytest
from hypothesis import settings

from tysem.lexicon import load_lexicon

REPO = Path(__file__).resolve().parent.parent
LEXICA = REPO / "lexica"

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw the same examples on every run and keep no database.
settings.register_profile("tysem", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("tysem")


@pytest.fixture(scope="session")
def fig1():
    return load_lexicon((LEXICA / "fig1.lex").read_text())


@pytest.fixture(scope="session")
def fig2():
    return load_lexicon((LEXICA / "fig2.lex").read_text())


@pytest.fixture(scope="session")
def chat_lex():
    return load_lexicon((LEXICA / "chat.lex").read_text())


@pytest.fixture(scope="session")
def homme_lex():
    return load_lexicon((LEXICA / "homme.lex").read_text())
