"""Properties of the tour reader, searched by hypothesis.

parse_tour reads a well-formed section in one call and leaves every other
text to its line loop; the outcome must be the loop's either way: the same
array, or the same exception type and message. The texts are tours of a few
cities, edited with tokens at the edge of what the one-call read admits. The
profile is derandomized and bounded, so the suite stays deterministic and
quick.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tspga.tsplib  # noqa: E402
from tspga import parse_tour  # noqa: E402

PROFILE = settings(max_examples=300, derandomize=True, deadline=None, database=None)

HEADS = [
    "DIMENSION: 5\nTOUR_SECTION\n",
    "NAME: t\nTYPE: TOUR\nTOUR_SECTION\n",
    "TOUR_SECTION\n",
    "TOUR_SECTION\n\nTOUR_SECTION\n",
    "\nTOUR_SECTION\n",
    "DIMENSION: 5\r\nTOUR_SECTION\r\n",
    "COMMENT: see TOUR_SECTION\nDIMENSION: 5\nTOUR_SECTION\n",
    "\n\nDIMENSION: 5\x0c\nTOUR_SECTION\n",
]
SEPARATORS = ["\n", "\n", " ", "\t", " \n", "\r\n"]
TAILS = ["\n", "\nEOF\n", "", "\nEOF", "\n\n", "\nEOF\nEOF\n"]
# Edit tokens: numbers and separators that int(), str.split and
# np.fromstring may read differently, and the file's own keywords.
TOKENS = list("0123456789-+ \t\n\r_#:e") + [
    "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\x00", "٣", "EOF", "-1", " -1",
    "\nEOF", "TOUR_SECTION", "\nTOUR_SECTION\n", "DIMENSION: 5", "DIMENSION: x", "0007",
    "99999999999999999999", "18446744073709551617", "-9223372036854775809",
]


@st.composite
def tour_texts(draw):
    """A tour of 1 to 6 cities with up to three token edits."""
    cities = draw(st.permutations(range(1, draw(st.sampled_from([5, 1, 2, 3, 4, 6])) + 1)))
    pieces = [draw(st.sampled_from(HEADS))]
    for city in cities:
        pieces += [str(city), draw(st.sampled_from(SEPARATORS))]
    pieces += ["-1", draw(st.sampled_from(TAILS))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(pieces) - 1))
        kind = draw(st.sampled_from(["insert", "replace", "delete"]))
        if kind == "delete":
            del pieces[at]
        else:
            pieces[at:at + (kind == "replace")] = [draw(st.sampled_from(TOKENS))]
    return "".join(pieces)


def _outcomes(text):
    out = []
    for d in (None, 5):
        try:
            out.append(parse_tour(text, d).tolist())
        except Exception as e:  # the type and message, not only that it failed
            out.append((type(e), str(e)))
    return out


@PROFILE
@given(text=tour_texts())
def test_the_one_call_read_gives_what_the_line_loop_gives(text):
    outcomes = _outcomes(text)
    with pytest.MonkeyPatch.context() as mp:  # hypothesis refuses function-scoped fixtures
        mp.setattr(tspga.tsplib, "_read_tour_section", lambda section, declared, dimension: None)
        assert outcomes == _outcomes(text)
