"""Hypothesis strategies shared by the parser tests."""

from hypothesis import strategies as st

#: Short text of digits, signs, a letter, field separators, line breaks
#: (also the ones only str.splitlines knows) and a non-ASCII digit.
NOISE = st.text(st.sampled_from("0123 -+_x\n\t\r\x0b\u2028\u0661"), max_size=30)


@st.composite
def mutated_lines(draw, text, row):
    """The lines of text with one to four edits, none to the header: a
    line replaced by a draw of row or of NOISE, a row or noise inserted,
    a line duplicated or deleted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, len(lines)))
        kind = draw(st.sampled_from(["row", "noise", "insert", "duplicate", "delete"]))
        if kind == "insert":
            lines.insert(i, draw(st.one_of(row, NOISE)))
        elif i == len(lines):
            continue
        elif kind == "row":
            lines[i] = draw(row)
        elif kind == "noise":
            lines[i] = draw(NOISE)
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines).splitlines()
