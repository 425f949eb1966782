"""The README's Highlights examples run as written and show what they claim."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def highlights_block():
    section = README.read_text(encoding="utf-8").split("## Highlights", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_highlights_examples_hold():
    """Run the block, recording each ``expr  # -> shown`` line's value; the
    comment must start with the value's repr."""
    claims = []
    source = []
    for line in highlights_block().splitlines():
        code, arrow, shown = line.partition("# ->")
        if arrow:
            indent = code[: len(code) - len(code.lstrip())]
            line = f"{indent}_claims.append(({code.strip()!r}, {shown.strip()!r}, {code.strip()}))"
        source.append(line)
    exec("\n".join(source), {"_claims": claims})
    assert claims
    for code, shown, value in claims:
        text = repr(value)
        assert shown == text or shown.startswith(text + " "), (code, text, shown)
