"""The per-character Galileo tokeniser, kept as a test oracle.

:func:`repro.dft.galileo._scan` splits every statement of a text into tokens
in one pass of string operations.  This module keeps the character loop it
replaced, and the statement pass around it, so the scan is always compared
with an independent implementation.
"""

from typing import List, Tuple

from repro.errors import GalileoSyntaxError


def tokenize(line: str, number: int) -> List[str]:
    """Split a statement into tokens, honouring double quotes."""
    tokens = []
    current = ""
    in_quotes = False
    for char in line:
        if char == '"':
            in_quotes = not in_quotes
            continue
        if char.isspace() and not in_quotes:
            if current:
                tokens.append(current)
                current = ""
            continue
        current += char
    if in_quotes:
        raise GalileoSyntaxError("unterminated quoted name", number)
    if current:
        tokens.append(current)
    return tokens


def scan(text: str) -> List[Tuple[int, List[str], bool]]:
    """``(line number, tokens, bare param declaration)`` of every statement."""
    statements = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for statement in line.split(";"):
            statement = statement.strip()
            if statement:
                statements.append((number, statement))
    scanned = []
    for number, statement in statements:
        tokens = tokenize(statement, number)
        declaration = (
            bool(tokens)
            and tokens[0].lower() == "param"
            and not statement.lstrip().startswith('"')
        )
        scanned.append((number, tokens, declaration))
    return scanned
