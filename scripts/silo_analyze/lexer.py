"""A small C++ tokenizer for silo-analyze.

The lint pass's per-line regexes are fine for banning identifiers, but the
other passes need to know what is *code*: a metric name in a comment is
documentation, a `//` inside a string literal is not a comment, and
`switch` exhaustiveness needs real brace matching. This lexer produces a
flat token stream that is exact for the constructs the passes care about:

  - line comments, block comments (including multi-line)
  - string literals with escapes, raw strings (R"delim(...)delim"),
    char literals
  - preprocessor directives (one token per directive, continuations folded)
  - identifiers, numbers, and single-character punctuation

It deliberately does not build an AST; the passes walk the token stream
with small, testable helpers (enclosing-function extraction, template
argument scanning, scope classification).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Token kinds
ID = "id"          # identifiers and keywords
NUM = "num"        # numeric literal
STR = "str"        # string literal (value excludes quotes/prefix)
CHAR = "char"      # character literal
PUNCT = "punct"    # one punctuation character
PP = "pp"          # whole preprocessor directive (continuations folded)
COMMENT = "comment"  # // or /* */ comment (value excludes delimiters)


@dataclass
class Token:
    kind: str
    value: str
    line: int  # 1-based line of the token's first character


_ID_START = re.compile(r"[A-Za-z_]")
_ID_CHAR = re.compile(r"[A-Za-z0-9_]")
_RAW_PREFIX = re.compile(r'(?:u8|[uUL])?R$')
_STR_PREFIX = re.compile(r'(?:u8|[uUL])$')


def lex(text: str, *, keep_comments: bool = False) -> list[Token]:
    """Tokenize C++ source. Comments are dropped unless keep_comments."""
    toks: list[Token] = []
    i = 0
    n = len(text)
    line = 1
    at_line_start = True  # only whitespace seen since the last newline

    def advance_lines(s: str) -> None:
        nonlocal line
        line += s.count("\n")

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        start_line = line
        # Preprocessor directive: '#' first on its line; fold \-continuations.
        if c == "#" and at_line_start:
            j = i
            while j < n:
                k = text.find("\n", j)
                if k == -1:
                    j = n
                    break
                if text[k - 1] == "\\" if k > 0 else False:
                    j = k + 1
                    continue
                j = k
                break
            directive = text[i:j]
            toks.append(Token(PP, directive, start_line))
            advance_lines(directive)
            i = j
            continue
        at_line_start = False
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                if j == -1:
                    j = n
                if keep_comments:
                    toks.append(Token(COMMENT, text[i + 2:j], start_line))
                i = j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
                body = text[i:j]
                if keep_comments:
                    toks.append(Token(COMMENT, body[2:-2], start_line))
                advance_lines(body)
                i = j
                continue
        # Identifier (possibly a string-literal prefix).
        if _ID_START.match(c):
            j = i + 1
            while j < n and _ID_CHAR.match(text[j]):
                j += 1
            word = text[i:j]
            if j < n and text[j] == '"' and _RAW_PREFIX.search(word):
                i = _lex_raw_string(text, i, j, toks, start_line)
                advance_lines(text[j:i])
                continue
            if j < n and text[j] in "\"'" and _STR_PREFIX.search(word):
                i = _lex_quoted(text, j, toks, start_line)
                continue
            toks.append(Token(ID, word, start_line))
            i = j
            continue
        # Number (digit, or .digit).
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (_ID_CHAR.match(text[j]) or text[j] == "." or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Token(NUM, text[i:j], start_line))
            i = j
            continue
        # String / char literal.
        if c in "\"'":
            i = _lex_quoted(text, i, toks, start_line)
            continue
        toks.append(Token(PUNCT, c, start_line))
        i += 1
    return toks


def _lex_quoted(text: str, i: int, toks: list[Token], start_line: int) -> int:
    """Lex a quoted literal starting at the quote char; returns end index."""
    quote = text[i]
    j = i + 1
    n = len(text)
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            continue
        if c == quote or c == "\n":  # unterminated: stop at newline
            j += 1
            break
        j += 1
    else:
        j = n
    value = text[i + 1:j - 1] if j > i + 1 else ""
    toks.append(Token(STR if quote == '"' else CHAR, value, start_line))
    return j


def _lex_raw_string(text: str, start: int, quote: int,
                    toks: list[Token], start_line: int) -> int:
    """Lex R"delim(...)delim" with the prefix starting at `start`."""
    n = len(text)
    j = quote + 1
    while j < n and text[j] != "(":
        j += 1
    delim = text[quote + 1:j]
    terminator = ")" + delim + '"'
    k = text.find(terminator, j + 1)
    if k == -1:
        toks.append(Token(STR, text[j + 1:], start_line))
        return n
    toks.append(Token(STR, text[j + 1:k], start_line))
    return k + len(terminator)


def split_line_comment(line: str) -> tuple[str, str]:
    """Split one source line into (code, comment) at the first `//` that is
    outside a string/char literal. The comment includes the `//`.

    This is the string-aware replacement for `line.split("//", 1)`:
    `log("https://x"); srand(1);` keeps the srand() call in the code part.
    Block comments are out of scope (the lint pass is line-based and the
    repo style uses `//`); a `/*` on the line is left in the code part.
    """
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            return line[:i], line[i:]
        i += 1
    return line, ""


def string_literals(text: str) -> list[Token]:
    """Every string-literal token in `text` (comments excluded)."""
    return [t for t in lex(text) if t.kind == STR]
