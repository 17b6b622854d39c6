"""WikipediaTokenizer — typed tokens from MediaWiki markup.

Re-expresses (NOT ports) ``analysis/common/.../wikipedia/
WikipediaTokenizer.java`` + the JFlex grammar
``WikipediaTokenizerImpl.jflex`` as a hand-written maximal-munch scanner:
each lexer state carries an ordered rule list; at every position the
LONGEST match wins (ties -> earliest rule), mirroring JFlex semantics.
The three output modes (TOKENS_ONLY / UNTOKENIZED_ONLY / BOTH) and the
collapse loop (same-type run joined with single spaces, trimmed, flagged
UNTOKENIZED_TOKEN_FLAG, scanner pushed back one token) follow
``WikipediaTokenizer.java:235-320`` exactly, including the
numWikiTokensSeen run-break condition and the first-token posIncr!=0 fix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# token types (WikipediaTokenizer.java:60-95)
ALPHANUM = "<ALPHANUM>"
APOSTROPHE = "<APOSTROPHE>"
ACRONYM = "<ACRONYM>"
COMPANY = "<COMPANY>"
EMAIL = "<EMAIL>"
HOST = "<HOST>"
NUM = "<NUM>"
CJ = "<CJ>"
INTERNAL_LINK = "il"
EXTERNAL_LINK = "el"
EXTERNAL_LINK_URL = "elu"
CITATION = "ci"
CATEGORY = "c"
BOLD = "b"
ITALICS = "i"
BOLD_ITALICS = "bi"
HEADING = "h"
SUB_HEADING = "sh"

TOKENS_ONLY = 0
UNTOKENIZED_ONLY = 1
BOTH = 2
UNTOKENIZED_TOKEN_FLAG = 1

_L = ("A-Za-zÀ-ÖØ-öø-ÿĀ-῿"
      "ﾠ-ￜ")
_D = ("0-9٠-٩۰-۹०-९০-৯"
      "੦-੯૦-૯୦-୯௧-௯౦-౯"
      "೦-೯൦-൯๐-๙໐-໙၀-၉")
_K = "가-힯ᄀ-ᇿ"
_CJC = ("぀-㆏㄀-ㄯ゠-ヿㇰ-ㇿ"
        "㌀-㍿㐀-䶿一-鿿豈-﫿"
        "･-ﾟ")
_AN = f"[{_L}{_D}{_K}]+"
_ALPHA = f"[{_L}]+"
_WS = r"(?:\r\n|[ \r\n\t\f])"
_HD = f"[{_L}{_D}]*[{_D}][{_L}{_D}]*"
_P = r"[_\-/.,]"

_RX = {
    "ALPHANUM": re.compile(_AN),
    "APOSTROPHE": re.compile(f"{_ALPHA}(?:'{_ALPHA})+"),
    "ACRONYM": re.compile(rf"{_ALPHA}\.(?:{_ALPHA}\.)+"),
    "COMPANY": re.compile(f"{_ALPHA}[&@]{_ALPHA}"),
    "EMAIL": re.compile(
        rf"{_AN}(?:[._-]{_AN})*@{_AN}(?:[.-]{_AN})+"),
    "HOST": re.compile(rf"{_AN}(?:\.{_AN})+"),
    "CJ": re.compile(f"[{_CJC}]"),
    "WS": re.compile(_WS),
    "CAT": re.compile(r"\[\[:?Category:"),
    "INFOBOX": re.compile(r"\{\{[Ii]nfobox_"),
    "TAGS": re.compile(
        rf"</?{_AN}(?:{_WS}*{_AN}=\"{_AN}\")*>"),
    "URL": re.compile(
        rf"https?://{_AN}(?:\.{_AN})+[{_L}{_D}{_K}_\-/.,?&=#]*"),
}
# NUM branches evaluated independently (Python alternation is
# leftmost-first, JFlex is longest-match)
_NUM_BRANCHES = [re.compile(p) for p in (
    f"{_AN}{_P}{_HD}(?:{_P}{_AN}{_P}{_HD})+",
    f"{_HD}{_P}{_AN}(?:{_P}{_HD}{_P}{_AN})+",
    f"{_AN}(?:{_P}{_HD}{_P}{_AN})+",
    f"{_HD}(?:{_P}{_AN}{_P}{_HD})+",
    f"{_AN}{_P}{_HD}",
    f"[{_D}]+{_P}[{_D}]+",
    f"{_HD}{_P}{_AN}",
)]


def _num_len(text: str, pos: int) -> int:
    best = 0
    for rx in _NUM_BRANCHES:
        m = rx.match(text, pos)
        if m and m.end() - pos > best:
            best = m.end() - pos
    return best


# lexer states
_YYINITIAL = 0
_CATEGORY_S = 1
_INTERNAL_LINK_S = 2
_EXTERNAL_LINK_S = 3
_TWO_QUOTES_S = 4
_THREE_QUOTES_S = 5
_FIVE_QUOTES_S = 6
_DOUBLE_EQUALS_S = 7
_DOUBLE_BRACE_S = 8
_STRING_S = 9


@dataclass
class RawToken:
    text: str
    type: str
    start: int
    pos_inc: int
    num_wiki_seen: int


class _Scanner:
    """Resumable maximal-munch scanner."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.state = _YYINITIAL
        self.cur_type = ALPHANUM
        self.num_balanced = 0
        self.position_inc = 1
        self.num_link_toks = 0
        self.num_wiki_seen = 0

    def _lit(self, pos: int, s: str) -> int:
        return len(s) if self.text.startswith(s, pos) else 0

    def next_token(self) -> "RawToken | None":
        text = self.text
        n = len(text)
        while self.pos < n:
            pos = self.pos
            tok = self._step(text, pos)
            if tok is not None:
                return tok
        return None

    # each _step consumes ONE rule match (returning a token or None)

    def _step(self, text: str, pos: int) -> "RawToken | None":
        matchers: list[tuple[int, int]] = []  # (length, rule ordinal)

        def rxlen(key: str) -> int:
            m = _RX[key].match(text, pos)
            return (m.end() - pos) if m else 0

        st = self.state
        if st == _YYINITIAL:
            cands = [
                (rxlen("ALPHANUM"), 1), (rxlen("APOSTROPHE"), 2),
                (rxlen("ACRONYM"), 3), (rxlen("COMPANY"), 4),
                (rxlen("EMAIL"), 5), (_num_len(text, pos), 6),
                (rxlen("HOST"), 7), (rxlen("CJ"), 8),
                (self._lit(pos, "[["), 9), (rxlen("CAT"), 10),
                (self._lit(pos, "["), 11), (self._lit(pos, "''"), 12),
                (self._lit(pos, "=="), 13), (self._lit(pos, "{{"), 14),
                (self._lit(pos, "<ref>"), 15),
                (max(1, rxlen("WS"), rxlen("INFOBOX"), rxlen("TAGS")), 16),
            ]
        elif st == _INTERNAL_LINK_S:
            cands = [(rxlen("ALPHANUM"), 1), (self._lit(pos, "]]"), 2),
                     (max(1, rxlen("WS")), 3)]
        elif st == _CATEGORY_S:
            cands = [(rxlen("ALPHANUM"), 1), (self._lit(pos, "]]"), 2),
                     (max(1, rxlen("WS")), 3)]
        elif st == _EXTERNAL_LINK_S:
            cands = [(rxlen("URL"), 1), (rxlen("ALPHANUM"), 2),
                     (self._lit(pos, "]"), 3), (rxlen("WS"), 4),
                     (1, 5)]  # unmatched char: skip (error-recovery)
        elif st == _TWO_QUOTES_S:
            cands = [(self._lit(pos, "'''"), 1), (self._lit(pos, "'"), 2),
                     (rxlen("ALPHANUM"), 3), (self._lit(pos, "[["), 4),
                     (rxlen("CAT"), 5), (self._lit(pos, "["), 6),
                     (max(1, rxlen("WS")), 7)]
        elif st in (_THREE_QUOTES_S, _FIVE_QUOTES_S):
            cands = [(rxlen("ALPHANUM"), 1), (self._lit(pos, "[["), 2),
                     (rxlen("CAT"), 3), (self._lit(pos, "["), 4),
                     (max(1, rxlen("WS")), 5)]
        elif st == _DOUBLE_EQUALS_S:
            cands = [(self._lit(pos, "=="), 1), (self._lit(pos, "="), 2),
                     (rxlen("ALPHANUM"), 3), (max(1, rxlen("WS")), 4)]
        elif st == _DOUBLE_BRACE_S:
            cands = [(rxlen("ALPHANUM"), 1), (self._lit(pos, "}}"), 2),
                     (self._lit(pos, "</ref>"), 3),
                     (max(1, rxlen("WS")), 4)]
        else:  # _STRING_S
            cands = [(self._lit(pos, "'''''"), 1),
                     (self._lit(pos, "'''"), 2), (self._lit(pos, "''"), 3),
                     (self._lit(pos, "==="), 4), (rxlen("ALPHANUM"), 5),
                     (self._lit(pos, "[["), 6), (rxlen("CAT"), 7),
                     (self._lit(pos, "["), 8), (self._lit(pos, "|"), 9),
                     (max(1, rxlen("WS")), 10)]
        # JFlex maximal munch: longest match; ties -> earliest rule
        length, rule = max(((ln, -r) for ln, r in cands if ln > 0),
                           key=lambda t: (t[0], t[1]))
        rule = -rule
        self.pos = pos + length
        return self._action(st, rule, text[pos:pos + length], pos)

    def _emit(self, typ: str, text: str, start: int) -> RawToken:
        return RawToken(text, typ, start, self.position_inc,
                        self.num_wiki_seen)

    def _action(self, st: int, rule: int, m: str,
                pos: int) -> "RawToken | None":
        if st == _YYINITIAL:
            if rule <= 8:
                self.position_inc = 1
                typ = [None, ALPHANUM, APOSTROPHE, ACRONYM, COMPANY,
                       EMAIL, NUM, HOST, CJ][rule]
                return self._emit(typ, m, pos)
            self.num_wiki_seen = 0
            self.position_inc = 1
            if rule == 9:
                self.cur_type = INTERNAL_LINK
                self.state = _INTERNAL_LINK_S
            elif rule == 10:
                self.cur_type = CATEGORY
                self.state = _CATEGORY_S
            elif rule == 11:
                self.cur_type = EXTERNAL_LINK_URL
                self.state = _EXTERNAL_LINK_S
            elif rule == 12:
                if self.num_balanced == 0:
                    self.num_balanced += 1
                    self.state = _TWO_QUOTES_S
                else:
                    self.num_balanced = 0
            elif rule == 13:
                self.state = _DOUBLE_EQUALS_S
            elif rule in (14, 15):
                self.cur_type = CITATION
                self.state = _DOUBLE_BRACE_S
            # rule 16: ignore
            return None
        if st in (_INTERNAL_LINK_S, _CATEGORY_S):
            if rule == 1:
                self.num_wiki_seen += 1
                return self._emit(self.cur_type, m, pos)
            if rule == 2:
                if st == _INTERNAL_LINK_S:
                    self.num_link_toks = 0
                self.state = _YYINITIAL
            else:
                self.position_inc = 1
            return None
        if st == _EXTERNAL_LINK_S:
            if rule == 1:
                self.position_inc = 1
                self.num_wiki_seen += 1
                return self._emit(self.cur_type, m, pos)
            if rule == 2:
                self.position_inc = 0 if self.num_link_toks == 0 else 1
                self.num_wiki_seen += 1
                self.cur_type = EXTERNAL_LINK
                self.num_link_toks += 1
                return self._emit(self.cur_type, m, pos)
            if rule == 3:
                self.num_link_toks = 0
                self.position_inc = 0
                self.state = _YYINITIAL
            elif rule == 4:
                self.position_inc = 1
            return None
        if st == _TWO_QUOTES_S:
            if rule == 1:
                self.cur_type = BOLD_ITALICS
                self.state = _FIVE_QUOTES_S
            elif rule == 2:
                self.cur_type = BOLD
                self.state = _THREE_QUOTES_S
            elif rule == 3:
                self.cur_type = ITALICS
                self.num_wiki_seen += 1
                self.state = _STRING_S
                return self._emit(self.cur_type, m, pos)
            elif rule in (4, 5, 6):
                self._quote_link_transition(rule - 3)
            return None
        if st in (_THREE_QUOTES_S, _FIVE_QUOTES_S):
            if rule == 1:
                self.num_wiki_seen += 1
                self.state = _STRING_S
                return self._emit(self.cur_type, m, pos)
            if rule in (2, 3, 4):
                self._quote_link_transition(rule - 1)
            return None
        if st == _DOUBLE_EQUALS_S:
            if rule == 1:
                self.state = _YYINITIAL
            elif rule == 2:
                self.cur_type = SUB_HEADING
                self.num_wiki_seen = 0
                self.state = _STRING_S
            elif rule == 3:
                self.cur_type = HEADING
                self.num_wiki_seen += 1
                return self._emit(self.cur_type, m, pos)
            return None
        if st == _DOUBLE_BRACE_S:
            if rule == 1:
                self.num_wiki_seen = 0
                return self._emit(self.cur_type, m, pos)
            if rule in (2, 3):
                self.state = _YYINITIAL
            return None
        # _STRING_S
        if rule in (1, 2, 3, 4):
            self.num_balanced = 0
            self.cur_type = ALPHANUM
            self.state = _YYINITIAL
            return None
        if rule == 5:
            self.num_wiki_seen += 1
            return self._emit(self.cur_type, m, pos)
        if rule in (6, 7, 8):
            self.num_balanced = 0
            self._quote_link_transition(rule - 5)
            return None
        if rule == 9:
            return self._emit(self.cur_type, m, pos)
        return None

    def _quote_link_transition(self, which: int) -> None:
        """Shared [[ / [[Category: / [ transitions of the quote/STRING
        states (numWikiTokensSeen reset; '[' sets EXTERNAL_LINK, not the
        URL type — the generated case-13 action)."""
        self.num_wiki_seen = 0
        if which == 1:
            self.cur_type = INTERNAL_LINK
            self.state = _INTERNAL_LINK_S
        elif which == 2:
            self.cur_type = CATEGORY
            self.state = _CATEGORY_S
        else:
            self.cur_type = EXTERNAL_LINK
            self.state = _EXTERNAL_LINK_S


@dataclass
class WikiToken:
    term: str
    type: str
    start: int
    end: int
    pos_inc: int
    flags: int = 0


def wikipedia_tokenize(
    text: str, mode: int = TOKENS_ONLY,
    untokenized_types: frozenset = frozenset(),
) -> list[WikiToken]:
    """The WikipediaTokenizer.incrementToken loop over one document."""
    sc = _Scanner(text)
    out: list[WikiToken] = []
    first = True

    def push(tok: WikiToken) -> None:
        nonlocal first
        if first and tok.pos_inc == 0:
            tok.pos_inc = 1
        first = False
        out.append(tok)

    pending: "RawToken | None" = None
    while True:
        raw = pending if pending is not None else sc.next_token()
        pending = None
        if raw is None:
            break
        if mode == TOKENS_ONLY or raw.type not in untokenized_types:
            push(WikiToken(raw.text, raw.type, raw.start,
                           raw.start + len(raw.text), raw.pos_inc))
            continue
        # collapse a same-type run (WikipediaTokenizer.collapseTokens)
        buffer = raw.text
        the_start = raw.start
        last_pos = raw.start + len(raw.text)
        num_seen = 0
        saved = [WikiToken(raw.text, raw.type, raw.start,
                           raw.start + len(raw.text), 0)]
        while True:
            nxt = sc.next_token()
            if nxt is None or nxt.type != raw.type or \
                    sc.num_wiki_seen <= num_seen:
                pending = nxt
                break
            buffer += " " * (nxt.start - last_pos) + nxt.text
            saved.append(WikiToken(nxt.text, nxt.type, nxt.start,
                                   nxt.start + len(nxt.text), nxt.pos_inc))
            num_seen += 1
            last_pos = nxt.start + len(nxt.text)
        s = buffer.strip()
        # the reference reads getPositionIncrement() AFTER the collapse
        # loop, i.e. the value set by the last-scanned (breaking) rule
        collapsed = WikiToken(s, raw.type, the_start,
                              the_start + len(s), sc.position_inc,
                              flags=UNTOKENIZED_TOKEN_FLAG)
        push(collapsed)
        if mode == BOTH:
            for t in saved:
                push(t)
    return out
