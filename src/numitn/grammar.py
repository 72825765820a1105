"""Number-word grammar: cardinals, clock phrases and currency phrases.

The parse functions are pure and free of context: each builds the readings
that start at a given token, whatever surrounds them, as ``ParsedExpression``
records. ``scan_tokens`` picks the parsers to run at a position from its
first key and the key after it, and hands the readings to ``classify.choose``.
"""

from __future__ import annotations

import re

from .classify import choose
from .lexicon import (
    AND_KEYS,
    CLOCK_STYLES,
    DE_NUMBER_STARTS,
    DE_THOUSAND,
    DIGIT_VALUES,
    EN_DIGIT_PAIRS,
    EN_GROUPS,
    EN_NUMBER_WORDS,
    EN_PAIR_HUNDREDS,
    HOUR_BEFORE_ONE,
    HOUR_NOUNS,
    MAGNITUDE_WORDS,
    MAX_COUNTED_MINUTE,
    MERIDIEMS,
    MINUTE_NOUNS,
    PAIR_YEARS,
    PERIOD_PHRASES,
    POINT_KEYS,
    SCALE_WORDS,
    de_compound,
    fold_german,
    phrase_keys,
)
from .locales import CURRENCY_WORDS, DEFAULT_CURRENCY_CODE, Locale, MINOR_UNIT_WORDS
from .tokenizer import Tokens
from .types import (
    MAX_MANTISSA,
    MAX_SCALE,
    MINOR_UNIT_LIMIT,
    ExpressionType,
    MoneyAmount,
    NumericValue,
    ParsedExpression,
    PeriodHint,
    Span,
    TimeOfDay,
)

# A digit clock token: an hour, an optional minute and am/pm ("7", "7:30", "7.30pm").
_CLOCK_DIGITS_RE = re.compile(rf"(\d{{1,2}})(?:[.:]([0-5]\d))?({'|'.join(MERIDIEMS['en'])})?$")

# Clock parse keys, derived from the lexicon's spellings.
_HOUR_NOUN = {language: fold_german(noun) for language, noun in HOUR_NOUNS.items()}
_MINUTE_NOUNS = {language: set(map(fold_german, nouns))
                 for language, nouns in MINUTE_NOUNS.items()}
_MERIDIEMS = {language: dict(zip(map(fold_german, words),
                                 (PeriodHint.EXPLICIT_AM, PeriodHint.EXPLICIT_PM)))
              for language, words in MERIDIEMS.items()}


# A spelling table, the length of its longest key per first key, and the
# keys its spellings have second.
_Spellings = tuple[dict[tuple[str, ...], object], dict[str, int], set[str]]


def _by_longest(table: dict[tuple[str, ...], object]) -> _Spellings:
    """``table`` with the length of its longest key per first key and its second keys."""
    # Shortest first, so the longest key of each first key is written last.
    by_length = sorted(table, key=len)
    return (table, {keys[0]: len(keys) for keys in by_length},
            {keys[1] for keys in by_length if len(keys) > 1})


_PERIODS = {language: _by_longest({phrase_keys(phrase): hint for hint, phrases in periods.items()
                                   for phrase in phrases})
            for language, periods in PERIOD_PHRASES.items()}
# The idioms with a fixed minute start a phrase; the counted ones follow a count.
_IDIOMS = {language: _by_longest({phrase_keys(s.words): s for s in styles
                                  if s.words and not s.counted})
           for language, styles in CLOCK_STYLES.items()}
_COUNTED = {language: _by_longest({phrase_keys(s.words): s for s in styles if s.counted})
            for language, styles in CLOCK_STYLES.items()}

_EN_GROUPS = _by_longest(EN_GROUPS)
_EN_PAIR_HUNDREDS = _by_longest(EN_PAIR_HUNDREDS)
_EN_DIGIT_PAIRS = _by_longest(EN_DIGIT_PAIRS)
# English words a parser can start from: a number word or an idiom opener.
_EN_START_WORDS = {*EN_NUMBER_WORDS, *_IDIOMS["en"][1]}
# Every start of a German compound numeral is this long or longer, so a key
# whose head of this length is none of theirs starts no numeral.
_DE_HEAD = min(map(len, DE_NUMBER_STARTS))
_DE_HEADS = {start[:_DE_HEAD] for start in DE_NUMBER_STARTS}

# The scan's follow sets: the keys after a number word that a reading can go
# on from. A clock reading goes on after the first token or after the
# cardinal: the hour noun, am/pm (dots removed), an English minute word
# ("nine thirty", "nine oh five"), a minute noun or a counted idiom word
# ("five [minutes] past seven"). A currency reading goes on after the amount.
_CLOCK_FOLLOWERS = {language: {_HOUR_NOUN[language], *_MERIDIEMS[language],
                               *_MINUTE_NOUNS[language], *_COUNTED[language][1]}
                    for language in CLOCK_STYLES}
_CLOCK_FOLLOWERS["en"].update(_EN_DIGIT_PAIRS[1])
_CURRENCY_FOLLOWERS = {language: {*words, *MINOR_UNIT_WORDS}
                       for language, words in CURRENCY_WORDS.items()}
# The English number words a year pair starts with ("nineteen forty-five").
_PAIR_HEADS = {word for word, n in EN_NUMBER_WORDS.items() if n * 100 in PAIR_YEARS["en"]}


def _key(tokens: Tokens, i: int) -> str:
    # Every table key and digit pattern needs a letter or a digit, so neither
    # a punctuation token nor the empty key past the end matches one.
    keys = tokens.keys
    return keys[i] if i < len(keys) else ""


# --- cardinals ---------------------------------------------------------------


def _spelled(tokens: Tokens, i: int, spellings: _Spellings) -> tuple[object, int] | None:
    """Value and end of the longest spelling that starts at token ``i``."""
    keys = tokens.keys
    if i >= len(keys):
        return None
    table, longest, seconds = spellings
    n = min(longest.get(keys[i], 0), len(keys) - i)
    if n > 1 and keys[i + 1] not in seconds:
        n = 1
    while n:
        value = table.get(tuple(keys[i:i + n]))
        if value is not None:
            return value, i + n
        n -= 1
    return None


def _en_pair_reading(tokens: Tokens, at: int) -> ParsedExpression | None:
    """A year said as two pairs of digits ("nineteen forty-five", "nineteen oh five").

    "nineteen hundred [forty-five]" is a compact cardinal, not a pair split,
    so it is a cardinal reading.
    """
    first = EN_NUMBER_WORDS.get(_key(tokens, at))
    if first is None or first * 100 not in PAIR_YEARS["en"]:
        return None
    hundreds = _spelled(tokens, at, _EN_PAIR_HUNDREDS)
    if hundreds is not None:
        value, end = hundreds
        return ParsedExpression(Span(at, end), ExpressionType.QUANTITY, NumericValue(value))
    second = _spelled(tokens, at + 1, _EN_DIGIT_PAIRS)
    if second is None:
        return None
    return ParsedExpression(Span(at, second[1]), ExpressionType.YEAR,
                            NumericValue(first * 100 + second[0]))


def _group(tokens: Tokens, i: int, language: str) -> tuple[int, int] | None:
    """Value and end of a cardinal group at token ``i``: one German compound
    numeral token ("zweihundert") or the longest English spelling of 0..999."""
    if language == "de":
        value = de_compound(_key(tokens, i))
        return None if value is None else (value, i + 1)
    return _spelled(tokens, i, _EN_GROUPS)


def _integer(tokens: Tokens, at: int, language: str) -> tuple[int, int, int] | None:
    """Value and end of an integer cardinal from the groups ``_group`` reads,
    and the end of its first group.

    Every group but a bare last one is 1..999 and followed by a scale word
    ("thousand", "Millionen"), the scales decreasing. A dangling or
    non-decreasing scale word makes the phrase malformed and the parse absent.
    """
    scales = SCALE_WORDS[language]
    total = last = first_end = 0  # ``last``: the scale of the group before, 0 at the first
    i = at
    while (group := _group(tokens, i, language)) is not None:
        value, i = group
        first_end = first_end or i
        scale = scales.get(_key(tokens, i))
        if scale is None:
            return total + value, i, first_end
        if not 0 < value < 1000 or 0 < last <= scale:
            return None
        total += value * scale
        last = scale
        i += 1
    if i == at or _key(tokens, i) in scales:
        return None
    return total, i, first_end


def _decimal_digits(tokens: Tokens, i: int, language: str) -> tuple[int, int, int] | None:
    """Read up to MAX_SCALE individually spoken digits after the point."""
    value = 0
    count = 0
    while count < MAX_SCALE:
        digit = DIGIT_VALUES[language].get(_key(tokens, i))
        if digit is None:
            break
        value = value * 10 + digit
        count += 1
        i += 1
    if count == 0:
        return None
    return value, count, i


def parse_cardinal(tokens: Tokens, at: int, locale: Locale) -> ParsedExpression | None:
    """The cardinal reading (integer or decimal) starting at token ``at``.

    A German paired year compound is a year reading; the English year pairs
    are ``_en_pair_reading``'s.
    """
    language = locale.language
    integer = _integer(tokens, at, language)
    if integer is None:
        return None
    value, end, first_end = integer
    # "five million": the only group and its scale, a magnitude word.
    if first_end == end - 1:
        scale = MAGNITUDE_WORDS[language].get(_key(tokens, first_end))
        if scale is not None:
            return ParsedExpression(Span(at, end), ExpressionType.QUANTITY,
                                    NumericValue(value // scale),
                                    magnitude_word=tokens.surfaces[first_end])
    if _key(tokens, end) == POINT_KEYS[language]:
        frac = _decimal_digits(tokens, end + 1, language)
        if frac is not None:
            frac_value, ndigits, frac_end = frac
            mantissa = value * 10**ndigits + frac_value
            if mantissa <= MAX_MANTISSA:
                magnitude = None
                if _key(tokens, frac_end) in MAGNITUDE_WORDS[language]:
                    magnitude = tokens.surfaces[frac_end]
                    frac_end += 1
                return ParsedExpression(Span(at, frac_end), ExpressionType.QUANTITY,
                                        NumericValue(mantissa, ndigits), magnitude)
    expr_type = ExpressionType.QUANTITY
    # A hundert compound with a nonzero tail ("neunzehnhundertfünfundvierzig")
    # is a year pair: the plain cardinal for 1100..1999 goes through
    # "tausend", and round hundreds ("elfhundert") are cardinals.
    if language == "de" and value in PAIR_YEARS["de"] and value % 100 \
            and DE_THOUSAND not in tokens.keys[at]:
        expr_type = ExpressionType.YEAR
    return ParsedExpression(Span(at, end), expr_type, NumericValue(value))


# --- clock phrases -----------------------------------------------------------


def _meridiem(tokens: Tokens, i: int, language: str) -> PeriodHint | None:
    """The hint of an am/pm word ("p.m." too) at token ``i``; German has none."""
    return _MERIDIEMS[language].get(_key(tokens, i).replace(".", ""))


def _clock_number(tokens: Tokens, i: int, language: str) -> int | None:
    """An hour or minute said as a number word or one or two digits.

    English number words start at one: "zero" is no hour.
    """
    key = _key(tokens, i)
    value = de_compound(key) if language == "de" else EN_NUMBER_WORDS.get(key) or None
    if value is None and (m := _CLOCK_DIGITS_RE.match(key)) and not (m[2] or m[3]):
        value = int(m[1])
    return value


def _relative_minutes(tokens: Tokens, cardinal: ParsedExpression | None,
                      language: str) -> tuple[int, int] | None:
    """Leading minute count of "M [minutes] past/to H"; returns (end, M)."""
    if cardinal is None or cardinal.magnitude_word:
        return None
    value = cardinal.value
    if not value.is_integer or not 1 <= value.mantissa <= 59:
        return None
    end = cardinal.span.end
    if _key(tokens, end) in _MINUTE_NOUNS[language]:
        return end + 1, value.mantissa
    if value.mantissa <= MAX_COUNTED_MINUTE:
        # Bare counts ("five past seven") are idiomatic up to the half hour.
        return end, value.mantissa
    return None


def _clock_reading(out: list[ParsedExpression], tokens: Tokens, at: int, end: int,
                   hour: int | None, minute: int | None, language: str,
                   hint: PeriodHint | None = None, bare: bool = False) -> None:
    """Add to ``out`` the reading from ``at`` to ``end`` if ``hour``:``minute`` is a 24-hour time.

    Unless ``hint`` is given, an am/pm word after it joins it, else a period phrase sets it.
    """
    if hour is None or minute is None or hour > 23 or minute > 59:
        return
    if hint is None:
        hint = _meridiem(tokens, end, language)
        if hint is not None:
            end += 1
        else:
            period = _spelled(tokens, end, _PERIODS[language])
            hint = PeriodHint.UNSPECIFIED if period is None else period[0]
    out.append(ParsedExpression(Span(at, end), ExpressionType.TIMESTAMP,
                                TimeOfDay(hour, minute, hint), bare=bare))


def _parse_hour_first_en(tokens: Tokens, at: int) -> list[ParsedExpression]:
    """Digit times with am/pm, "H o'clock", "H pm" and the bare "H MM" ("nine thirty")."""
    out: list[ParsedExpression] = []
    key = _key(tokens, at)
    m = _CLOCK_DIGITS_RE.match(key)
    if m and (m[2] or m[3]):
        # "7pm", "7:30pm" or "4:30 pm": the am/pm word is part of the reading.
        if m[3] or _meridiem(tokens, at + 1, "en") is not None:
            _clock_reading(out, tokens, at, at + 1, int(m[1]), int(m[2] or 0), "en",
                           _MERIDIEMS["en"].get(m[3]))
        return out

    hour = int(m[1]) if m else EN_NUMBER_WORDS.get(key) or None
    if hour is None:
        return out
    if _key(tokens, at + 1) == _HOUR_NOUN["en"]:
        _clock_reading(out, tokens, at, at + 2, hour, 0, "en")
    if _meridiem(tokens, at + 1, "en") is not None:
        _clock_reading(out, tokens, at, at + 1, hour, 0, "en")
    # A minute word is 10..59 or "oh" and a digit ("nine oh five").
    minutes = _spelled(tokens, at + 1, _EN_DIGIT_PAIRS)
    if minutes is not None:
        _clock_reading(out, tokens, at, minutes[1], hour, minutes[0], "en", bare=True)
    return out


def _parse_hour_first_de(tokens: Tokens, at: int) -> list[ParsedExpression]:
    """"H Uhr [M]" and "HH.MM Uhr"."""
    out: list[ParsedExpression] = []
    if _key(tokens, at + 1) != _HOUR_NOUN["de"]:
        return out

    hour = _clock_number(tokens, at, "de")
    _clock_reading(out, tokens, at, at + 2, hour, 0, "de")
    _clock_reading(out, tokens, at, at + 3, hour, _clock_number(tokens, at + 2, "de"), "de")

    m = _CLOCK_DIGITS_RE.match(_key(tokens, at))
    if m and m[2] and not m[3]:
        # "15.45 Uhr" or "15:45 Uhr": reformat and drop the Uhr token.
        _clock_reading(out, tokens, at, at + 2, int(m[1]), int(m[2]), "de")
    return out


def _parse_idioms(tokens: Tokens, at: int, cardinal: ParsedExpression | None,
                  language: str) -> list[ParsedExpression]:
    """The styles that say words before the hour, as ``CLOCK_STYLES`` spells them.

    A fixed idiom starts at ``at`` ("quarter past seven", "halb acht"); a
    counted one follows the minute count ``cardinal`` holds ("five
    [minutes] past seven").
    """
    starts = [(at, None, _IDIOMS[language])]
    counted = _relative_minutes(tokens, cardinal, language)
    if counted is not None:
        starts.append((*counted, _COUNTED[language]))
    out: list[ParsedExpression] = []
    for i, count, idioms in starts:
        idiom = _spelled(tokens, i, idioms)
        if idiom is None:
            continue
        style, hour_at = idiom
        hour = _clock_number(tokens, hour_at, language)
        if hour is None or hour > 12 or (style.next_hour and hour == 0):
            continue
        if language == "de" and (hour == 0 or tokens.keys[hour_at][0].isdigit()):
            # German says the hour in words and from one up.
            continue
        minute = style.minute
        if minute is None:
            minute = 60 - count if style.next_hour else count
        if style.next_hour:
            hour = hour - 1 or HOUR_BEFORE_ONE[language]
        _clock_reading(out, tokens, at, hour_at + 1, hour, minute, language)
    return out


def parse_clock_phrase(tokens: Tokens, at: int, locale: Locale,
                       cardinal: ParsedExpression | None
                       ) -> list[ParsedExpression] | None:
    """Every spoken clock-time reading starting at token ``at``, or None.

    ``cardinal`` is ``parse_cardinal(tokens, at, locale)``; the "M past H"
    forms read their minute count from it.
    """
    language = locale.language
    readings = (_parse_hour_first_de if language == "de" else _parse_hour_first_en)(tokens, at)
    readings += _parse_idioms(tokens, at, cardinal, language)
    return readings or None


# --- currency phrases --------------------------------------------------------


def _currency_reading(tokens: Tokens, cardinal: ParsedExpression,
                      locale: Locale) -> ParsedExpression | None:
    """"<amount> <unit> [and <cents> cents]" with ``cardinal`` as the amount."""
    language = locale.language
    at = cardinal.span.start
    value = cardinal.value
    i = cardinal.span.end
    unit = _key(tokens, i)
    if unit in MINOR_UNIT_WORDS:
        # Cents-only amount ("fifty cents" -> $0.50).
        if cardinal.magnitude_word or not value.is_integer or value.mantissa >= MINOR_UNIT_LIMIT:
            return None
        money = MoneyAmount(NumericValue(0), value, DEFAULT_CURRENCY_CODE[language])
        return ParsedExpression(Span(at, i + 1), ExpressionType.CURRENCY, money)

    code = CURRENCY_WORDS[language].get(unit)
    if code is None:
        return None
    if cardinal.magnitude_word is None and value.scale > 2:
        return None
    end = i + 1
    minor: NumericValue | None = None
    if cardinal.magnitude_word is None and value.is_integer \
            and _key(tokens, end) == AND_KEYS[language]:
        tail = parse_cardinal(tokens, end + 1, locale)
        if tail is not None and tail.magnitude_word is None and tail.value.is_integer:
            after = tail.span.end
            if _key(tokens, after) in MINOR_UNIT_WORDS:
                if tail.value.mantissa >= MINOR_UNIT_LIMIT:
                    return None
                minor = tail.value
                end = after + 1
    return ParsedExpression(Span(at, end), ExpressionType.CURRENCY,
                            MoneyAmount(value, minor, code), cardinal.magnitude_word)


def parse_currency_phrase(tokens: Tokens, cardinals: list[ParsedExpression],
                          locale: Locale) -> list[ParsedExpression] | None:
    """Every currency reading whose amount is one of ``cardinals``, or None.

    ``cardinals`` are the cardinal readings of one position.
    """
    readings = [reading for cardinal in cardinals
                if (reading := _currency_reading(tokens, cardinal, locale)) is not None]
    return readings or None


# --- sentence scan -----------------------------------------------------------


def _starts(keys: list[str], language: str) -> list[int]:
    """The indices of the keys any parser can match from.

    Every parser reads its first token through ``_key`` and goes on only
    from a key that starts with a digit (the digit patterns are anchored on
    ``\\d``, a subset of ``str.isdigit``), a clock idiom's first word or a
    number word. The counted clock forms start from a cardinal. A German
    key whose head starts no numeral word is turned away before
    ``de_compound`` is called.
    """
    if language == "de":
        idioms, heads, head = _IDIOMS["de"][1], _DE_HEADS, _DE_HEAD
        return [i for i, key in enumerate(keys)
                if key[0].isdigit() or key in idioms
                or key[:head] in heads and de_compound(key) is not None]
    words = _EN_START_WORDS
    return [i for i, key in enumerate(keys) if key in words or key[0].isdigit()]


def scan_tokens(tokens: Tokens, locale: Locale) -> list[ParsedExpression]:
    """Non-overlapping chosen readings, left to right.

    Only the positions ``_starts`` lists are parsed, and the parsers to run
    are picked from the first key and the key after it. A digit key or an
    idiom opener starts no cardinal, so only the clock parser runs there.
    At a number word the cardinal parser runs first. The clock parser runs
    only where the key after the first token or after the cardinal is in
    its follow set, the year-pair parser only at a pair head, and the
    currency parser only where a currency word follows the cardinal or the
    pair: elsewhere they build nothing. The cardinal readings of a position
    are parsed once and shared: a currency phrase starts with one, and the
    "M past H" clock forms count minutes with one. ``classify.choose``
    picks one of the cardinal, clock and currency readings, in that order.
    """
    out: list[ParsedExpression] = []
    language = locale.language
    keys = tokens.keys
    openers = _IDIOMS[language][1]
    clock_followers = _CLOCK_FOLLOWERS[language]
    currency_followers = _CURRENCY_FOLLOWERS[language]
    pair_heads = _PAIR_HEADS if language == "en" else ()
    end = 0
    for i in _starts(keys, language):
        if i < end:
            continue
        key = keys[i]
        if key[0].isdigit() or key in openers:
            readings = parse_clock_phrase(tokens, i, locale, None) or []
        else:
            cardinal = parse_cardinal(tokens, i, locale)
            after = "" if cardinal is None else _key(tokens, cardinal.span.end)
            readings = []
            if after in clock_followers \
                    or _key(tokens, i + 1).replace(".", "") in clock_followers:
                readings = parse_clock_phrase(tokens, i, locale, cardinal) or []
            if cardinal is not None:
                # A year pair starts with a two-digit word, which is a cardinal too.
                pair = _en_pair_reading(tokens, i) if key in pair_heads else None
                cardinals = [cardinal] if pair is None else [cardinal, pair]
                readings = cardinals + readings
                if after in currency_followers \
                        or pair is not None and _key(tokens, pair.span.end) in currency_followers:
                    readings += parse_currency_phrase(tokens, cardinals, locale) or []
        best = choose(readings, tokens, language)
        if best is not None:
            out.append(best)
            end = best.span.end
    return out
