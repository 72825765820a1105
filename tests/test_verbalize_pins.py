"""Pins of what ``verbalize_line`` says for seeded lines with several drawn literals.

A year and a clock time each draw from the line's random stream (a year
its style, a time its phrasing), so the order in which a line's literals
are said decides every draw after the first. The grid puts years and times
together, two or three to a line, next to amounts and counts that draw
nothing, and threads one stream per locale and seed through all its lines.
A change to how literals are found or read must keep every output.
"""

import hashlib
import random

from numitn.locales import DEFAULT_CONFIG
from numitn.verbalize import verbalize_line

LOCALES = {"en": DEFAULT_CONFIG.locale("en"), "de": DEFAULT_CONFIG.locale("de")}
SEEDS = (0, 1, 7, 2024)

YEARS = ("999", "1066", "1100", "1905", "1945", "2000", "2005", "2020", "2099", "2100")
TIMES = ("0:00", "0:05", "7:30", "9:45", "12:00", "12:30", "15:10", "19:45", "21:58", "23:59")
TEMPLATES = {
    "en": (
        "In {year} we met at {t1}.",
        "From {t1} to {t2} in {year}, $1,000.50 for 2,000 pieces.",
        "{t2}, {year} and $9.1 million at {t1}",
    ),
    "de": (
        "Im Jahr {year} um {t1} Uhr.",
        "Von {t1} bis {t2} im Jahr {year}, 1.000,50€ für 2.000 Stück.",
        "{t2}, {year} und 9,1 Millionen€ um {t1}",
    ),
}


def _grid():
    for language, locale in LOCALES.items():
        for seed in SEEDS:
            rng = random.Random(seed)
            for template in TEMPLATES[language]:
                for i, year in enumerate(YEARS):
                    for j, t1 in enumerate(TIMES):
                        t2 = TIMES[(i + j) % len(TIMES)]
                        line = template.format(year=year, t1=t1, t2=t2)
                        yield f"{language}\t{seed}\t{line}\t{verbalize_line(line, locale, rng)}"


def test_seeded_line_pin():
    lines = list(_grid())
    assert len(lines) == (len(SEEDS) * len(YEARS) * len(TIMES)
                          * sum(map(len, TEMPLATES.values())))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "15c2793966c72001b200a4fb7731dcdcfb9606bb092467939a05a5560231d1a2"
