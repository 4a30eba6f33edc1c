"""Machine-wide constants.

The paper models an Intel Icelake-like machine (Table 2). Cachelines are
the standard 64 bytes; the simulator is word-addressed with 8-byte words,
so each cacheline holds 8 words.
"""

WORD_BYTES = 8
CACHELINE_BYTES = 64
WORDS_PER_LINE = CACHELINE_BYTES // WORD_BYTES

#: The paper's outlier policy: every application runs 10 seeds "and the
#: trimmed mean is used to remove 3 outliers". Single source of truth
#: for every trim default (runner, aggregate, facade); the literal 3
#: must not be restated at call sites.
PAPER_TRIM = 3

