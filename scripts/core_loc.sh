#!/bin/sh
# Prints the number of non-test lines in crates/core/src: each file is
# counted up to the `#[cfg(test)]` line that opens its `mod` (the whole
# file when it has none). One line per file ("<count> <path>") comes
# first; the last line is the total, the line count ROADMAP item 2
# tracks.
set -eu
cd "$(dirname "$0")/.."
find crates/core/src -name '*.rs' | sort | xargs awk '
    FNR == 1 {
        if (NR > 1) { total += count; print count, file }
        count = 0; done = 0; prev = ""; file = FILENAME
    }
    !done && prev ~ /^#\[cfg\(test\)\]$/ && /^mod / { count = FNR - 2; done = 1 }
    !done { count = FNR }
    { prev = $0 }
    END { print count, file; print total + count }
'
