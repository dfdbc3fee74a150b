#!/bin/sh
# Non-test first-party lines: every tracked `crates/*/src/**/*.rs` except the
# frozen benchmark (`bin/perf/`) and `*_tests.rs`, each file counted up to its
# first `#[cfg(test)]`. Prints one line per crate, the total — the figure
# ROADMAP item 5 and the simplicity issues cite — and the five largest files.
# Usage: scripts/nontest-loc.sh [file ...]   (files: print per-file counts instead)
set -eu
cd "$(git rev-parse --show-toplevel)"

count() { awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | wc -l; }

if [ "$#" -gt 0 ]; then
    for file in "$@"; do printf '%6d  %s\n' "$(count "$file")" "$file"; done
    exit
fi

counts=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | sort -u |
    grep -v 'bin/perf/\|_tests.rs' |
    while read -r file; do echo "$(count "$file") ${file#crates/}"; done)

echo "$counts" |
    awk '{ sub("/.*", "", $2); crate[$2] += $1; total += $1 }
         END { for (c in crate) printf "%6d  %s\n", crate[c], c | "sort -k2"
               close("sort -k2"); printf "%6d  total\n", total }'
echo "largest files:"
echo "$counts" | sort -rn | head -5 | awk '{ printf "%6d  crates/%s\n", $1, $2 }'
