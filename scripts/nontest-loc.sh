#!/bin/sh
# Non-test first-party lines: every tracked `crates/*/src/**/*.rs` except the
# frozen benchmark (`bin/perf/`) and `*_tests.rs`, each file counted up to its
# first `#[cfg(test)]`. Prints one line per crate, the total — the figure
# ROADMAP item 5 and the simplicity issues cite — the panic sites in the same
# lines (`.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`) per crate, and
# the five largest files.
# Usage: scripts/nontest-loc.sh [file ...]   (files: print per-file counts instead)
set -eu
cd "$(git rev-parse --show-toplevel)"

# "<lines> <panic sites>" of a file's non-test part.
measure() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         { lines++; sites += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
         END { print lines + 0, sites + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        measure "$file" | awk -v f="$file" '{ printf "%6d  %s  (%d panic sites)\n", $1, f, $2 }'
    done
    exit
fi

counts=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | sort -u |
    grep -v 'bin/perf/\|_tests.rs' |
    while read -r file; do echo "$(measure "$file") ${file#crates/}"; done)

echo "$counts" |
    awk '{ sub("/.*", "", $3); crate[$3] += $1; total += $1 }
         END { for (c in crate) printf "%6d  %s\n", crate[c], c | "sort -k2"
               close("sort -k2"); printf "%6d  total\n", total }'
echo "$counts" |
    awk '{ sub("/.*", "", $3); sites[$3] += $2 } END { for (c in sites) print c, sites[c] }' |
    sort | awk '{ list = list sep $1 " " $2; sep = ", "; total += $2 }
                END { printf "%6d  panic sites: %s\n", total, list }'
echo "largest files:"
echo "$counts" | sort -rn | head -5 | awk '{ printf "%6d  crates/%s\n", $1, $3 }'
