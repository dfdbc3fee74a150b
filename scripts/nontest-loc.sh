#!/bin/sh
# Non-test first-party lines: every tracked `crates/*/src/**/*.rs` except the
# frozen benchmark (`bin/perf/`) and `*_tests.rs`, each file counted up to its
# first `#[cfg(test)]`. Prints one line per crate, the total — the figure
# ROADMAP item 5 and the simplicity issues cite — the panic sites in the same
# lines (`.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`) per crate, the
# public item declarations (`pub fn|struct|enum|trait|type|const`) per crate,
# every tracked first-party `*.rs` line (tests, benchmark and examples too;
# `vendor/` apart), and the five largest files.
# Usage: scripts/nontest-loc.sh [file ...]   (files: print per-file counts instead)
set -eu
cd "$(git rev-parse --show-toplevel)"

# "<lines> <panic sites> <public items>" of a file's non-test part.
measure() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[ \t]*pub (fn|struct|enum|trait|type|const) / { items++ }
         { lines++; sites += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
         END { print lines + 0, sites + 0, items + 0 }' "$1"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        measure "$file" | awk -v f="$file" '{
            printf "%6d  %s  (%d panic sites, %d public items)\n", $1, f, $2, $3 }'
    done
    exit
fi

counts=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | sort -u |
    grep -v 'bin/perf/\|_tests.rs' |
    while read -r file; do echo "$(measure "$file") ${file#crates/}"; done)

echo "$counts" |
    awk '{ sub("/.*", "", $4); crate[$4] += $1; total += $1 }
         END { for (c in crate) printf "%6d  %s\n", crate[c], c | "sort -k2"
               close("sort -k2"); printf "%6d  total\n", total }'
# Per-crate sums of column $1 of `counts`, as "<total>  <label>: crate n, ...".
per_crate() {
    echo "$counts" |
        awk -v col="$1" '{ sub("/.*", "", $4); n[$4] += $col } END { for (c in n) print c, n[c] }' |
        sort | awk -v label="$2" '{ list = list sep $1 " " $2; sep = ", "; total += $2 }
                                  END { printf "%6d  %s: %s\n", total, label, list }'
}
per_crate 2 "panic sites"
per_crate 3 "public items"
git ls-files '*.rs' | xargs wc -l |
    awk '$2 == "total" { next } $2 ~ /^vendor\// { v += $1; next } { n += $1 }
         END { printf "%6d  tracked first-party *.rs lines, tests included (vendor/: %d)\n", n, v }'
echo "largest files:"
echo "$counts" | sort -rn | head -5 | awk '{ printf "%6d  crates/%s\n", $1, $4 }'
