#!/bin/sh
# Runs the test suite against each mutant listed in MUTANTS, and reports
# each killed (a test failed) or survived (every test passed).
#
# Each mutant is applied to its own temporary copy of the working tree's
# tracked files; the repository itself is never edited. Every copied file is
# new to Cargo, so each mutant is a full release build of the workspace.
#
# Usage: scripts/mutants.sh
# Exits 1 when a mutant survived or could not be applied.
set -eu
cd "$(git rev-parse --show-toplevel)"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

killed=0 survived=0 broken=0
tab=$(printf '\t')
while IFS="$tab" read -r file needle replacement fault; do
    case "$file" in '' | '#'*) continue ;; esac
    copy="$work/tree"
    rm -rf "$copy"
    mkdir -p "$copy"
    git ls-files -z | xargs -0 cp --parents -t "$copy"
    # Exact text, not a pattern: the needle must occur exactly once.
    if ! NEEDLE=$needle REPLACEMENT=$replacement perl -0pi -e '
        my $n = () = /\Q$ENV{NEEDLE}\E/g;
        die "found $n times\n" unless $n == 1;
        s/\Q$ENV{NEEDLE}\E/$ENV{REPLACEMENT}/;' "$copy/$file"; then
        echo "BROKEN    $file: $fault (the text to replace is not there once)"
        broken=$((broken + 1))
        continue
    fi
    if (cd "$copy" && CARGO_TARGET_DIR="$work/target" cargo test -q --release \
        < /dev/null > "$work/log" 2>&1); then
        echo "SURVIVED  $file: $fault"
        survived=$((survived + 1))
    elif grep -q '^error: could not compile' "$work/log"; then
        echo "BROKEN    $file: $fault (the mutant does not build)"
        broken=$((broken + 1))
    else
        # The suite stops at the first test binary that fails.
        failed=$(grep -o '[0-9]* failed;' "$work/log" | awk '{ n += $1 } END { print n }')
        echo "KILLED    $file: $fault ($failed failing tests in the first failing suite)"
        killed=$((killed + 1))
    fi
done < MUTANTS
echo "killed $killed, survived $survived, not applied or not built $broken"
[ "$survived" -eq 0 ] && [ "$broken" -eq 0 ]
