#!/usr/bin/env bash
# Counts non-test Rust source lines: the non-blank lines of every `.rs` file
# under `crates/*/src` and `src/` that come before the file's first
# `#[cfg(test)]`. Prints one line per crate (the facade `src/` as `prevv`)
# and the total. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# xargs may split a long file list over several awk runs; the second awk
# sums their partial counts.
count() {
  find "$@" -name '*.rs' -type f -print0 | sort -z | xargs -0 -r awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    !in_test && NF > 0 { n++ }
    END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
  if [ "$dir" = src ]; then name=prevv; else name=$(basename "$(dirname "$dir")"); fi
  n=$(count "$dir")
  printf '%-10s %7d\n' "$name" "$n"
  total=$((total + n))
done
printf '%-10s %7d\n' total "$total"
