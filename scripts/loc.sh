#!/usr/bin/env sh
# Prints non-test lines per crate and their total.
#
# Counts every line of each `.rs` file under `crates/*/src` and the umbrella
# crate's `src`, cutting each file at its first column-0 `#[cfg(test)]` (the
# unit-test module). Integration tests, benches, examples and vendored shims
# are not counted. Run from anywhere inside the repository:
#
#     scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n++ }
        END { print n + 0 }' {} +
}

total=0
for src in crates/*/src src; do
    lines=$(count "$src")
    total=$((total + lines))
    printf '%-18s %6d\n' "$(dirname "$src")" "$lines"
done
printf '%-18s %6d\n' total "$total"
