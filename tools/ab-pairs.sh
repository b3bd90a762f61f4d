#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark's timed child, two source
# trees against each other (the `choosing-metrics` procedure every perf PR
# repeats): host noise here comes in phases of seconds to minutes, which
# alternating fresh processes share and back-to-back series do not.
#
#   tools/ab-pairs.sh <parent-tree> <change-tree> <workload> [pairs] [seed] [--smoke]
#
# Builds each tree's `benchmark/` package, runs `pairs` (default 10) pairs of
# `oram-benchmark child --mode timed` (which side goes first alternates),
# FAILS if any simulated field or the digest differs between the sides, and
# prints per side the median, quartiles and best `ops_per_sec`, how many
# pairs the change won, and the `choosing-metrics` §8 verdict: a gain may be
# claimed when, over at least ten pairs, the change wins nine tenths of them
# and the medians lie further apart than the parent's own quartiles. Prints
# only: no performance gate.
set -euo pipefail

smoke=()
args=()
for a in "$@"; do
    if [[ $a == --smoke ]]; then smoke=(--smoke); else args+=("$a"); fi
done
if ((${#args[@]} < 3 || ${#args[@]} > 5)); then
    echo "usage: $0 <parent-tree> <change-tree> <workload> [pairs] [seed] [--smoke]" >&2
    exit 2
fi
parent=${args[0]} change=${args[1]} workload=${args[2]}
pairs=${args[3]:-10} seed=${args[4]:-11}

for tree in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

# One fresh child; prints "<ops_per_sec> <everything simulated>".
child() {
    local line
    line=$("$1/benchmark/target/release/oram-benchmark" child \
        --workload "$workload" --mode timed --seed "$seed" "${smoke[@]}")
    local ops run_s sim
    ops=$(grep -o '"ops_completed":[0-9]*' <<<"$line" | cut -d: -f2)
    run_s=$(grep -o '"run_s":[0-9.e-]*' <<<"$line" | cut -d: -f2)
    sim=$(grep -o '"sim":{[^}]*}' <<<"$line")
    echo "$(awk -v o="$ops" -v s="$run_s" 'BEGIN { printf "%.1f", o / s }') ops=$ops,$sim"
}

# Median, quartiles and best of the numbers on stdin.
summary() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "median %.0f  q1 %.0f  q3 %.0f  best %.0f", q(0.5), q(0.25), q(0.75), v[NR] }'
}

a_rates=() b_rates=()
wins=0 reference=
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        read -r a a_sim < <(child "$parent")
        read -r b b_sim < <(child "$change")
    else
        read -r b b_sim < <(child "$change")
        read -r a a_sim < <(child "$parent")
    fi
    : "${reference:=$a_sim}"
    for sim in "$a_sim" "$b_sim"; do
        if [[ $sim != "$reference" ]]; then
            printf 'simulated results differ in pair %d:\n  %s\n  %s\n' "$i" "$reference" "$sim" >&2
            exit 1
        fi
    done
    a_rates+=("$a") b_rates+=("$b")
    wins=$((wins + $(awk -v a="$a" -v b="$b" 'BEGIN { print (b > a) }')))
    printf 'pair %2d  parent %10s  change %10s  ops_per_sec\n' "$i" "$a" "$b"
done

echo "$workload seed $seed: $reference"
a_line=$(printf '%s\n' "${a_rates[@]}" | summary)
b_line=$(printf '%s\n' "${b_rates[@]}" | summary)
echo "parent  $a_line"
echo "change  $b_line"
awk -v a="$a_line" -v b="$b_line" -v w="$wins" -v n="$pairs" 'BEGIN {
    split(a, x, " "); split(b, y, " ")
    printf "change/parent median %.3f, change won %d/%d pairs\n", y[2] / x[2], w, n
    gain = y[2] - x[2]; spread = x[6] - x[4]
    met = (n >= 10 && 10 * w >= 9 * n && gain > spread) ? "met" : "not met"
    printf "medians %+.0f apart, parent quartiles %.0f apart: section 8 rule %s\n", gain, spread, met }'
