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
# prints, for `ops_per_sec` (higher is better), `peak_rss_mb` (the child's
# `VmHWM`) and `setup_s` (both lower is better), per side the median,
# quartiles and best, how many pairs the change won, and the `choosing-metrics` §8
# verdict: a gain may be claimed when, over at least ten pairs, the change
# wins nine tenths of them and the medians lie further apart, in the better
# direction, than the parent's own quartiles. Beside it, the median and
# quartiles of the per-pair change/parent ratio of `ops_per_sec`. Prints
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

# One fresh child; prints
# "<ops_per_sec> <peak_rss_mb> <setup_s> <everything simulated>".
child() {
    local line
    line=$("$1/benchmark/target/release/oram-benchmark" child \
        --workload "$workload" --mode timed --seed "$seed" "${smoke[@]}")
    local ops run_s hwm setup_s sim
    ops=$(grep -o '"ops_completed":[0-9]*' <<<"$line" | cut -d: -f2)
    run_s=$(grep -o '"run_s":[0-9.e-]*' <<<"$line" | cut -d: -f2)
    hwm=$(grep -o '"vm_hwm_kb":[0-9.e+-]*' <<<"$line" | cut -d: -f2)
    setup_s=$(grep -o '"setup_s":[0-9.e-]*' <<<"$line" | cut -d: -f2)
    sim=$(grep -o '"sim":{[^}]*}' <<<"$line")
    echo "$(awk -v o="$ops" -v s="$run_s" -v h="$hwm" 'BEGIN { printf "%.1f %.2f", o / s, h / 1024 }') $setup_s ops=$ops,$sim"
}

# Median, quartiles and best of the numbers on stdin; $1 names the better
# end (`higher` or `lower`), $2 is the printf format of one number.
summary() {
    sort -g | awk -v better="$1" -v f="$2" '{ v[NR] = $1 }
        function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "median " f "  q1 " f "  q3 " f "  best " f, q(0.5), q(0.25), q(0.75), better == "higher" ? v[NR] : v[1] }'
}

# Prints both sides' summaries of one metric and its section 8 verdict:
#   report <metric> <higher|lower> <format> <parent values> <change values>
# (each list space-separated, pair by pair).
report() {
    local metric=$1 better=$2 format=$3 a_line b_line
    a_line=$(tr ' ' '\n' <<<"$4" | summary "$better" "$format")
    b_line=$(tr ' ' '\n' <<<"$5" | summary "$better" "$format")
    printf 'parent  %-12s %s\n' "$metric" "$a_line"
    printf 'change  %-12s %s\n' "$metric" "$b_line"
    awk -v m="$metric" -v better="$better" -v f="$format" -v a="$a_line" -v b="$b_line" \
        -v as="$4" -v bs="$5" 'BEGIN {
        split(a, x, " "); split(b, y, " "); n = split(as, av, " "); split(bs, bv, " ")
        for (i = 1; i <= n; i++) w += better == "higher" ? bv[i] > av[i] : bv[i] < av[i]
        printf "%s: change/parent median %.3f, change won %d/%d pairs\n", m, y[2] / x[2], w, n
        gain = better == "higher" ? y[2] - x[2] : x[2] - y[2]; spread = x[6] - x[4]
        met = (n >= 10 && 10 * w >= 9 * n && gain > spread) ? "met" : "not met"
        printf "%s: medians " f " apart in the %s-is-better direction, parent quartiles " f " apart: section 8 rule %s\n", m, gain, better, spread, met }'
}

# The per-pair change/parent ratio of one metric, summarized: host noise
# moves both children of a pair alike, so the ratio spreads far less than
# either side's own series. Prints only, like the verdict beside it.
#   ratios <metric> <parent values> <change values>
ratios() {
    local line
    line=$(awk -v as="$2" -v bs="$3" 'BEGIN {
        n = split(as, av, " "); split(bs, bv, " ")
        for (i = 1; i <= n; i++) printf "%.6f\n", bv[i] / av[i] }' | summary higher '%.3f')
    printf 'paired  %-12s change/parent ratio per pair: %s\n' "$1" "${line%  best*}"
}

a_rates=() b_rates=() a_rss=() b_rss=() a_setup=() b_setup=()
reference=
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        read -r a a_mb a_s a_sim < <(child "$parent")
        read -r b b_mb b_s b_sim < <(child "$change")
    else
        read -r b b_mb b_s b_sim < <(child "$change")
        read -r a a_mb a_s a_sim < <(child "$parent")
    fi
    : "${reference:=$a_sim}"
    for sim in "$a_sim" "$b_sim"; do
        if [[ $sim != "$reference" ]]; then
            printf 'simulated results differ in pair %d:\n  %s\n  %s\n' "$i" "$reference" "$sim" >&2
            exit 1
        fi
    done
    a_rates+=("$a") b_rates+=("$b") a_rss+=("$a_mb") b_rss+=("$b_mb") a_setup+=("$a_s") b_setup+=("$b_s")
    printf 'pair %2d  parent %10s  change %10s  ops_per_sec   parent %8s  change %8s  peak_rss_mb\n' \
        "$i" "$a" "$b" "$a_mb" "$b_mb"
done

echo "$workload seed $seed: $reference"
report ops_per_sec higher '%.0f' "${a_rates[*]}" "${b_rates[*]}"
ratios ops_per_sec "${a_rates[*]}" "${b_rates[*]}"
report peak_rss_mb lower '%.2f' "${a_rss[*]}" "${b_rss[*]}"
report setup_s lower '%.5f' "${a_setup[*]}" "${b_setup[*]}"
