#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark's timed child, two source
# trees against each other (the `choosing-metrics` procedure every perf PR
# repeats): host noise here comes in phases of seconds to minutes, which
# alternating fresh processes share and back-to-back series do not.
#
#   tools/ab-pairs.sh <parent-tree> <change-tree> <workload> [pairs] [seed] [--smoke]
#
# Builds each tree's `benchmark/` package and runs `pairs` (default 10)
# pairs. In a pair, each side repeats fresh `oram-benchmark child --mode
# timed` processes until it has spent 3 seconds (1 under `--smoke`; at
# least one child), as `benchmark/run.sh --seconds` does; the two sides'
# children alternate, and which side starts alternates from pair to pair.
# A side's value in a pair is the median over its children. The script
# FAILS if any simulated field or the digest differs between any two children, and
# prints, for `ops_per_sec` (higher is better), `peak_rss_mb` (the child's
# `VmHWM`) and `setup_s` (both lower is better), per side the median,
# quartiles and best of the pair values, how many pairs the change won,
# and the `choosing-metrics` §8 verdict: a gain may be claimed when, over
# at least ten pairs, the change wins nine tenths of them and the medians
# lie further apart, in the better direction, than the parent's own
# quartiles. Beside it, the median and quartiles of the per-pair
# change/parent ratio of `ops_per_sec` (wall time) and of operations per
# `utime` tick (the children's user CPU time, which a co-runner stealing
# the CPU does not inflate, in ticks of 10 ms). Prints only: no performance
# gate. Cargo may rewrite a tree's benchmark/Cargo.lock when it builds; the
# script puts each back on exit, so `git status` stays clean.
#
# The A/A control. A tree against itself (`tools/ab-pairs.sh . . W`, as CI
# runs it) runs one binary twice, so it measures host noise only. A change
# also moves code layout: the parent against a copy of itself, rebuilt in
# full, measures that too, as far as a rebuild reproduces it:
#
#   git archive <parent> | (mkdir -p /tmp/a && tar -x -C /tmp/a)
#   cp -r /tmp/a /tmp/a2    # the copy builds its own benchmark/target
#   tools/ab-pairs.sh /tmp/a /tmp/a2 W 10 S
#
# Run one such series beside every control series (a workload the change
# should not move) and read the control's ratio against it. On a noisy
# 2-vCPU host, ten-pair series of a tree against its copy read paired
# medians from 0.87 to 1.24 with one child per side. With the 3-second
# budget, two such series (service_fixed_rate and hpca_cycle, seed 11)
# read wall medians 0.998 and 0.970, paired medians 1.004 and 1.019 with
# quartiles 0.907–1.079, and paired ops-per-utime quartiles 0.955–1.036.
set -euo pipefail

smoke=()
args=()
budget=3
for a in "$@"; do
    if [[ $a == --smoke ]]; then smoke=(--smoke) budget=1; else args+=("$a"); fi
done
if ((${#args[@]} < 3 || ${#args[@]} > 5)); then
    echo "usage: $0 <parent-tree> <change-tree> <workload> [pairs] [seed] [--smoke]" >&2
    exit 2
fi
parent=${args[0]} change=${args[1]} workload=${args[2]}
pairs=${args[3]:-10} seed=${args[4]:-11}

trees=("$parent" "$change")
saved=$(mktemp -d)
for i in 0 1; do cp "${trees[i]}/benchmark/Cargo.lock" "$saved/$i"; done
restore() {
    for i in 0 1; do
        cmp -s "$saved/$i" "${trees[i]}/benchmark/Cargo.lock" ||
            cp "$saved/$i" "${trees[i]}/benchmark/Cargo.lock"
    done
    rm -rf "$saved"
}
trap restore EXIT

for tree in "${trees[@]}"; do
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

# One fresh child; prints "<ops_per_sec> <peak_rss_mb> <setup_s> <ops>
# <utime_ticks> <everything simulated>".
child() {
    local line
    line=$("$1/benchmark/target/release/oram-benchmark" child \
        --workload "$workload" --mode timed --seed "$seed" "${smoke[@]}")
    local ops run_s hwm setup_s ticks sim
    ops=$(grep -o '"ops_completed":[0-9]*' <<<"$line" | cut -d: -f2)
    run_s=$(grep -o '"run_s":[0-9.e-]*' <<<"$line" | cut -d: -f2)
    hwm=$(grep -o '"vm_hwm_kb":[0-9.e+-]*' <<<"$line" | cut -d: -f2)
    setup_s=$(grep -o '"setup_s":[0-9.e-]*' <<<"$line" | cut -d: -f2)
    ticks=$(grep -o '"utime_ticks":[0-9]*' <<<"$line" | cut -d: -f2)
    sim=$(grep -o '"sim":{[^}]*}' <<<"$line")
    awk -v o="$ops" -v s="$run_s" -v h="$hwm" -v st="$setup_s" -v t="$ticks" -v sim="ops=$ops,$sim" \
        'BEGIN { printf "%.1f %.2f %s %d %d %s\n", o / s, h / 1024, st, o, t, sim }'
}

# The median of the numbers on stdin.
median() {
    sort -g | awk '{ v[NR] = $1 } END { h = 1 + (NR - 1) / 2; lo = int(h); printf "%s", v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }'
}

# Pair $1: children of both trees, alternating (side $2 first), until each
# side has spent `budget` seconds; prints per side (parent, then change)
# "<ops_per_sec> <peak_rss_mb> <setup_s> <ops_per_utime_tick> <children>":
# the first three the medians over that side's children, the fourth its
# operations over its ticks (0 when no tick was counted). Fails when a
# child's simulated results are not `reference`.
pair() {
    local first=$2 side k start now line sim
    local -a spent=(0 0) count=(0 0) values=("" "")
    while :; do
        for side in "$first" $((1 - first)); do
            if ((count[side] > 0)) && awk -v s="${spent[side]}" -v b="$budget" 'BEGIN { exit !(s >= b) }'; then
                continue
            fi
            start=$EPOCHREALTIME
            line=$(child "${trees[side]}")
            now=$EPOCHREALTIME
            spent[side]=$(awk -v s="${spent[side]}" -v a="$start" -v b="$now" 'BEGIN { print s + b - a }')
            count[side]=$((count[side] + 1))
            sim=$(cut -d' ' -f6- <<<"$line")
            if [[ $sim != "$reference" ]]; then
                printf 'simulated results differ in pair %d (%s):\n  %s\n  %s\n' "$1" "${trees[side]}" "$reference" "$sim" >&2
                exit 1
            fi
            values[side]+="$(cut -d' ' -f1-5 <<<"$line")"$'\n'
        done
        if awk -v a="${spent[0]}" -v b="${spent[1]}" -v t="$budget" 'BEGIN { exit !(a >= t && b >= t) }'; then
            break
        fi
    done
    for side in 0 1; do
        for k in 1 2 3; do
            printf '%s ' "$(cut -d' ' -f"$k" <<<"${values[side]%$'\n'}" | median)"
        done
        awk '{ o += $4; t += $5 } END { printf "%.1f ", (t > 0 ? o / t : 0) }' <<<"${values[side]%$'\n'}"
        echo "${count[side]}"
    done
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
# either side's own series. Prints only, like the verdict beside it. Pairs
# with a zero value (no CPU tick counted) are left out.
#   ratios <metric> <parent values> <change values>
ratios() {
    local line
    line=$(awk -v as="$2" -v bs="$3" 'BEGIN {
        n = split(as, av, " "); split(bs, bv, " ")
        for (i = 1; i <= n; i++) if (av[i] > 0 && bv[i] > 0) printf "%.6f\n", bv[i] / av[i] }')
    if [[ -z $line ]]; then
        line="no pair with a nonzero value on both sides"
    else
        line=$(summary higher '%.3f' <<<"$line")
    fi
    printf 'paired  %-14s change/parent ratio per pair: %s\n' "$1" "${line%  best*}"
}

a_rates=() b_rates=() a_rss=() b_rss=() a_setup=() b_setup=() a_cpu=() b_cpu=()
# What every child must simulate: a first parent child's results.
reference=$(child "$parent" | cut -d' ' -f6-)
for ((i = 1; i <= pairs; i++)); do
    {
        read -r a a_mb a_s a_t a_n
        read -r b b_mb b_s b_t b_n
    } < <(pair "$i" $((1 - i % 2)))
    a_rates+=("$a") b_rates+=("$b") a_rss+=("$a_mb") b_rss+=("$b_mb") a_setup+=("$a_s") b_setup+=("$b_s")
    a_cpu+=("$a_t") b_cpu+=("$b_t")
    printf 'pair %2d  parent %10s  change %10s  ops_per_sec   parent %8s  change %8s  ops_per_utime   children %d + %d\n' \
        "$i" "$a" "$b" "$a_t" "$b_t" "$a_n" "$b_n"
done

echo "$workload seed $seed, ${budget} s per side and pair: $reference"
report ops_per_sec higher '%.0f' "${a_rates[*]}" "${b_rates[*]}"
ratios ops_per_sec "${a_rates[*]}" "${b_rates[*]}"
ratios ops_per_utime "${a_cpu[*]}" "${b_cpu[*]}"
report peak_rss_mb lower '%.2f' "${a_rss[*]}" "${b_rss[*]}"
report setup_s lower '%.5f' "${a_setup[*]}" "${b_setup[*]}"
