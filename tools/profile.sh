#!/usr/bin/env bash
# Where the repo benchmark's timed child spends its host time, by function:
# a SIGPROF sampler (tools/sampler, preloaded) over fresh children, then
# addr2line (binutils) over the raw addresses.
#
#   tools/profile.sh <workload> [seed] [runs] [--smoke] [--keep DIR]
#
# Builds `benchmark/` with frame pointers (`-C force-frame-pointers=yes`)
# and the sampler into target/profile/ (never benchmark/target), runs `runs`
# (default 20) children of `oram-benchmark child --mode timed` under
# LD_PRELOAD, and prints four tables over all their samples:
#
# - leaf: the innermost inline frame of the sampled instruction (self time);
# - leaf lines: the source line of that frame (`file:line`, paths from the
#   crate directory), which tells apart the loads of one function and
#   names the line a misattributed inline frame really is; where that frame
#   has no line row, the line of the next inline frame out that has one
#   (`file:?` only when no frame has a row);
# - inclusive: samples with the function anywhere on the stack, inline
#   frames included;
# - callees: for each function in CALLEES below, which function it was
#   calling, as shares of all samples ("(self)": its own code).
#
# `--keep DIR` copies the raw samples (one `run.<pid>` file per child: the
# load base, the text range, then one stack of return addresses a line) and
# the symbolized address table (`symbols`: address, leaf line, inline
# frames, tab-separated) into DIR, which is created if missing.
#
# The timer ticks in process CPU time at the kernel's granularity (1 ms
# asked; ~4 ms on a 250 Hz kernel), so a table row under ~1 % of a few
# thousand samples is noise. Names drop their lower-case module paths, and
# the inclusive table leaves out the frames on nearly every stack (main, the
# driver's loop).
# cargo may rewrite benchmark/Cargo.lock for the profile build; the script
# puts it back, so `git status` stays clean.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=()
args=()
keep=
while (($#)); do
    case $1 in
    --smoke) smoke=(--smoke) ;;
    --keep)
        keep=${2:?--keep needs a directory}
        shift
        ;;
    *) args+=("$1") ;;
    esac
    shift
done
if ((${#args[@]} < 1 || ${#args[@]} > 3)); then
    echo "usage: $0 <workload> [seed] [runs] [--smoke] [--keep DIR]" >&2
    exit 2
fi
workload=${args[0]} seed=${args[1]:-11} runs=${args[2]:-20}

CALLEES=(
    "MemoryController::tick"
    "MemoryController::schedule_channel"
    "MemoryController::issue_data_command"
    "MemoryController::issue_to_dram"
    "MemoryController::view_retired"
    "MemoryController::earliest_wake"
    "MemoryController::rebuild_view"
    "MemoryController::try_enqueue"
    "MemoryController::issue_prep_command"
    "MemoryController::refresh_bank"
    "TxnTracker::enqueue_ready"
    "ChannelView::derive"
    "IssueBounds::reread"
    "DramModule::issue"
    "PipelineCore::step"
    "pick"
    "OramService::tick_once"
    "drive_service"
    "<FunctionalBackend as MemoryBackend>::tick"
)

out=target/profile
lock=benchmark/Cargo.lock
saved=$(mktemp)
samples=$(mktemp -d)
cp "$lock" "$saved"
restore() {
    cmp -s "$saved" "$lock" || cp "$saved" "$lock"
    rm -rf "$saved" "$samples"
}
trap restore EXIT

export CARGO_TARGET_DIR=$out RUSTFLAGS="-C force-frame-pointers=yes"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path tools/sampler/Cargo.toml
exe=$out/release/oram-benchmark
sampler=$PWD/$out/release/libsampler.so

for ((i = 1; i <= runs; i++)); do
    SAMPLER_OUT=$samples/run LD_PRELOAD=$sampler "$exe" child \
        --workload "$workload" --mode timed --seed "$seed" "${smoke[@]}" >/dev/null
done

# Position-independent executables are symbolized at (address - load base).
pie=0
readelf -h "$exe" | grep -q 'Type:.*DYN' && pie=1

# Every sample as file addresses, innermost first: a return address steps
# back one byte into its call instruction; outside the text it is "-".
norm=$samples/norm
awk -v pie="$pie" '
    function hex(s,   i, n) {
        s = tolower(s); sub(/^0x/, "", s); n = 0
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    FNR == 1 { base = pie ? hex($2) : 0 }
    $1 == "text" { lo = hex($2); hi = hex($3); next }
    $1 == "dropped" { dropped += $2; next }
    $1 ~ /^0x/ {
        line = ""
        for (i = 1; i <= NF; i++) {
            a = hex($i) - (i > 1)
            line = line (i > 1 ? " " : "") (a >= lo && a < hi ? sprintf("%x", a - base) : "-")
        }
        print line
    }
    END { if (dropped) printf "warning: %d samples did not fit the buffer\n", dropped > "/dev/stderr" }
' "$samples"/run.* >"$norm"

# One line per address: the address, the source line of the innermost
# inline frame that has a line row (`file:?` only when none has), then its
# inline frames, innermost first, separated by tabs.
symbols=$samples/symbols
tr ' ' '\n' <"$norm" | grep -v '^-$' | sort -u | sed 's/^/0x/' |
    addr2line -e "$exe" -a -f -i -C |
    awk 'function emit() { if (line != "") print line "\t" (loc != "" ? loc : first) names }
         /^0x/ { emit(); line = $0; names = ""; loc = ""; first = ""; odd = 1; next }
         odd { names = names "\t" $0 }
         !odd {
             at = $0; sub(/ \(discriminator [0-9]+\)$/, "", at)
             if (!sub(/.*\/crates\//, "", at) && !sub(/.*\/library\//, "", at)) sub(/.*\/benchmark\//, "benchmark/", at)
             if (first == "") first = at
             if (loc == "" && at !~ /:\?$/) loc = at
         }
         { odd = !odd }
         END { emit() }' |
    sed -E ':a; s/(^|[^A-Za-z0-9_])[a-z_][a-z0-9_]*::/\1/; ta; s/<impl ([A-Za-z0-9_]+)>::/\1::/g' >"$symbols"
if [[ -n $keep ]]; then
    mkdir -p "$keep"
    cp "$samples"/run.* "$symbols" "$keep"/
fi

printf '%s seed %s, %d runs%s\n' "$workload" "$seed" "$runs" "${smoke:+ (smoke)}"
awk -F'\t' -v callees="$(printf '%s\n' "${CALLEES[@]}")" '
    function hex(s,   i, n) {
        s = tolower(s); sub(/^0x/, "", s); n = 0
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    function table(title, counts, total,   k, n, keys, i, j, t) {
        n = 0
        for (k in counts) if (counts[k] < 0.95 * total || title !~ /^inclusive/) keys[++n] = k
        for (i = 2; i <= n; i++) {
            t = keys[i]
            for (j = i - 1; j >= 1 && counts[keys[j]] < counts[t]; j--) keys[j + 1] = keys[j]
            keys[j + 1] = t
        }
        printf "\n%s\n", title
        for (i = 1; i <= n && i <= 30; i++)
            printf "  %5.1f %%  %7d  %s\n", 100 * counts[keys[i]] / total, counts[keys[i]], keys[i]
    }
    NR == FNR {
        key = hex($1); frames[key] = NF - 2; loc[key] = $2
        for (i = 3; i <= NF; i++) name[key, i - 2] = $i
        next
    }
    FNR == 1 { split(callees, wanted, "\n"); for (w in wanted) want[wanted[w]] = 1 }
    {
        total++; n = 0
        addrs = split($0, addr, " ")
        for (i = 1; i <= addrs; i++) {
            if (addr[i] == "-") { stack[++n] = "[outside the executable]"; continue }
            key = hex(addr[i])
            for (j = 1; j <= frames[key]; j++) stack[++n] = name[key, j]
        }
        leaf[stack[1]]++
        lines[addr[1] == "-" ? "[outside the executable]" : loc[hex(addr[1])]]++
        split("", seen)
        for (i = 1; i <= n; i++) if (!(stack[i] in seen)) { seen[stack[i]] = 1; incl[stack[i]]++ }
        for (f in want) {
            for (i = n; i >= 1 && stack[i] != f; i--) {}
            if (i >= 1) callee[f, i > 1 ? stack[i - 1] : "(self)"]++
        }
    }
    END {
        printf "%d samples\n", total
        if (!total) exit
        table("leaf (innermost inline frame)", leaf, total)
        table("leaf lines (source line of the innermost inline frame)", lines, total)
        table("inclusive (anywhere on the stack; frames on 95 % of stacks and more left out)", incl, total)
        for (w = 1; w in wanted; w++) {
            f = wanted[w]
            if (!(f in incl)) continue
            split("", sub_)
            for (k in callee) { split(k, p, SUBSEP); if (p[1] == f) sub_[p[2]] = callee[k] }
            table("callees of " f " (" sprintf("%.1f", 100 * incl[f] / total) " % inclusive)", sub_, total)
        }
    }
' "$symbols" "$norm"
