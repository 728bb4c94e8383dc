#!/usr/bin/env bash
# The benchmark's one command. See bench/README.md.
#
#   bench/run.sh [--seed N] [--seconds S] [--repeat R] [--out FILE]
#       build, run every workload untraced (R times, seeds N, N+1, …),
#       then one traced pass each; print every metric as
#       `workload/metric value unit n=<samples>` and write the result file
#       (default bench/out/results.json).
#   bench/run.sh smoke [--seed N]
#       every workload once, traced (the traced run does everything the
#       untraced one does, then the layers replay), at 1/5 of the
#       measured time with one set-up, numbers marked `smoke`
#       (< 60 s; for CI).
#   bench/run.sh compare A.json B.json
#       per workload/metric: both medians, how much worse B is, the
#       bound, both spreads, ok / regressed / unresolved.
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload, result as one JSON object on the last
#       line of stdout (the form BENCHMARK.json's `command` is run in).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One target directory for the program and the benchmark; a relative
# CARGO_TARGET_DIR is relative to the checkout root.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
out_dir="$here/out"

build() {
    # The system under test: the shipped flowctl, built from this
    # checkout. Cargo's own output goes to stderr.
    cargo build --release --offline -p flowrelay --bin flowctl
    cargo build --release --offline --manifest-path "$here/Cargo.toml"
    mkdir -p "$out_dir"
}

e2e="$target/release/bench-e2e"

run_one() { # workload seed seconds trace [extra bench-e2e args…]
    local workload="$1" seed="$2" seconds="$3" trace="$4"
    shift 4
    "$e2e" run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --flowctl "$target/release/flowctl" --specs "$here/specs" \
        --layers "$target/release/bench-layers" --out "$out_dir" "$@"
}

# Runs the whole set and assembles the result file.
run_set() { # label seconds setups repeat seed file traces
    local label="$1" seconds="$2" setups="$3" repeat="$4" seed="$5" file="$6" traces="$7"
    local extra=(--setups "$setups")
    [ "$label" = full ] || extra+=(--label "$label")
    local commit
    commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    local runs=() text result
    for workload in $("$e2e" workloads); do
        for trace in $traces; do
            local n="$repeat"
            [ "$trace" = 0 ] || n=1
            for ((i = 0; i < n; i++)); do
                text="$(run_one "$workload" "$((seed + i))" "$seconds" "$trace" "${extra[@]}")"
                printf '%s\n' "$text" | sed '$d'
                result="$(printf '%s\n' "$text" | tail -n 1)"
                runs+=("{\"workload\": \"$workload\", \"trace\": $trace, \"seed\": $((seed + i)), \"result\": $result}")
            done
        done
    done
    {
        printf '{"label": "%s", "seconds": %s, "host": %s, "runs": [\n' \
            "$label" "$seconds" "$("$e2e" host --seed "$seed" --commit "$commit")"
        local sep=""
        for r in "${runs[@]}"; do
            printf '%s%s' "$sep" "$r"
            sep=$',\n'
        done
        printf '\n]}\n'
    } >"$file"
    echo "# wrote $file"
}

default_seconds() {
    sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json"
}

case "${1:-}" in
compare)
    [ $# -eq 3 ] || { echo "usage: bench/run.sh compare A.json B.json" >&2; exit 2; }
    cargo build --release --offline --manifest-path "$here/Cargo.toml" -p bench-e2e
    exec "$e2e" compare "$2" "$3" --benchmark "$root/BENCHMARK.json"
    ;;
smoke)
    shift
    seed=1
    while [ $# -gt 0 ]; do
        case "$1" in
        --seed) seed="$2"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
        esac
    done
    build
    fifth="$(awk "BEGIN { print $(default_seconds) / 5 }")"
    run_set smoke "$fifth" 1 1 "$seed" "$out_dir/smoke.json" "1"
    ;;
*)
    seed=1 seconds="" repeat=1 workload="" trace="" file="$out_dir/results.json"
    while [ $# -gt 0 ]; do
        case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --out) file="$2"; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
        esac
    done
    build >&2
    [ -n "$seconds" ] || seconds="$(default_seconds)"
    if [ -n "$workload" ]; then
        run_one "$workload" "$seed" "$seconds" "${trace:-0}"
    else
        run_set full "$seconds" 3 "$repeat" "$seed" "$file" "0 1"
    fi
    ;;
esac
