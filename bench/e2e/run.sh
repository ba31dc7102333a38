#!/usr/bin/env bash
# End-to-end benchmark runner: builds qpc_serverd and qpcbench from the
# checkout, then runs workloads, each in its own process.
#
#   run.sh --workload W --seed S [--seconds T] [--trace 0|1]
#       one run; the last stdout line is the result JSON
#   run.sh --seed S [--seconds T] [--traced]
#       every workload once; `workload metric value unit` lines plus
#       one combined results JSON
#   run.sh --repeat N [--seed S] [--seconds T] [--traced]
#       N rounds alternating the workloads (seed S, S+1, ...), then the
#       median and quartiles of every metric
#   run.sh --smoke
#       every workload with 1 s of measurement and all checks on, plus
#       a key check of the reported metrics against BENCHMARK.json
#
# Everything built or written lands under .bench_build/ in the
# checkout root. See bench/e2e/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
work="$root/.bench_build"
build="$work/e2e"
results="$work/results"
workloads=(qaoa_warm_lookup qaoa_pulse_download lih_grape_cold
           vqe_qaoa_converge)

workload="" seed=1 seconds=30 trace=0 repeat=0 smoke=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) trace=1; shift ;;
        --repeat) repeat="$2"; shift 2 ;;
        --smoke) smoke=1; seconds=1; shift ;;
        -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Build quietly: stdout carries results only.
mkdir -p "$work"
log="$work/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$log" 2>&1; then
    tail -n 30 "$log" >&2
    echo "run.sh: build failed (full log: $log)" >&2
    exit 1
fi

rev="unknown"
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" &&
   [ "$top" = "$root" ]; then
    rev="$(git -C "$root" rev-parse HEAD)"
fi

# One workload, one process.
run_one() { # workload seed trace outdir
    "$build/qpcbench" --workload="$1" --seed="$2" --seconds="$seconds" \
        --trace="$3" --serverd="$build/qpc_serverd" --out="$4" \
        --git-rev="$rev"
}

if [ -n "$workload" ]; then
    exec "$build/qpcbench" --workload="$workload" --seed="$seed" \
        --seconds="$seconds" --trace="$trace" \
        --serverd="$build/qpc_serverd" --out="$results" --git-rev="$rev"
fi

stamp="$(date +%Y%m%d-%H%M%S)"
status=0
if [ "$repeat" -gt 0 ]; then
    dir="$results/repeat-$stamp"
    for ((i = 0; i < repeat; i++)); do
        for w in "${workloads[@]}"; do
            echo "run.sh: round $((i + 1))/$repeat $w seed $((seed + i))" >&2
            run_one "$w" "$((seed + i))" "$trace" "$dir" >/dev/null ||
                { echo "run.sh: $w seed $((seed + i)) failed" >&2; status=1; }
        done
    done
    "$build/qpcbench" summarize "$dir"/*.txt
    exit "$status"
fi

dir="$results/run-$stamp"
for w in "${workloads[@]}"; do
    run_one "$w" "$seed" "$trace" "$dir" | sed '$d' ||
        { echo "run.sh: $w failed" >&2; status=1; }
done
suffix=""
[ "$trace" = 1 ] && suffix="-trace"
{
    printf '{"seed": %s, "workloads": {' "$seed"
    sep=""
    for w in "${workloads[@]}"; do
        f="$dir/$w-seed$seed$suffix.json"
        [ -f "$f" ] || continue
        printf '%s"%s": ' "$sep" "$w"
        cat "$f"
        sep=", "
    done
    printf '}}\n'
} >"$dir/results.json"
echo "run.sh: results in $dir/results.json" >&2

if command -v jq >/dev/null; then
    if [ "$trace" = 1 ]; then
        for t in "$dir"/trace-*.json; do
            jq -e '.traceEvents | length > 0' "$t" >/dev/null ||
                { echo "run.sh: empty or invalid trace $t" >&2; status=1; }
        done
    fi
    if [ "$smoke" = 1 ]; then
        # Every run must report exactly the end-to-end metric set.
        want="$(jq -c '[.end_to_end[].name] | sort' "$root/BENCHMARK.json")"
        for w in "${workloads[@]}"; do
            got="$(jq -c '.result.metrics | keys | sort' \
                "$dir/$w-seed$seed.json" 2>/dev/null || echo none)"
            [ "$got" = "$want" ] ||
                { echo "run.sh: $w metrics $got != $want" >&2; status=1; }
        done
    fi
fi
exit "$status"
