#!/usr/bin/env bash
# The one command of BENCHMARK.json, run from the root of a checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark package (release, offline) and runs the gated runner
# (`e2e`, --trace 0) or the traced replay (`trace`, --trace 1) as this very
# process, so peak RSS is the workload's own.
set -euo pipefail

bin=e2e
workload=
prev=
for arg in "$@"; do
    case "$prev" in
        --trace) if [ "$arg" = 1 ]; then bin=trace; fi ;;
        --workload) workload=$arg ;;
    esac
    prev=$arg
done

build() {
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml "$@"
}
# One build covers both binaries, so no later run pays a link inside its time
# limit. Only `trace` calls library internals: if a refactor breaks it, the
# gated runner still builds and runs.
build --bins || { [ "$bin" = e2e ] && build --bin e2e; }

# serve_open, mixed_durable and routed_2shard are ping-pong between a client
# thread and server threads: one is runnable at a time. Whether the scheduler
# wakes the other side on the same CPU (~4 us hand-off) or across CPUs (~45 us
# on a VM, an inter-processor interrupt) flips between runs and moves p50 by
# 10x. One CPU takes that lottery out; nothing these workloads do runs in
# parallel. The last allowed CPU, because device interrupts land on the first.
pin=()
case "$workload" in
    serve_open | mixed_durable | routed_2shard)
        if command -v taskset >/dev/null; then
            cpu=$(taskset -cp $$ | sed 's/.*[ ,-]//')
            pin=(taskset -c "$cpu")
        else
            echo "# WARNING: taskset not found; $workload runs unpinned and is not comparable" >&2
        fi
        ;;
esac

target=${CARGO_TARGET_DIR:-benchmark/target}
exec "${pin[@]}" "$target/release/$bin" "$@"
