#!/usr/bin/env bash
# The repo benchmark's single command: build the release binary, run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the result object is the last line of stdout
#       (the BENCHMARK.json contract);
#   bash benchmark/run.sh --seed N --out DIR [--seconds S] [--repeat K] [--smoke]
#       every workload, timed then traced, into DIR/results.json;
#   bash benchmark/run.sh compare A/results.json B/results.json
#
# All generated data lives under --out (default: the build directory),
# in a directory per run keyed by workload, seed and size.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# glibc malloc opens up to 8 arenas per core and keeps what each has
# freed; which short-lived engine thread lands in which arena differs
# from run to run, and with it VmHWM by a quarter. One arena per core of
# the two-core host makes peak_rss_mb repeat without serialising the
# engine's parallel operators on one allocator lock.
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-2}"
exec "$CARGO_TARGET_DIR/release/tde-benchmark" "$@"
