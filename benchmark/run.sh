#!/usr/bin/env bash
# Build the benchmark crate and run it. Every argument goes to the
# binary; `benchmark/run.sh --help` lists them.
#
# The crate is a workspace of its own with path dependencies on
# ../crates/*, so this builds the program under test from source,
# offline. CARGO_TARGET_DIR is honoured (relative to the caller's
# directory, as cargo reads it); the default is benchmark/target.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"

# Cargo's chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$dir/Cargo.toml" >&2

# The artifact's header; the binary does not shell out itself.
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$dir" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

exec "$target/release/nemesis-benchmark" "$@"
