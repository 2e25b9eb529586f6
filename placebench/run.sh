#!/usr/bin/env bash
# Runs placebench from the repository root, building it first (release,
# offline) when its binary is missing or older than any source it is built
# from. Building only when needed keeps repeated runs from re-linking: the
# service crate's build script re-runs on every `cargo` call outside a git
# checkout.
#
#   bash placebench/run.sh --workload hit_floor --seed 1 --seconds 15 --trace 0
set -euo pipefail

target="${CARGO_TARGET_DIR:-placebench/target}"
bin="$target/release/apls-placebench"
stale() {
    [[ ! -x "$bin" ]] && return 0
    [[ -n "$(find Cargo.toml Cargo.lock src crates vendor placebench \
        -path placebench/target -prune -o -newer "$bin" -print -quit 2>/dev/null)" ]]
}
if stale; then
    cargo build --release --offline --quiet --manifest-path placebench/Cargo.toml >&2
fi
exec "$bin" "$@"
