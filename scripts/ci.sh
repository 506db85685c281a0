#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs hermetically —
# no network, no external crates (rand/proptest/criterion are commented
# out of the manifests; see each Cargo.toml for how to restore them).
#
#   scripts/ci.sh            # the default, fully offline gate
#   scripts/ci.sh --benches  # additionally compile the criterion benches
#                            # (requires the `criterion` dev-dependency
#                            # restored and the registry reachable)
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --release
run cargo test --workspace -q
# Every campaign's smoke sweep: each sweep asserts its own claims, so a
# zero exit is the proof. The artifact goes to a temp path so the
# checked-in full-sweep BENCH_<campaign>.json stays intact, and must
# parse as JSON.
campaign_json="$(mktemp)"
for c in chaos overload mc demux adversary net fabric; do
    echo "==> cargo run -p pf-bench --release --bin bench -- $c --smoke --out <tmp>"
    cargo run -q -p pf-bench --release --bin bench -- "$c" --smoke --out "$campaign_json" > /dev/null
    python3 -m json.tool "$campaign_json" > /dev/null
done
rm -f "$campaign_json"
# Structured fuzzing (>= 10k seeded iterations per target: word decoder,
# validator, every execution engine, geom churn; frame codec and fault
# schedules; the admission gate under config churn) — hermetic but too
# slow for the default `cargo test`, so it rides its own feature.
run cargo test -p pf-ir --release --features fuzz-tests -q
run cargo test -p pf-net --release --features fuzz-tests -q
run cargo test -p pf-kernel --release --features fuzz-tests -q

if [[ "${1:-}" == "--benches" ]]; then
    run cargo bench --workspace --features criterion-benches --no-run
fi

echo "ci: all checks passed"
