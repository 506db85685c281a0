#!/usr/bin/env bash
# Offline CI gate for the workspace. Everything here runs hermetically —
# no network, no external crates. `cargo test` covers every crate's unit,
# property and seeded fuzz suites.
#
#   scripts/ci.sh
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
echo "ci: all checks passed"
