#!/usr/bin/env bash
# The benchmark's own gate: its unit tests, then every workload once with tiny
# counts, untraced and traced. For a later PR to call from
# .github/workflows/ci.yml; run from anywhere.
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"

cargo test --release --quiet --manifest-path "$manifest"
for traced in 0 1; do
    cargo run --release --quiet --manifest-path "$manifest" -- run --smoke --trace "$traced" \
        | tail -n 1 | grep -v '"correct":false' > /dev/null
done
echo "benchmark smoke: ok"
