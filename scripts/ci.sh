#!/usr/bin/env bash
# Tier-1 gate: release build, every workspace crate's tests, the
# benchmark's self-tests, the EXPERIMENTS.md drift check, workspace
# static analysis (qfc-lint), per-crate lints, and the campaign-recovery
# and fault-matrix smoke runs.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark self-tests (pass checker, quick mode on every workload)"
# benchmark/ is its own package outside the workspace, so the step above
# does not build it; a library change that breaks it shows up here.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> EXPERIMENTS.md drift check (full_reproduction output byte-identity)"
# The committed paper-vs-measured record must be exactly what the code
# prints: any physics-table change shows up as a reviewed diff.
cargo run --release --example full_reproduction > target/EXPERIMENTS.md
cmp EXPERIMENTS.md target/EXPERIMENTS.md

echo "==> qfc-lint --deny (workspace static analysis)"
cargo run --release -p qfc-lint -- --deny

echo "==> qfc-lint drift check (CALLGRAPH.json + LINT_REPORT.json byte-identity)"
# A second run must reproduce both artifacts byte-for-byte: the analyzer's
# determinism contract is itself under test, not just asserted.
cargo run --release -p qfc-lint -- \
  --json target/LINT_REPORT.2.json --callgraph target/CALLGRAPH.2.json > /dev/null
cmp target/CALLGRAPH.json target/CALLGRAPH.2.json
cmp target/LINT_REPORT.json target/LINT_REPORT.2.json
rm -f target/LINT_REPORT.2.json target/CALLGRAPH.2.json

# Library crates must not panic via unwrap/expect: every fallible path
# returns a QfcError (the few panicking wrappers left are explicit
# `panic!`s that carry a reviewed qfc-lint allow). The roster is derived
# from crates/*/ so a new crate cannot skip the gate by omission
# (qfc-lint's ci-roster rule cross-checks this file).
echo "==> cargo clippy (library no-unwrap gate)"
roster=()
for d in crates/*/; do
  name="$(sed -n 's/^name = "\(.*\)"/\1/p' "$d/Cargo.toml" | head -n1)"
  roster+=(-p "$name")
done
cargo clippy --no-deps --lib "${roster[@]}" \
  -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> campaign crash-recovery smoke (abort -> resume -> byte-identity)"
# Kills a sharded campaign mid-run via an injected shard abort, resumes it
# from the surviving checkpoints, and fails unless the merged report is
# byte-identical to a fresh single-process driver run.
cargo run --release --example campaign_recovery

echo "==> fault matrix (graceful-degradation smoke run)"
cargo run --release --example fault_matrix > target/FAULT_MATRIX.md

echo "CI gate passed."
