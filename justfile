# Development recipes. `just ci` mirrors .github/workflows/ci.yml.

# List recipes.
default:
    @just --list

# Format the workspace.
fmt:
    cargo fmt --all

# Fail if anything is unformatted.
fmt-check:
    cargo fmt --all -- --check

# Lint everything; warnings are errors, as in CI.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Tier-1 gate: release build plus the full test suite.
tier1:
    cargo build --release
    cargo test -q --workspace

# The whole suite again with AtomicMemory aliased to the lock-based
# reference objects (differential coverage of the substrate swap).
test-coarse:
    cargo test -q --workspace --features coarse-substrate

# Prove the executor is thread-count invariant: the determinism test
# suite, then a byte-for-byte diff of exp_all at 1 vs 4 threads.
determinism:
    cargo test -q -p sift-bench --test determinism
    cargo build --release -p sift-bench --bin exp_all
    SIFT_TRIALS=20 SIFT_THREADS=1 ./target/release/exp_all > /tmp/sift_t1.txt
    SIFT_TRIALS=20 SIFT_THREADS=4 ./target/release/exp_all > /tmp/sift_t4.txt
    diff -u /tmp/sift_t1.txt /tmp/sift_t4.txt
    @echo "exp_all output is byte-identical across thread counts"

# Model-checking suites at CI weight: DPOR exploration, linearizability
# of captured histories, and counterexample replay. Runs in debug (the
# non-ignored instances are small); `mc-full` covers the heavy tier.
mc:
    cargo test -q --test exhaustive --test linearizability --test mc_replay

# The full model-checking tier, including the `#[ignore]`d 4-proposer
# instances (hundreds of thousands of explored interleavings; release
# mode is mandatory — debug would take many minutes).
mc-full:
    cargo test --release --test exhaustive --test linearizability --test mc_replay -- --include-ignored

# The suites that touch the instrumentation, with the substrate's
# counters compiled in (`obs` feature).
test-obs:
    cargo test -q -p sift-shmem --features obs
    cargo test -q -p sift-bench --features obs

# The statistical conformance suite (E22): every quantitative claim of
# the paper as a one-sided 99% hypothesis test, plus the mutation tests
# proving that broken sifters are refuted. SIFT_TRIALS scales the
# per-claim trial counts (default 1 = the smoke tier CI gates on;
# nightly runs use a larger scale).
conformance:
    cargo run --release -p sift-bench --bin exp_conformance
    cargo test -q --release -p sift-bench --features mutants --test mutants
    cargo test -q --release -p sift-bench --test seed_stability

# Service-level suites: agreement/validity/decide-exactly-once under
# concurrent async clients, golden-pinned deterministic commit streams,
# the substrate differentials (including the service's consensus
# stack), and the negative paths
# (evictions, zero capacity, cancellation, bounded liveness) — each at
# worker counts 1, 4, and 8 — the idle-workers-stay-parked check, plus
# a small load-generator smoke run.
service:
    cargo test -q --test service_agreement --test service_determinism \
        --test service_negative --test substrate_differential \
        --test service_idle
    cargo test -q -p sift-service
    SIFT_SERVICE_PROPOSALS=50000 SIFT_SERVICE_INSTANCES=5000 \
        cargo run --release -p sift-bench --bin exp_service

# The full E23 load tier: one million proposals over 100k Zipf-skewed
# instances in one run (the acceptance bound for the service layer),
# both client models.
service-load:
    cargo run --release -p sift-bench --bin exp_service
    SIFT_SERVICE_MODE=open cargo run --release -p sift-bench --bin exp_service

# A coverage-guided adversary fuzzing campaign against the sifting
# conciliator's schedule-independent invariants. Knobs:
# SIFT_FUZZ_{N,GENERATIONS,POPULATION,SEED,OUT}. Set
# SIFT_FUZZ_EXTENDED=1 to also mutate the environment genes (adversary
# strength + register semantics) with tier-tagged invariants.
fuzz:
    cargo run --release -p sift-bench --bin exp_fuzz

# Soak-mode conformance (E26): the deterministic tick-budget run (6
# windows of service + sifting + fuzz traffic with crash injection,
# golden-pinned trajectory), the crash/restart suites for both service
# crash models, and the soak golden-digest tests. Set SIFT_SOAK_SECS
# for a wall-clock run that also kills live workers under load (the
# nightly tier uses SIFT_SOAK_SECS=300 SIFT_FUZZ_EXTENDED=1).
soak:
    cargo run --release -p sift-bench --bin exp_soak
    cargo test -q --release --test service_crash --test service_negative
    cargo test -q --release -p sift-bench --test seed_stability soak
    cargo test -q --release -p sift-bench --features mutants --test mutants soak

# The adversary lattice (E24) and the negative conformance tier (E25):
# agreement vs adversary strength on both substrates, the
# expected-failure decay claims (exp_adversary exits nonzero if any
# negative case has the wrong polarity), the boundary tests, and the
# torn-publication regularity suite.
adversary:
    cargo run --release -p sift-bench --bin exp_adversary
    cargo test -q --release -p sift-bench --test adversary_boundary
    cargo test -q --test linearizability --features torn-publication

# The repository benchmark's traced run: one short batch-contended
# pass through perfbench (perfbench/README.md) with the per-layer
# decision anatomy. Exits nonzero if any of its checks fails: the
# golden digests, replay-matches-service, and stages adding up to the
# tick at n = 1 and n = 64.
anatomy:
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload batch-contended --seed 3 --seconds 2 --trace 1

# AddressSanitizer over the lock-free substrate: its unit tests and the
# linearizability suite, on the nightly toolchain (the sanitizer flag is
# nightly-only), in a target dir of their own.
asan:
    RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q \
        --target x86_64-unknown-linux-gnu --target-dir target/asan -p sift-shmem --lib
    RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q \
        --target x86_64-unknown-linux-gnu --target-dir target/asan --test linearizability

# Everything CI runs.
ci: fmt-check clippy tier1 test-coarse test-obs mc determinism conformance adversary service soak anatomy asan

# Regenerate the recorded experiment output (uses all cores).
experiments:
    cargo run --release -p sift-bench --bin exp_all | tee experiments_output.txt

# In-tree microbenchmarks.
bench:
    cargo bench -p sift-bench

# Refresh the tracked contention baseline: runs the contention bench
# (full thread sweep t ∈ {2,4,8,16}; narrow with SIFT_BENCH_THREADS)
# and writes per-benchmark medians to BENCH_shmem.json at the repo
# root (BENCH_obs.json needs the substrate counters compiled in; see
# `bench-obs`). Also refreshes BENCH_sim.json with the event engine's throughput sweep
# (scheduled events/sec at n ∈ {10³, 10⁵, 10⁶}, including the
# single-digit-second n = 10⁶ sifting round), BENCH_service.json
# with the E23 service load run (1M Zipf-skewed proposals; per-shard
# latency histograms), and BENCH_adversary.json with the E24 lattice
# sweep plus the E25 negative-tier verdicts, and BENCH_conformance.json
# with the E26 deterministic soak trajectory (per-claim sliding-window
# LCBs; byte-identical for a fixed seed). Raise SIFT_BENCH_MS for a
# steadier baseline on a quiet machine.
bench-json:
    SIFT_BENCH_JSON={{justfile_directory()}}/BENCH_shmem.json \
    cargo bench -p sift-bench --bench contention
    SIFT_BENCH_JSON={{justfile_directory()}}/BENCH_sim.json \
    cargo bench -p sift-bench --bench sim_engine
    SIFT_SERVICE_JSON={{justfile_directory()}}/BENCH_service.json \
    cargo run --release -p sift-bench --bin exp_service
    SIFT_ADVERSARY_JSON={{justfile_directory()}}/BENCH_adversary.json \
    cargo run --release -p sift-bench --bin exp_adversary
    SIFT_SOAK_JSON={{justfile_directory()}}/BENCH_conformance.json \
    cargo run --release -p sift-bench --bin exp_soak

# Refresh the tracked BENCH_obs.json: the contention bench with the
# substrate's counters compiled in, so it carries real CAS-retry /
# retire-pile / latency numbers (narrow with SIFT_BENCH_THREADS).
# Timings are not comparable to the default build's baseline.
bench-obs:
    SIFT_BENCH_OBS_JSON={{justfile_directory()}}/BENCH_obs.json \
    cargo bench -p sift-bench --features obs --bench contention

# Rust line counts per crate plus a total, over the tracked sources in
# crates/, src/, tests/ and examples/ (the figure every change reports).
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    git ls-files -- 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' | xargs wc -l | awk '
        $2 == "total" { next }
        { split($2, p, "/"); k = (p[1] == "crates") ? p[1] "/" p[2] : p[1]; n[k] += $1; t += $1 }
        END { for (k in n) printf "%8d  %s\n", n[k], k; printf "%8d  total\n", t }' | sort -k2
