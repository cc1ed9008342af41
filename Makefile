# Mirror of the justfile for environments without `just`.

.PHONY: build test lint fmt-check doc example-smoke bench-smoke serve-smoke chaos-smoke net-smoke perfbench bench-json perf-check bench-all determinism stress ci

build:
	cargo build --release

test: build
	cargo test -q

lint:
	cargo clippy --workspace --all-targets -- -D warnings

fmt-check:
	cargo fmt --all -- --check

doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

example-smoke:
	cargo run --release --example quickstart

bench-smoke:
	cargo bench -p syncircuit-bench --bench micro

serve-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --requests 100 --tenants 4 --max-resident 2 --inflight 64 --queue 1024

chaos-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --requests 150 --tenants 3 --nodes 12 --max-resident 1

net-smoke:
	cargo run --release -p syncircuit-bench --bin load-gen -- --net --requests 100 --tenants 3 --workers 4 --max-resident 2 --inflight 64 --queue 1024
	cargo run --release -p syncircuit-bench --bin load-gen -- --chaos 7 --net --requests 100 --tenants 3 --nodes 12 --max-resident 1

perfbench:
	cargo build --offline --release --manifest-path perfbench/Cargo.toml
	cargo test --release --manifest-path perfbench/Cargo.toml

bench-json:
	BENCH_JSON=/tmp/syncircuit-bench-current.json cargo bench -p syncircuit-bench --bench micro
	cargo run --release -p syncircuit-bench --bin load-gen -- --json /tmp/syncircuit-serve-load.json
	cargo run --release -p syncircuit-bench --bin load-gen -- --net --json /tmp/syncircuit-serve-net.json
	cargo run --release -p syncircuit-bench --bin bench-json -- /tmp/syncircuit-bench-current.json /tmp/syncircuit-serve-load.json /tmp/syncircuit-serve-net.json BENCH_phase3.json

perf-check:
	cargo run --release -p syncircuit-bench --bin bench-json -- --check BENCH_phase3.json

bench-all:
	cargo bench -p syncircuit-bench

determinism:
	cargo test -q > /tmp/syncircuit-run1.raw 2>&1
	cargo test -q > /tmp/syncircuit-run2.raw 2>&1
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run1.raw > /tmp/syncircuit-run1.txt
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-run2.raw > /tmp/syncircuit-run2.txt
	diff /tmp/syncircuit-run1.txt /tmp/syncircuit-run2.txt
	@echo "deterministic: two runs identical"

stress:
	SYNCIRCUIT_STRESS_WORKERS=32 cargo test --release -q -p syncircuit-core --test shared_cache_equivalence
	SYNCIRCUIT_STRESS_WORKERS=32 cargo test --release -q -p syncircuit-synth incremental
	cargo test --release -q > /tmp/syncircuit-rel1.raw 2>&1
	cargo test --release -q > /tmp/syncircuit-rel2.raw 2>&1
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-rel1.raw > /tmp/syncircuit-rel1.txt
	sed -E 's/finished in [0-9.]+s//' /tmp/syncircuit-rel2.raw > /tmp/syncircuit-rel2.txt
	diff /tmp/syncircuit-rel1.txt /tmp/syncircuit-rel2.txt
	@echo "release determinism: two runs identical"

ci: build test lint doc example-smoke serve-smoke chaos-smoke net-smoke perfbench stress
