# Convenience targets for the DAOS reproduction.

PYTHON ?= python

.PHONY: install test test-sanitize sanitize-smoke sweep-smoke trace-smoke chaos-smoke tiering-smoke bench bench-full bench-smoke bench-e2e-smoke examples figures clean lint fleet-smoke resume-smoke ci

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# The same suite with the SimSanitizer checking every epoch boundary and
# aggregation: checkers are read-only and RNG-free, so every determinism
# and byte-identity test must still pass.
test-sanitize:
	DAOS_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/

# The CLI under the sanitizer: seeded chaos (injected swap exhaustion,
# dropped ticks and pressure spikes must degrade the run without ever
# corrupting frame/swap/counter state), then a sanitized run and a
# sanitized two-worker sweep.
sanitize-smoke:
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 7 --time-scale 0.02 run parsec3/swaptions \
		-c rec --faults examples/faults/chaos.toml --sanitize
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 3 --time-scale 0.02 run parsec3/swaptions \
		-c rec --faults examples/faults/smoke.toml
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c prcl --sanitize
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --time-scale 0.02 sweep \
		--workloads parsec3/swaptions --configs baseline,rec --jobs 2 --no-cache --sanitize

# The sweep CLI on a spawn pool, twice into one cache: the second run
# must be served entirely from the cache.
sweep-smoke:
	rm -rf /tmp/daos-sweep-smoke
	$(PYTHON) -m repro.cli sweep --grid fig3 --jobs 2 --cache-dir /tmp/daos-sweep-smoke
	$(PYTHON) -m repro.cli sweep --grid fig3 --jobs 2 --cache-dir /tmp/daos-sweep-smoke \
		| grep '6 cached, 0 replayed, 0 executed, 0 failed'
	@echo "sweep smoke: the second sweep is all cache hits"

# Two identical seeded runs must write byte-identical canonical JSONL,
# and the stream must validate against the event schema (registered
# kinds, exact fields, monotone sim timestamps).
trace-smoke:
	rm -rf /tmp/daos-trace-smoke && mkdir -p /tmp/daos-trace-smoke
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c rec \
		--trace /tmp/daos-trace-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c rec \
		--trace /tmp/daos-trace-smoke/b.jsonl
	cmp /tmp/daos-trace-smoke/a.jsonl /tmp/daos-trace-smoke/b.jsonl
	$(PYTHON) -m repro.cli report /tmp/daos-trace-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c prcl \
		--trace /tmp/daos-trace-smoke/c.jsonl
	@echo "trace smoke: byte-identical and schema-valid"

# A seeded fault plan must degrade the run, not abort it, and must
# replay byte-identically: injection decisions come from per-spec RNG
# substreams keyed off the plan seed alone.  Then the all-kinds plan,
# and a faulted run and tune that must survive their plan.
chaos-smoke:
	rm -rf /tmp/daos-chaos-smoke && mkdir -p /tmp/daos-chaos-smoke
	$(PYTHON) -m repro.cli --seed 3 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/smoke.toml --trace /tmp/daos-chaos-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 3 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/smoke.toml --trace /tmp/daos-chaos-smoke/b.jsonl
	cmp /tmp/daos-chaos-smoke/a.jsonl /tmp/daos-chaos-smoke/b.jsonl
	$(PYTHON) -m repro.cli report /tmp/daos-chaos-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 7 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/chaos.toml
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/smoke.toml
	$(PYTHON) -m repro.cli --time-scale 0.02 tune splash2x/volrend -n 4 \
		--faults examples/faults/smoke.toml
	@echo "chaos smoke: faulted runs survive and replay byte-identically"

# A seeded run with a slow tier attached and a MIGRATE_HOT/MIGRATE_COLD
# scheme pair driving placement, twice under the sanitizer (placement
# invariants checked every epoch): the traces must compare byte for
# byte.  blackscholes cold-inits 440 MiB that then idles (demotion
# bait) and re-sweeps another 110 MiB (promotion bait), so at this
# scale the pair applies in both directions.  Then the unmanaged
# (first-touch) policy must complete.
tiering-smoke:
	rm -rf /tmp/daos-tiering-smoke && mkdir -p /tmp/daos-tiering-smoke
	printf '4K max 1 max min max migrate_hot\n4K max min min 500ms max migrate_cold\n' \
		> /tmp/daos-tiering-smoke/tiering.schemes
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 --tier cxl-dram \
		--tier-scale 0.01 run parsec3/blackscholes \
		--schemes /tmp/daos-tiering-smoke/tiering.schemes --trace /tmp/daos-tiering-smoke/a.jsonl
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 --tier cxl-dram \
		--tier-scale 0.01 run parsec3/blackscholes \
		--schemes /tmp/daos-tiering-smoke/tiering.schemes --trace /tmp/daos-tiering-smoke/b.jsonl
	cmp /tmp/daos-tiering-smoke/a.jsonl /tmp/daos-tiering-smoke/b.jsonl
	grep -q '"direction":"demote"' /tmp/daos-tiering-smoke/a.jsonl
	grep -q '"direction":"promote"' /tmp/daos-tiering-smoke/a.jsonl
	$(PYTHON) -m repro.cli report /tmp/daos-tiering-smoke/a.jsonl
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 --tier optane-pmm \
		--tier-scale 0.001 --tier-policy unmanaged run parsec3/swaptions -c baseline
	@echo "tiering smoke: migrations both ways, byte-identical under the sanitizer"

# Static analysis: the project's own linter (scheme semantics +
# determinism AST pass + DF3xx dataflow pass; fails on error-severity
# findings) over the package AND the test/benchmark trees, then ruff
# and mypy when installed (`pip install -e .[lint]`).  mypy is
# enforced for the strict allowlist (pyproject [[tool.mypy.overrides]]:
# fully annotated leaf modules stay that way) and advisory for the rest
# of the tree while it is incrementally typed.
lint:
	test -z "$$(git ls-files '*.pyc')"
	$(PYTHON) -m repro.cli lint src/repro --paths tests --paths benchmarks
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipping (pip install -e .[lint])"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/units.py src/repro/errors.py \
			src/repro/trace src/repro/lint src/repro/sanitize \
		&& { mypy || true; }; \
	else echo "mypy not installed; skipping (pip install -e .[lint])"; fi

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Every figure/table benchmark once at CI size: simulated durations
# shrunk to 5%, first failure stops.  The end-to-end benchmark has its
# own self-check below, so its directory is skipped here.
bench-smoke:
	REPRO_BENCH_SCALE=0.05 $(PYTHON) -m pytest benchmarks -x -q -p no:cacheprovider \
		--ignore=benchmarks/e2e

# The end-to-end benchmark's self-check (benchmarks/e2e/README.md): all
# seven workloads at 1/20 size, under 30 s.  Catches a renamed callable
# in LAYER_SPANS or a metric name drifting from BENCHMARK.json before
# the gate does; times are printed, not compared.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke

examples:
	for ex in examples/*.py; do echo "=== $$ex ==="; $(PYTHON) $$ex; done

# The fleet acceptance bar, locally: a seeded 10k-tenant fleet run
# twice under the sanitizer, canonical summaries byte-identical.  Then
# four shards on the sweep's worker pool must merge to the same summary
# (per-shard digests included) as the serial path.
fleet-smoke:
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --out /tmp/daos-fleet-a.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --out /tmp/daos-fleet-b.json
	cmp /tmp/daos-fleet-a.json /tmp/daos-fleet-b.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 2000 --duration 120 \
		--shards 4 -j 2 --out /tmp/daos-fleet-sharded-a.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 2000 --duration 120 \
		--shards 4 --out /tmp/daos-fleet-sharded-b.json
	cmp /tmp/daos-fleet-sharded-a.json /tmp/daos-fleet-sharded-b.json
	@echo "fleet smoke: byte-identical under the sanitizer, pool == serial"

# Crash-recovery proof from the CLI (the tier-1 property tests do the
# arbitrary-epoch and SIGKILL versions): a checkpointed fleet resumed
# from its midpoint snapshot must produce the same canonical summary
# as the uninterrupted run, and a journaled sweep replayed with
# --resume into a *fresh* cache must produce the same canonical report
# — proving the values come from the write-ahead journal, not the cache.
# Then a genuinely interrupted pooled sweep: SIGKILLed 1.5 s in
# (mid-grid on a 2-CPU host; no chance to clean up), --resume replays
# the journaled points and runs the rest, and the report must match an
# uninterrupted one wherever the kill landed.  Last, a faulted fleet checkpointed mid-run must resume
# onto the uninterrupted digest.
resume-smoke:
	rm -rf /tmp/daos-resume-smoke && mkdir -p /tmp/daos-resume-smoke
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 500 \
		--checkpoint /tmp/daos-resume-smoke/fleet.ckpt \
		--out /tmp/daos-resume-smoke/fleet-full.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli resume /tmp/daos-resume-smoke/fleet.ckpt \
		--out /tmp/daos-resume-smoke/fleet-resumed.json
	cmp /tmp/daos-resume-smoke/fleet-full.json /tmp/daos-resume-smoke/fleet-resumed.json
	$(PYTHON) -m repro.cli --time-scale 0.05 sweep \
		--workloads parsec3/swaptions --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal /tmp/daos-resume-smoke/wal --cache-dir /tmp/daos-resume-smoke/cache-a \
		--out /tmp/daos-resume-smoke/sweep-full.json
	$(PYTHON) -m repro.cli --time-scale 0.05 sweep \
		--workloads parsec3/swaptions --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal /tmp/daos-resume-smoke/wal --resume \
		--cache-dir /tmp/daos-resume-smoke/cache-b \
		--out /tmp/daos-resume-smoke/sweep-resumed.json
	cmp /tmp/daos-resume-smoke/sweep-full.json /tmp/daos-resume-smoke/sweep-resumed.json
	$(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--cache-dir /tmp/daos-resume-smoke/ref-cache --out /tmp/daos-resume-smoke/kill-ref.json
	timeout --signal=KILL 1.5 $(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal /tmp/daos-resume-smoke/kill-wal --cache-dir /tmp/daos-resume-smoke/killed-cache \
		--out /tmp/daos-resume-smoke/killed.json || true
	$(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal /tmp/daos-resume-smoke/kill-wal --resume \
		--cache-dir /tmp/daos-resume-smoke/resumed-cache --out /tmp/daos-resume-smoke/kill-resumed.json
	cmp /tmp/daos-resume-smoke/kill-ref.json /tmp/daos-resume-smoke/kill-resumed.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 500 --duration 180 \
		--faults examples/faults/fleet.toml --checkpoint /tmp/daos-resume-smoke/chaos.ckpt \
		--out /tmp/daos-resume-smoke/chaos-full.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli resume /tmp/daos-resume-smoke/chaos.ckpt \
		--out /tmp/daos-resume-smoke/chaos-resumed.json
	cmp /tmp/daos-resume-smoke/chaos-full.json /tmp/daos-resume-smoke/chaos-resumed.json
	@echo "resume smoke: checkpoint and journal replay are byte-identical"

# What CI gates a PR on, runnable locally, cheapest first.
ci: lint test test-sanitize sanitize-smoke sweep-smoke trace-smoke chaos-smoke tiering-smoke bench-smoke bench-e2e-smoke fleet-smoke resume-smoke

# One figure/table at a time, e.g. `make fig7`.
fig%:
	$(PYTHON) -m pytest benchmarks/bench_fig$*_*.py --benchmark-only -s

table%:
	$(PYTHON) -m pytest benchmarks/bench_table$*_*.py --benchmark-only -s

# Removes what .gitignore lists and nothing else: benchmarks/out holds
# committed artifacts.
clean:
	git clean -fdX
