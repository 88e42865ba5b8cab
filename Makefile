# Convenience targets for the DAOS reproduction.

PYTHON ?= python

# The existing directory the smoke targets keep their scratch files
# in.  Give each concurrent run its own (make SMOKE_DIR=<dir>
# resume-smoke), or where /tmp is off limits: the targets clear their
# own subdirectories of it before they start.
SMOKE_DIR ?= /tmp

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
# must be served entirely from the cache.  Then a recording grid (the
# rec points carry snapshots) cold into a cache; the rec entry is then
# truncated, so the next run must miss it, re-execute it and report the
# cold bytes; a last warm run is all hits.  Every report, decoded from
# the cache and encoded again, must equal the cold one byte for byte.
sweep-smoke:
	rm -rf $(SMOKE_DIR)/daos-sweep-smoke $(SMOKE_DIR)/daos-sweep-smoke-rec && mkdir -p $(SMOKE_DIR)/daos-sweep-smoke-rec
	$(PYTHON) -m repro.cli sweep --grid fig3 --jobs 2 --cache-dir $(SMOKE_DIR)/daos-sweep-smoke
	$(PYTHON) -m repro.cli sweep --grid fig3 --jobs 2 --cache-dir $(SMOKE_DIR)/daos-sweep-smoke \
		| grep '6 cached, 0 replayed, 0 executed, 0 failed'
	$(PYTHON) -m repro.cli --time-scale 0.02 sweep --workloads parsec3/swaptions \
		--configs baseline,rec --jobs 2 --cache-dir $(SMOKE_DIR)/daos-sweep-smoke-rec/cache \
		--out $(SMOKE_DIR)/daos-sweep-smoke-rec/cold.json
	grep -la '\["config","rec"\]' $(SMOKE_DIR)/daos-sweep-smoke-rec/cache/*/*.json | xargs truncate -s 100
	$(PYTHON) -m repro.cli --time-scale 0.02 sweep --workloads parsec3/swaptions \
		--configs baseline,rec --jobs 2 --cache-dir $(SMOKE_DIR)/daos-sweep-smoke-rec/cache \
		--out $(SMOKE_DIR)/daos-sweep-smoke-rec/miss.json \
		| grep '1 cached, 0 replayed, 1 executed, 0 failed'
	cmp $(SMOKE_DIR)/daos-sweep-smoke-rec/cold.json $(SMOKE_DIR)/daos-sweep-smoke-rec/miss.json
	$(PYTHON) -m repro.cli --time-scale 0.02 sweep --workloads parsec3/swaptions \
		--configs baseline,rec --jobs 2 --cache-dir $(SMOKE_DIR)/daos-sweep-smoke-rec/cache \
		--out $(SMOKE_DIR)/daos-sweep-smoke-rec/warm.json \
		| grep '2 cached, 0 replayed, 0 executed, 0 failed'
	cmp $(SMOKE_DIR)/daos-sweep-smoke-rec/cold.json $(SMOKE_DIR)/daos-sweep-smoke-rec/warm.json
	@echo "sweep smoke: a truncated entry re-runs, the second sweeps are all cache hits, every report equals the cold"

# Two identical seeded runs must write byte-identical canonical JSONL,
# and the stream must validate against the event schema (registered
# kinds, exact fields, monotone sim timestamps).
trace-smoke:
	rm -rf $(SMOKE_DIR)/daos-trace-smoke && mkdir -p $(SMOKE_DIR)/daos-trace-smoke
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c rec \
		--trace $(SMOKE_DIR)/daos-trace-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c rec \
		--trace $(SMOKE_DIR)/daos-trace-smoke/b.jsonl
	cmp $(SMOKE_DIR)/daos-trace-smoke/a.jsonl $(SMOKE_DIR)/daos-trace-smoke/b.jsonl
	$(PYTHON) -m repro.cli report $(SMOKE_DIR)/daos-trace-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 run parsec3/swaptions -c prcl \
		--trace $(SMOKE_DIR)/daos-trace-smoke/c.jsonl
	@echo "trace smoke: byte-identical and schema-valid"

# A seeded fault plan must degrade the run, not abort it, and must
# replay byte-identically: injection decisions come from per-spec RNG
# substreams keyed off the plan seed alone.  Then the all-kinds plan,
# and a faulted run and tune that must survive their plan.
chaos-smoke:
	rm -rf $(SMOKE_DIR)/daos-chaos-smoke && mkdir -p $(SMOKE_DIR)/daos-chaos-smoke
	$(PYTHON) -m repro.cli --seed 3 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/smoke.toml --trace $(SMOKE_DIR)/daos-chaos-smoke/a.jsonl
	$(PYTHON) -m repro.cli --seed 3 --time-scale 0.02 run parsec3/swaptions -c rec \
		--faults examples/faults/smoke.toml --trace $(SMOKE_DIR)/daos-chaos-smoke/b.jsonl
	cmp $(SMOKE_DIR)/daos-chaos-smoke/a.jsonl $(SMOKE_DIR)/daos-chaos-smoke/b.jsonl
	$(PYTHON) -m repro.cli report $(SMOKE_DIR)/daos-chaos-smoke/a.jsonl
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
	rm -rf $(SMOKE_DIR)/daos-tiering-smoke && mkdir -p $(SMOKE_DIR)/daos-tiering-smoke
	printf '4K max 1 max min max migrate_hot\n4K max min min 500ms max migrate_cold\n' \
		> $(SMOKE_DIR)/daos-tiering-smoke/tiering.schemes
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 --tier cxl-dram \
		--tier-scale 0.01 run parsec3/blackscholes \
		--schemes $(SMOKE_DIR)/daos-tiering-smoke/tiering.schemes --trace $(SMOKE_DIR)/daos-tiering-smoke/a.jsonl
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 5 --time-scale 0.02 --tier cxl-dram \
		--tier-scale 0.01 run parsec3/blackscholes \
		--schemes $(SMOKE_DIR)/daos-tiering-smoke/tiering.schemes --trace $(SMOKE_DIR)/daos-tiering-smoke/b.jsonl
	cmp $(SMOKE_DIR)/daos-tiering-smoke/a.jsonl $(SMOKE_DIR)/daos-tiering-smoke/b.jsonl
	grep -q '"direction":"demote"' $(SMOKE_DIR)/daos-tiering-smoke/a.jsonl
	grep -q '"direction":"promote"' $(SMOKE_DIR)/daos-tiering-smoke/a.jsonl
	$(PYTHON) -m repro.cli report $(SMOKE_DIR)/daos-tiering-smoke/a.jsonl
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
	$(PYTHON) -m repro.cli lint src/repro tests benchmarks
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
	else echo "ruff not installed; skipping (pip install -e .[lint])"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/units.py src/repro/errors.py \
			src/repro/clock.py src/repro/version.py src/repro/diagnostics.py \
			src/repro/monitor/region.py src/repro/schemes/analyzer.py \
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

# Every example end to end; the first one that fails stops the target
# with its exit status.
examples:
	for ex in examples/*.py; do echo "=== $$ex ==="; $(PYTHON) $$ex || exit 1; done

# The fleet acceptance bar, locally: a seeded 10k-tenant fleet run
# twice under the sanitizer, canonical summaries byte-identical, then
# the same at 180 s under the fleet chaos plan (the windows of its
# tenant storm and pool pressure spike both open, so the storm path
# runs at gate scale).  Then four shards on the sweep's worker pool must
# merge to the same summary (per-shard digests included) as the serial
# path.
fleet-smoke:
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --out $(SMOKE_DIR)/daos-fleet-a.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --out $(SMOKE_DIR)/daos-fleet-b.json
	cmp $(SMOKE_DIR)/daos-fleet-a.json $(SMOKE_DIR)/daos-fleet-b.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --duration 180 \
		--faults examples/faults/fleet-10k.toml --out $(SMOKE_DIR)/daos-fleet-chaos-a.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 10000 --duration 180 \
		--faults examples/faults/fleet-10k.toml --out $(SMOKE_DIR)/daos-fleet-chaos-b.json
	cmp $(SMOKE_DIR)/daos-fleet-chaos-a.json $(SMOKE_DIR)/daos-fleet-chaos-b.json
	! grep -q '"reclaim_passes":0,' $(SMOKE_DIR)/daos-fleet-chaos-a.json \
		|| { echo "fleet chaos run never reached the pressure pass" >&2; exit 1; }
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 2000 --duration 120 \
		--shards 4 -j 2 --out $(SMOKE_DIR)/daos-fleet-sharded-a.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 2000 --duration 120 \
		--shards 4 --out $(SMOKE_DIR)/daos-fleet-sharded-b.json
	cmp $(SMOKE_DIR)/daos-fleet-sharded-a.json $(SMOKE_DIR)/daos-fleet-sharded-b.json
	@echo "fleet smoke: byte-identical under the sanitizer, with and without the chaos plan (which reaches the pressure pass); pool == serial"

# Crash-recovery proof from the CLI (the tier-1 property tests do the
# arbitrary-epoch and SIGKILL versions): a checkpointed fleet resumed
# from its midpoint snapshot must produce the same canonical summary
# as the uninterrupted run, and a journaled sweep replayed with
# --resume into a *fresh* cache must produce the same canonical report
# — proving the values come from the write-ahead journal, not the cache.
# Then a genuinely interrupted pooled sweep: SIGKILLed 1.5 s in
# (mid-grid on a 2-CPU host; no chance to clean up), --resume replays
# the journaled points and runs the rest, and the report must match an
# uninterrupted one wherever the kill landed.  Then a faulted fleet
# checkpointed mid-run, whose chaos plan must reach the pressure pass,
# must resume onto the uninterrupted digest.  Last, the checkpoint
# format from the CLI: a daos-ckpt-v1 file exits 4 with one error line
# naming its format, and the pinned v2 run fixture (another tree's code
# version) resumes with --allow-version-skew.
resume-smoke:
	rm -rf $(SMOKE_DIR)/daos-resume-smoke && mkdir -p $(SMOKE_DIR)/daos-resume-smoke
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 500 \
		--checkpoint $(SMOKE_DIR)/daos-resume-smoke/fleet.ckpt \
		--out $(SMOKE_DIR)/daos-resume-smoke/fleet-full.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli resume $(SMOKE_DIR)/daos-resume-smoke/fleet.ckpt \
		--out $(SMOKE_DIR)/daos-resume-smoke/fleet-resumed.json
	cmp $(SMOKE_DIR)/daos-resume-smoke/fleet-full.json $(SMOKE_DIR)/daos-resume-smoke/fleet-resumed.json
	$(PYTHON) -m repro.cli --time-scale 0.05 sweep \
		--workloads parsec3/swaptions --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal $(SMOKE_DIR)/daos-resume-smoke/wal --cache-dir $(SMOKE_DIR)/daos-resume-smoke/cache-a \
		--out $(SMOKE_DIR)/daos-resume-smoke/sweep-full.json
	$(PYTHON) -m repro.cli --time-scale 0.05 sweep \
		--workloads parsec3/swaptions --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal $(SMOKE_DIR)/daos-resume-smoke/wal --resume \
		--cache-dir $(SMOKE_DIR)/daos-resume-smoke/cache-b \
		--out $(SMOKE_DIR)/daos-resume-smoke/sweep-resumed.json
	cmp $(SMOKE_DIR)/daos-resume-smoke/sweep-full.json $(SMOKE_DIR)/daos-resume-smoke/sweep-resumed.json
	$(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--cache-dir $(SMOKE_DIR)/daos-resume-smoke/ref-cache --out $(SMOKE_DIR)/daos-resume-smoke/kill-ref.json
	timeout --signal=KILL 1.5 $(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal $(SMOKE_DIR)/daos-resume-smoke/kill-wal --cache-dir $(SMOKE_DIR)/daos-resume-smoke/killed-cache \
		--out $(SMOKE_DIR)/daos-resume-smoke/killed.json || true
	$(PYTHON) -m repro.cli --time-scale 0.2 sweep \
		--workloads parsec3/swaptions,parsec3/dedup,parsec3/freqmine --configs baseline,prcl --seeds 0,1 -j 2 \
		--journal $(SMOKE_DIR)/daos-resume-smoke/kill-wal --resume \
		--cache-dir $(SMOKE_DIR)/daos-resume-smoke/resumed-cache --out $(SMOKE_DIR)/daos-resume-smoke/kill-resumed.json
	cmp $(SMOKE_DIR)/daos-resume-smoke/kill-ref.json $(SMOKE_DIR)/daos-resume-smoke/kill-resumed.json
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli --seed 42 fleet -n 500 --duration 180 \
		--faults examples/faults/fleet-500.toml --checkpoint $(SMOKE_DIR)/daos-resume-smoke/chaos.ckpt \
		--out $(SMOKE_DIR)/daos-resume-smoke/chaos-full.json
	! grep -q '"reclaim_passes":0,' $(SMOKE_DIR)/daos-resume-smoke/chaos-full.json \
		|| { echo "fleet chaos run never reached the pressure pass" >&2; exit 1; }
	DAOS_SANITIZE=1 $(PYTHON) -m repro.cli resume $(SMOKE_DIR)/daos-resume-smoke/chaos.ckpt \
		--out $(SMOKE_DIR)/daos-resume-smoke/chaos-resumed.json
	cmp $(SMOKE_DIR)/daos-resume-smoke/chaos-full.json $(SMOKE_DIR)/daos-resume-smoke/chaos-resumed.json
	$(PYTHON) -m repro.cli resume tests/fixtures/parent-run.ckpt \
		2> $(SMOKE_DIR)/daos-resume-smoke/v1.err; test $$? -eq 4
	test "$$(grep -c '^error:' $(SMOKE_DIR)/daos-resume-smoke/v1.err)" -eq 1
	grep -q '^error:.*daos-ckpt-v1' $(SMOKE_DIR)/daos-resume-smoke/v1.err
	$(PYTHON) -m repro.cli resume --allow-version-skew tests/fixtures/parent-run-v2.ckpt
	@echo "resume smoke: checkpoint and journal replay are byte-identical; v1 files are refused"

# What CI gates a PR on, runnable locally, cheapest first.
ci: lint test examples test-sanitize sanitize-smoke sweep-smoke trace-smoke chaos-smoke tiering-smoke bench-smoke bench-e2e-smoke fleet-smoke resume-smoke

# One figure/table at a time, e.g. `make fig7`.
fig%:
	$(PYTHON) -m pytest benchmarks/bench_fig$*_*.py --benchmark-only -s

table%:
	$(PYTHON) -m pytest benchmarks/bench_table$*_*.py --benchmark-only -s

# Removes what .gitignore lists and nothing else: benchmarks/out holds
# committed artifacts.
clean:
	git clean -fdX
