# Developer entry points.  PYTHONPATH is injected so no editable
# install is required (the image has no network for pip).

PYTEST = PYTHONPATH=src python -m pytest

.PHONY: verify verify-full ci bench bench-smoke

# Tier-1: the fast suite (pytest.ini excludes `slow`-marked tests).
verify:
	$(PYTEST) -x -q

# Everything, including multi-process `slow` tests; the -m expression
# overrides the pytest.ini filter.
verify-full:
	$(PYTEST) -q -m "slow or not slow"

# What .github/workflows/ci.yml runs, locally: the tier-1 suite, then
# the registry CLI smoke (the capability matrix plus one
# downsized registry-driven experiment through the real CLI), then the
# reference-arm diff (E1, E6, E11 and E20 at the fast defaults and with
# `repro.core.trials.fastest_available` patched to resolve a default to
# the serial arm and `repro.core.trials.freeze` made the identity
# in-process, which selects the serial engine and generator and searches
# the mutable MultiGraph, must print byte-identical output), then the
# corpus-cache
# smoke (cold fill, warm replay with identical output, verify, and the
# serve smoke over the filled corpus), then
# the trial-store smoke (cold fill, warm replay with identical output
# and a nonzero hit tally, stat), then the
# churn smoke (a downsized E21 through the dynamic-graph flags, then at
# the default arms), then the serve smoke (a live `repro serve` daemon on a
# small grid answering a concurrent query stream through a trial
# store, every answer verified bit-identical to the batch path and
# every shared-memory segment verified unlinked on shutdown), then the
# perfbench self-test (toy sizes).
ci:
	$(PYTEST) -x -q
	PYTHONPATH=src python -m repro list
	PYTHONPATH=src python -m repro run E20 --quick --jobs 2
	PYTHONPATH=src python -m repro run E1,E6,E11,E20 --quick > .ci-default.out
	PYTHONPATH=src python -c "import repro.core.trials as t; r = t.fastest_available; t.fastest_available = lambda c, a: r(c or a[0], a); t.freeze = lambda g: g; from repro.cli import main; raise SystemExit(main(['run','E1,E6,E11,E20','--quick']))" > .ci-reference.out
	cmp .ci-default.out .ci-reference.out
	rm -f .ci-default.out .ci-reference.out
	rm -rf .ci-corpus
	PYTHONPATH=src python -m repro run E17 --quick --set sizes=60,120 --set num_graphs=2 --corpus-dir .ci-corpus | tee .ci-corpus-cold.log
	grep -q "corpus: 0 hits, 4 misses" .ci-corpus-cold.log
	PYTHONPATH=src python -m repro run E17 --quick --set sizes=60,120 --set num_graphs=2 --corpus-dir .ci-corpus | tee .ci-corpus-warm.log
	grep -q "corpus: 4 hits, 0 misses" .ci-corpus-warm.log
	grep -v "^corpus:" .ci-corpus-cold.log > .ci-corpus-cold.trimmed
	grep -v "^corpus:" .ci-corpus-warm.log > .ci-corpus-warm.trimmed
	diff .ci-corpus-cold.trimmed .ci-corpus-warm.trimmed
	PYTHONPATH=src python -m repro corpus verify .ci-corpus
	PYTHONPATH=src python -m repro serve --corpus .ci-corpus --smoke
	rm -rf .ci-corpus .ci-corpus-cold.log .ci-corpus-warm.log .ci-corpus-cold.trimmed .ci-corpus-warm.trimmed
	rm -rf .ci-store
	PYTHONPATH=src python -m repro run E17 --quick --set sizes=60,120 --set num_graphs=2 --cache-dir .ci-store | tee .ci-store-cold.log
	grep -q "store: 0 hits" .ci-store-cold.log
	PYTHONPATH=src python -m repro run E17 --quick --set sizes=60,120 --set num_graphs=2 --cache-dir .ci-store | tee .ci-store-warm.log
	grep -Eq "store: [1-9][0-9]* hits, 0 misses" .ci-store-warm.log
	grep -v "^store:" .ci-store-cold.log > .ci-store-cold.trimmed
	grep -v "^store:" .ci-store-warm.log > .ci-store-warm.trimmed
	diff .ci-store-cold.trimmed .ci-store-warm.trimmed
	PYTHONPATH=src python -m repro store stat .ci-store
	rm -rf .ci-store .ci-store-cold.log .ci-store-warm.log .ci-store-cold.trimmed .ci-store-warm.trimmed
	PYTHONPATH=src python -m repro run E21 --quick --churn-rate 0.1 --churn-bias degree --resnapshot-every 5
	PYTHONPATH=src python -m repro run E21 --quick
	rm -rf .ci-serve-store
	PYTHONPATH=src python -m repro serve --sizes 120 --seeds 3 --smoke --cache-store .ci-serve-store
	rm -rf .ci-serve-store
	python3 perfbench/selftest.py

# The layered benchmark's self-test: both workloads at toy sizes,
# checking every metric BENCHMARK.json declares is emitted with its
# unit (no timing gates).  Real runs:
# `python3 perfbench/run.py --workload <batch|serve-hop> --seed N`
# (see perfbench/README.md).  BENCH_PR2..10.json are frozen history.
bench-smoke:
	python3 perfbench/selftest.py

# Paper-scale benchmark harness.  REPRO_BENCH_JOBS fans trials out
# over worker processes; REPRO_BENCH_CACHE_DIR replays finished trials.
bench:
	$(PYTEST) -q -s benchmarks/bench_e1_mori_weak.py \
		benchmarks/bench_e2_mori_strong.py \
		benchmarks/bench_e3_cooper_frieze.py \
		benchmarks/bench_e6_degree_distribution.py \
		benchmarks/bench_e17_simulation.py \
		benchmarks/bench_e20_cross_model.py
