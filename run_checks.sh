#!/bin/sh
# CI entry point.
#
# Two test passes: the full suite without the race detector, then a -short
# race pass. The race pass skips the training-heavy end-to-end runners
# (roughly 10x slower under the detector) but fully covers the campaign
# trial engine, whose tests drive Workers>1 over replicas sharing one
# trained parameter set — the concurrency that matters (including the
# shared obs metrics registry under eight workers).
#
# The fuzz smoke lines give each coverage-guided target a 10-second
# budget: enough to exercise the mutation engine against the seed corpus
# on every CI run without turning CI into a fuzzing farm.
set -eux

# The size figure a simplicity PR reports in CHANGES.md: non-test Go
# lines under internal/ + cmd/, with the packages such PRs usually touch
# broken out. Printed first so the figure comes from this script and is
# there even when a later gate fails.
count_go_lines() {
	find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}
echo "non-test Go lines: internal/ + cmd/ $(count_go_lines internal cmd)" \
	"(internal/experiments $(count_go_lines internal/experiments)," \
	"internal/serve $(count_go_lines internal/serve)," \
	"internal/tensor $(count_go_lines internal/tensor), cmd/ $(count_go_lines cmd))"

# Every Go file is gofmt-formatted.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
go test -race -short -timeout 20m ./...

# The kernel backend ships amd64 assembly behind build tags — the GEMM
# micro-kernels, the int8 quantize/requantize tier and the float32
# BatchNorm/ReLU tier — and the `go vet ./...` above runs asmdecl over
# every TEXT symbol of it; the arm64-crossed vet+build prove the portable
# (noasm) half of every signature still compiles, so a kernel-signature
# change can't silently break non-amd64 targets (check_kernels below runs
# that half on this box under -tags noasm).
GOARCH=arm64 go vet ./...
GOARCH=arm64 go build ./...

# The kernel backend promises bit-identical results at every worker
# count; -cpu varies GOMAXPROCS so the persistent pool actually runs
# multi-threaded (the container may default to 1 CPU), and the bench
# smoke compiles + executes every benchmark once so kernel-path rot
# can't hide behind "benchmarks aren't tests" — BenchmarkConvForward_*
# has a case on each conv lowering: the direct lowering over a bordered
# plane (_DenseLayer and the other padded stride-1 3x3 cases), the
# shifted-plane im2col copy (_Tiny4x4, whose 4x4 map the direct lowering
# declines), the per-row copy (_Unpadded), the strided fallback
# (_Strided) and the in-place 1x1 (_Pointwise).
# _Batch8Tiny4x4 and _Batch8Stage3 are the Fig. 3 workload's ResNet-18
# stage-4 (im2col) and stage-3 (direct) convs at batch 8, every unit
# reading the float32 weights in place as A.
# BenchmarkConvInt8Forward_* runs the int8 direct lowering over a
# zero-point-bordered plane with A panels packed once (_DenseLayer,
# _Dense8x8) and the int8 1x1 it declines (_Transition).
go test -cpu 1,4 ./internal/tensor ./internal/nn ./internal/campaign
go test -run='^$' -bench . -benchtime 1x ./internal/tensor

# A gate that selects tests, or a fuzz target, by pattern must select
# something: go test exits 0 with "[no tests to run]" (or "no fuzz tests
# to fuzz") when a pattern matches nothing, so a renamed test would turn
# its gate into a silent no-op. check_selected runs go test with the
# given arguments and fails in that case too.
check_selected() {
	if ! out=$(go test "$@" 2>&1); then
		echo "FAIL: go test $* failed" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "$out"
	if echo "$out" | grep -Eq 'no tests to run|no fuzz tests to fuzz'; then
		echo "FAIL: go test $* selected nothing (renamed or deleted test?)" >&2
		exit 1
	fi
}

# Multi-lane entries promise cross-lane isolation (each lane's logits
# bit-identical to a solo run) and demotion that never drops, duplicates
# or alters a trial. Run that wall under the race detector at both
# GOMAXPROCS settings: lane arming is serialized per replica, and this
# is the line that proves it. (That the planner schedules every trial
# exactly once is sched's own wall: FuzzBuildPlan below and the floor
# on ./internal/campaign/sched.)
check_selected -race -cpu 1,4 -run 'TestCrossLaneIsolation|TestBatchedRun|TestDemotionRunsThroughTheSameExecutor|TestNoLanesNoPlanner' ./internal/campaign

# One tensor.CheckpointStore serves every worker of a campaign. Its
# concurrent test writes and reads overlapping keys from eight goroutines
# under a budget that evicts snapshots readers still hold, and measures
# what the heap retains; repeated under the race detector at both
# GOMAXPROCS settings because a data race only shows in interleavings a
# run happens to take.
check_selected -race -count=10 -cpu 1,4 -run 'TestCheckpointStoreConcurrent' ./internal/tensor

# One campaign.CleanCache serves every Run on a fixture. Its concurrent
# test starts two campaigns and the four shards of a third on one cache
# and requires each sample's clean pass to run exactly once; its failure
# test requires a panicked pass to leave no entry behind. The real
# CampaignEnv has the same wall. Repeated under the race detector for the
# same reason as the store's.
check_selected -race -count=5 -cpu 1,4 -run 'TestCleanCacheConcurrentRunsComputeOnce|TestCleanCacheFailureIsNotCached' ./internal/campaign
# The clean cache notes a walk's timings before it publishes the sample,
# so a Run that finds every sample computed by another still plans on
# timed costs, the scheduler's only cost source.
check_selected -race -count=5 -cpu 1,4 -run 'TestCleanCachePublishesTimedCosts|TestCleanCacheBorrowedSamplesPlanTimed' ./internal/campaign
check_selected -race -cpu 1,4 -run 'TestCampaignEnvOwnsTheCleanPass' ./internal/experiments

# Per-package statement-coverage floors for the thin support packages.
# Their public APIs are small and fully table-testable, so coverage that
# drops below the floor means new code landed without tests.
#
# The go-test run and the percentage extraction are checked separately:
# a failing test, a package with no tests, or a changed -cover output
# format must each FAIL loudly, not slide through as an empty $pct that
# some awk comparison happens to accept.
check_cover() {
	if ! out=$(go test -cover "$1"); then
		echo "FAIL: go test -cover $1 failed" >&2
		echo "$out" >&2
		exit 1
	fi
	pct=$(echo "$out" | grep -o 'coverage: [0-9.]*' | grep -o '[0-9.]*') || true
	if [ -z "$pct" ]; then
		echo "FAIL: no coverage figure in 'go test -cover $1' output (package untested or output format changed)" >&2
		echo "$out" >&2
		exit 1
	fi
	awk -v p="$pct" -v f="$2" 'BEGIN { exit !(p >= f) }' || {
		echo "FAIL: coverage ${pct}% of $1 below floor $2%" >&2
		exit 1
	}
}
check_cover ./internal/train 95
check_cover ./internal/quant 95
check_cover ./internal/ibp 90
# The campaign engine carries the probe, the one executor and its
# demotion path; the floor keeps them from growing untested branches.
check_cover ./internal/campaign 88
# The scheduler decides how every batched campaign executes; its cost
# model and DP partition are pure functions with table-driven tests, so
# the floor is high.
check_cover ./internal/campaign/sched 90
# The statistical layer decides when campaigns STOP; an untested branch
# here silently changes which trials a study runs. check_stats groups
# its gates: the fixed-seed property suite (interval coverage over a
# 1000-seed Monte Carlo matrix, stop monotonicity, stratified
# unbiasedness — pure math + pure folds, so the floor is the highest in
# the tree), the race-detected stop wall (stop-index determinism across
# the execution matrix, dedup-vs-brute-force equality, the
# cancellation-mid-stop shutdown ordering, the committed stop golden),
# and a coverage-guided FuzzStopRule smoke.
check_stats() {
	check_cover ./internal/campaign/stats 90
	check_selected -race -cpu 1,4 -run 'TestStopIndexDeterministic|TestStopUnchangedByDedup|TestDedupMatchesBruteForce|TestCancellationMidStopLeg|TestGoldenCampaignStop' ./internal/campaign
	check_selected -run='^$' -fuzz='^FuzzStopRule$' -fuzztime=10s ./internal/campaign/stats
}
check_stats

# The quantized backend's gates: the int8 golden fixture re-run under
# the race detector (the full worker x schedule x reuse matrix against
# one committed aggregate — byte-identity is the backend's core promise,
# and int32 accumulation makes it exact, not approximate), a coverage
# floor over internal/tensor (where all new int8 kernels live), and a
# one-iteration int8-vs-f32 campaign bench smoke so the quantized
# pipeline in bench_test.go can't rot between full runs (BENCH_int8.json
# records the measured ratio). The elementwise tier (quantize before
# every int8 layer, the snap fused into its epilogue) has its own wall:
# AVX2, forced-scalar and the pre-fusion reference loops equal bit for
# bit on special, tie and random inputs at every tail length, the nn
# forward equal to the old two-pass fold-then-snap, both under the race
# detector at both GOMAXPROCS settings (the tests flip the shared AVX2
# gate), and a coverage-guided reference-vs-dispatch fuzz smoke. asmdecl
# over the two kernels runs in the `go vet ./...` pass at the top.
check_int8() {
	check_selected -race -cpu 1,4 -run 'TestGoldenCampaignAggregates/int8' ./internal/campaign
	check_cover ./internal/tensor 90
	go test -run='^$' -bench 'BenchmarkCampaign(F32|Int8)$' -benchtime 1x .
	check_selected -race -cpu 1,4 -run 'TestQuantizeI8VecMatchesReference|TestRequantEpilogueMatchesReference' ./internal/tensor
	check_selected -race -cpu 1,4 -run 'TestQuantizedForwardSnapsInEpilogue' ./internal/nn
	check_selected -run='^$' -fuzz='^FuzzQuantizeI8$' -fuzztime=10s ./internal/tensor
}
check_int8

# The float32 elementwise tier's gates, and the portable build. The eval
# BatchNorm map and the (clipped) rectifier run as AVX2 kernels with the
# scalar rule on tails: AVX2, forced-scalar and the pre-vector reference
# loops equal bit for bit on special and random inputs, scale/shift
# pairs and caps at every tail length; the 2×2 average pool's unrolled
# loop equals the generic one; a whole mini-DenseNet eval forward equals
# itself on the scalar kernels — all under the race detector at both
# GOMAXPROCS settings (the tests flip the shared AVX2 gate) — and a
# reference-vs-dispatch fuzz smoke. Then the noasm build tag, which drops
# every assembly file for its portable twin, runs the tensor and nn suites
# and the campaign goldens on the scalar kernels this box would otherwise
# only reach through gate flips. asmdecl over the new kernels runs in the
# `go vet ./...` pass at the top; the arm64 lines cover the twins' build.
# Both backends run one blocked-GEMM driver, one parallel partitioner and
# one conv lowering on pooled per-type arenas, so the four worker-count
# identity walls (GEMM and conv, float32 and int8) run under the race
# detector at both GOMAXPROCS settings too, as does the direct conv
# lowering's parity wall (direct vs im2col vs scalar twins, bit for bit,
# Inf and NaN weights included) with a fuzz smoke over its geometries.
check_kernels() {
	check_selected -race -cpu 1,4 -run 'TestScaleShiftMatchesScalar|TestClampMatchesBranchingLoop|TestAvgPool2dIntoMatchesGeneric' ./internal/tensor
	check_selected -race -cpu 1,4 -run 'TestGEMMWorkerCountBitIdentical|TestGemmI8WorkerCountIdentity|TestConvWorkerCountBitIdentical|TestConv2dInt8WorkerCountIdentity' ./internal/tensor
	check_selected -race -cpu 1,4 -run 'TestConvDirectMatchesIm2col|TestConvDirectRouting|TestConv2dMatchesNaive' ./internal/tensor
	# The packed-panel path runs the offset-table micro-kernels through
	# panelOffs: the kernel twins' parity, and every k-chunk, row and
	# column edge against the naive reference on both kernel tiers.
	check_selected -race -cpu 1,4 -run 'TestPackedPathMatchesNaive|TestKernI8AVXMatchesScalar' ./internal/tensor
	check_selected -tags noasm -run 'TestPackedPathMatchesNaive' ./internal/tensor
	# The float32 kernels read A in place through a row and a k stride:
	# A as a sub-matrix of a wider one under both transposes, the guard
	# in front of the unchecked assembly reads, and the bias the direct
	# staging's compaction adds.
	check_selected -race -cpu 1,4 -run 'TestInPlaceAMatchesNaive|TestInPlaceAReadPastEndPanics|TestConvBiasSameBitsOnEveryStaging' ./internal/tensor
	check_selected -tags noasm -run 'TestInPlaceAMatchesNaive|TestInPlaceAReadPastEndPanics|TestConvBiasSameBitsOnEveryStaging' ./internal/tensor
	# The tensor level is bit-identical up to NaN payload; nothing a
	# campaign persists may depend on the payload.
	check_selected -run 'TestClassifyIgnoresNaNPayload' ./internal/campaign
	check_selected -run 'TestMSEReportCanonicalNaN' ./internal/scenario
	# The int8 direct lowering's wall, its panels' Set, and weight faults
	# keeping code, row sum and panel in lockstep through SetCode.
	check_selected -race -cpu 1,4 -run 'TestConvDirectMatchesIm2col/int8|TestConvPanelsI8Set' ./internal/tensor
	check_selected -race -cpu 1,4 -run 'TestQuantizedWeightFaultPanelsLockstep' ./internal/core
	check_selected -race -cpu 1,4 -run 'TestSetCodeKeepsRowSumAndPanels' ./internal/nn
	check_selected -tags noasm -run 'TestConvDirectMatchesIm2col/int8|TestConvPanelsI8Set' ./internal/tensor
	check_selected -tags noasm -run 'TestQuantizedWeightFaultPanelsLockstep' ./internal/core
	# The int8 pointwise slab and im2col stagings read the panels too:
	# those rows of the wall, against the per-call pack and the naive
	# reference.
	check_selected -race -cpu 1,4 -run 'TestConvDirectMatchesIm2col/int8/(pointwise|stride2)' ./internal/tensor
	check_selected -tags noasm -run 'TestConvDirectMatchesIm2col/int8/(pointwise|stride2)' ./internal/tensor
	# Every int8 GEMM reads A from the layer's weight panels: the linear
	# layer (B the input codes read transposed) against a naive int32
	# reference, a blocked GEMM without panels rejected by name, and a
	# short bias rejected on the caller's goroutine.
	check_selected -race -cpu 1,4 -run 'TestLinearInt8MatchesNaive|TestInt8ShortBiasRejected|TestGemmI8Accumulating' ./internal/tensor
	check_selected -tags noasm -run 'TestLinearInt8MatchesNaive|TestInt8ShortBiasRejected|TestGemmI8Accumulating' ./internal/tensor
	# The lazy trial RNG is math/rand's stream, draw for draw.
	check_selected -run 'TestTrialSourceMatchesMathRand' ./internal/campaign
	check_selected -race -cpu 1,4 -run 'TestEvalForwardMatchesScalarKernels' ./internal/nn
	check_selected -run='^$' -fuzz='^FuzzClamp$' -fuzztime=10s ./internal/tensor
	check_selected -run='^$' -fuzz='^FuzzConvDirect$' -fuzztime=10s ./internal/tensor
	go test -tags noasm ./internal/tensor ./internal/nn
	check_selected -tags noasm -run 'TestGoldenCampaignAggregates' ./internal/campaign
}
check_kernels

# The region suffix (a solo neuron-fault trial computes only the crop its
# fault reaches after the armed node, and stops when it is masked) must
# equal the dense suffix bit for bit: its differential wall on DenseNet
# and AlexNet, both backends, the per-rule wall with strided and padded
# geometries, the fallback rules and the suffix metrics at one worker and
# eight, under the race detector at both GOMAXPROCS settings and on the
# scalar kernels, beside the golden aggregates, plus a fuzz smoke. Its
# scalar code rounds every product that feeds a sum, so the arm64
# compiler listing of its functions holds no fused multiply-add.
check_region() {
	check_selected -race -cpu 1,4 -run 'TestRegionSuffixMatchesDense' ./internal/core
	check_selected -race -cpu 1,4 -run 'TestRegionSuffixFallsBack|TestRegionSuffixMetrics' ./internal/campaign
	check_selected -race -cpu 1,4 -run 'TestRegionSettleComparesBits|TestRegionRulesMatchDense|TestContainersReuseOutputBuffers' ./internal/nn
	check_selected -tags noasm -run 'TestRegionSuffixMatchesDense' ./internal/core
	check_selected -tags noasm -run 'TestRegionSuffixFallsBack|TestRegionSuffixMetrics|TestGoldenCampaignAggregates' ./internal/campaign
	check_selected -tags noasm -run 'TestRegionSettleComparesBits|TestRegionRulesMatchDense' ./internal/nn
	check_selected -run='^$' -fuzz='^FuzzRegionSuffix$' -fuzztime=10s ./internal/core
	listing=$(mktemp)
	GOARCH=arm64 go build -a -gcflags='gofi/internal/nn=-S' -o /dev/null ./internal/nn 2>"$listing"
	fused=$(awk '/^gofi\/internal\/nn\.[^ ]+ STEXT/ { fn = $1 }
		fn ~ /[Rr]egion|evalAffine|copyBox|reachDim|sameBits/ && /\t(FMADD|FMSUB|FNMADD|FNMSUB)/ { print fn }' "$listing")
	rm -f "$listing"
	if [ -n "$fused" ]; then
		echo "FAIL: fused multiply-add in region-suffix code on arm64: $fused" >&2
		exit 1
	fi
}
check_region

# The campaign service's gates: the serve test wall under the race
# detector (sharded byte-identity against the local single-machine run,
# kill/resume determinism over durable checkpoints and truncated crash
# logs, stop-index pinning, the HTTP surface), the engine-layer
# shard-merge golden at both GOMAXPROCS settings (merged shard ranges
# {1,2,4,7} re-folded in global index order must hit the committed
# goldens across the worker x schedule x reuse corners), a coverage
# floor over the wire/coordinator/HTTP code, and the CLI end-to-end
# smokes (gofi-serve boot/shutdown, gofi-campaign -submit round trip).
# Three promises are gated by name under the race detector, so renaming
# a test fails CI: a live stream delivers every folded record and a done
# event while reading the log once (the fold and its streamers share the
# record log), the fixture cache stays within its cap without disturbing
# a campaign that runs on an evicted entry, and one gofi-campaign command
# line prints one report locally and with -submit.
# serve_smoke then checks the last promise on the built binaries, at a
# campaign long enough (3000 trials) to outgrow the log buffer many times.
serve_smoke() {
	tmp=$(mktemp -d)
	go build -o "$tmp/gofi-serve" ./cmd/gofi-serve
	go build -o "$tmp/gofi-campaign" ./cmd/gofi-campaign
	"$tmp/gofi-serve" -dir "$tmp/state" -addr 127.0.0.1:0 >"$tmp/serve.out" 2>&1 &
	serve_pid=$!
	trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
	url=
	for _ in $(seq 100); do
		url=$(sed -n 's/.*listening on \(http:[^ ]*\) .*/\1/p' "$tmp/serve.out")
		[ -n "$url" ] && break
		sleep 0.1
	done
	[ -n "$url" ] || { echo "FAIL: gofi-serve never announced its address" >&2; cat "$tmp/serve.out" >&2; exit 1; }
	set -- -model alexnet -classes 4 -size 16 -epochs 4 -seed 9 -dtype fp32 -scope fmap -trials 3000 -workers 2
	"$tmp/gofi-campaign" "$@" | sed -n '/^clean accuracy/,$p' >"$tmp/local.txt"
	"$tmp/gofi-campaign" "$@" -submit "$url" -shards 2 | sed -n '/^clean accuracy/,$p' >"$tmp/served.txt"
	kill "$serve_pid"
	wait "$serve_pid" || true
	trap - EXIT
	grep -q '^Trials  *3000$' "$tmp/local.txt"
	diff "$tmp/local.txt" "$tmp/served.txt"
	rm -rf "$tmp"
}
check_serve() {
	go test -race -timeout 20m ./internal/serve
	check_selected -race -run 'TestServeLiveStream|TestServeEnvCacheBounded' ./internal/serve
	# A shard range runs in engine legs of bounded size, and the legs
	# change no record, fold or stop index, across a kill and resume.
	check_selected -race -run 'TestServeLegsMatchUncapped' ./internal/serve
	check_selected -race -cpu 1,4 -run 'TestSplitTrials|TestShardMergeMatchesGolden' ./internal/campaign
	check_cover ./internal/serve 85
	go test ./cmd/gofi-serve ./cmd/gofi-campaign
	check_selected -race -timeout 20m -run 'TestLocalEqualsSubmit' ./cmd/gofi-campaign
	serve_smoke
}
check_serve

# The declarative scenario layer's gates: a statement-coverage floor
# over internal/scenario (schema, YAML subset, compiler, selectors,
# observers), the differential byte-identity suite (every committed
# example scenario must reproduce its hand-wired imperative twin's
# aggregate across the worker x schedule x reuse matrix), the committed
# scenario goldens (f32 observers + int8 stored-code), the CLI smoke
# executing each example end-to-end (including the quantized stored-code
# path), and a coverage-guided decode fuzz smoke (never panics, named
# errors, Canon-fixed-point).
check_scenario() {
	check_cover ./internal/scenario 90
	check_selected -run 'TestScenarioDifferentialByteIdentity|TestScenarioGolden' ./internal/experiments
	check_selected -run 'TestScenario' ./cmd/gofi-campaign
	check_selected -run='^$' -fuzz='^FuzzScenarioDecode$' -fuzztime=10s ./internal/scenario
}
check_scenario

# The study runners (Fig. 4, bit study, layer study, Fig. 6, Table I) are
# loops over one path, Fixture -> CampaignEnv -> runLeg: the study golden
# holds Fig. 4 and bit-study rows recorded before they moved onto it (both
# backends, with and without a stop rule, stop indices included), and the
# layer study, whose legs run on the engine's workers, must give the same
# rows at every Workers x prefix-reuse cell under the race detector at
# both GOMAXPROCS settings. Fig. 6 and Table I run on fixtures they train
# themselves: those fixtures must meet the reference-configuration
# contract under the race detector (one GOMAXPROCS setting: training a
# resnet18 under the detector is most of the minute it takes), their rows
# are pinned by their own golden, and the two claims hold as intervals. A classification study
# never forwards a model itself — the engine does — so nn.Run( in a study
# file means someone re-grew a clean-plus-faulty trial loop beside it.
check_studies() {
	check_selected -run 'TestStudyGolden|TestFixtureStudiesGolden|TestClaim' ./internal/experiments
	check_selected -race -cpu 1,4 -run 'TestLayerVulnDeterministic' ./internal/experiments
	check_selected -race -cpu 4 -run 'TestPrebuiltFixtureContract' ./internal/experiments
	if grep -n 'nn\.Run(' internal/experiments/fig4.go internal/experiments/fig6.go internal/experiments/table1.go \
		internal/experiments/bits.go internal/experiments/layers.go internal/experiments/generic.go \
		internal/experiments/experiments.go; then
		echo "FAIL: a classification study forwards a model itself; run it as an engine leg (CampaignEnv.runLeg)" >&2
		exit 1
	fi
}
check_studies

# The cut-aware scheduler's two promises on the DenseNet campaign: with
# prefix reuse, auto must decline to pack (sequential warmed-store hits
# win); without it, auto must pack cut-similar trials. One iteration each
# keeps the planner's engine integration from rotting between full bench
# runs (BENCH_sched.json records the measured numbers).
go test -run='^$' -bench 'BenchmarkCampaignSched' -benchtime 1x .

check_selected -run='^$' -fuzz='^FuzzFP16RoundTrip$' -fuzztime=10s ./internal/fpbits
check_selected -run='^$' -fuzz='^FuzzFlipBitFP32$' -fuzztime=10s ./internal/fpbits
check_selected -run='^$' -fuzz='^FuzzLoadCorrupt$' -fuzztime=10s ./internal/serialize
check_selected -run='^$' -fuzz='^FuzzSaveLoadRoundTrip$' -fuzztime=10s ./internal/serialize
check_selected -run='^$' -fuzz='^FuzzCampaignCheckpointLoad$' -fuzztime=10s ./internal/serialize
check_selected -run='^$' -fuzz='^FuzzCampaignCheckpointRoundTrip$' -fuzztime=10s ./internal/serialize
check_selected -run='^$' -fuzz='^FuzzSpecDecode$' -fuzztime=10s ./internal/serve
check_selected -run='^$' -fuzz='^FuzzEventDecode$' -fuzztime=10s ./internal/serve
check_selected -run='^$' -fuzz='^FuzzTrialRecordJSONLRoundTrip$' -fuzztime=10s ./internal/report
check_selected -run='^$' -fuzz='^FuzzForwardFrom$' -fuzztime=10s ./internal/nn
check_selected -run='^$' -fuzz='^FuzzIm2col$' -fuzztime=10s ./internal/tensor
check_selected -run='^$' -fuzz='^FuzzBuildPlan$' -fuzztime=10s ./internal/campaign/sched
