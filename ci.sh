#!/bin/sh
# Offline CI gate: everything a PR must pass, in the order cheapest-first.
# Property-based suites need the proptest registry crate; opt in with
#   CI_FEATURES="--features slow-proptests" ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace ${CI_FEATURES:-}"
# shellcheck disable=SC2086  # CI_FEATURES is intentionally word-split
cargo test -q --workspace ${CI_FEATURES:-}

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# Catches broken and private intra-doc links, which cargo test does not.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> bench_kernels --smoke (parity + train throughput + routines)"
# Tiny sizes; asserts serial==parallel bitwise on every entry — including
# the train_step arm, which trains the smoke MLP data-parallel (shards=4)
# and aborts unless the final weights match guaranteed-serial execution
# bit for bit (the 256^3 headline square is measured in smoke too).
# Pinned thread count so the numbers are the 4-lane configuration
# regardless of the host. The report goes to a temp file, so CI never
# rewrites the committed BENCH_kernels.json.
KERNELS_TMP=$(mktemp -d)
trap 'rm -rf "$KERNELS_TMP"' EXIT
KERNELS_JSON="$KERNELS_TMP/BENCH_kernels.json"
XBAR_THREADS=4 cargo run --release -p xbar-bench --bin bench_kernels -- --smoke \
    --out "$KERNELS_JSON"
grep -q '"name": "train_step"' "$KERNELS_JSON"
grep -q '"name": "qmatmul_square_256"' "$KERNELS_JSON"
grep -q '"name": "quant_mvm"' "$KERNELS_JSON"
grep -q '"gbps": ' "$KERNELS_JSON"
grep -q '"parity": true' "$KERNELS_JSON"
if grep -q '"parity": false' "$KERNELS_JSON"; then
    echo "a bench_kernels entry lost serial/parallel parity"
    exit 1
fi
# Every GEMM entry (fp32 and int8) names the routine it dispatched to.
grep -q '"routine": "' "$KERNELS_JSON"
if grep -E '"kind": "(matmul|matmul_tn|matmul_nt|qmatmul)"' "$KERNELS_JSON" \
    | grep -v -q '"routine": "'; then
    echo "a bench_kernels GEMM entry records no routine"
    exit 1
fi
echo "    train_step + quantized arms recorded with serial/parallel parity and routines"

echo "==> scheduler gate (sched_bag parity + modeled 4-lane speedup >= 1.2x)"
# The heterogeneous task-bag entry must be present with all three arms
# bitwise identical, and queueing one task per bag item on the pool's
# FIFO queue must beat the static fork-join split (one task per lane) by
# >= 1.2x at the pinned 4-lane width. The gate reads the report's own
# modeled_speedup field — the makespan ratio of one measured per-task
# busy profile scheduled onto 4 lanes both ways — so it holds even on
# core-starved CI hosts where raw wall times serialize (the wall-clock
# speedup_vs_serial stays honest and is not gated; see
# kernel_bench::sched_bag_entry).
SCHED_LINE=$(grep '"name": "sched_bag"' "$KERNELS_JSON")
echo "$SCHED_LINE" | grep -q '"parity": true'
MODELED=$(echo "$SCHED_LINE" | sed 's/.*"modeled_speedup": \([0-9.]*\).*/\1/')
awk -v sp="$MODELED" 'BEGIN {
    printf "    sched_bag: %.2fx modeled 4-lane speedup\n", sp
    if (sp < 1.2) { printf "sched_bag modeled speedup %.2fx < 1.2x\n", sp; exit 1 }
}'

echo "==> completion-order determinism gate (thread-count x jitter matrix, release)"
# Re-invoking child processes at XBAR_THREADS in {1,2,4,8} with the
# sched-fuzz jitter hook compiled in (a per-task sleep that changes which
# lane takes each queued task and the order tasks finish in): tiled
# forward and sharded training digests, and sweep journal bytes, must be
# identical in every cell.
cargo test -q --release -p xbar --test integration_sched --features sched-fuzz
cargo test -q --release -p xbar-bench --test sched_journal --features sched-fuzz
echo "    digests and journal bytes invariant under completion-order fuzzing"

echo "==> training parity gate (serial == data-parallel, dropout + mappings)"
# Release-mode re-run of the sharded-trainer determinism suite: pooled vs
# forced-serial execution, the shard-order reduction against a step
# written out by hand, shard-count reduction-order pinning, and mid-run
# checkpoint kill/resume, all bitwise.
cargo test -q --release -p xbar --test integration_training shard

echo "==> conv bit pins on the scalar micro-kernel (XBAR_SIMD=0)"
# simd_active() is fixed once per process, so the default test run reaches
# only one micro-kernel. The conv kernels feed it swapped operands; re-run
# their bit pins against the patch-matrix oracle, and their serial/parallel
# pins, on the portable scalar kernel.
STEP_START=$(date +%s)
XBAR_SIMD=0 cargo test -q --release -p xbar-tensor --lib conv::
XBAR_SIMD=0 cargo test -q --release -p xbar-tensor --test backend_parity conv_and_pool
echo "    conv kernels bitwise on the scalar kernel ($(($(date +%s) - STEP_START)) s)"

echo "==> quantizer bit pins, vectorised (release)"
# Tests build at opt-level 1, where LLVM does not vectorise loops, so the
# test phase above checks the quantizers' scalar code. The workloads run
# the release build, whose quantizer loops are vectorised: re-run every
# roundf_pin test (the rounding helper, the affine activation quantizer,
# the device state snap, and QuantAct, whose Tensor::map loop runs
# quantize_signed) there, bit for bit against the f32::round formulas.
STEP_START=$(date +%s)
cargo test -q --release -p xbar-tensor -p xbar-device -p xbar-nn --lib roundf_pin
echo "    quantizers bitwise on the release build ($(($(date +%s) - STEP_START)) s)"

echo "==> quantized parity gate (int8 within 1 point of fp32, thread-invariant)"
# The fig5 --quantized arm trains the four mapped models once (pinned
# shard count) and scores each through the fp32 emulation and the int8
# integer readout. Three checks: the sweep runs end to end, the ACM int8
# error at 8 weight bits lands within 1 point of its fp32 column, and the
# whole CSV — training included — is byte-identical between XBAR_THREADS=1
# and 4 (the integer readout commits per-tile i32 accumulators in
# submission order, so parallelism cannot move a single bit).
QUANT_TMP=$(mktemp -d)
trap 'rm -rf "$KERNELS_TMP" "$QUANT_TMP"' EXIT
QUANT_ARGS="--quantized --train 800 --test 300 --epochs 8 --min-bits 8 --max-bits 8 --csv"
# shellcheck disable=SC2086  # QUANT_ARGS is intentionally word-split
XBAR_THREADS=4 cargo run --release -p xbar-bench --bin fig5_precision -- $QUANT_ARGS \
    > "$QUANT_TMP/q4.csv"
awk -F, 'NR == 2 {
    gap = $2 - $3; if (gap < 0) gap = -gap
    printf "    ACM at 8 bits: fp32 %.2f%% vs int8 %.2f%% (gap %.2f points)\n", $2, $3, gap
    if (gap > 1.0) { printf "int8 error gap %.2f points > 1\n", gap; exit 1 }
}' "$QUANT_TMP/q4.csv"
# shellcheck disable=SC2086
XBAR_THREADS=1 cargo run --release -p xbar-bench --bin fig5_precision -- $QUANT_ARGS \
    > "$QUANT_TMP/q1.csv"
cmp "$QUANT_TMP/q1.csv" "$QUANT_TMP/q4.csv"
echo "    quantized sweep byte-identical at 1 and 4 threads"

echo "==> benchmark build + int8_mlp smoke (its own Cargo workspace)"
# `benchmark/` is a Cargo workspace of its own, so the workspace build and
# tests above never compile it, and a public-API change could break it
# unseen. run.py builds it offline from this checkout, runs a 2 s int8_mlp
# window and re-checks its leading operations in a child process at one
# thread; the result line must report a correct run with no failed
# operation.
BENCH_LINE=$(python3 benchmark/run.py --workload int8_mlp --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$BENCH_LINE" | grep -q '"correct":true'
echo "$BENCH_LINE" | grep -q '"failed":0[,}]'
echo "    int8_mlp smoke: correct, 0 failed"

echo "==> mc_faults_vgg9 smoke (write-verify programming + fault remap, end to end)"
# CI's only end-to-end run of write-verify programming and the null-space
# remap: every chip's remap must leave no more weight error than naive
# programming, and a child process at one thread must reproduce the
# leading operations' digests.
BENCH_LINE=$(python3 benchmark/run.py --workload mc_faults_vgg9 --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$BENCH_LINE" | grep -q '"correct":true'
echo "$BENCH_LINE" | grep -q '"failed":0[,}]'
echo "    mc_faults_vgg9 smoke: correct, 0 failed"

echo "==> train_resnet20 smoke (conv backward + sharded trainer, end to end)"
# The only workload that runs the convolution backward pass and the
# sharded trainer. The run must be correct with no failed operation; that
# includes a child process at one thread reproducing the leading
# operations' digests.
STEP_START=$(date +%s)
BENCH_LINE=$(python3 benchmark/run.py --workload train_resnet20 --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$BENCH_LINE" | grep -q '"correct":true'
echo "$BENCH_LINE" | grep -q '"failed":0[,}]'
echo "    train_resnet20 smoke: correct, 0 failed ($(($(date +%s) - STEP_START)) s)"

echo "==> tile-parity smoke (tiled == monolithic through the full stack)"
# Release-mode re-run of the tiling integration suite (the debug test phase
# above already ran it once) plus the tiled cost table as an e2e smoke.
cargo test -q --release -p xbar --test integration_tiling
cargo run --release -p xbar-bench --bin table1_system -- --tile 64x64 > /dev/null

echo "==> sweep kill/resume smoke (byte-identical resumed output)"
# A tiny sweep run straight through, then again but aborted (simulated
# kill -9) after the first journaled cell and resumed from the journal.
# The two output files must be byte-identical.
SWEEP_TMP=$(mktemp -d)
trap 'rm -rf "$KERNELS_TMP" "$QUANT_TMP" "$SWEEP_TMP"' EXIT
SWEEP_ARGS="--net lenet --tiny --bits 2 --sigmas 0,0.1 --samples 2 --epochs 1 --train 40 --test 20"
# shellcheck disable=SC2086  # SWEEP_ARGS is intentionally word-split
cargo run --release -p xbar-bench --bin sweep -- $SWEEP_ARGS \
    --out "$SWEEP_TMP/full.json"
# shellcheck disable=SC2086
cargo run --release -p xbar-bench --bin sweep -- $SWEEP_ARGS \
    --journal "$SWEEP_TMP/j.jsonl" --abort-after-cells 1 \
    --out "$SWEEP_TMP/unused.json" || true  # aborts by design
# shellcheck disable=SC2086
cargo run --release -p xbar-bench --bin sweep -- $SWEEP_ARGS \
    --journal "$SWEEP_TMP/j.jsonl" --resume --out "$SWEEP_TMP/resumed.json"
cmp "$SWEEP_TMP/full.json" "$SWEEP_TMP/resumed.json"
echo "    resumed output byte-identical"

echo "==> parasitic 4-mapping sweep kill/resume gate (JSONL byte-identical)"
# The enlarged grid (line resistance x drift time, all four mappings per
# cell) under the same kill/resume contract: straight run vs aborted-then-
# resumed run must agree on the output file and on the JSONL journal,
# byte for byte. Cells commit to the journal through ordered_stream, in
# submission order, whatever the pool width.
PAR_ARGS="--net lenet --tiny --bits 2 --sigmas 0,0.1 --rlines 0,0.005 --drifts 0,1000 --samples 1 --epochs 1 --train 40 --test 20"
# shellcheck disable=SC2086  # PAR_ARGS is intentionally word-split
cargo run --release -p xbar-bench --bin sweep -- $PAR_ARGS \
    --journal "$SWEEP_TMP/par-full.jsonl" --out "$SWEEP_TMP/par-full.json"
# shellcheck disable=SC2086
cargo run --release -p xbar-bench --bin sweep -- $PAR_ARGS \
    --journal "$SWEEP_TMP/par-j.jsonl" --abort-after-cells 1 \
    --out "$SWEEP_TMP/par-unused.json" || true  # aborts by design
# shellcheck disable=SC2086
cargo run --release -p xbar-bench --bin sweep -- $PAR_ARGS \
    --journal "$SWEEP_TMP/par-j.jsonl" --resume --out "$SWEEP_TMP/par-resumed.json"
cmp "$SWEEP_TMP/par-full.json" "$SWEEP_TMP/par-resumed.json"
grep -q '"perm":' "$SWEEP_TMP/par-full.json"   # all four mappings present
grep -q '"rline":' "$SWEEP_TMP/par-full.json"  # enlarged schema active
cmp "$SWEEP_TMP/par-full.jsonl" "$SWEEP_TMP/par-j.jsonl"
echo "    parasitic grid output + journal byte-identical across kill/resume"

echo "==> self-healing gate (detect/repair/quarantine events + digital fallback parity)"
# A short lifetime-fault scrub cycle on a trained tiny LeNet: the fault
# process must produce detections, repair attempts, and quarantines; every
# quarantined tile must serve the fault-free quantized conductances
# bitwise (fallback_parity); and the detection-on arm must end the run
# strictly more accurate than the maintenance-free arm at the same rate.
cargo run --release -p xbar-bench --bin fault_recovery -- \
    --tiny --train 600 --test 200 --epochs 6 --mapping acm \
    --lifetime-rate 0.01 --scrub-epochs 8 --tile 8x8 \
    --out "$SWEEP_TMP/lifetime.json"
grep -q '"fallback_parity":true' "$SWEEP_TMP/lifetime.json"
grep -q '"detect_beats_baseline":true' "$SWEEP_TMP/lifetime.json"
grep -q '"detections":[1-9]' "$SWEEP_TMP/lifetime.json"
grep -q '"repairs":[1-9]' "$SWEEP_TMP/lifetime.json"
grep -q '"quarantined":[1-9]' "$SWEEP_TMP/lifetime.json"
# The reprogram-only ladder cannot heal stuck cells: its budget exhausts
# fast, so quarantine + exact digital fallback must engage there too.
cargo run --release -p xbar-bench --bin fault_recovery -- \
    --tiny --train 600 --test 200 --epochs 6 --mapping acm \
    --lifetime-rate 0.01 --scrub-epochs 4 --tile 8x8 --stages reprogram \
    --out "$SWEEP_TMP/lifetime-rp.json"
grep -q '"fallback_parity":true' "$SWEEP_TMP/lifetime-rp.json"
grep -q '"quarantined":[1-9]' "$SWEEP_TMP/lifetime-rp.json"
echo "    self-healing: events fired, fallback exact, detection arm wins"

echo "CI OK"
