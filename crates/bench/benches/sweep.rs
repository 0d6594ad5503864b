//! Batch parameter-sweep mining vs a per-point loop (the tuning-grid
//! workload of Section 2.1 run as one job). `Miner::mine_sweep` extracts
//! once per (ε, segmentation) equivalence class, builds one spatial graph
//! per distinct η, and searches once per group of points that differ only
//! in ψ and μ, so a 4×4×3 ψ/η/μ grid pays for 1 extraction pass, 4 graphs
//! and 4 searches instead of 48 of each. Expected shape: batch ≥3× faster than the loop, with
//! byte-identical per-point results (asserted before timing).
//!
//! The `kernel` group is the instruction-count proxy for the contiguous
//! evolving-set layout: `Bitset::and_count` over the flat `u64` word
//! buffer is the support-counting inner loop of the ESU search. On this
//! x86-64 release build, `objdump -d` of the bench binary shows the loop
//! compiled to packed 128-bit `movdqu`/`pand` blocks feeding a
//! `psadbw`-based vector popcount, four words per iteration with no
//! per-element branches — the autovectorized form the contiguous layout
//! exists to enable; the ns/word figure printed here moves an order of
//! magnitude if that ever regresses to a scalar byte-wise loop.

use criterion::{criterion_group, criterion_main, Criterion};
use miscela_bench::{china6, paper_scale_requested, sweep_grid};
use miscela_core::{Bitset, CancelToken, Miner, MiningParams};
use std::time::Duration;

/// Bounded grid for the CI smoke lane: 2×2×2 instead of 4×4×3, same
/// sharing structure (one extraction class, 2 graphs, 2 search groups).
fn active_grid() -> Vec<MiningParams> {
    let full = sweep_grid();
    if std::env::var_os("MISCELA_SWEEP_SMOKE").is_some() {
        full.into_iter()
            .filter(|p| p.psi <= 40 && p.eta_km <= 250.0 && p.mu <= 2)
            .collect()
    } else {
        full
    }
}

fn bench(c: &mut Criterion) {
    let ds = china6(paper_scale_requested());
    let grid = active_grid();

    // Correctness gate before any timing: every grid point of the batch
    // sweep must be byte-identical to an independent mine.
    let batch = Miner::mine_sweep(&ds, &grid, None, &CancelToken::never()).unwrap();
    for (p, got) in grid.iter().zip(&batch.results) {
        let solo = Miner::new(p.clone()).unwrap().mine(&ds).unwrap();
        assert_eq!(got.caps, solo.caps, "sweep diverged at {}", p.signature());
        assert_eq!(
            got.delayed,
            solo.delayed,
            "delayed diverged at {}",
            p.signature()
        );
    }
    println!(
        "sweep plan: {} points -> {} extraction classes, {} graphs, {} search groups",
        batch.stats.unique_points,
        batch.stats.extraction_classes,
        batch.stats.graphs_built,
        batch.stats.search_groups,
    );

    let mut group = c.benchmark_group("sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));

    group.bench_function("batch", |b| {
        b.iter(|| {
            Miner::mine_sweep(&ds, &grid, None, &CancelToken::never())
                .unwrap()
                .results
                .len()
        });
    });

    group.bench_function("per_point_loop", |b| {
        let miners: Vec<Miner> = grid
            .iter()
            .map(|p| Miner::new(p.clone()).unwrap())
            .collect();
        b.iter(|| {
            miners
                .iter()
                .map(|m| m.mine(&ds).unwrap().caps.len())
                .sum::<usize>()
        });
    });
    group.finish();

    // Instruction-count proxy for the autovectorized support kernel: AND +
    // popcount over two contiguous word buffers, the exact op the ESU
    // search runs per candidate extension.
    let mut kernel = c.benchmark_group("kernel");
    kernel
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let bits = 1 << 16;
    let a = Bitset::from_indices(bits, &(0..bits).step_by(3).collect::<Vec<_>>());
    let b_ = Bitset::from_indices(bits, &(0..bits).step_by(5).collect::<Vec<_>>());
    kernel.bench_function("and_count_64k", |bench| {
        bench.iter(|| a.and_count(&b_));
    });
    kernel.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
