//! Regenerates every experiment table (T1–T19) of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p prasim-bench --bin reproduce            # standard sizes
//! cargo run --release -p prasim-bench --bin reproduce -- quick   # CI-sized
//! cargo run --release -p prasim-bench --bin reproduce -- full    # adds n = 65536 points
//! cargo run --release -p prasim-bench --bin reproduce -- T4 T6   # selected tables
//! cargo run --release -p prasim-bench --bin reproduce -- quick T12 --threads 8
//! cargo run --release -p prasim-bench --bin reproduce -- T2 --sorter shearsort
//! ```
//!
//! `--threads N` shards every mesh engine across N workers (default:
//! available parallelism). The tables are byte-identical for every
//! value — the CI determinism matrix diffs selected tables across
//! `--threads 1/2/8` to prove it; only the wall-clock columns of
//! T16, T18 and T19 vary.
//!
//! `--sorter shearsort|columnsort` selects the mesh sorter behind every
//! sort phase (default: columnsort). The CI sorter matrix regenerates
//! T2/T17 under both and diffs each against its committed golden.
//!
//! Both flags are parsed here once and passed to every table builder
//! as arguments; nothing is configured through process-wide state.
//!
//! Whenever T17 runs, its data is also written to `BENCH_sorters.json`
//! (machine-readable step counts per sorter per `n`); T18 likewise
//! writes `BENCH_exec.json` (context-reuse throughput data) and T19
//! writes `BENCH_engine.json` (arena-vs-legacy engine step throughput).

use prasim_bench::tables::{self, Table};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sorter = prasim_sortnet::Sorter::default();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            threads = it
                .next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .expect("--threads needs a positive integer");
        } else if a == "--sorter" {
            sorter = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--sorter needs shearsort|columnsort");
        } else {
            args.push(a);
        }
    }

    let quick = args.iter().any(|a| a == "quick");
    let full = args.iter().any(|a| a == "full");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with('T') || a.starts_with('t'))
        .map(|s| s.as_str())
        .collect();
    let want =
        |id: &str| selected.is_empty() || selected.iter().any(|s| s.eq_ignore_ascii_case(id));

    // α ≈ 1.33–1.42 series: d grows with n.
    let mut t1_sizes: Vec<(u64, u32)> = if quick {
        vec![(256, 4), (1024, 5)]
    } else {
        vec![(256, 4), (1024, 5), (4096, 6), (16384, 7)]
    };
    if full {
        t1_sizes.push((65536, 8));
    }
    let t2_ns: Vec<u64> = if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    };
    let t3_ns: Vec<u64> = if quick {
        vec![1024]
    } else {
        vec![1024, 4096, 16384]
    };

    let mut out: Vec<Table> = Vec::new();
    if want("T1") {
        out.push(tables::t1_slowdown(&t1_sizes, 2, false, threads, sorter));
        out.push(tables::t1_slowdown(&t1_sizes, 2, true, threads, sorter));
    }
    if want("T2") {
        out.push(tables::t2_routing(&t2_ns, &[1, 2, 4], threads, sorter));
    }
    if want("T3") {
        out.push(tables::t3_hierarchical(&t3_ns, 1, threads, sorter));
    }
    if want("T4") {
        let (n, d) = if quick { (1024, 5) } else { (4096, 6) };
        out.push(tables::t4_culling_bounds(n, d, 2, threads, sorter));
    }
    if want("T5") {
        out.push(tables::t5_culling_time(&t1_sizes, 2, threads, sorter));
    }
    if want("T6") {
        out.push(tables::t6_bibd_balance());
    }
    if want("T7") {
        out.push(tables::t7_strong_expansion(if quick { 200 } else { 2000 }));
    }
    if want("T8") {
        out.push(tables::t8_structure(&[
            (1024, 5, 2),
            (4096, 6, 2),
            (4096, 5, 3),
        ]));
    }
    if want("T9") {
        let n = if quick { 1024 } else { 4096 };
        let d = 5;
        out.push(tables::t9_redundancy(n, d, &[1, 2, 3], threads, sorter));
    }
    if want("T10") {
        out.push(tables::t10_baselines(1024, threads, sorter));
    }
    if want("T11") {
        out.push(tables::t11_consistency(
            if quick { 10 } else { 40 },
            threads,
            sorter,
        ));
    }
    if want("T12") {
        // Fixed seed: the fault sweep is byte-identical across runs.
        out.push(tables::t12_fault_sweep(1024, 5, 0xFA17, threads, sorter));
    }
    if want("T13") {
        out.push(tables::t13_slack_ablation(1024, 5, threads, sorter));
    }
    if want("T14") {
        out.push(tables::t14_q_sweep(
            if quick { 1024 } else { 4096 },
            threads,
            sorter,
        ));
    }
    if want("T15") {
        let (n, d) = if quick { (1024, 5) } else { (4096, 6) };
        out.push(tables::t15_stage_deltas(n, d, 2, threads, sorter));
    }
    if want("T16") {
        // Wall-clock columns vary run to run; everything else in the
        // table is part of the determinism contract.
        let (n, ppn) = if quick { (1024, 8) } else { (4096, 16) };
        out.push(tables::t16_parallel_speedup(n, ppn, &[1, 2, 4, 8]));
    }
    if want("T17") {
        // Same sizes in quick and standard: the columnsort crossover sits
        // between n = 4096 and 16384, so the win must be visible in CI too.
        let mut t17_ns: Vec<u64> = vec![256, 1024, 4096, 16384];
        if full {
            t17_ns.push(65536);
        }
        let (table, json) = tables::t17_sorters(&t17_ns);
        out.push(table);
        std::fs::write("BENCH_sorters.json", json).expect("write BENCH_sorters.json");
    }
    if want("T18") {
        // Context reuse: same workload as T16, run as repeated steps with
        // a fresh ExecCtx per step vs one warm context. Wall-clock columns
        // vary run to run; steps/delivered/queue are deterministic.
        let (n, ppn, reps) = if quick { (1024, 8, 6) } else { (4096, 16, 8) };
        let (table, json) = tables::t18_context_reuse(n, ppn, reps, threads, sorter);
        out.push(table);
        std::fs::write("BENCH_exec.json", json).expect("write BENCH_exec.json");
    }
    if want("T19") {
        // Arena vs legacy engine throughput, 16×16 → 128×128, both
        // sequential, plus the arena at `--threads`. Wall-clock columns
        // (steps/s, speedup) vary run to run; sort/route/delivered/queue
        // are deterministic and every run's stats are asserted equal
        // inside the table builder.
        let t19_ns: Vec<u64> = if quick {
            vec![256, 1024, 4096]
        } else {
            vec![256, 1024, 4096, 16384]
        };
        let reps = if quick { 2 } else { 5 };
        let (table, json) = tables::t19_engine_throughput(&t19_ns, 16, reps, threads, sorter);
        out.push(table);
        std::fs::write("BENCH_engine.json", json).expect("write BENCH_engine.json");
    }

    println!("# prasim — reproduced results\n");
    println!(
        "mode: {}\n",
        if full {
            "full"
        } else if quick {
            "quick"
        } else {
            "standard"
        }
    );
    for t in &out {
        println!("{}", t.render());
    }
}
