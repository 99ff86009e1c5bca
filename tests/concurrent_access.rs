//! Integration tests of the CREW/CRCW front-ends against an ideal
//! concurrent shared memory.

use prasim::core::crcw::{step_crcw, WriteCombine};
use prasim::core::crew::step_crew;
use prasim::core::{Op, PramMeshSim, PramStep, SimConfig};
use prasim::routing::problem::SplitMix64;
use std::collections::HashMap;

fn sim(n: u64, memory: u64) -> PramMeshSim {
    PramMeshSim::new(SimConfig::new(n, memory)).unwrap()
}

#[test]
fn crew_broadcast_tree_fanout() {
    // One processor writes; in each round, double the number of readers
    // learn the value via concurrent reads (a broadcast tree).
    let mut s = sim(1024, 9000);
    s.step(&PramStep::writes(&[3], &[777])).unwrap();
    let mut readers = 1usize;
    while readers < 1024 {
        readers = (readers * 2).min(1024);
        let mut step = PramStep {
            ops: vec![None; 1024],
        };
        for p in 0..readers {
            step.ops[p] = Some(Op::Read { var: 3 });
        }
        let r = step_crew(&mut s, &step).unwrap();
        for p in 0..readers {
            assert_eq!(r.reads[p], Some(777), "round with {readers} readers, p={p}");
        }
    }
}

#[test]
fn crew_random_duplicate_patterns_match_ideal() {
    let mut s = sim(1024, 9000);
    let nv = s.num_variables();
    let mut ideal: HashMap<u64, u64> = HashMap::new();
    let mut rng = SplitMix64(555);
    for round in 0..5u64 {
        // Random writes (exclusive).
        let mut wstep = PramStep {
            ops: vec![None; 1024],
        };
        let mut written = std::collections::HashSet::new();
        for p in 0..200 {
            let var = rng.below(nv);
            if written.insert(var) {
                let value = round * 10_000 + p;
                wstep.ops[p as usize] = Some(Op::Write { var, value });
                ideal.insert(var, value);
            }
        }
        s.step(&wstep).unwrap();
        // Concurrent reads with heavy duplication over a small var pool.
        let pool: Vec<u64> = (0..16).map(|_| rng.below(nv)).collect();
        let mut rstep = PramStep {
            ops: vec![None; 1024],
        };
        for p in 0..1024usize {
            rstep.ops[p] = Some(Op::Read {
                var: pool[p % pool.len()],
            });
        }
        let r = step_crew(&mut s, &rstep).unwrap();
        for p in 0..1024usize {
            let var = pool[p % pool.len()];
            let expect = ideal.get(&var).copied().unwrap_or(0);
            assert_eq!(r.reads[p], Some(expect), "round {round} p={p} var={var}");
        }
    }
}

#[test]
fn crcw_sum_histogram() {
    // The classic CRCW use: 1024 processors each add 1 to one of 8
    // counters; the counters must hold the exact bucket counts.
    let mut s = sim(1024, 9000);
    let mut counts = [0u64; 8];
    let step = PramStep {
        ops: (0..1024u64)
            .map(|p| {
                let bucket = (p * 2654435761) % 8;
                counts[bucket as usize] += 1;
                Some(Op::Write {
                    var: bucket,
                    value: 1,
                })
            })
            .collect(),
    };
    step_crcw(&mut s, &step, WriteCombine::Sum).unwrap();
    for (b, &c) in counts.iter().enumerate() {
        assert_eq!(s.oracle_read(b as u64), c, "bucket {b}");
    }
}

#[test]
fn crcw_tournament_max() {
    // Find the maximum of 1024 values in one CRCW step.
    let mut s = sim(1024, 9000);
    let mut rng = SplitMix64(9);
    let values: Vec<u64> = (0..1024).map(|_| rng.below(1_000_000)).collect();
    let expect = *values.iter().max().unwrap();
    let step = PramStep {
        ops: values
            .iter()
            .map(|&v| Some(Op::Write { var: 0, value: v }))
            .collect(),
    };
    step_crcw(&mut s, &step, WriteCombine::Max).unwrap();
    assert_eq!(s.oracle_read(0), expect);
}

#[test]
fn crcw_mixed_read_write_phases_preserve_semantics() {
    let mut s = sim(256, 100);
    s.step(&PramStep::writes(&[10, 20], &[100, 200])).unwrap();
    // Processors 0..50 read var 10; 50..100 write var 10 (overlap!);
    // 100..150 read var 20 (no overlap for var 20).
    let mut step = PramStep {
        ops: vec![None; 256],
    };
    for p in 0..50 {
        step.ops[p] = Some(Op::Read { var: 10 });
    }
    for p in 50..100 {
        step.ops[p] = Some(Op::Write {
            var: 10,
            value: p as u64,
        });
    }
    for p in 100..150 {
        step.ops[p] = Some(Op::Read { var: 20 });
    }
    let r = step_crcw(&mut s, &step, WriteCombine::Min).unwrap();
    for p in 0..50 {
        assert_eq!(r.reads[p], Some(100), "old value before the write phase");
    }
    for p in 100..150 {
        assert_eq!(r.reads[p], Some(200));
    }
    assert_eq!(s.oracle_read(10), 50, "min of 50..100");
}

/// y = A·x with an 8×8 matrix on `threads` engine workers: row i's
/// processors all read x[j] concurrently (every x[j] is read by 8 rows).
/// Layout: A[i][j] in var i*8+j, x[j] in var 64+j, y[i] in var 72+i.
/// Returns every CREW/CRCW report and the final y.
fn matrix_vector_multiply(threads: usize) -> (Vec<String>, Vec<u64>) {
    let mut s = PramMeshSim::new(SimConfig::new(256, 100).with_threads(threads)).unwrap();
    let a: Vec<u64> = (0..64).map(|t| (t * 7 + 3) % 10).collect();
    let x: Vec<u64> = (0..8).map(|j| j + 1).collect();
    let a_vars: Vec<u64> = (0..64).collect();
    let x_vars: Vec<u64> = (64..72).collect();
    s.step(&PramStep::writes(&a_vars, &a)).unwrap();
    s.step(&PramStep::writes(&x_vars, &x)).unwrap();

    // Processor t = i*8+j computes A[i][j]·x[j]: read A (exclusive),
    // read x (concurrent, 8 readers per x[j]).
    let ra = s.step(&PramStep::reads(&a_vars)).unwrap();
    let rx_step = PramStep {
        ops: (0..64u64)
            .map(|t| Some(Op::Read { var: 64 + t % 8 }))
            .collect(),
    };
    let rx = step_crew(&mut s, &rx_step).unwrap();
    // Sum per row via CRCW combining.
    let sum_step = PramStep {
        ops: (0..64usize)
            .map(|t| {
                let prod = ra.reads[t].unwrap() * rx.reads[t].unwrap();
                Some(Op::Write {
                    var: 72 + (t as u64) / 8,
                    value: prod,
                })
            })
            .collect(),
    };
    let sum = step_crcw(&mut s, &sum_step, WriteCombine::Sum).unwrap();
    let reports = vec![format!("{ra:?}"), format!("{rx:?}"), format!("{sum:?}")];
    (reports, (72..80).map(|v| s.oracle_read(v)).collect())
}

#[test]
fn crew_matrix_vector_multiply() {
    let a: Vec<u64> = (0..64).map(|t| (t * 7 + 3) % 10).collect();
    let expect: Vec<u64> = (0..8)
        .map(|i| (0..8).map(|j| a[i * 8 + j] * (j as u64 + 1)).sum())
        .collect();
    let (reports, y) = matrix_vector_multiply(1);
    assert_eq!(y, expect);
    // The CREW/CRCW front-ends must not depend on the thread count.
    assert_eq!(matrix_vector_multiply(8), (reports, y));
}
