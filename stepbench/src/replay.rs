//! The traced run: replays `PramMeshSim::step` from its public layer
//! calls — CULLING (`cull_with` / `select_all`), the access protocol and
//! the trace checker — on the replay's own `Hmos`, memory and `ExecCtx`,
//! with a span around each call. The untraced facade runs the same steps
//! beside it; the two must agree step for step, and the ratio of their
//! step times is the tracing overhead.

use std::collections::HashMap;
use std::time::Instant;

use prasim::core::culling::{cull_with, select_all};
use prasim::core::protocol::{access_protocol, Cell, RunOptions};
use prasim::core::{Op, PramMeshSim, PramStep, ReadPolicy, StepReport};
use prasim::exec::ExecCtx;
use prasim::fault::{FaultPlan, ReadOutcome, ReadRecord, TraceChecker, WriteRecord};
use prasim::hmos::{Hmos, HmosParams, QuorumRead};

use crate::{median, metric, probes, same_step, trace_gate, Metric, Tally, Workload, N, WINDOW};

/// One recorded span. `step` is the PRAM step the span belongs to (the
/// identifier all spans of one step share); `parent` indexes the span
/// that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    step: usize,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory and written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, step: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            step,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Each span's self time: its duration minus its children's.
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_secs()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"step\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {own}}}",
                s.name, s.step, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The replayed simulator state: what `PramMeshSim` owns, held here so
/// each layer can be called, and timed, on its own.
struct Replay {
    hmos: Hmos,
    memory: Vec<HashMap<u64, Cell>>,
    exec: ExecCtx,
    checker: TraceChecker,
    faults: Option<FaultPlan>,
    policy: ReadPolicy,
    slack: f64,
    max_engine_steps: u64,
    clock: u64,
}

impl Replay {
    fn new(w: &Workload, faults: Option<FaultPlan>, tracer: &mut Tracer) -> Result<Replay, String> {
        let c = w.config(1);
        let span = tracer.begin("hmos", None, 0);
        let params = HmosParams::new(c.q, c.k, c.n, c.memory).map_err(|e| e.to_string())?;
        let hmos = Hmos::new(params).map_err(|e| e.to_string())?;
        tracer.end(span);
        Ok(Replay {
            hmos,
            memory: vec![HashMap::new(); c.n as usize],
            exec: ExecCtx::new(c.threads, c.sorter, c.analytic_sort),
            checker: TraceChecker::new(),
            faults,
            policy: c.read_policy,
            slack: c.culling_slack,
            max_engine_steps: c.max_engine_steps,
            clock: 0,
        })
    }

    /// One PRAM step, as `PramMeshSim::step` performs it. Returns the
    /// report and the step's root span.
    fn step(
        &mut self,
        step: &PramStep,
        j: usize,
        tracer: &mut Tracer,
    ) -> Result<(StepReport, usize), String> {
        let root = tracer.begin("step", None, j);
        step.validate(self.hmos.num_variables())
            .map_err(|var| format!("invalid step (variable {var})"))?;
        let mut ops = step.ops.clone();
        ops.resize(N as usize, None);
        let requests: Vec<Option<u64>> = ops.iter().map(|o| o.map(|op| op.var())).collect();

        let span = tracer.begin("culling", Some(root), j);
        let culled = match self.policy {
            ReadPolicy::Freshest => cull_with(&self.hmos, &requests, self.slack, &mut self.exec),
            ReadPolicy::HierarchicalMajority => select_all(&self.hmos, &requests),
        };
        tracer.end(span);

        self.clock += 1;
        let run = RunOptions {
            clock: self.clock,
            max_engine_steps: self.max_engine_steps,
            policy: self.policy,
            faults: self.faults.as_ref(),
        };
        let span = tracer.begin("protocol", Some(root), j);
        let mut access = access_protocol(
            &self.hmos,
            &mut self.memory,
            &ops,
            &culled.selected,
            &run,
            &mut self.exec,
        )
        .map_err(|e| e.to_string())?;
        tracer.end(span);

        let mut read_recs = Vec::new();
        let mut write_recs = Vec::new();
        for (p, op) in ops.iter().enumerate() {
            match *op {
                Some(Op::Read { var }) => read_recs.push(ReadRecord {
                    proc: p as u32,
                    var,
                    outcome: match access.outcomes[p] {
                        Some(QuorumRead::Value { value, .. }) => ReadOutcome::Value(value),
                        Some(QuorumRead::Tainted { value, .. }) => ReadOutcome::Tainted(value),
                        _ => ReadOutcome::Unrecoverable,
                    },
                }),
                Some(Op::Write { var, value }) => write_recs.push(WriteRecord {
                    proc: p as u32,
                    var,
                    value,
                    committed: access.write_committed[p].unwrap_or(false),
                }),
                None => {}
            }
        }
        let span = tracer.begin("fault", Some(root), j);
        self.checker.record_step(&read_recs, &write_recs);
        tracer.end(span);

        access.reads.truncate(step.ops.len());
        access.outcomes.truncate(step.ops.len());
        let total_steps = culled.report.total_steps + access.report.total_steps;
        let report = StepReport {
            culling: culled.report,
            protocol: access.report,
            reads: access.reads,
            outcomes: access.outcomes,
            total_steps,
        };
        tracer.end(root);
        Ok((report, root))
    }
}

/// Simulated counts of the replay over the deterministic window, summed.
#[derive(Default)]
struct WindowCounts {
    culling_steps: u64,
    fallbacks: u64,
    requests: u64,
    sort_steps: u64,
    route_steps: u64,
    return_steps: u64,
    max_queue: usize,
    dropped: u64,
}

impl WindowCounts {
    fn add(&mut self, r: &StepReport, requests: usize) {
        self.culling_steps += r.culling.total_steps;
        self.fallbacks += r
            .culling
            .iterations
            .iter()
            .map(|i| i.fallbacks)
            .sum::<u64>();
        self.requests += requests as u64;
        self.sort_steps += r.protocol.stages.iter().map(|s| s.sort_steps).sum::<u64>();
        self.route_steps += r.protocol.stages.iter().map(|s| s.route_steps).sum::<u64>();
        self.return_steps += r.protocol.return_steps;
        self.max_queue = self.max_queue.max(r.protocol.max_queue);
        self.dropped += r.protocol.dropped;
    }
}

/// The traced run: facade and replay side by side, then the standalone
/// sortnet and mesh probes. Returns the per-layer metrics.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Result<(Tally, Vec<Metric>), String> {
    let prog = w.program(seed, 0);
    let plan = w.fault_plan(0);
    let mut tracer = Tracer::new();
    let mut sim = PramMeshSim::new(w.config(1)).map_err(|e| e.to_string())?;
    if let Some(plan) = &plan {
        sim.set_fault_plan(plan.clone());
    }
    let mut rep = Replay::new(w, plan, &mut tracer)?;

    let mut tally = Tally::default();
    let mut facade_s = Vec::new();
    let mut roots = Vec::new();
    let mut counts = WindowCounts::default();
    let (mut memo_first, mut charges_window) = (0, 0);
    let start = Instant::now();
    let mut j = 0;
    while j < WINDOW || start.elapsed().as_secs_f64() < seconds {
        let step = prog.step(j);
        // Alternate which side runs first, so neither always inherits
        // caches the other warmed.
        let (mut facade, mut traced) = (None, None);
        for side in [j % 2, 1 - j % 2] {
            if side == 0 {
                let before = sim.trace_report();
                let t = Instant::now();
                let r = sim.step(&step).map_err(|e| e.to_string())?;
                facade_s.push(t.elapsed().as_secs_f64());
                facade = Some((r, before));
            } else {
                let (r, root) = rep.step(&step, j, &mut tracer)?;
                roots.push(root);
                traced = Some(r);
            }
        }
        let ((facade, before), traced) = (facade.expect("ran"), traced.expect("ran"));
        let after = sim.trace_report();
        let (violations, _) = trace_gate(&before, &after, !w.faults);
        tally.attempted += step.ops.len() as u64;
        tally.failed += violations + prog.check(j, &facade, !w.faults);
        if !same_step(&facade, &traced) || rep.checker.report() != after {
            eprintln!("step {j}: the traced replay differs from PramMeshSim::step");
            tally.failed += N;
        }
        if j == 0 {
            memo_first = rep.exec.route_memo().len();
        }
        if j < WINDOW {
            counts.add(&traced, step.ops.len());
            charges_window = rep.exec.ledger().charges();
        }
        j += 1;
    }

    // Layer times from the spans; warm steps are those after the first.
    let own = tracer.self_secs();
    let layer = |name: &str, warm: bool| -> Vec<f64> {
        tracer
            .spans
            .iter()
            .filter(|s| s.name == name && (s.step > 0) == warm)
            .map(Span::secs)
            .collect()
    };
    let first = |name: &str| layer(name, false)[0];
    let traced_step = median(&layer("step", true));
    let uncovered: Vec<f64> = roots[1..].iter().map(|&r| own[r]).collect();
    let hmos_build = tracer
        .spans
        .iter()
        .find(|s| s.name == "hmos")
        .map_or(0.0, Span::secs);
    let pool = rep.exec.engine_pool();
    let (created, reused) = (pool.created(), pool.reused());
    let wn = WINDOW as f64;
    let mut metrics = vec![
        metric("hmos.build_s", "s", hmos_build),
        metric("culling.wall_s", "s", median(&layer("culling", true))),
        metric("culling.first_wall_s", "s", first("culling")),
        metric(
            "culling.sim_steps",
            "steps",
            counts.culling_steps as f64 / wn,
        ),
        metric(
            "culling.fallback_ratio",
            "ratio",
            counts.fallbacks as f64 / counts.requests as f64,
        ),
        metric("protocol.wall_s", "s", median(&layer("protocol", true))),
        metric("protocol.first_wall_s", "s", first("protocol")),
        metric(
            "protocol.sim_sort_steps",
            "steps",
            counts.sort_steps as f64 / wn,
        ),
        metric(
            "protocol.sim_route_steps",
            "steps",
            counts.route_steps as f64 / wn,
        ),
        metric(
            "protocol.return_steps",
            "steps",
            counts.return_steps as f64 / wn,
        ),
        metric("protocol.max_queue", "packets", counts.max_queue as f64),
        metric("protocol.dropped", "packets", counts.dropped as f64 / wn),
        metric("exec.memo_entries_first", "count", memo_first as f64),
        metric(
            "exec.memo_entries_end",
            "count",
            rep.exec.route_memo().len() as f64,
        ),
        metric(
            "exec.engine_reuse_ratio",
            "ratio",
            reused as f64 / (created + reused) as f64,
        ),
        metric("exec.ledger_charges", "count", charges_window as f64 / wn),
        metric("fault.checker_s", "s", median(&layer("fault", true))),
        metric("trace.step_s", "s", traced_step),
        metric("trace.uncovered_s", "s", median(&uncovered)),
        metric(
            "trace.overhead",
            "ratio",
            traced_step / median(&facade_s[1..]),
        ),
    ];
    println!(
        "traced replay: {} steps ({} warm) beside the facade, all gates passed: {}",
        j,
        j - 1,
        tally.failed == 0
    );
    drop((sim, rep));

    let probes = probes::run(w, seed, nproc)?;
    tally.failed += probes.violations;
    metrics.extend(probes.metrics);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok((tally, metrics))
}
