//! One function per experiment; see DESIGN.md §3 for the experiment
//! index and EXPERIMENTS.md for recorded results.

use crate::fit::{power_fit, r_squared};
use prasim_bibd::{input_count, verify, Bibd, BibdSubgraph};
use prasim_core::baseline::{BaselineScheme, FlatHmosSim, MehlhornVishkinSim, SingleCopySim};
use prasim_core::culling::cull_with;
use prasim_core::sim::{eq8_bound, theorem1_exponent};
use prasim_core::{workload, PramMeshSim, PramStep, SimConfig};
use prasim_exec::ExecCtx;
use prasim_hmos::{Hmos, HmosParams};
use prasim_mesh::region::{Rect, Tessellation};
use prasim_mesh::topology::MeshShape;
use prasim_routing::cost::{hierarchical_bound, theorem2_bound};
use prasim_routing::flat::route_flat_ctx;
use prasim_routing::greedy::route_greedy_ctx;
use prasim_routing::hierarchical::route_hierarchical_ctx;
use prasim_routing::problem::{RoutingInstance, SplitMix64};
use prasim_sortnet::Sorter;

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "T1".
    pub id: &'static str,
    /// What the experiment validates.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form findings appended below the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Renders as a markdown table with notes.
    pub fn render(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

/// A simulator configuration on `threads` engine workers and `sorter`
/// (results never depend on `threads`).
fn sim_config(n: u64, memory: u64, threads: usize, sorter: Sorter) -> SimConfig {
    SimConfig::new(n, memory)
        .with_threads(threads)
        .with_sorter(sorter)
}

fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// **T1 (Theorem 1/4).** Full-simulation slowdown versus mesh size with
/// `α` held roughly constant by scaling `d` with `n`; exponent fit
/// against the paper's bound and the `Ω(√n)` diameter floor.
pub fn t1_slowdown(
    sizes: &[(u64, u32)],
    k: u32,
    analytic: bool,
    threads: usize,
    sorter: Sorter,
) -> Table {
    let mut rows = Vec::new();
    let mut rand_pts = Vec::new();
    let mut adv_pts = Vec::new();
    let mut alphas = Vec::new();
    for &(n, d) in sizes {
        let params = HmosParams::with_d(3, k, n, d).expect("valid T1 configuration");
        let alpha = params.alpha();
        alphas.push(alpha);
        let mut sim = PramMeshSim::new(
            sim_config(n, params.num_variables, threads, sorter)
                .with_k(k)
                .with_analytic_sort(analytic),
        )
        .expect("valid sim");
        let active = n.min(sim.num_variables());
        let rand_vars = workload::random_distinct(active, sim.num_variables(), 42);
        let t_rand = sim.step(&PramStep::reads(&rand_vars)).unwrap().total_steps;
        let adv_vars = workload::multi_module_adversary(sim.hmos(), active, 0);
        let t_adv = sim.step(&PramStep::reads(&adv_vars)).unwrap().total_steps;
        rand_pts.push((n as f64, t_rand as f64));
        adv_pts.push((n as f64, t_adv as f64));
        rows.push(vec![
            n.to_string(),
            d.to_string(),
            format!("{alpha:.3}"),
            t_rand.to_string(),
            t_adv.to_string(),
            f((n as f64).sqrt()),
            f(eq8_bound(3, k, n, alpha)),
        ]);
    }
    let mut notes = Vec::new();
    if sizes.len() >= 2 {
        let (er, cr) = power_fit(&rand_pts);
        let (ea, ca) = power_fit(&adv_pts);
        let mean_alpha = alphas.iter().sum::<f64>() / alphas.len() as f64;
        notes.push(format!(
            "fit (random): T ≈ {:.1}·n^{:.3} (R² = {:.3}); fit (adversarial): T ≈ {:.1}·n^{:.3} (R² = {:.3})",
            cr, er, r_squared(&rand_pts, er, cr), ca, ea, r_squared(&adv_pts, ea, ca)
        ));
        notes.push(format!(
            "paper exponent at mean α = {:.3}, k = {}: {:.3}; diameter floor exponent: 0.500 \
             ({})",
            mean_alpha,
            k,
            theorem1_exponent(mean_alpha),
            if analytic {
                "sorting charged at the paper's l·√n bound".to_string()
            } else {
                match sorter {
                    Sorter::Shearsort => {
                        "measured exponents include the shearsort log factor — DESIGN.md §4"
                            .to_string()
                    }
                    Sorter::Columnsort => {
                        "measured with the step-simulated columnsort — no log-factor caveat, \
                         DESIGN.md §4"
                            .to_string()
                    }
                }
            }
        ));
    }
    Table {
        id: if analytic { "T1a" } else { "T1" },
        title: format!(
            "Theorem 1/4 — simulation slowdown, k = {k}{}",
            if analytic {
                " (analytic sort accounting — the paper's cost model)".to_string()
            } else {
                format!(" (measured {sorter})")
            }
        ),
        header: [
            "n",
            "d",
            "α",
            "T random",
            "T adversarial",
            "√n",
            "Eq.(8) bound",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes,
    }
}

/// **T2 (Theorem 2).** Flat `(l1, l2)`-routing measured steps against
/// the `√(l1·l2·n) + l1·√n` bound.
pub fn t2_routing(ns: &[u64], l1s: &[u64], threads: usize, sorter: Sorter) -> Table {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &l1 in l1s {
        let mut pts = Vec::new();
        for &n in ns {
            let shape = MeshShape::square_of(n).expect("square n");
            let inst = RoutingInstance::random(shape, l1, 7 + n + l1);
            let l2 = inst.l2();
            let out = route_flat_ctx(
                &inst,
                100_000_000,
                &mut ExecCtx::new(threads, sorter, false),
            )
            .unwrap();
            let bound = theorem2_bound(l1, l2, n);
            pts.push((n as f64, out.total_steps as f64));
            rows.push(vec![
                n.to_string(),
                l1.to_string(),
                l2.to_string(),
                out.sort_steps.to_string(),
                out.route_steps.to_string(),
                out.total_steps.to_string(),
                f(bound),
                format!("{:.2}", out.total_steps as f64 / bound),
            ]);
        }
        if ns.len() >= 2 {
            let (e, c) = power_fit(&pts);
            let caveat = match sorter {
                Sorter::Shearsort => " up to the sort's log factor",
                Sorter::Columnsort => "",
            };
            notes.push(format!(
                "l1 = {l1}: measured T ≈ {c:.2}·n^{e:.3} (theorem shape: n^0.5{caveat})"
            ));
        }
    }
    Table {
        id: "T2",
        title: "Theorem 2 — (l1,l2)-routing vs √(l1·l2·n) + l1·√n".into(),
        header: [
            "n",
            "l1",
            "l2",
            "sort",
            "route",
            "total",
            "bound",
            "total/bound",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes,
    }
}

/// **T3 (Section 2).** Hierarchical `(l1, l2, δ, m)`-routing vs flat and
/// greedy on receive-skewed instances, with the analytic bound ratio.
pub fn t3_hierarchical(ns: &[u64], l1: u64, threads: usize, sorter: Sorter) -> Table {
    let mut rows = Vec::new();
    for &n in ns {
        let shape = MeshShape::square_of(n).expect("square n");
        let parts = (n / 64).max(4);
        let tess = Tessellation::new(Rect::full(shape), parts).unwrap();
        let inst = RoutingInstance::skewed_per_part(shape, &tess, l1, 11 + n);
        let (il1, il2, delta) = (inst.l1(), inst.l2(), inst.delta(&tess));
        let m = n / parts;
        let mut ctx = ExecCtx::new(threads, sorter, false);
        let greedy = route_greedy_ctx(&inst, 100_000_000, &mut ctx).unwrap();
        let flat = route_flat_ctx(&inst, 100_000_000, &mut ctx).unwrap();
        let hier = route_hierarchical_ctx(&inst, parts, 100_000_000, &mut ctx).unwrap();
        let fb = theorem2_bound(il1, il2, n);
        let hb = hierarchical_bound(il1, il2, delta, m, n);
        rows.push(vec![
            n.to_string(),
            parts.to_string(),
            il2.to_string(),
            format!("{delta:.1}"),
            greedy.total_steps.to_string(),
            flat.total_steps.to_string(),
            hier.total_steps.to_string(),
            format!("{:.2}", hb / fb),
            format!("{:.2}", hier.total_steps as f64 / flat.total_steps as f64),
        ]);
    }
    Table {
        id: "T3",
        title: format!("Section 2 — hierarchical vs flat routing on skewed instances (l1 = {l1})"),
        header: [
            "n",
            "submeshes",
            "l2",
            "δ",
            "greedy",
            "flat",
            "hier",
            "bound ratio (hier/flat)",
            "measured ratio",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "bound ratio < 1 marks the regime where Section 2 predicts the hierarchical \
             algorithm wins; the measured ratio should track it as n grows."
                .into(),
        ],
    }
}

/// **T4 (Theorem 3).** Post-culling page loads per level against the
/// `4·q^k·n^{1-1/2^i}` bound, for adversarial and random request sets.
pub fn t4_culling_bounds(n: u64, d: u32, k: u32, threads: usize, sorter: Sorter) -> Table {
    let params = HmosParams::with_d(3, k, n, d).expect("valid T4 configuration");
    let hmos = Hmos::new(params).unwrap();
    let active = n.min(hmos.num_variables());
    let mut rows = Vec::new();
    let workloads: Vec<(&str, Vec<u64>)> = vec![
        (
            "random",
            workload::random_distinct(active, hmos.num_variables(), 3),
        ),
        (
            "adversarial",
            workload::multi_module_adversary(&hmos, active, 0),
        ),
        (
            "strided",
            workload::strided(active, hmos.num_variables(), 81),
        ),
    ];
    for (name, vars) in workloads {
        let reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        let out = cull_with(&hmos, &reqs, 1.0, &mut ExecCtx::new(threads, sorter, false));
        for it in &out.report.iterations {
            rows.push(vec![
                name.to_string(),
                it.level.to_string(),
                it.max_page_load.to_string(),
                it.theorem3_bound.to_string(),
                format!("{:.3}", it.max_page_load as f64 / it.theorem3_bound as f64),
                it.fallbacks.to_string(),
            ]);
        }
    }
    Table {
        id: "T4",
        title: format!("Theorem 3 — culling page-load bounds (n = {n}, d = {d}, k = {k})"),
        header: [
            "workload",
            "level i",
            "max page load",
            "bound 4·q^k·n^(1-1/2^i)",
            "ratio",
            "fallbacks",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "every ratio must be ≤ 1 (the bound is loose at laptop scale — the \
                     mechanism matters at the crossover where pages saturate)"
                .into(),
        ],
    }
}

/// **T5 (Eq. 2).** Culling time versus `√n` with the request count
/// fixed: `T_culling ∈ O(k·q^k·√n)`.
pub fn t5_culling_time(sizes: &[(u64, u32)], k: u32, threads: usize, sorter: Sorter) -> Table {
    let mut rows = Vec::new();
    let mut pts = Vec::new();
    for &(n, d) in sizes {
        let params = HmosParams::with_d(3, k, n, d).expect("valid T5 configuration");
        let hmos = Hmos::new(params).unwrap();
        let active = n.min(hmos.num_variables());
        let vars = workload::random_distinct(active, hmos.num_variables(), 5);
        let mut reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        reqs.resize(n as usize, None);
        let out = cull_with(&hmos, &reqs, 1.0, &mut ExecCtx::new(threads, sorter, false));
        pts.push((n as f64, out.report.total_steps as f64));
        rows.push(vec![
            n.to_string(),
            d.to_string(),
            out.report.total_steps.to_string(),
            f(out.report.total_steps as f64 / (n as f64).sqrt()),
        ]);
    }
    let mut notes = Vec::new();
    if sizes.len() >= 2 {
        let (e, c) = power_fit(&pts);
        let caveat = match sorter {
            Sorter::Shearsort => " + the shearsort log factor",
            Sorter::Columnsort => "",
        };
        notes.push(format!(
            "fit: T_culling ≈ {c:.2}·n^{e:.3} (Eq. 2 predicts exponent 0.5{caveat})"
        ));
    }
    Table {
        id: "T5",
        title: format!("Eq. (2) — culling time scaling, k = {k}"),
        header: ["n", "d", "T_culling", "T/√n"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes,
    }
}

/// **T6 (Theorem 5).** BIBD-subgraph output-degree balance across
/// `(q, d, m)`.
pub fn t6_bibd_balance() -> Table {
    let mut rows = Vec::new();
    let mut all_ok = true;
    for &(q, d) in &[
        (3u64, 2u32),
        (3, 3),
        (3, 4),
        (4, 2),
        (5, 2),
        (7, 2),
        (8, 2),
        (9, 2),
    ] {
        let full = input_count(q, d).unwrap();
        for frac in [1u64, 10, 25, 50, 75, 99, 100] {
            let m = (full * frac / 100).max(1);
            let sg = BibdSubgraph::new(q, d, m).unwrap();
            let st = verify::degree_stats(&sg);
            all_ok &= st.balanced();
            rows.push(vec![
                q.to_string(),
                d.to_string(),
                m.to_string(),
                format!("[{}, {}]", st.min, st.max),
                format!("[{}, {}]", st.bound_lo, st.bound_hi),
                if st.balanced() { "ok" } else { "VIOLATED" }.to_string(),
            ]);
        }
    }
    Table {
        id: "T6",
        title: "Theorem 5 — balanced output degrees of the BIBD subgraph".into(),
        header: ["q", "d", "m", "observed ρ", "⌊qm/q^d⌋..⌈qm/q^d⌉", "status"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes: vec![format!("all configurations balanced: {all_ok}")],
    }
}

/// **T7 (Lemma 1).** Strong expansion `|Γ_k(S)| = (k-1)|S| + 1` over
/// randomized instances.
pub fn t7_strong_expansion(trials: u64) -> Table {
    let mut rows = Vec::new();
    for &(q, d) in &[(3u64, 2u32), (3, 3), (4, 2), (5, 2), (9, 2)] {
        let bibd = Bibd::new(q, d).unwrap();
        let mut rng = SplitMix64(q * 1000 + d as u64);
        let mut exact = 0u64;
        for _ in 0..trials {
            let u = rng.below(bibd.num_outputs());
            let adj = bibd.inputs_of_output(u);
            let take = (rng.below(adj.len() as u64) + 1) as usize;
            let s: Vec<u64> = adj.into_iter().take(take).collect();
            let k = (rng.below(q) + 1) as usize;
            let seed = rng.next_u64();
            let (got, want) = verify::strong_expansion(&bibd, u, &s, k, |w| {
                let r = w.wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
                (0..q as usize)
                    .map(|i| ((r >> (i * 5)) as usize) % q as usize)
                    .collect()
            });
            if got == want {
                exact += 1;
            }
        }
        rows.push(vec![
            q.to_string(),
            d.to_string(),
            trials.to_string(),
            exact.to_string(),
            if exact == trials { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    Table {
        id: "T7",
        title: "Lemma 1 — strong expansion |Γ_k(S)| = (k-1)|S| + 1".into(),
        header: ["q", "d", "trials", "exact", "status"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes: vec![],
    }
}

/// **T8 (Figure 1 + Eqs. 1, 3, 4).** HMOS structural constants.
pub fn t8_structure(configs: &[(u64, u32, u32)]) -> Table {
    let mut rows = Vec::new();
    for &(n, d, k) in configs {
        let params = HmosParams::with_d(3, k, n, d).expect("valid T8 configuration");
        let hmos = Hmos::new(params.clone()).unwrap();
        for i in 1..=k {
            let (lo, hi) = hmos.level_extents(i);
            let c = params.eq1_constants()[i as usize - 1];
            // Eq. (4) with its constant made explicit:
            // t_i = Θ(n/(q^{k-i}·m_i)); the pure-power form
            // q^{-(k-i)}·n^{1-α/2^i} differs by the Eq. (1) constant c.
            let t_pred = n as f64 / (3f64.powi((k - i) as i32) * params.m[i as usize - 1] as f64);
            rows.push(vec![
                format!("n={n}, d={d}, k={k}"),
                i.to_string(),
                params.modules_at(i).to_string(),
                format!("{c:.2}"),
                params.pages_at(i).to_string(),
                format!("[{lo}, {hi}]"),
                f(t_pred),
            ]);
        }
    }
    Table {
        id: "T8",
        title: "Figure 1 / Eqs. (1),(3),(4) — HMOS structure".into(),
        header: [
            "config",
            "level i",
            "|U_i|",
            "Eq.(1) c",
            "pages",
            "t_i realized",
            "t_i Eq.(4)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec!["Eq. (1) requires c ∈ [q/2, q³] = [1.5, 27]".into()],
    }
}

/// **T9 (Theorem 4 proof).** Redundancy/time trade-off: vary `k` at
/// fixed `n` and memory.
pub fn t9_redundancy(n: u64, d: u32, ks: &[u32], threads: usize, sorter: Sorter) -> Table {
    let mut rows = Vec::new();
    for &k in ks {
        let params = match HmosParams::with_d(3, k, n, d) {
            Ok(p) => p,
            Err(e) => {
                rows.push(vec![
                    k.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("invalid: {e}"),
                ]);
                continue;
            }
        };
        let alpha = params.alpha();
        let mut sim =
            PramMeshSim::new(sim_config(n, params.num_variables, threads, sorter).with_k(k))
                .expect("valid sim");
        let active = n.min(sim.num_variables());
        let vars = workload::multi_module_adversary(sim.hmos(), active, 0);
        let t = sim.step(&PramStep::reads(&vars)).unwrap().total_steps;
        rows.push(vec![
            k.to_string(),
            params.redundancy().to_string(),
            format!("{alpha:.3}"),
            t.to_string(),
            f(eq8_bound(3, k, n, alpha)),
        ]);
    }
    Table {
        id: "T9",
        title: format!("Theorem 4 — redundancy (q^k) vs simulation time (n = {n}, d = {d})"),
        header: ["k", "redundancy", "α", "T adversarial", "Eq.(8) bound"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes: vec![
            "the paper: k = 2 (9 copies) optimal near α = 2; k = 3 (27 copies) better for \
             3/2 ≤ α ≤ 5/3; higher k pays more fixed cost at small α"
                .into(),
        ],
    }
}

/// **T10 (Section 1).** Worst-case behaviour of the baselines vs the
/// HMOS scheme.
pub fn t10_baselines(n: u64, threads: usize, sorter: Sorter) -> Table {
    let mut sim = PramMeshSim::new(sim_config(n, 9000, threads, sorter)).expect("valid sim");
    let nv = sim.num_variables();
    // The single-copy scheme has no BIBD structure, so it gets the large
    // (n²-variable) memory its worst case needs: n variables that all
    // home on node 0.
    let mut single = SingleCopySim::new(n, n * n)
        .unwrap()
        .with_threads(threads)
        .with_sorter(sorter);
    let mut mv = MehlhornVishkinSim::new(n, nv, 3)
        .unwrap()
        .with_threads(threads)
        .with_sorter(sorter);
    let mut flat = FlatHmosSim::new(3, 2, n, 9000)
        .unwrap()
        .with_threads(threads)
        .with_sorter(sorter);

    let uniform = workload::random_distinct(n.min(nv), nv, 7);
    let single_uniform = workload::random_distinct(n, n * n, 7);
    let single_adv: Vec<u64> = (0..n).map(|i| i * n).collect();
    let hmos_adv = workload::multi_module_adversary(sim.hmos(), n.min(nv), 0);

    let mut rows = Vec::new();
    {
        let u = single
            .step(&PramStep::reads(&single_uniform))
            .unwrap()
            .total_steps;
        let a = single
            .step(&PramStep::reads(&single_adv))
            .unwrap()
            .total_steps;
        rows.push(vec![
            "single-copy".into(),
            "1".into(),
            u.to_string(),
            a.to_string(),
            format!("{:.1}", a as f64 / u as f64),
        ]);
    }
    {
        let u = mv.step(&PramStep::reads(&uniform)).unwrap().total_steps;
        let a = mv.step(&PramStep::reads(&hmos_adv)).unwrap().total_steps;
        rows.push(vec![
            "mehlhorn-vishkin (reads)".into(),
            "3".into(),
            u.to_string(),
            a.to_string(),
            format!("{:.1}", a as f64 / u as f64),
        ]);
        let w = mv
            .step(&PramStep::writes(&uniform, &uniform))
            .unwrap()
            .total_steps;
        rows.push(vec![
            "mehlhorn-vishkin (writes)".into(),
            "3".into(),
            w.to_string(),
            "-".into(),
            "-".into(),
        ]);
    }
    {
        let u = flat.step(&PramStep::reads(&uniform)).unwrap().total_steps;
        let a = flat.step(&PramStep::reads(&hmos_adv)).unwrap().total_steps;
        rows.push(vec![
            "flat-hmos (no culling)".into(),
            "9 (4 touched)".into(),
            u.to_string(),
            a.to_string(),
            format!("{:.1}", a as f64 / u as f64),
        ]);
    }
    {
        let u = sim.step(&PramStep::reads(&uniform)).unwrap().total_steps;
        let a = sim.step(&PramStep::reads(&hmos_adv)).unwrap().total_steps;
        rows.push(vec![
            "hmos + culling (this paper)".into(),
            "9 (4 touched)".into(),
            u.to_string(),
            a.to_string(),
            format!("{:.1}", a as f64 / u as f64),
        ]);
    }
    Table {
        id: "T10",
        title: format!("Section 1 — worst-case comparison of schemes (n = {n})"),
        header: [
            "scheme",
            "redundancy",
            "uniform reads",
            "adversarial reads",
            "degradation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "each scheme faces its own worst adversary (same-home variables for single-copy, \
             module-saturating variables for the HMOS family)"
                .into(),
        ],
    }
}

/// **T11 (Definition 2).** Randomized consistency audit: mixed programs
/// against an ideal memory; counts agreeing reads.
pub fn t11_consistency(programs: u64, threads: usize, sorter: Sorter) -> Table {
    let mut rng = SplitMix64(2024);
    let mut total_reads = 0u64;
    let mut agree = 0u64;
    let mut sim = PramMeshSim::new(sim_config(256, 100, threads, sorter)).expect("valid sim");
    let nv = sim.num_variables();
    let mut ideal = std::collections::HashMap::new();
    for _ in 0..programs {
        // Random mixed step.
        let count = rng.below(200) + 1;
        let mut used = std::collections::HashSet::new();
        let mut step = PramStep {
            ops: vec![None; 256],
        };
        for _ in 0..count {
            let var = rng.below(nv);
            if !used.insert(var) {
                continue;
            }
            let p = rng.below(256) as usize;
            if step.ops[p].is_some() {
                continue;
            }
            step.ops[p] = Some(if rng.below(2) == 0 {
                prasim_core::Op::Write {
                    var,
                    value: rng.below(1_000_000),
                }
            } else {
                prasim_core::Op::Read { var }
            });
        }
        let rep = sim.step(&step).unwrap();
        for (p, op) in step.ops.iter().enumerate() {
            match op {
                Some(prasim_core::Op::Read { var }) => {
                    total_reads += 1;
                    let expect = ideal.get(var).copied().unwrap_or(0);
                    if rep.reads[p] == Some(expect) {
                        agree += 1;
                    }
                }
                Some(prasim_core::Op::Write { var, value }) => {
                    ideal.insert(*var, *value);
                }
                None => {}
            }
        }
    }
    Table {
        id: "T11",
        title: "Definition 2 — hierarchical-majority consistency audit".into(),
        header: ["programs", "reads checked", "agreeing", "status"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: vec![vec![
            programs.to_string(),
            total_reads.to_string(),
            agree.to_string(),
            if agree == total_reads {
                "ok"
            } else {
                "VIOLATED"
            }
            .to_string(),
        ]],
        notes: vec![],
    }
}

/// **T12 (fault sweep).** Graceful degradation of the simulation under
/// a seeded [`prasim_fault::FaultPlan`]: with hierarchical-majority reads
/// (Definition 2) and fewer than `⌈q/2⌉^k` faulty copies per variable,
/// every read recovers the last written value; past the bound failures
/// are *detected* (unrecoverable), never silent. The freshest-timestamp
/// rule, by contrast, is silently fooled by forged timestamps — the
/// trace checker's `silent-wrong` column is the proof either way.
pub fn t12_fault_sweep(n: u64, d: u32, seed: u64, threads: usize, sorter: Sorter) -> Table {
    use prasim_core::ReadPolicy;
    use prasim_fault::{CopyFaultKind, FaultPlan};
    use prasim_hmos::TargetSpec;

    let params = HmosParams::with_d(3, 2, n, d).expect("valid T12 configuration");
    let spec = TargetSpec { q: 3, k: 2 };
    let tol = spec.fault_tolerance(); // ⌈q/2⌉^k = 4 of the q^k = 9 copies
    let qk = params.redundancy();
    let nvars = 200u64.min(params.num_variables).min(n);

    let quorum = ReadPolicy::HierarchicalMajority;
    // (label, policy, corrupt copies per variable, dead nodes,
    //  severed links, lossy links)
    let cases: [(&str, ReadPolicy, u64, u64, u64, u64); 9] = [
        ("fault-free, freshest", ReadPolicy::Freshest, 0, 0, 0, 0),
        ("fault-free, quorum", quorum, 0, 0, 0, 0),
        (
            "corrupt ⌈q/2⌉^k−1 copies/var, quorum",
            quorum,
            tol - 1,
            0,
            0,
            0,
        ),
        ("corrupt ⌈q/2⌉^k copies/var, quorum", quorum, tol, 0, 0, 0),
        ("corrupt q^k−3 copies/var, quorum", quorum, qk - 3, 0, 0, 0),
        ("16 dead nodes, quorum", quorum, 0, 16, 0, 0),
        ("24 severed links, quorum", quorum, 0, 0, 24, 0),
        ("32 lossy links (25%), quorum", quorum, 0, 0, 0, 32),
        (
            "corrupt q^k−3 copies/var, freshest",
            ReadPolicy::Freshest,
            qk - 3,
            0,
            0,
            0,
        ),
    ];

    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for (label, policy, per_var, dead, severed, lossy) in cases {
        let mut sim = PramMeshSim::new(
            sim_config(n, params.num_variables, threads, sorter).with_read_policy(policy),
        )
        .expect("valid sim");
        let shape = sim.hmos().shape();
        let mut plan = FaultPlan::new(seed);
        if dead > 0 {
            plan.random_dead_nodes(shape, dead, 0);
        }
        if severed > 0 {
            plan.random_severed_links(shape, severed, 0);
        }
        if lossy > 0 {
            plan.random_lossy_links(shape, lossy, 250, 0);
        }
        let vars = workload::random_distinct(nvars, sim.num_variables(), seed ^ 0x7A51);
        if per_var > 0 {
            for &v in &vars {
                plan.fault_variable_copies(sim.hmos(), v, per_var, CopyFaultKind::Corrupt, 0);
            }
        }
        let faults = plan.describe();
        if !plan.is_empty() {
            sim.set_fault_plan(plan);
        }
        let values: Vec<u64> = vars.iter().map(|v| v.wrapping_mul(31) + 5).collect();
        sim.step(&PramStep::writes(&vars, &values))
            .expect("write step");
        let rep = sim.step(&PramStep::reads(&vars)).expect("read step");
        let t = sim.trace_report();
        if baseline == 0.0 {
            baseline = rep.protocol.total_steps as f64;
        }
        rows.push(vec![
            label.to_string(),
            faults,
            t.reads.to_string(),
            (t.correct_reads + t.tainted_reads).to_string(),
            t.unrecoverable_reads.to_string(),
            t.silent_wrong_reads.to_string(),
            format!("{:.2}x", rep.protocol.total_steps as f64 / baseline),
        ]);
    }
    Table {
        id: "T12",
        title: format!(
            "fault sweep — graceful degradation of quorum reads (n = {n}, d = {d}, seed = {seed})"
        ),
        header: [
            "scenario",
            "plan",
            "reads",
            "recovered",
            "detected",
            "silent-wrong",
            "route slowdown",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "recovered = reads returning the last written value (clean or flagged); detected = \
             reads the machine itself reported unrecoverable; route slowdown compares access-\
             protocol steps only (quorum reads skip CULLING — with all q^k copies accessed \
             there is nothing to select)"
                .into(),
            "silent-wrong must be 0 for every quorum row — below the ⌈q/2⌉^k tolerance the \
             majority masks all faults, above it the distinct garbage cannot collude into a \
             forged target set, so failures surface as detections"
                .into(),
            "the final row shows why the quorum exists: the freshest-timestamp rule accepts \
             forged timestamps and goes silently wrong"
                .into(),
        ],
    }
}

/// **T15 (Eqs. 5, 6).** Per-stage packet loads δ_i of the access
/// protocol against the paper's bounds: `δ_i ≤ 4·q^k·n^{1-1/2^i}/t_i`
/// (Eq. 5) and `δ_0 ∈ O(q^k·min(√n, n^{α-1}))` (Eq. 6).
pub fn t15_stage_deltas(n: u64, d: u32, k: u32, threads: usize, sorter: Sorter) -> Table {
    let params = HmosParams::with_d(3, k, n, d).expect("valid T15 configuration");
    let alpha = params.alpha();
    let qk = params.redundancy() as f64;
    let mut sim = PramMeshSim::new(sim_config(n, params.num_variables, threads, sorter).with_k(k))
        .expect("valid sim");
    let hmos_extents: Vec<(u64, u64)> = (1..=k).map(|i| sim.hmos().level_extents(i)).collect();
    let active = n.min(sim.num_variables());
    let mut rows = Vec::new();
    for (name, vars) in [
        (
            "random",
            workload::random_distinct(active, sim.num_variables(), 31),
        ),
        (
            "adversarial",
            workload::multi_module_adversary(sim.hmos(), active, 0),
        ),
    ] {
        let rep = sim.step(&PramStep::reads(&vars)).unwrap();
        for st in &rep.protocol.stages {
            // After stage s the per-node load is δ_{s-1}.
            let lvl = st.stage - 1;
            let bound = if lvl == 0 {
                // Eq. (6): δ_0 ≤ min(page packets per node, stored
                // copies per node) — realized constants, not Θ(1).
                let t1_min = hmos_extents[0].0.max(1) as f64;
                let stored = sim.hmos().max_copies_per_node() as f64;
                let _ = alpha;
                (4.0 * qk * (n as f64).sqrt() / t1_min).min(stored)
            } else {
                let t_min = hmos_extents[lvl as usize - 1].0.max(1) as f64;
                4.0 * qk * (n as f64).powf(1.0 - 0.5f64.powi(lvl as i32)) / t_min
            };
            rows.push(vec![
                name.to_string(),
                st.stage.to_string(),
                format!("δ_{lvl}"),
                st.max_node_load.to_string(),
                f(bound),
                format!("{:.3}", st.max_node_load as f64 / bound.max(1.0)),
            ]);
        }
    }
    Table {
        id: "T15",
        title: format!("Eqs. (5)/(6) — per-stage node loads (n = {n}, d = {d}, k = {k})"),
        header: ["workload", "stage", "load", "measured", "bound", "ratio"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes: vec![
            "ratios ≤ 1 confirm the culling-driven congestion caps the stage analysis \
                     relies on"
                .into(),
        ],
    }
}

/// **T13 (ablation).** Tightening the culling marking bound (slack < 1)
/// forces the `S_v` fallback branch and shows how the selection quality
/// degrades gracefully: page loads stay bounded, fallbacks grow.
pub fn t13_slack_ablation(n: u64, d: u32, threads: usize, sorter: Sorter) -> Table {
    let hmos = Hmos::new(HmosParams::with_d(3, 2, n, d).expect("valid T13 configuration")).unwrap();
    let active = n.min(hmos.num_variables());
    let vars = workload::multi_module_adversary(&hmos, active, 0);
    let reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
    let mut rows = Vec::new();
    for slack in [1.0f64, 0.5, 0.1, 0.01, 0.001] {
        let out = cull_with(
            &hmos,
            &reqs,
            slack,
            &mut ExecCtx::new(threads, sorter, false),
        );
        let fallbacks: u64 = out.report.iterations.iter().map(|i| i.fallbacks).sum();
        let max_load = out
            .report
            .iterations
            .iter()
            .map(|i| i.max_page_load)
            .max()
            .unwrap_or(0);
        let sizes_ok = out.selected.iter().all(|s| s.len() == 4); // minimal target set for q=3, k=2
        rows.push(vec![
            format!("{slack}"),
            out.report.iterations[0].mark_bound.to_string(),
            fallbacks.to_string(),
            max_load.to_string(),
            out.report.total_steps.to_string(),
            if sizes_ok { "ok" } else { "BROKEN" }.to_string(),
        ]);
    }
    Table {
        id: "T13",
        title: format!("Ablation — culling marking-bound slack (n = {n}, d = {d}, adversarial)"),
        header: [
            "slack",
            "mark bound (lvl 1)",
            "fallbacks",
            "max page load",
            "T_culling",
            "selections",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "selections must remain minimal target sets at every slack — correctness never \
             depends on the marking bound, only congestion does"
                .into(),
        ],
    }
}

/// **T14 (Theorem 4 proof).** "Both `T_sim` and `q^k` are increasing
/// functions of `q`, therefore we use the smallest possible `q = 3`."
/// Measured: same mesh and comparable memory, `q ∈ {3, 4, 5}`.
pub fn t14_q_sweep(n: u64, threads: usize, sorter: Sorter) -> Table {
    let mut rows = Vec::new();
    for q in [3u64, 4, 5] {
        // Pick d so the memory sizes are comparable (~n^1.3).
        let target_mem = (n as f64).powf(1.3) as u64;
        let mut d = 2;
        while prasim_bibd::input_count(q, d + 1).is_some_and(|f| f <= target_mem) {
            d += 1;
        }
        let params = match HmosParams::with_d(q, 2, n, d) {
            Ok(p) => p,
            Err(e) => {
                rows.push(vec![
                    q.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("invalid: {e}"),
                ]);
                continue;
            }
        };
        let mut sim =
            PramMeshSim::new(sim_config(n, params.num_variables, threads, sorter).with_q(q))
                .expect("valid sim");
        let active = n.min(sim.num_variables());
        let vars = workload::multi_module_adversary(sim.hmos(), active, 0);
        let t = sim.step(&PramStep::reads(&vars)).unwrap().total_steps;
        rows.push(vec![
            q.to_string(),
            params.redundancy().to_string(),
            format!("{:.3}", params.alpha()),
            params.num_variables.to_string(),
            t.to_string(),
        ]);
    }
    Table {
        id: "T14",
        title: format!("Theorem 4 — q-sweep at fixed k = 2 (n = {n}): q = 3 minimizes both"),
        header: ["q", "redundancy q^k", "α", "memory", "T adversarial"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows,
        notes: vec!["the paper chooses q = 3 because redundancy and time both grow with q".into()],
    }
}

/// **T16 (sharded engine).** Wall-clock scaling of the row-banded
/// parallel engine on one saturated greedy routing phase, with the
/// byte-determinism contract visible in-table: steps, delivered, hops
/// and max queue must be identical on every row — only the wall clock
/// may differ. Wall-clock columns vary run to run and machine to
/// machine, so the CI determinism matrix diffs T12/T2 instead of T16;
/// speedups above 1 require actual cores (single-core hosts show ~1×
/// with banding overhead).
pub fn t16_parallel_speedup(n: u64, packets_per_node: u64, threads: &[usize]) -> Table {
    use prasim_mesh::engine::{Engine, Packet};
    use std::time::Instant;

    let shape = MeshShape::square_of(n).expect("square n");
    let full = Rect::full(shape);
    let mut rows = Vec::new();
    let mut base_wall = None;
    let mut base_obs = None;
    for &t in threads {
        let mut engine = Engine::new(shape).with_threads(t);
        let mut rng = SplitMix64(0xC0FFEE ^ n);
        let mut id = 0u64;
        for node in 0..shape.nodes() as u32 {
            let src = shape.coord(node);
            for _ in 0..packets_per_node {
                let dest = shape.coord((rng.next_u64() % shape.nodes()) as u32);
                engine.inject(
                    src,
                    Packet {
                        id,
                        dest,
                        bounds: full,
                        tag: id,
                    },
                );
                id += 1;
            }
        }
        let t0 = Instant::now();
        let stats = engine.run(100_000_000).expect("routing finishes");
        let wall = t0.elapsed().as_secs_f64();
        let obs = (stats, engine.take_delivered().len());
        let base = *base_wall.get_or_insert(wall);
        match &base_obs {
            None => base_obs = Some(obs),
            Some(b) => assert_eq!(b, &obs, "determinism violated at {t} threads"),
        }
        rows.push(vec![
            t.to_string(),
            stats.steps.to_string(),
            stats.delivered.to_string(),
            stats.total_hops.to_string(),
            stats.max_queue.to_string(),
            format!("{:.3}", wall),
            format!("{:.2}x", base / wall),
        ]);
    }
    Table {
        id: "T16",
        title: format!(
            "sharded engine — wall-clock scaling, n = {n}, {packets_per_node} packets/node \
             (steps/delivered/hops/queue identical by construction)"
        ),
        header: [
            "threads",
            "steps",
            "delivered",
            "total hops",
            "max queue",
            "wall s",
            "speedup",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            "every column except the wall clock is byte-identical across thread counts — \
             asserted in-process and enforced end-to-end by the CI determinism matrix"
                .into(),
        ],
    }
}

/// **T17 (sorter comparison).** Step-simulated columnsort against
/// merge-split shearsort on identical random inputs (`h = 1` key per
/// node), with fitted growth exponents. Also returns the table as a
/// machine-readable JSON document (`BENCH_sorters.json`).
pub fn t17_sorters(ns: &[u64]) -> (Table, String) {
    let sorters = [Sorter::Shearsort, Sorter::Columnsort];
    let mut steps: Vec<Vec<u64>> = vec![Vec::new(); sorters.len()];
    let mut rows = Vec::new();
    for &n in ns {
        let shape = MeshShape::square_of(n).expect("square n");
        let mut rng = SplitMix64(0x50F7 ^ n);
        let input: Vec<Vec<u64>> = (0..n).map(|_| vec![rng.next_u64()]).collect();
        let mut row = vec![n.to_string()];
        for (si, s) in sorters.iter().enumerate() {
            let mut items = input.clone();
            let cost = s.sort(&mut items, shape.rows, shape.cols, 1);
            assert!(
                items
                    .iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .windows(2)
                    .all(|w| w[0] <= w[1]),
                "{s} failed to sort n = {n}"
            );
            steps[si].push(cost.steps);
            row.push(cost.steps.to_string());
        }
        let last = steps.iter().map(|v| *v.last().unwrap()).collect::<Vec<_>>();
        row.push(format!("{:.3}", last[1] as f64 / last[0] as f64));
        rows.push(row);
    }
    let mut notes = Vec::new();
    let mut fits = Vec::new();
    for (si, s) in sorters.iter().enumerate() {
        let pts: Vec<(f64, f64)> = ns
            .iter()
            .zip(&steps[si])
            .map(|(&n, &t)| (n as f64, t as f64))
            .collect();
        let (e, c) = if pts.len() >= 2 {
            power_fit(&pts)
        } else {
            (f64::NAN, f64::NAN)
        };
        fits.push(e);
        if pts.len() >= 2 {
            notes.push(format!(
                "{s}: T ≈ {c:.2}·n^{e:.3} (R² = {:.3})",
                r_squared(&pts, e, c)
            ));
        }
    }
    if let [shear_e, col_e] = fits[..] {
        let largest = *ns.last().unwrap();
        let (shear_t, col_t) = (*steps[0].last().unwrap(), *steps[1].last().unwrap());
        notes.push(format!(
            "at n = {largest}: columnsort {col_t} vs shearsort {shear_t} steps ({}); \
             columnsort's fitted exponent {col_e:.3} vs shearsort's {shear_e:.3} — \
             the log factor is gone",
            if col_t < shear_t {
                "columnsort wins"
            } else {
                "crossover not yet reached at this size"
            }
        ));
    }
    let json_sorters: Vec<String> = sorters
        .iter()
        .enumerate()
        .map(|(si, s)| {
            let points: Vec<String> = ns
                .iter()
                .zip(&steps[si])
                .map(|(n, t)| format!("{{\"n\": {n}, \"steps\": {t}}}"))
                .collect();
            format!(
                "    {{\"name\": \"{s}\", \"exponent\": {:.4}, \"points\": [{}]}}",
                fits[si],
                points.join(", ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"T17\",\n  \"h\": 1,\n  \"sorters\": [\n{}\n  ]\n}}\n",
        json_sorters.join(",\n")
    );
    (
        Table {
            id: "T17",
            title: "sorter comparison — step-simulated columnsort vs merge-split shearsort \
                    (h = 1)"
                .into(),
            header: ["n", "shearsort steps", "columnsort steps", "col/shear"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
            notes,
        },
        json,
    )
}

/// **T18 (context reuse).** Multi-step throughput of a persistent
/// execution context against the seed's cold-start behavior (a fresh
/// context per step), on simulation-shaped steps built from the T16
/// routing workload: each step sorts the request keys on the mesh (the
/// protocol's sort phase — columnsort's permutation measurements hit
/// the context's route memo) and then routes the packets to completion
/// on an engine checked out of the context. "Fresh" rebuilds the whole
/// context every step — threads spawned and joined per step, queues
/// reallocated, the route memo re-measured from scratch; "reused" runs
/// every step against one long-lived [`prasim_exec::ExecCtx`]. The
/// sort cost and routing outcome are asserted byte-identical between
/// the two modes (only the wall-clock columns may differ). Also
/// returns the data as a machine-readable JSON document
/// (`BENCH_exec.json`).
pub fn t18_context_reuse(
    n: u64,
    packets_per_node: u64,
    reps: u64,
    threads: usize,
    sorter: Sorter,
) -> (Table, String) {
    use prasim_mesh::engine::Packet;
    use prasim_sortnet::snake::snake_index;
    use std::time::Instant;

    let shape = MeshShape::square_of(n).expect("square n");
    let full = Rect::full(shape);

    // One simulation-shaped step: sort the request keys (as the access
    // protocol does between its routing stages), then inject the T16
    // workload and route it to completion on an engine checked out of
    // `ctx`.
    let run_step = |ctx: &mut ExecCtx| {
        let mut rng = SplitMix64(0xC0FFEE ^ n);
        let mut id = 0u64;
        let mut items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shape.nodes() as usize];
        let mut pkts: Vec<(u32, Packet)> = Vec::with_capacity((n * packets_per_node) as usize);
        for node in 0..shape.nodes() as u32 {
            let src = shape.coord(node);
            let pos = snake_index(shape.cols, src.r, src.c) as usize;
            for _ in 0..packets_per_node {
                let dest = shape.coord((rng.next_u64() % shape.nodes()) as u32);
                let key = snake_index(shape.cols, dest.r, dest.c);
                items[pos].push((key, id));
                pkts.push((
                    node,
                    Packet {
                        id,
                        dest,
                        bounds: full,
                        tag: id,
                    },
                ));
                id += 1;
            }
        }
        let sort_cost = ctx.sort(
            &mut items,
            shape.rows,
            shape.cols,
            packets_per_node as usize,
        );
        let mut engine = ctx.engine(shape);
        for (node, pkt) in pkts {
            engine.inject(shape.coord(node), pkt);
        }
        let stats = engine.run(100_000_000).expect("routing finishes");
        let delivered = engine.take_delivered().len();
        ctx.recycle(engine);
        (sort_cost.steps, stats, delivered)
    };

    let mut rows = Vec::new();
    let mut walls = Vec::new();
    let mut obs: Option<(u64, prasim_mesh::engine::EngineStats, usize)> = None;
    for mode in ["fresh", "reused"] {
        let new_ctx = || ExecCtx::new(threads, sorter, false);
        let mut reused_ctx = new_ctx(); // built once, outside the clock
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..reps {
            let step_obs = if mode == "fresh" {
                run_step(&mut new_ctx())
            } else {
                run_step(&mut reused_ctx)
            };
            match &last {
                None => last = Some(step_obs),
                Some(b) => assert_eq!(b, &step_obs, "steps must repeat identically"),
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let last = last.expect("reps >= 1");
        match &obs {
            None => obs = Some(last),
            Some(b) => assert_eq!(b, &last, "context reuse changed the outcome"),
        }
        let (sort_steps, stats, delivered) = last;
        walls.push(wall);
        rows.push(vec![
            mode.to_string(),
            sort_steps.to_string(),
            stats.steps.to_string(),
            delivered.to_string(),
            stats.max_queue.to_string(),
            format!("{:.3}", wall),
            format!("{:.1}", reps as f64 / wall),
            format!("{:.2}x", walls[0] / wall),
        ]);
    }
    let speedup = walls[0] / walls[1];
    let json = format!(
        "{{\n  \"experiment\": \"T18\",\n  \"n\": {n},\n  \"packets_per_node\": \
         {packets_per_node},\n  \"reps\": {reps},\n  \"threads\": {threads},\n  \"modes\": [\n    \
         {{\"name\": \"fresh\", \"wall_s\": {:.6}, \"steps_per_s\": {:.3}}},\n    \
         {{\"name\": \"reused\", \"wall_s\": {:.6}, \"steps_per_s\": {:.3}}}\n  ],\n  \
         \"speedup\": {:.4}\n}}\n",
        walls[0],
        reps as f64 / walls[0],
        walls[1],
        reps as f64 / walls[1],
        speedup,
    );
    (
        Table {
            id: "T18",
            title: format!(
                "execution-context reuse — {reps} sort+route steps of the T16 workload, \
                 n = {n}, {packets_per_node} packets/node, {threads} threads \
                 (sort/route/delivered/queue identical by construction)"
            ),
            header: [
                "context",
                "sort steps",
                "route steps",
                "delivered",
                "max queue",
                "wall s",
                "steps/s",
                "speedup",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows,
            notes: vec![format!(
                "reusing one context across steps keeps the worker pool parked, the \
                 engine allocations warm, and the columnsort route memo populated: \
                 {speedup:.2}x the cold-start throughput (wall-clock columns vary run \
                 to run; all others are deterministic)"
            )],
        },
        json,
    )
}

/// **T19 (engine step throughput).** Steps-per-second of the
/// struct-of-arrays arena engine against the frozen pre-arena
/// [`prasim_mesh::reference::ReferenceEngine`] on identical sorted
/// routing workloads, swept over mesh sizes. Each workload is the raw
/// T16 traffic (random destinations, `packets_per_node` per node, the
/// congestion the access protocol's routing stages actually see); its
/// request keys are also sorted on the mesh by `sorter` (the
/// sort-steps column) before the engines route the traffic to
/// completion. Arena and legacy both run sequentially, so their
/// wall-clock ratio is purely the storage layout; a third, arena-only
/// column runs the same workload at `threads` workers. All three runs
/// are asserted to agree on every observable. Also returns the data
/// as a machine-readable JSON document (`BENCH_engine.json`); the
/// `speedup` entry at `n = 4096` is the headline number of the arena
/// rewrite.
pub fn t19_engine_throughput(
    ns: &[u64],
    packets_per_node: u64,
    reps: u64,
    threads: usize,
    sorter: Sorter,
) -> (Table, String) {
    use prasim_mesh::engine::{Engine, Packet};
    use prasim_mesh::reference::ReferenceEngine;
    use prasim_sortnet::snake::snake_index;
    use std::time::Instant;

    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    let mut headline = None;
    for &n in ns {
        let shape = MeshShape::square_of(n).expect("square n");
        let full = Rect::full(shape);

        // Raw T16 traffic; the request keys are also sorted on the
        // mesh so the configured sorter's cost lands in the table.
        let mut rng = SplitMix64(0xC0FFEE ^ n);
        let mut id = 0u64;
        let mut items: Vec<Vec<(u32, u64)>> = vec![Vec::new(); shape.nodes() as usize];
        let mut workload: Vec<(prasim_mesh::topology::Coord, Packet)> =
            Vec::with_capacity((n * packets_per_node) as usize);
        for node in 0..shape.nodes() as u32 {
            let src = shape.coord(node);
            let pos = snake_index(shape.cols, src.r, src.c) as usize;
            for _ in 0..packets_per_node {
                let dest = shape.coord((rng.next_u64() % shape.nodes()) as u32);
                items[pos].push((snake_index(shape.cols, dest.r, dest.c), id));
                workload.push((
                    src,
                    Packet {
                        id,
                        dest,
                        bounds: full,
                        tag: id,
                    },
                ));
                id += 1;
            }
        }
        let sort_cost = sorter.sort(
            &mut items,
            shape.rows,
            shape.cols,
            packets_per_node as usize,
        );

        // Arena engines: one warm instance each, reset/inject/run/drain.
        let run_arena = |e: &mut Engine| {
            e.reset();
            for &(src, pkt) in &workload {
                e.inject(src, pkt);
            }
            let stats = e.run(100_000_000).expect("routing finishes");
            let delivered = e.drain_delivered().count();
            (stats, delivered)
        };
        let mut arena = Engine::new(shape);
        arena.reserve(workload.len());
        let warm = run_arena(&mut arena);
        let mut arena_par = Engine::new(shape).with_threads(threads);
        arena_par.reserve(workload.len());
        assert_eq!(
            warm,
            run_arena(&mut arena_par),
            "arena engine must agree with itself at {threads} threads"
        );

        // Legacy engine: same warm-reuse protocol on the frozen
        // pre-arena implementation.
        let mut legacy = ReferenceEngine::new(shape);
        let run_legacy = |e: &mut ReferenceEngine| {
            e.reset();
            for &(src, pkt) in &workload {
                e.inject(src, pkt);
            }
            let stats = e.run(100_000_000).expect("routing finishes");
            let delivered = e.take_delivered().len();
            (stats, delivered)
        };
        assert_eq!(
            warm,
            run_legacy(&mut legacy),
            "arena and legacy engines must agree on every observable"
        );

        // Interleave the three runs' reps and keep the fastest rep of
        // each: best-of-N is far more robust to scheduler noise than a
        // single summed wall, and the interleaving exposes every run to
        // the same background interference.
        let mut arena_wall = f64::INFINITY;
        let mut legacy_wall = f64::INFINITY;
        let mut par_wall = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            assert_eq!(warm, run_arena(&mut arena), "arena run must repeat");
            arena_wall = arena_wall.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            run_legacy(&mut legacy);
            legacy_wall = legacy_wall.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            run_arena(&mut arena_par);
            par_wall = par_wall.min(t0.elapsed().as_secs_f64());
        }

        let (stats, delivered) = warm;
        let total_steps = stats.steps as f64;
        let arena_sps = total_steps / arena_wall;
        let legacy_sps = total_steps / legacy_wall;
        let par_sps = total_steps / par_wall;
        let speedup = legacy_wall / arena_wall;
        if n == 4096 {
            headline = Some(speedup);
        }
        rows.push(vec![
            n.to_string(),
            sort_cost.steps.to_string(),
            stats.steps.to_string(),
            delivered.to_string(),
            stats.max_queue.to_string(),
            format!("{legacy_sps:.0}"),
            format!("{arena_sps:.0}"),
            format!("{speedup:.2}x"),
            format!("{par_sps:.0}"),
        ]);
        json_entries.push(format!(
            "    {{\"n\": {n}, \"route_steps\": {}, \"legacy_steps_per_s\": \
             {legacy_sps:.3}, \"arena_steps_per_s\": {arena_sps:.3}, \"speedup\": \
             {speedup:.4}, \"arena_par_steps_per_s\": {par_sps:.3}}}",
            stats.steps,
        ));
    }
    let headline = headline.unwrap_or(f64::NAN);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"experiment\": \"T19\",\n  \"sorter\": \"{}\",\n  \"packets_per_node\": \
         {packets_per_node},\n  \"reps\": {reps},\n  \"method\": \"best of reps, \
         interleaved\",\n  \"threads\": {threads},\n  \"host_nproc\": {nproc},\n  \
         \"entries\": [\n{}\n  ],\n  \"speedup_n4096\": {headline:.4}\n}}\n",
        sorter.name(),
        json_entries.join(",\n"),
    );
    (
        Table {
            id: "T19",
            title: format!(
                "engine step throughput — arena vs legacy storage on the raw T16 \
                 workload, {packets_per_node} packets/node, best of {reps} reps, sorter = {} \
                 (all columns but steps/s and speedup are deterministic)",
                sorter.name()
            ),
            header: [
                "n",
                "sort steps",
                "route steps",
                "delivered",
                "max queue",
                "legacy steps/s",
                "arena steps/s",
                "speedup",
                &format!("arena steps/s (threads = {threads})"),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows,
            notes: vec![format!(
                "same routing policy, same observables, different storage: flat \
                 struct-of-arrays slots with zero steady-state allocation versus the \
                 legacy per-node Vec<Flight> queues with per-step scratch, both \
                 sequential; headline speedup at n = 4096: {headline:.2}x"
            )],
        },
        json,
    )
}
