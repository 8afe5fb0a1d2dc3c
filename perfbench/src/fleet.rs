//! The two fleet workloads: a routed, cell-partitioned heterogeneous
//! cluster run under Hare's planner (`fleet-hare`) or under the four
//! baselines of the paper's comparison suite (`fleet-baselines`).

use crate::trace::{span, Tracer};
use crate::{median, timed, Pass};
use hare_baselines::{
    build_simulation, run_scheme_counted, GavelFifo, RunOptions, SchedAllox, SchedHomo, Scheme,
    Srtf,
};
use hare_cluster::{Cluster, Heterogeneity};
use hare_core::{HareScheduler, SyncMode};
use hare_sim::{
    FaultPlan, GatewayConfig, OfflineReplay, Policy, ShardReport, ShardedTrace, SimError,
    SimReport, SimView, SimWorkload, Simulation,
};
use hare_workload::{JobSpec, OpenArrivalConfig, ProfileDb, StreamedTrace};
use std::hint::black_box;
use std::time::Instant;

/// Fleet dimensions.
#[derive(Copy, Clone, Debug)]
pub struct Sizes {
    pub gpus: u32,
    pub cells: usize,
    pub jobs: u64,
}

/// 1,024 GPUs in 64 cells of 16, 4,000 jobs: a mean cell of 62.5 jobs,
/// large enough that the planner dominates a pass, and a pass short
/// enough (a few seconds) that a run repeats every cell several times.
pub const FULL: Sizes = Sizes {
    gpus: 1024,
    cells: 64,
    jobs: 4000,
};

/// Tiny scale for the smoke tests.
pub const SMOKE: Sizes = Sizes {
    gpus: 64,
    cells: 4,
    jobs: 120,
};

/// The baselines of the comparison suite, in the paper's plotting order.
const BASELINES: [Scheme; 4] = [
    Scheme::GavelFifo,
    Scheme::Srtf,
    Scheme::SchedHomo,
    Scheme::SchedAllox,
];

/// Everything built before the timed phase.
pub struct Input {
    cluster: Cluster,
    cells: usize,
    /// Materialised arrivals in global (arrival) order.
    jobs: Vec<JobSpec>,
    db: ProfileDb,
    opts: RunOptions,
}

pub fn setup(sizes: Sizes, seed: u64) -> Input {
    let cluster = Cluster::with_heterogeneity(Heterogeneity::High, sizes.gpus);
    // Calibrated at the library's default seed, then reseeded: every
    // workload seed gets the same offered rate. Calibrating at the workload
    // seed would move the load by the error of a 128-job capacity sample,
    // which queueing turns into double-digit swings of JCT between seeds.
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    let arrivals = OpenArrivalConfig {
        seed,
        ..OpenArrivalConfig::default().calibrated(&counts)
    };
    let jobs = StreamedTrace::new(&arrivals, sizes.jobs)
        .map(|a| a.spec)
        .collect();
    Input {
        cluster,
        cells: sizes.cells,
        jobs,
        db: ProfileDb::new(seed),
        // The suite's default 2% noise on realized durations.
        opts: RunOptions {
            seed,
            ..RunOptions::default()
        },
    }
}

fn route(input: &Input, tracer: Option<&Tracer>) -> ShardedTrace {
    span(tracer, "gateway", || {
        ShardedTrace::route(
            &input.cluster,
            input.cells,
            &GatewayConfig::default(),
            input.jobs.iter().cloned(),
        )
    })
}

fn build(
    input: &Input,
    tracer: Option<&Tracer>,
    cell: &hare_cluster::Cell,
    specs: &[JobSpec],
) -> SimWorkload {
    span(tracer, "build", || {
        SimWorkload::build(cell.cluster().clone(), specs.to_vec(), &input.db)
    })
}

/// Dispatch calls per timed unit of an engine run: about 0.2 ms of work.
const CHUNK: u32 = 128;

/// A policy that delegates to `inner` and reads the clock every `CHUNK`
/// dispatch calls, so an engine run of many milliseconds splits into
/// units short enough to see a quiet host. The engine is deterministic,
/// so chunk i of a run is the same work in every pass.
struct Clocked<'u, P> {
    inner: P,
    units: &'u mut Vec<f64>,
    calls: u32,
    last: Instant,
}

impl<P: Policy> Policy for Clocked<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        self.calls += 1;
        if self.calls.is_multiple_of(CHUNK) {
            let now = Instant::now();
            self.units.push((now - self.last).as_secs_f64());
            self.last = now;
        }
        self.inner.dispatch(view, out)
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        self.inner.on_gpu_failure(gpu, requeued)
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.inner.on_gpu_recovery(gpu)
    }
}

/// Run `sim` under `policy`, appending the run's chunks to `units`.
fn run_clocked(
    sim: &Simulation,
    policy: impl Policy,
    units: &mut Vec<f64>,
) -> Result<(SimReport, u64), SimError> {
    let mut clocked = Clocked {
        inner: policy,
        units,
        calls: 0,
        last: Instant::now(),
    };
    let out = sim.run_counted(&mut clocked);
    clocked.units.push(clocked.last.elapsed().as_secs_f64());
    out
}

/// `run_scheme_counted` for a baseline, with its policy clocked: the
/// same simulation and the same policy, which each pass checks on its
/// first cell against the library call.
fn run_baseline(
    scheme: Scheme,
    w: &SimWorkload,
    opts: RunOptions,
    units: &mut Vec<f64>,
) -> (SimReport, u64) {
    let sim = build_simulation(scheme, w, opts, &FaultPlan::default());
    match scheme {
        Scheme::GavelFifo => run_clocked(&sim, GavelFifo::new(), units),
        Scheme::Srtf => run_clocked(&sim, Srtf::new(), units),
        Scheme::SchedHomo => run_clocked(&sim, SchedHomo::new(), units),
        Scheme::SchedAllox => run_clocked(&sim, SchedAllox::new(), units),
        Scheme::Hare => unreachable!("fleet-baselines runs the baselines only"),
    }
    .expect("simulation failed")
}

/// Gateway balance figures and the offered-job count, shared by both
/// fleets.
fn record_routing(pass: &mut Pass, input: &Input, sharded: &ShardedTrace) {
    let per_cell: Vec<f64> = sharded
        .cell_specs()
        .iter()
        .map(|c| c.len() as f64)
        .collect();
    let max = per_cell.iter().copied().fold(0.0, f64::max);
    let mean = per_cell.iter().sum::<f64>() / per_cell.len() as f64;
    pass.exact("gateway.cell_jobs_max", max);
    pass.exact("gateway.cell_jobs_mean", mean);
    pass.exact("gateway.imbalance", max / mean);
    pass.offered += input.jobs.len() as u64;
}

/// Count routed jobs the merged report shows as finished after arriving.
fn completed(input: &Input, merged: &ShardReport) -> u64 {
    if merged.report.completion.len() != input.jobs.len() {
        return 0;
    }
    merged
        .report
        .completion
        .iter()
        .zip(&input.jobs)
        .filter(|(done, spec)| **done > spec.arrival)
        .count() as u64
}

/// Weighted mean JCT, makespan and mean JCT of a merged report.
fn outcome(merged: &ShardReport) -> (f64, f64, f64) {
    let r = &merged.report;
    let weight: f64 = r.weights.iter().sum();
    (
        r.weighted_jct / weight,
        r.makespan.as_secs_f64(),
        r.mean_jct(),
    )
}

/// One `fleet-hare` pass: route, then per cell build → plan → replay,
/// merged by `ShardedTrace::run_with`.
pub fn hare_pass(input: &Input, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    // Wall seconds of the benchmark's own output checks, which the pass
    // time excludes.
    let mut check_s = 0.0;
    let mut valid = true;
    let mut tasks = 0u64;
    let mut calls = 0u64;
    let mut units = Vec::new();
    let start = Instant::now();
    let merged = span(tracer, "pass", || {
        let sharded = route(input, tracer);
        let merged = span(tracer, "shard", || {
            sharded.run_with(|_, cell, specs| {
                let w = timed(&mut units, || build(input, tracer, cell, specs));
                let out = timed(&mut units, || {
                    span(tracer, "planner", || {
                        HareScheduler::default().schedule(black_box(&w.problem))
                    })
                });
                calls += 1;
                tasks += w.problem.n_tasks() as u64;
                let t = Instant::now();
                valid &= span(tracer, "check", || {
                    out.schedule.validate(&w.problem, SyncMode::Relaxed).is_ok()
                });
                check_s += t.elapsed().as_secs_f64();
                span(tracer, "engine", || {
                    let policy = OfflineReplay::new("Hare", &w, &out.schedule);
                    let sim = build_simulation(Scheme::Hare, &w, input.opts, &FaultPlan::default());
                    run_clocked(&sim, policy, &mut units)
                })
            })
        });
        (sharded, merged)
    });
    pass.wall_s = start.elapsed().as_secs_f64() - check_s;
    pass.units = units;
    let (sharded, merged) = merged;
    let merged = merged.expect("fleet-hare simulation failed");
    record_routing(&mut pass, input, &sharded);
    let done = completed(input, &merged);
    pass.completed += done;
    pass.failed += input.jobs.len() as u64 - done;
    pass.check("plan_valid", valid);
    pass.check("all_jobs_complete", done == input.jobs.len() as u64);
    let (wjct, makespan, jct) = outcome(&merged);
    pass.exact("wjct_s", wjct);
    pass.exact("makespan_s", makespan);
    pass.exact("jct_mean_s", jct);
    pass.exact("planner.calls", calls as f64);
    pass.exact("planner.tasks", tasks as f64);
    pass.exact("engine.events", merged.events_total as f64);
    if let Some(t) = tracer {
        let plans = t.durations(t.current_run(), "planner");
        pass.wall("planner.plan_p50_ms", 1e3 * median(&plans));
        pass.wall(
            "planner.plan_max_ms",
            1e3 * plans.iter().copied().fold(0.0, f64::max),
        );
    }
    pass
}

/// One `fleet-baselines` pass: route once, then run every baseline over
/// the routed fleet in turn (the cell closure is `run_scheme_sharded`'s,
/// with the build timed and the engine run clocked by `run_baseline`).
pub fn baselines_pass(input: &Input, tracer: Option<&Tracer>) -> Pass {
    let mut pass = Pass::default();
    let mut check_s = 0.0;
    let mut same_as_suite = true;
    let start = Instant::now();
    let mut per_scheme = Vec::new();
    let mut units = Vec::new();
    let sharded = span(tracer, "pass", || {
        let sharded = route(input, tracer);
        for scheme in BASELINES {
            let engine_before = tracer.map_or(0.0, |t| t.total("engine"));
            let mut checked = false;
            let merged = span(tracer, "shard", || {
                sharded.run_with(|_, cell, specs| {
                    let w = timed(&mut units, || build(input, tracer, cell, specs));
                    let run = span(tracer, "engine", || {
                        run_baseline(scheme, &w, input.opts, &mut units)
                    });
                    if !checked {
                        checked = true;
                        let t = Instant::now();
                        same_as_suite &= span(tracer, "check", || {
                            run_scheme_counted(scheme, &w, input.opts) == run
                        });
                        check_s += t.elapsed().as_secs_f64();
                    }
                    Ok(run)
                })
            })
            .expect("fleet-baselines simulation failed");
            let engine_s = tracer.map_or(0.0, |t| t.total("engine")) - engine_before;
            per_scheme.push((scheme, merged, engine_s));
        }
        sharded
    });
    pass.wall_s = start.elapsed().as_secs_f64() - check_s;
    pass.units = units;
    pass.check("clocked_matches_suite", same_as_suite);
    record_routing(&mut pass, input, &sharded);
    pass.offered *= BASELINES.len() as u64;
    let (mut wjct, mut makespan, mut jct, mut events) = (0.0, 0.0, 0.0, 0u64);
    let mut all_done = true;
    for (scheme, merged, engine_s) in &per_scheme {
        let done = completed(input, merged);
        all_done &= done == input.jobs.len() as u64;
        pass.completed += done;
        pass.failed += input.jobs.len() as u64 - done;
        let (w, m, j) = outcome(merged);
        wjct += w;
        makespan += m;
        jct += j;
        events += merged.events_total;
        pass.exact(&format!("ref.wjct_s.{}", scheme.name()), w);
        if tracer.is_some() {
            pass.wall(&format!("engine.sim_s.{}", scheme.name()), *engine_s);
        }
    }
    pass.check("all_jobs_complete", all_done);
    let n = per_scheme.len() as f64;
    pass.exact("wjct_s", wjct / n);
    pass.exact("makespan_s", makespan / n);
    pass.exact("jct_mean_s", jct / n);
    pass.exact("planner.calls", 0.0);
    pass.exact("engine.events", events as f64);
    pass
}

/// Wall seconds of the planner's stages, summed over every cell of one
/// routed fleet.
pub struct Breakdown {
    pub to_instance: f64,
    pub relax: f64,
    pub lower_bound: f64,
    /// List scheduling plus the second instance build and bound.
    pub other: f64,
}

/// Time the planner's stages on the same cell problems a `fleet-hare`
/// pass plans. Each cell's whole `schedule` call is timed right before its
/// stages, so `other` is the difference of two figures taken moments apart.
pub fn planner_breakdown(input: &Input) -> Breakdown {
    let sharded = route(input, None);
    let planner = HareScheduler::default();
    let mut b = Breakdown {
        to_instance: 0.0,
        relax: 0.0,
        lower_bound: 0.0,
        other: 0.0,
    };
    for (cell, specs) in sharded.partition().cells().iter().zip(sharded.cell_specs()) {
        if specs.is_empty() {
            continue;
        }
        let w = build(input, None, cell, specs);
        let t = Instant::now();
        black_box(planner.schedule(black_box(&w.problem)));
        let t0 = Instant::now();
        let inst = black_box(w.problem.to_instance());
        let t1 = Instant::now();
        black_box(hare_solver::relax::solve(&inst, &planner.relax));
        let t2 = Instant::now();
        black_box(hare_solver::certified_lower_bound(&inst));
        let t3 = Instant::now();
        b.to_instance += (t1 - t0).as_secs_f64();
        b.relax += (t2 - t1).as_secs_f64();
        b.lower_bound += (t3 - t2).as_secs_f64();
        b.other += (t0 - t).as_secs_f64() - (t3 - t0).as_secs_f64();
    }
    b
}
