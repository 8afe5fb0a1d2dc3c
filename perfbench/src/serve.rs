//! The `serve-overload` workload: the continuous-service loop under
//! sustained 1.5× overload, with the anytime ladder ranking each window.

use crate::trace::{span, Tracer};
use crate::{quantile, timed, Pass};
use hare_baselines::LadderServe;
use hare_cluster::{Cluster, Heterogeneity, SimTime};
use hare_core::Rung;
use hare_sim::admission::PendingJob;
use hare_sim::{PlanOutcome, QueueScheduler, ServeConfig, ServeLoop};
use hare_workload::OpenArrivalConfig;
use std::time::Instant;

/// Cluster size and arrival horizon (simulated seconds).
#[derive(Copy, Clone, Debug)]
pub struct Sizes {
    pub gpus: u32,
    pub horizon_secs: u64,
}

/// 160 GPUs, arrivals for 300,000 simulated seconds: about 22k decisions
/// per pass, seconds of wall time, so a run's median covers long work.
pub const FULL: Sizes = Sizes {
    gpus: 160,
    horizon_secs: 300_000,
};

/// Tiny scale for the smoke tests.
pub const SMOKE: Sizes = Sizes {
    gpus: 16,
    horizon_secs: 20_000,
};

/// Offered load over the estimated capacity: sustained overload, so the
/// admission and brownout paths stay busy.
const LOAD_FACTOR: f64 = 1.5;

/// Everything built before the timed phase.
pub struct Input {
    serve: ServeLoop,
    cost_per_work: f64,
}

pub fn setup(sizes: Sizes, seed: u64) -> Input {
    let cluster = Cluster::with_heterogeneity(Heterogeneity::High, sizes.gpus);
    // Calibrated at the default seed, as on the fleets.
    let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
    let arrivals = OpenArrivalConfig {
        load_factor: LOAD_FACTOR,
        seed,
        ..OpenArrivalConfig::default().calibrated(&counts)
    };
    let cfg = ServeConfig {
        arrivals,
        horizon: SimTime::from_secs(sizes.horizon_secs),
        ..ServeConfig::default()
    };
    let cost_per_work = cfg.cost_per_work;
    Input {
        serve: ServeLoop::new(cluster, cfg),
        cost_per_work,
    }
}

/// `LadderServe` behind a wrapper that records every `plan` call: a span
/// when tracing, and the call's wall time, work and rung always (the last
/// two exact).
struct TimedLadder<'a> {
    inner: LadderServe,
    tracer: Option<&'a Tracer>,
    secs: Vec<f64>,
    work: Vec<u64>,
    rungs: [u64; 4],
}

impl QueueScheduler for TimedLadder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, window: &[&PendingJob], cluster: &Cluster, budget_frac: f64) -> PlanOutcome {
        let inner = &mut self.inner;
        let out = timed(&mut self.secs, || {
            span(self.tracer, "ladder", || {
                inner.plan(window, cluster, budget_frac)
            })
        });
        self.work.push(out.work);
        if let Some(i) = Rung::ALL.iter().position(|r| r.name() == out.rung) {
            self.rungs[i] += 1;
        }
        out
    }

    fn save_state(&self) -> String {
        self.inner.save_state()
    }

    fn load_state(&mut self, state: &str) {
        self.inner.load_state(state)
    }

    fn on_lease_expired(&mut self, gpu: usize) {
        self.inner.on_lease_expired(gpu)
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.inner.on_gpu_recovery(gpu)
    }
}

/// One pass: serve the whole horizon, then drain.
pub fn pass(input: &Input, tracer: Option<&Tracer>) -> Pass {
    let mut sched = TimedLadder {
        inner: LadderServe::new(),
        tracer,
        secs: Vec::new(),
        work: Vec::new(),
        rungs: [0; 4],
    };
    let start = Instant::now();
    let report = span(tracer, "pass", || {
        span(tracer, "serve", || input.serve.run(&mut sched))
    });
    let mut pass = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    // Every pass makes the same decisions (their work is an exact figure),
    // so decision i of one pass is the same unit as decision i of another.
    pass.units = std::mem::take(&mut sched.secs);
    let c = report.counters;
    let accounted = report.completed + c.drained + c.shed + report.lease_lost;
    pass.offered = c.offered;
    pass.completed = report.completed;
    pass.failed = c.admitted.abs_diff(accounted) + u64::from(!c.conserved());
    pass.check("admission_conserved", c.conserved());
    pass.check("admitted_accounted", c.admitted == accounted);
    let rung_names = Rung::ALL.map(|r| r.name());
    let report_rungs = rung_names.map(|r| report.rung_hits.get(r).copied().unwrap_or(0));
    pass.check(
        "rung_hits_agree",
        report_rungs == sched.rungs
            && report
                .rung_hits
                .keys()
                .all(|k| rung_names.contains(&k.as_str()))
            && sched.work.len() as u64 == report.decisions,
    );

    pass.exact("wjct_s", report.mean_jct_secs);
    pass.exact("makespan_s", report.end.as_secs_f64());
    pass.exact("jct_mean_s", report.mean_jct_secs);
    pass.exact("admission.offered", c.offered as f64);
    pass.exact("admission.admitted", c.admitted as f64);
    pass.exact("admission.rejected", c.rejected() as f64);
    pass.exact("admission.deferred", c.deferrals as f64);
    pass.exact("admission.shed", c.shed as f64);
    pass.exact("admission.drained", c.drained as f64);
    pass.exact(
        "admission.admit_ratio",
        c.admitted as f64 / c.offered as f64,
    );
    pass.exact("controller.min_budget_level", report.min_budget_level);
    pass.exact("controller.transitions", report.budget_transitions as f64);
    pass.exact("serve.queue_depth_max", report.queue_depth_max as f64);
    pass.exact("ladder.decisions", report.decisions as f64);
    let work: u64 = sched.work.iter().sum();
    pass.exact("ladder.work", work as f64);
    for (name, hits) in rung_names.iter().zip(sched.rungs) {
        pass.exact(&format!("ladder.rung.{name}"), hits as f64);
    }
    let sim_latency: Vec<f64> = sched
        .work
        .iter()
        .map(|&w| w as f64 * input.cost_per_work)
        .collect();
    pass.exact("serve.decision_sim_p99_s", quantile(&sim_latency, 0.99));

    if let Some(t) = tracer {
        let plans = t.durations(t.current_run(), "ladder");
        let plan_s: f64 = plans.iter().sum();
        pass.wall("ladder.s_per_mwork", plan_s / (work as f64 / 1e6));
        pass.wall("ladder.decision_p50_ms", 1e3 * quantile(&plans, 0.5));
        pass.wall("ladder.decision_p99_ms", 1e3 * quantile(&plans, 0.99));
    }
    pass
}
