//! End-to-end and per-layer benchmark of the Hare pipeline.
//!
//! ```text
//! hare-perfbench --workload <fleet-hare|fleet-baselines|serve-overload>
//!                --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans PATH]
//! ```
//!
//! A run builds the workload's inputs from the seed (timed as `setup_s`,
//! repeated and reported as the median of batch minima), then runs whole
//! *passes* of the workload while the next one is expected to end within
//! `--seconds`. Each pass times its short repeatable units (a cell's build
//! and plan, every 128 engine dispatches, each serve decision); the pass
//! at its floor is every unit at its fastest over the passes (see
//! [`Floor`]), and `run_ref` is that floor over the floor of a fixed
//! reference kernel timed between passes (see `host`). Every pass checks
//! its outputs and must reproduce the previous pass's deterministic
//! figures exactly. With
//! `--trace 1` the run alternates untraced and traced passes; the spans the
//! traced passes record around each layer call give the per-layer metrics.
//!
//! Output: `#` comment lines, one `check <name> pass|FAIL` line per check,
//! and a final JSON line with every figure by name, which `run.py` turns
//! into the benchmark's result line. Units live in `BENCHMARK.json` only.

mod fleet;
mod host;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

const FH: u8 = 1;
const FB: u8 = 2;
const SO: u8 = 4;
const FLEETS: u8 = FH | FB;
const ALL: u8 = FH | FB | SO;

/// Per-layer metrics and the workloads that exercise each layer. A
/// workload reports 0 for a layer it does not exercise.
const PER_LAYER: &[(&str, u8)] = &[
    ("gateway.route_s", FLEETS),
    ("gateway.cell_jobs_max", FLEETS),
    ("gateway.cell_jobs_mean", FLEETS),
    ("gateway.imbalance", FLEETS),
    ("build.s", FLEETS),
    ("planner.plan_s", FH),
    ("planner.calls", FLEETS),
    ("planner.tasks", FH),
    ("planner.plan_p50_ms", FH),
    ("planner.plan_max_ms", FH),
    ("planner.to_instance_s", FH),
    ("planner.relax_s", FH),
    ("planner.lower_bound_s", FH),
    ("planner.other_s", FH),
    ("engine.sim_s", FLEETS),
    ("engine.events", FLEETS),
    ("engine.events_per_s", FLEETS),
    ("engine.sim_s.Gavel_FIFO", FB),
    ("engine.sim_s.SRTF", FB),
    ("engine.sim_s.Sched_Homo", FB),
    ("engine.sim_s.Sched_Allox", FB),
    ("ref.wjct_s.Gavel_FIFO", FB),
    ("ref.wjct_s.SRTF", FB),
    ("ref.wjct_s.Sched_Homo", FB),
    ("ref.wjct_s.Sched_Allox", FB),
    ("shard.merge_s", FLEETS),
    ("ladder.plan_s", SO),
    ("ladder.decisions", SO),
    ("ladder.work", SO),
    ("ladder.s_per_mwork", SO),
    ("ladder.rung.exact", SO),
    ("ladder.rung.relaxation", SO),
    ("ladder.rung.stale-plan", SO),
    ("ladder.rung.greedy", SO),
    ("ladder.decision_p50_ms", SO),
    ("ladder.decision_p99_ms", SO),
    ("serve.loop_s", SO),
    ("admission.offered", SO),
    ("admission.admitted", SO),
    ("admission.rejected", SO),
    ("admission.deferred", SO),
    ("admission.shed", SO),
    ("admission.drained", SO),
    ("admission.admit_ratio", SO),
    ("controller.min_budget_level", SO),
    ("controller.transitions", SO),
    ("serve.queue_depth_max", SO),
    ("serve.decision_sim_p99_s", SO),
    ("check.s", FH),
    ("pass.other_s", ALL),
    ("trace.overhead_s", ALL),
    ("run.floor_s", ALL),
    ("host.ref_s", ALL),
    ("proc.cpu_s", ALL),
    ("proc.cores", ALL),
];

/// Span name → the per-layer metric carrying that layer's self time.
const SELF_TIME: &[(&str, &str)] = &[
    ("gateway", "gateway.route_s"),
    ("build", "build.s"),
    ("planner", "planner.plan_s"),
    ("engine", "engine.sim_s"),
    ("shard", "shard.merge_s"),
    ("ladder", "ladder.plan_s"),
    ("serve", "serve.loop_s"),
    ("check", "check.s"),
    ("pass", "pass.other_s"),
];

/// Set-up runs in batches of at least `SETUP_BATCH_MIN` builds lasting at
/// least `SETUP_BATCH_SECS`: one batch before the first pass and one after
/// every pass. `setup_s` is the median over the batches of each batch's
/// fastest build: the fastest drops the host's slow spells within a batch,
/// and batches spread over the whole run keep the median from reporting
/// whichever state one instant happened to see.
const SETUP_BATCH_MIN: usize = 3;
const SETUP_BATCH_SECS: f64 = 0.2;

/// What one pass of a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of the pass, the benchmark's own checks excluded.
    pub wall_s: f64,
    /// Wall seconds of each repeatable unit of the pass (a cell's build or
    /// plan, 128 engine dispatches, a `plan` call), in the same order every
    /// pass; `wall_s` less their sum is the pass's remainder.
    pub units: Vec<f64>,
    /// CPU seconds of the pass, all threads.
    pub cpu_s: f64,
    /// Jobs offered to the system (summed over schemes on fleet-baselines).
    pub offered: u64,
    /// Jobs that finished.
    pub completed: u64,
    /// Jobs whose outcome broke an output check.
    pub failed: u64,
    /// Figures that must repeat exactly for a seed.
    pub exact: BTreeMap<String, f64>,
    /// Wall-clock figures measured by a traced pass.
    pub wall: BTreeMap<String, f64>,
    pub checks: Vec<(&'static str, bool)>,
}

impl Pass {
    pub fn exact(&mut self, name: &str, v: f64) {
        self.exact.insert(name.to_string(), v);
    }

    pub fn wall(&mut self, name: &str, v: f64) {
        self.wall.insert(name.to_string(), v);
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }
}

/// Exact nearest-rank quantile (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Run `f`, appending its wall seconds to `units`.
pub fn timed<T>(units: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    units.push(start.elapsed().as_secs_f64());
    out
}

/// Floor wall time of a pass: every unit at its fastest over the passes,
/// plus the fastest remainder. The host slows this process by up to 1.6x
/// for spells of a few seconds (a fixed unit of fleet work took 86 ms at
/// best and 95-144 ms as a 5-second median over one minute); a unit's
/// fastest of several passes seconds apart, summed over thousands of
/// units, drops those spells where a median of a few passes keeps them.
#[derive(Default)]
pub struct Floor {
    units: Vec<f64>,
    remainder: f64,
    passes: usize,
}

impl Floor {
    /// Fold in a pass and drop its unit times, so memory stays the same
    /// however many passes a run makes.
    pub fn add(&mut self, pass: &mut Pass) {
        let units = std::mem::take(&mut pass.units);
        let remainder = pass.wall_s - units.iter().sum::<f64>();
        if self.passes == 0 {
            self.units = units;
            self.remainder = remainder;
        } else {
            assert_eq!(
                units.len(),
                self.units.len(),
                "every pass runs the same units"
            );
            for (fastest, u) in self.units.iter_mut().zip(units) {
                *fastest = fastest.min(u);
            }
            self.remainder = self.remainder.min(remainder);
        }
        self.passes += 1;
    }

    pub fn secs(&self) -> f64 {
        self.units.iter().sum::<f64>() + self.remainder.max(0.0)
    }
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Workload {
    FleetHare,
    FleetBaselines,
    ServeOverload,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetHare,
        Workload::FleetBaselines,
        Workload::ServeOverload,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetHare => "fleet-hare",
            Workload::FleetBaselines => "fleet-baselines",
            Workload::ServeOverload => "serve-overload",
        }
    }

    fn flag(self) -> u8 {
        match self {
            Workload::FleetHare => FH,
            Workload::FleetBaselines => FB,
            Workload::ServeOverload => SO,
        }
    }
}

enum Input {
    Fleet(fleet::Input),
    Serve(serve::Input),
}

fn setup(w: Workload, seed: u64, smoke: bool) -> Input {
    match w {
        Workload::FleetHare | Workload::FleetBaselines => Input::Fleet(fleet::setup(
            if smoke { fleet::SMOKE } else { fleet::FULL },
            seed,
        )),
        Workload::ServeOverload => Input::Serve(serve::setup(
            if smoke { serve::SMOKE } else { serve::FULL },
            seed,
        )),
    }
}

fn run_pass(w: Workload, input: &Input, tracer: Option<&Tracer>) -> Pass {
    let cpu = cpu_secs();
    let mut pass = match (w, input) {
        (Workload::FleetHare, Input::Fleet(i)) => fleet::hare_pass(i, tracer),
        (Workload::FleetBaselines, Input::Fleet(i)) => fleet::baselines_pass(i, tracer),
        (Workload::ServeOverload, Input::Serve(i)) => serve::pass(i, tracer),
        _ => unreachable!("input built for another workload"),
    };
    pass.cpu_s = cpu_secs() - cpu;
    let frac = pass.completed as f64 / pass.offered as f64;
    pass.exact("completed_frac", frac);
    if let Some(t) = tracer {
        for (span, time) in t.self_times(t.current_run()) {
            let (_, metric) = SELF_TIME
                .iter()
                .find(|(s, _)| *s == span)
                .expect("every span name maps to a self-time metric");
            pass.wall(metric, time);
        }
    }
    pass
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds out of range: {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => spans = Some(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
        spans,
    })
}

/// A JSON object of plain-ASCII names to numbers or booleans; Rust's
/// string quoting and `Display` of finite floats are both valid JSON.
fn json_object<K: std::fmt::Debug, V: std::fmt::Display>(m: &BTreeMap<K, V>) -> String {
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU seconds this process (all its threads) has run, from the
/// `utime` and `stime` tick counters of `/proc/self/stat` (100 per second).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // utime and stime (fields 14 and 15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hare-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);

    // Counts and extremes only: a vector of every set-up time would grow
    // with the run and show in `peak_rss_mb`.
    let (mut setups, mut slowest_setup) = (0usize, 0.0f64);
    let mut setup_floors = Vec::new();
    let mut setup_batch = || {
        let start = Instant::now();
        let mut fastest = f64::INFINITY;
        for n in 1.. {
            let t = Instant::now();
            let input = setup(w, args.seed, args.smoke);
            let secs = t.elapsed().as_secs_f64();
            setups += 1;
            slowest_setup = slowest_setup.max(secs);
            fastest = fastest.min(secs);
            if n >= SETUP_BATCH_MIN && start.elapsed().as_secs_f64() >= SETUP_BATCH_SECS {
                setup_floors.push(fastest);
                return input;
            }
        }
        unreachable!("the batch loop only ends by returning")
    };
    let input = setup_batch();
    let mut ref_times = vec![host::reference_secs()];

    let start = Instant::now();
    let mut untraced_floor = Floor::default();
    let mut traced_floor = Floor::default();
    let mut first = run_pass(w, &input, None);
    untraced_floor.add(&mut first);
    let mut untraced = vec![first];
    ref_times.push(host::reference_secs());
    setup_batch();
    let mut traced = Vec::new();
    let tracer = Tracer::new();
    // A pass starts only if one more like the last fits the budget, so a
    // run lasts `--seconds` however long its passes are.
    let mut last = start.elapsed();
    while start.elapsed() + last <= budget || (args.trace && traced.is_empty()) {
        let t = Instant::now();
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead compares passes taken under similar host load.
        if args.trace && traced.len() < untraced.len() {
            tracer.set_run(traced.len() as u32);
            let mut pass = run_pass(w, &input, Some(&tracer));
            traced_floor.add(&mut pass);
            traced.push(pass);
        } else {
            let mut pass = run_pass(w, &input, None);
            untraced_floor.add(&mut pass);
            untraced.push(pass);
        }
        ref_times.push(host::reference_secs());
        setup_batch();
        last = t.elapsed();
    }
    let breakdown = (args.trace && w == Workload::FleetHare).then(|| match &input {
        Input::Fleet(i) => fleet::planner_breakdown(i),
        Input::Serve(_) => unreachable!(),
    });

    let passes: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let walls = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let floor_s = untraced_floor.secs();

    // Every check of every pass, plus pass-to-pass determinism.
    let mut checks: BTreeMap<&str, bool> = BTreeMap::new();
    for p in &passes {
        for &(name, ok) in &p.checks {
            *checks.entry(name).or_insert(true) &= ok;
        }
    }
    let same = passes.iter().all(|p| p.exact == passes[0].exact);
    checks.insert("deterministic_passes", same);

    // Every figure the run measured, by name; a layer the workload does
    // not exercise reads 0.
    let first = &passes[0];
    let mut metrics: BTreeMap<&str, f64> = first
        .exact
        .iter()
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    metrics.insert("setup_s", median(&setup_floors));
    let ref_s = quantile(&ref_times, 0.0);
    metrics.insert("run_ref", floor_s / ref_s);
    metrics.insert("run.floor_s", floor_s);
    metrics.insert("peak_rss_mb", status_kb("VmHWM:").unwrap_or(0.0) / 1024.0);
    metrics.insert("host.ref_s", ref_s);
    for &(name, on) in PER_LAYER {
        let per_pass: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.wall.get(name).copied())
            .collect();
        if on & w.flag() == 0 {
            metrics.insert(name, 0.0);
        } else if !per_pass.is_empty() {
            metrics.insert(name, median(&per_pass));
        }
    }
    if let Some(b) = breakdown {
        metrics.insert("planner.to_instance_s", b.to_instance);
        metrics.insert("planner.relax_s", b.relax);
        metrics.insert("planner.lower_bound_s", b.lower_bound);
        metrics.insert("planner.other_s", b.other);
    }
    if args.trace {
        if w.flag() & FLEETS != 0 {
            metrics.insert(
                "engine.events_per_s",
                metrics["engine.events"] / metrics["engine.sim_s"],
            );
        }
        metrics.insert("trace.overhead_s", traced_floor.secs() - floor_s);
    }
    metrics.insert(
        "proc.cpu_s",
        median(&untraced.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    metrics.insert(
        "proc.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );

    if args.trace {
        for &(name, _) in PER_LAYER {
            assert!(metrics.contains_key(name), "{} lacks {name}", w.name());
        }
    }
    for (name, v) in &metrics {
        assert!(v.is_finite(), "{name} is not finite: {v}");
    }

    println!(
        "# workload {} seed {} passes {} untraced + {} traced, setup x{} (min {:.6} s, max {:.6} s), profile {}",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        setups,
        quantile(&setup_floors, 0.0),
        slowest_setup,
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let pass_walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("# pass wall seconds: {}", pass_walls.join(" "));
    println!(
        "# floor of the untraced passes: {floor_s:.3} s over {} units",
        untraced_floor.units.len()
    );
    let refs: Vec<String> = ref_times.iter().map(|t| format!("{t:.4}")).collect();
    println!("# reference kernel seconds: {}", refs.join(" "));
    if args.trace {
        let traced_s = walls(&traced);
        let mut shares: Vec<(&str, f64)> = SELF_TIME
            .iter()
            .filter(|(_, m)| *m != "check.s")
            .map(|&(_, m)| (m, metrics[m] / traced_s))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let shares: Vec<String> = shares
            .iter()
            .map(|(m, s)| format!("{m} {:.1}%", 100.0 * s))
            .collect();
        println!(
            "# self time as a share of the median traced pass: {}",
            shares.join(", ")
        );
    }
    for (name, ok) in &checks {
        println!("check {name} {}", if *ok { "pass" } else { "FAIL" });
    }

    if let (true, Some(path)) = (args.trace, &args.spans) {
        if let Err(e) = std::fs::write(path, tracer.to_chrome_json()) {
            eprintln!("hare-perfbench: cannot write spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }

    let correct = checks.values().all(|ok| *ok);
    let attempted: u64 = passes.iter().map(|p| p.offered).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "{{\"workload\":{:?},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\
         \"metrics\":{},\"exact\":{},\"checks\":{}}}",
        w.name(),
        json_object(&metrics),
        json_object(&first.exact),
        json_object(&checks),
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
