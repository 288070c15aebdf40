//! End-to-end and per-layer benchmark of the leakctl simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sched-floor --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before
//! it is the run record: step populations, raw wall, p50 and p99 with
//! their sample counts, fingerprints, checks and the host calibration.
//! See README.md.

mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use leakctl::CoreError;

use crate::stats::{
    median, parse_pins, quantile, quiet_total, refill_class_problem, self_times_ns, tail,
    Fingerprint, Span, StepClass,
};
use crate::trace::{proc_status_mib, Probe, Recorder};
use crate::workloads::{Counters, Kind, DEFAULT_SEED};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Percentile that stands for the cost of one population of identical
/// work (a step class, a checkpoint position) on a quiet host. The
/// host's slow stretches inflate a run's median and tail by up to a
/// third; a low percentile needs only that share of the run to be
/// quiet, so it moves far less (see README.md, Findings).
const QUIET_Q: f64 = 0.01;

/// Largest relative gap allowed between the IT energy the benchmark
/// integrates from per-step power readings and the simulator's own
/// `it_kwh`. The readings come at the end of each step while the
/// simulator accounts start-of-step power; over seeds 1–10 and 42 the
/// two differ by 1e-6 to 6e-6, so this is about 16 times the largest.
const IT_GAP_TOLERANCE: f64 = 1e-4;

/// Fingerprints pinned per workload, seed and measured step count, one
/// `Fingerprint::pin_line` per line.
const PINS: &str = include_str!("../pins.txt");

/// Thread plan of the end-to-end numbers. Plan 1 drops the per-step
/// thread spawns and makes `peak_rss_mb` repeat; on a shared 2-vCPU host
/// plan 2 also picks up the other vCPU's steal time, which spread its
/// step times by a third between runs. Traced runs add a plan-2 pass.
const PLAN: usize = 1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    bad(&names.join(" | "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host time of a fixed std-only kernel (~50 ms on a 2-vCPU x86-64
/// host), ms, in two parts: `cpu`, a xorshift stream folded into a
/// dependent float chain, and `mem`, passes over a 32 MiB buffer.
/// Timed before and after every run so a noisy verdict can be traced
/// to the host rather than the program.
fn calibrate_ms() -> (f64, f64) {
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for i in 0..black_box(6_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64 + (i & 3) as f64);
    }
    black_box(acc);
    let cpu = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut buf = vec![1u64; black_box(4 << 20)];
    for pass in 0..2u64 {
        for v in &mut buf {
            *v = v.wrapping_mul(3).wrapping_add(pass);
        }
        black_box(&buf);
    }
    black_box(buf.iter().fold(0u64, |a, &v| a ^ v));
    (cpu, t1.elapsed().as_secs_f64() * 1e3)
}

/// One measured pass: a workload built on one plan, traced or not.
struct Pass {
    plan: usize,
    traced: bool,
    servers: usize,
    probe: Probe,
    spans: Vec<Span>,
    fingerprint: Fingerprint,
    observed_it_kwh: f64,
    counters: Counters,
    problems: Vec<String>,
}

impl Pass {
    /// Builds the workload `builds` times (keeping the last, timing
    /// each), settles it untimed, then measures `blocks` blocks.
    fn run(
        kind: Kind,
        seed: u64,
        plan: usize,
        traced: bool,
        blocks: u64,
        builds: usize,
    ) -> Result<(Self, Vec<f64>), CoreError> {
        let rec = Recorder::shared();
        let mut setups = Vec::with_capacity(builds);
        let mut workload = None;
        for _ in 0..builds.max(1) {
            // Drop the previous build first: one workload in memory.
            drop(workload.take());
            let t0 = Instant::now();
            workload = Some(kind.build(seed, plan, &rec)?);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut workload = workload.expect("at least one set-up ran");
        workload.warm_up()?;
        rec.borrow_mut().set_enabled(traced);
        let mut probe = Probe::new(rec.clone());
        workload.measure(blocks, &mut probe)?;
        rec.borrow_mut().set_enabled(false);
        if traced {
            let path = trace_path(kind, seed, plan);
            if let Err(e) = rec.borrow().write_jsonl(&path) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        let spans = rec.borrow().spans().to_vec();
        let pass = Self {
            plan,
            traced,
            servers: workload.servers(),
            probe,
            spans,
            fingerprint: workload.fingerprint(),
            observed_it_kwh: workload.observed_it_kwh(),
            counters: workload.counters(),
            problems: workload.problems(),
        };
        Ok((pass, setups))
    }

    fn steps(&self) -> usize {
        self.probe.steps.len()
    }

    fn wall_s(&self) -> f64 {
        self.probe.wall_ns() as f64 * 1e-9
    }

    /// Throughput over the measured wall, as the host delivered it.
    fn raw_server_steps_per_s(&self) -> f64 {
        (self.servers * self.steps()) as f64 / self.wall_s().max(1e-12)
    }

    /// Throughput over the measured phase's quiet wall: every step
    /// class and checkpoint position costed at its `QUIET_Q` percentile.
    fn server_steps_per_s(&self) -> f64 {
        let quiet_s = quiet_total(&self.probe.populations(), QUIET_Q) * 1e-3;
        (self.servers * self.steps()) as f64 / quiet_s.max(1e-12)
    }

    fn step_ms(&self) -> Vec<f64> {
        self.probe
            .steps
            .iter()
            .map(|s| s.ns as f64 * 1e-6)
            .collect()
    }

    /// Relative gap between the IT energy integrated from per-step
    /// power readings and the simulator's accounted IT energy.
    fn it_gap(&self) -> f64 {
        let it = self.fingerprint.it_kwh;
        (self.observed_it_kwh - it).abs() / it.abs().max(1e-12)
    }

    /// Step self time (the step minus its `place`/`observe` children),
    /// ms, paired with each step's class.
    fn room_self_ms(&self) -> Vec<(StepClass, f64)> {
        let self_ns = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == "step")
            .zip(&self.probe.steps)
            .map(|((_, ns), sample)| (sample.class, ns as f64 * 1e-6))
            .collect()
    }

    fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    fn json(&self) -> String {
        let mut sorted = self.step_ms();
        sorted.sort_by(f64::total_cmp);
        let mut classes = String::new();
        for class in StepClass::ALL {
            let ms = self.probe.class_ms(class);
            let sep = if classes.is_empty() { "" } else { ", " };
            let _ = write!(
                classes,
                "{sep}\"{}\": {{\"count\": {}, \"p1_ms\": {}, \"p50_ms\": {}}}",
                class.label(),
                ms.len(),
                num(quantile(&ms, QUIET_Q)),
                num(median(&ms))
            );
        }
        let p99 = tail(&sorted, 0.99, 10).map_or_else(
            || "null".to_owned(),
            |t| {
                format!(
                    "{{\"value_ms\": {}, \"samples\": {}, \"beyond\": {}}}",
                    num(t.value),
                    t.samples,
                    t.beyond
                )
            },
        );
        format!(
            "{{\"plan\": {}, \"traced\": {}, \"steps\": {}, \"wall_s\": {}, \
             \"raw_server_steps_per_s\": {}, \"checkpoints\": {}, \"failed\": {}, \
             \"classes\": {{{classes}}}, \"p50_ms\": {}, \"p99\": {p99}, \
             \"fingerprint\": {}, \"observed_it_kwh\": {}, \"it_gap\": {}}}",
            self.plan,
            self.traced,
            self.steps(),
            num(self.wall_s()),
            num(self.raw_server_steps_per_s()),
            self.probe.checkpoints.len(),
            self.probe.failed,
            num(median(&sorted)),
            self.fingerprint.to_json(),
            num(self.observed_it_kwh),
            num(self.it_gap())
        )
    }
}

fn trace_path(kind: Kind, seed: u64, plan: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}-plan{plan}.jsonl", kind.name()))
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

type Metric = (&'static str, f64, &'static str);

/// A sum that is `0.0`, not `-0.0`, when empty.
fn sum(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, v| a + v)
}

fn end_to_end(pass: &Pass, setups: &[f64]) -> Vec<Metric> {
    vec![
        ("server_steps_per_s", pass.server_steps_per_s(), "1/s"),
        ("step_p1_ms", quantile(&pass.step_ms(), QUIET_Q), "ms"),
        ("setup_s", median(setups), "s"),
        ("peak_rss_mb", proc_status_mib("VmHWM"), "MiB"),
    ]
}

fn per_layer(untraced: &Pass, traced: &Pass, plan2: &Pass) -> Vec<Metric> {
    let wall_ms = traced.wall_s() * 1e3;
    let share = |ms: &[f64]| sum(ms.iter().copied()) / wall_ms;
    let p50 = |ms: &[f64]| median(ms);

    let room = traced.room_self_ms();
    let room_total_ms = sum(room.iter().map(|(_, ms)| *ms));
    let class_p50 = |class| {
        let ms: Vec<f64> = room
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect();
        (ms.len() as f64, median(&ms))
    };
    let (_, plain) = class_p50(StepClass::Plain);
    let (polls, poll) = class_p50(StepClass::Poll);
    let (refills, refill) = class_p50(StepClass::Refill);
    let (poll_extra, refill_extra) = (poll - plain, refill - plain);
    let rss_per_h = untraced
        .probe
        .rss_growth
        .map_or(0.0, |(mib, secs)| mib / (secs / 3600.0));

    let place = traced.span_ms("place");
    let observe = traced.span_ms("observe");
    let preview = traced.span_ms("preview");
    let checkpoint = traced.span_ms("checkpoint");
    let c = traced.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let room_self_total = |p: &Pass| sum(p.room_self_ms().into_iter().map(|(_, ms)| ms));
    let speedup = room_self_total(traced) / room_self_total(plan2).max(1e-12);
    let overhead = (1.0 - traced.server_steps_per_s() / untraced.server_steps_per_s()) * 100.0;

    vec![
        (
            "room.self_ms_p50",
            p50(&room.iter().map(|(_, ms)| *ms).collect::<Vec<_>>()),
            "ms",
        ),
        (
            "room.ns_per_server_step",
            room_total_ms * 1e6 / (traced.servers * traced.steps()) as f64,
            "ns",
        ),
        ("telemetry.poll_extra_ms", poll_extra, "ms"),
        ("telemetry.refill_extra_ms", refill_extra, "ms"),
        (
            "telemetry.wall_share",
            (polls * poll_extra + refills * refill_extra) / wall_ms,
            "ratio",
        ),
        ("telemetry.rss_growth_mb_per_h", rss_per_h, "MiB/h"),
        ("schedule.place_calls", place.len() as f64, "count"),
        ("schedule.place_ms_p50", p50(&place), "ms"),
        ("schedule.wall_share", share(&place), "ratio"),
        ("schedule.placed", c.placed as f64, "count"),
        ("schedule.rejected", c.rejected as f64, "count"),
        (
            "schedule.accept_ratio",
            ratio(c.placed, c.assignments),
            "ratio",
        ),
        ("control.decisions", c.decisions as f64, "count"),
        (
            "control.applied_ratio",
            ratio(c.applied, c.decisions),
            "ratio",
        ),
        ("control.observe_ms_p50", p50(&observe), "ms"),
        ("control.preview_calls", preview.len() as f64, "count"),
        ("control.preview_ms_p50", p50(&preview), "ms"),
        ("control.wall_share", share(&observe), "ratio"),
        ("building.sheds", c.sheds as f64, "count"),
        ("building.escalations", c.escalations as f64, "count"),
        (
            "building.invariant_trips",
            c.invariant_trips as f64,
            "count",
        ),
        ("checkpoint.calls", checkpoint.len() as f64, "count"),
        ("checkpoint.ms_p50", p50(&checkpoint), "ms"),
        ("checkpoint.wall_share", share(&checkpoint), "ratio"),
        ("parallel.speedup", speedup, "x"),
        ("trace.overhead_pct", overhead, "%"),
    ]
}

/// Every correctness failure of the run: failed steps, finite and
/// closing energies, IT energy against the benchmark's own integral,
/// step classes against the measured refill cadence, replay
/// consistency, identical fingerprints across passes (traced or not,
/// any plan), and the pinned fingerprint where `pins.txt` has one.
fn check(kind: Kind, seed: u64, passes: &[Pass]) -> (Vec<String>, String) {
    let mut problems = Vec::new();
    let first = &passes[0];
    for p in passes {
        let label = format!("plan {} traced {}", p.plan, p.traced);
        if p.probe.failed > 0 {
            problems.push(format!("{label}: {} steps failed", p.probe.failed));
        }
        if !p.fingerprint.energy_closes() {
            problems.push(format!(
                "{label}: energies are not finite, positive and closing"
            ));
        }
        // A NaN gap fails too.
        if p.it_gap().is_nan() || p.it_gap() > IT_GAP_TOLERANCE {
            problems.push(format!(
                "{label}: IT energy {:?} kWh is {:.2e} away from the {:?} kWh integrated \
                 from per-step power",
                p.fingerprint.it_kwh,
                p.it_gap(),
                p.observed_it_kwh
            ));
        }
        let (polls, refills) = (
            p.probe.class_ms(StepClass::Poll),
            p.probe.class_ms(StepClass::Refill),
        );
        if let Some(e) = refill_class_problem(&polls, &refills) {
            problems.push(format!("{label}: {e}"));
        }
        problems.extend(p.problems.iter().map(|e| format!("{label}: {e}")));
        for d in first.fingerprint.diff(&p.fingerprint, 0.0) {
            problems.push(format!("{label} differs from the first pass: {d}"));
        }
    }
    let pins = match parse_pins(PINS) {
        Ok(pins) => pins,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    let steps = first.steps() as u64;
    let pin = pins
        .iter()
        .find(|p| p.workload == kind.name() && p.seed == seed && p.steps == steps);
    let pin_status = match pin {
        None => format!("not pinned (no pin for seed {seed} at {steps} steps)"),
        Some(pin) => {
            let diff = pin.fingerprint.diff(&first.fingerprint, 1e-9);
            if diff.is_empty() {
                "match".to_owned()
            } else {
                problems.extend(diff.iter().map(|d| format!("pin mismatch: {d}")));
                "mismatch".to_owned()
            }
        }
    };
    (problems, pin_status)
}

fn calibration_json((cpu, mem): (f64, f64)) -> String {
    format!("{{\"cpu\": {}, \"mem\": {}}}", num(cpu), num(mem))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<(), String> {
    let kind = args.kind;
    let blocks = kind.blocks(args.seconds);
    // The first pass of the kernel absorbs the start-up ramp of a
    // just-woken vCPU, which reads up to twice as slow.
    calibrate_ms();
    let calibration_before = calibrate_ms();
    // Untraced: one plan-1 pass, set up several times. Traced: the same
    // untraced pass (the overhead baseline), then traced passes on
    // plans 1 and 2.
    let plan_of = if args.trace {
        vec![(PLAN, false), (PLAN, true), (2, true)]
    } else {
        vec![(PLAN, false)]
    };
    let builds = if args.trace { 1 } else { SETUPS };
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    for (plan, traced) in plan_of {
        let (pass, times) = Pass::run(kind, args.seed, plan, traced, blocks, builds)
            .map_err(|e| format!("{}: {e}", kind.name()))?;
        passes.push(pass);
        setups.extend(times);
    }
    let calibration_after = calibrate_ms();

    let (problems, pin_status) = check(kind, args.seed, &passes);
    let metrics = if args.trace {
        per_layer(&passes[0], &passes[1], &passes[2])
    } else {
        end_to_end(&passes[0], &setups)
    };
    let attempted: u64 = passes.iter().map(|p| p.steps() as u64).sum();
    let failed = if problems.is_empty() {
        passes.iter().map(|p| p.probe.failed).sum()
    } else {
        attempted
    };

    for p in &passes {
        eprintln!(
            "{} plan {} traced {}: {} steps ({} blocks) of {} servers in {:.3} s, IT gap {:.1e}, \
             fingerprint {}",
            kind.name(),
            p.plan,
            p.traced,
            p.steps(),
            blocks,
            p.servers,
            p.wall_s(),
            p.it_gap(),
            p.fingerprint.to_json()
        );
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    eprintln!(
        "  calibration (cpu, mem) {calibration_before:.1?} ms before, {calibration_after:.1?} ms after; \
         pin: {pin_status}"
    );
    for p in &problems {
        eprintln!("  FAILED CHECK: {p}");
    }

    let passes_json: Vec<String> = passes.iter().map(Pass::json).collect();
    let setups_json: Vec<String> = setups.iter().map(|&s| num(s)).collect();
    let problems_json: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"blocks\": {blocks}, \"block_steps\": {}, \"passes\": [{}], \"setup_s\": [{}], \
         \"calibration_ms\": {{\"before\": {}, \"after\": {}}}, \"pin\": {}, \"pin_line\": {}, \
         \"problems\": [{}]}}}}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        kind.block_steps(),
        passes_json.join(", "),
        setups_json.join(", "),
        calibration_json(calibration_before),
        calibration_json(calibration_after),
        json_str(&pin_status),
        json_str(
            &passes[0]
                .fingerprint
                .pin_line(kind.name(), args.seed, passes[0].steps() as u64)
        ),
        problems_json.join(", ")
    );
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        metrics_json.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <sched-floor|mpc-wide|building-surge> \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
