//! The engine workload, `ticket-64k`: the paper's combining hot spot on
//! a 65536-PE machine, driven through the `ultracomputer` library API
//! with the default (automatic) thread count.
//!
//! One *job* is one run of the ticket program on a freshly built
//! machine, from cycle 0 to completion (`Machine::run`). A run starts
//! with an untimed warm-up job, then runs jobs until `--seconds` have
//! passed (at least two). A traced run alternates plain and
//! phase-traced jobs instead.

use std::time::{Duration, Instant};

use ultracomputer::machine::{Machine, MachineBuilder};
use ultracomputer::program::{body, Expr, Op, Program};
use ultracomputer::ultra_obs::series::{EnginePhase, PhaseRecorder};
use ultracomputer::ultra_sim::wire::fnv1a;
use ultracomputer::MachineReport;

use crate::report::Outcome;
use crate::stats::{self, ms, Rng};

/// Fabric size of the engine workload; every PE runs the ticket loop.
pub const PES: usize = 65536;

/// Ticket rounds per PE: one job is then ~3 s on a 2-core host.
const ROUNDS: i64 = 1;

/// Machines built (and dropped) before the first job, so set-up time
/// is a median even when only two jobs fit in a run.
const SETUP_BUILDS: usize = 3;

/// The generated inputs of one engine run: where the hot word lives and
/// where the private ticket slots start.
pub struct Inputs {
    hot: i64,
    slot_base: i64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // The hot word sits in [0, 1024); the slots start above it, so no
        // ticket store can land on the counter.
        let hot = rng.below(1024) as i64;
        let slot_base = 1024 + rng.below(1024) as i64;
        Self { hot, slot_base }
    }

    /// The ticket loop: fetch-and-add 1 on the hot word, store the ticket
    /// into this PE's private slot for the round.
    fn ticket_program(&self) -> Program {
        let slot = Expr::add(
            Expr::add(
                Expr::Const(self.slot_base),
                Expr::mul(Expr::PeIndex, ROUNDS),
            ),
            Expr::Reg(1),
        );
        Program::new(
            body(vec![
                Op::For {
                    reg: 1,
                    from: Expr::Const(0),
                    to: Expr::Const(ROUNDS),
                    body: body(vec![
                        Op::FetchAdd {
                            addr: Expr::Const(self.hot),
                            delta: Expr::Const(1),
                            dst: Some(0),
                        },
                        Op::Store {
                            addr: slot,
                            value: Expr::Reg(0),
                        },
                    ]),
                },
                Op::Halt,
            ]),
            vec![],
        )
    }

    fn build(&self) -> Machine {
        MachineBuilder::new(PES).build_spmd(&self.ticket_program())
    }

    /// What the hot word must read once every PE finished.
    fn expected_total(&self) -> i64 {
        PES as i64 * ROUNDS
    }
}

/// Counts a run must repeat exactly for a given seed, plus the parity
/// digest of the whole machine report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub fast_forwarded: u64,
    pub injected_requests: u64,
    pub injected_replies: u64,
    pub delivered_requests: u64,
    pub combines: u64,
    pub inject_stalls: u64,
    pub instructions: u64,
    pub idle_cycles: u64,
    pub queue_depth_max: u64,
    pub digest: u64,
}

impl Counts {
    pub fn of(m: &Machine) -> Self {
        let net = m.net_stats();
        let pe = m.merged_pe_stats();
        Self {
            cycles: m.now(),
            fast_forwarded: m.fast_forwarded_cycles(),
            injected_requests: net.injected_requests.get(),
            injected_replies: net.injected_replies.get(),
            delivered_requests: net.delivered_requests.get(),
            combines: net.combines.get(),
            inject_stalls: net.inject_stalls.get(),
            instructions: pe.instructions.get(),
            idle_cycles: pe.idle_cycles.get(),
            queue_depth_max: m.max_mm_queue_depth() as u64,
            digest: fnv1a(MachineReport::from_machine(m).parity_string().as_bytes()),
        }
    }

    /// Work done between `before` and `self` (the queue-depth maximum
    /// and digest are kept from `self`).
    pub fn since(&self, before: &Counts) -> Self {
        Self {
            cycles: self.cycles - before.cycles,
            fast_forwarded: self.fast_forwarded - before.fast_forwarded,
            injected_requests: self.injected_requests - before.injected_requests,
            injected_replies: self.injected_replies - before.injected_replies,
            delivered_requests: self.delivered_requests - before.delivered_requests,
            combines: self.combines - before.combines,
            inject_stalls: self.inject_stalls - before.inject_stalls,
            instructions: self.instructions - before.instructions,
            idle_cycles: self.idle_cycles - before.idle_cycles,
            ..*self
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.fast_forwarded += o.fast_forwarded;
        self.injected_requests += o.injected_requests;
        self.injected_replies += o.injected_replies;
        self.delivered_requests += o.delivered_requests;
        self.combines += o.combines;
        self.inject_stalls += o.inject_stalls;
        self.instructions += o.instructions;
        self.idle_cycles += o.idle_cycles;
        self.queue_depth_max = self.queue_depth_max.max(o.queue_depth_max);
        self.digest ^= o.digest;
    }

    pub fn report(&self, out: &mut Outcome) {
        out.set("sim.cycles", self.cycles as f64);
        out.set("core.fast_forwarded_cycles", self.fast_forwarded as f64);
        out.set("net.injected_requests", self.injected_requests as f64);
        out.set("net.combines", self.combines as f64);
        out.set("net.inject_stalls", self.inject_stalls as f64);
        out.set("pe.instructions", self.instructions as f64);
        out.set("pe.idle_cycles", self.idle_cycles as f64);
        out.set("mem.queue_depth_max", self.queue_depth_max as f64);
    }
}

/// Phase-span totals of traced machine runs, with the work they did.
#[derive(Default)]
pub struct Layers {
    flush_ns: u64,
    network_ns: u64,
    mem_ns: u64,
    pe_ns: u64,
    wall_ns: u64,
    work: Counts,
}

impl Layers {
    /// Adds one traced run: its spans, its wall time and the work it did.
    /// A ring that dropped spans is a failed check.
    pub fn add(&mut self, spans: &PhaseRecorder, wall: Duration, work: &Counts, out: &mut Outcome) {
        out.check(spans.dropped() == 0, || {
            format!("phase ring dropped {} spans", spans.dropped())
        });
        for s in spans.spans() {
            let slot = match s.phase {
                EnginePhase::Flush => &mut self.flush_ns,
                EnginePhase::Network => &mut self.network_ns,
                EnginePhase::MemBanks => &mut self.mem_ns,
                EnginePhase::PeShards => &mut self.pe_ns,
            };
            *slot += s.dur_ns;
        }
        self.wall_ns += wall.as_nanos() as u64;
        self.work.add(work);
    }

    pub fn report(&self, out: &mut Outcome) {
        let per = |ns: u64, units: u64| ns as f64 / units.max(1) as f64;
        let w = &self.work;
        let phases = self.flush_ns + self.network_ns + self.mem_ns + self.pe_ns;
        out.set("net.ns_per_cycle", per(self.network_ns, w.cycles));
        out.set(
            "net.ns_per_message",
            per(self.network_ns, w.injected_requests + w.injected_replies),
        );
        out.set("mem.ns_per_cycle", per(self.mem_ns, w.cycles));
        out.set("mem.ns_per_request", per(self.mem_ns, w.delivered_requests));
        out.set("pe.ns_per_cycle", per(self.pe_ns, w.cycles));
        out.set("pe.ns_per_instruction", per(self.pe_ns, w.instructions));
        out.set("core.flush_ns_per_cycle", per(self.flush_ns, w.cycles));
        out.set(
            "core.other_ns_per_cycle",
            per(self.wall_ns.saturating_sub(phases), w.cycles),
        );
        let shares = [
            ("flush", self.flush_ns),
            ("network", self.network_ns),
            ("mem-banks", self.mem_ns),
            ("pe-shards", self.pe_ns),
        ];
        if let Some((largest, _)) = shares.iter().max_by_key(|(_, ns)| *ns) {
            let share = |ns: u64| 100.0 * ns as f64 / phases.max(1) as f64;
            let listed: Vec<String> = shares
                .iter()
                .map(|(name, ns)| format!("{name} {:.1}%", share(*ns)))
                .collect();
            eprintln!(
                "perfbench: phase shares {} (largest: {largest})",
                listed.join(", ")
            );
        }
    }
}

/// Times `Machine::snapshot` and `Machine::restore` on `m`, checking
/// that the restored machine re-encodes to the same bytes.
pub fn time_snapshot(m: &Machine, out: &mut Outcome) -> (f64, f64, usize) {
    let t = Instant::now();
    let bytes = m.snapshot();
    let encode = ms(t.elapsed());
    let t = Instant::now();
    let restored = Machine::restore(&bytes);
    let decode = ms(t.elapsed());
    match restored {
        Ok(r) => out.check(r.snapshot() == bytes, || {
            "restored machine re-encodes differently".into()
        }),
        Err(e) => out.fail(&format!("snapshot does not restore: {e}")),
    }
    (encode, decode, bytes.len())
}

/// Checks a job that ran: it completed, fetch-and-add lost no update, and
/// its exact counts equal the `reference` job's.
fn check_job(
    m: &mut Machine,
    inputs: &Inputs,
    reference: Option<&Counts>,
    out: &mut Outcome,
) -> Counts {
    out.attempted += 1;
    // A no-op on a machine that completed.
    let done = m.run();
    out.check(done.completed, || {
        format!("job stopped at cycle {}", done.cycles)
    });
    let total = m.read_shared(inputs.hot as usize);
    out.check(total == inputs.expected_total(), || {
        format!(
            "fetch-and-add lost updates: hot word {total}, expected {}",
            inputs.expected_total()
        )
    });
    let counts = Counts::of(m);
    if let Some(r) = reference {
        out.check(counts == *r, || {
            format!("counts changed between jobs of one seed: {r:?} vs {counts:?}")
        });
    }
    counts
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(seed);
    let rss_at_start = stats::proc_status_kib(None, "VmRSS").unwrap_or(0);
    let mut builds = Vec::new();
    let mut build = |spans: Option<usize>| {
        let t = Instant::now();
        let mut m = inputs.build();
        builds.push(t.elapsed().as_secs_f64());
        if let Some(capacity) = spans {
            m.enable_phase_spans(capacity);
        }
        m
    };
    for _ in 0..SETUP_BUILDS {
        drop(build(None));
    }

    // Job 0 is a warm-up `Machine::run`: it fixes the cycle count and the
    // exact counts every later job must repeat, and it pays the fresh
    // heap's first-touch page faults untimed.
    let mut m = build(None);
    m.run();
    let reference = check_job(&mut m, &inputs, None, &mut out);
    // One built and run machine is the process high-water mark (the
    // set-up builds were freed before it).
    let hwm = stats::proc_status_kib(None, "VmHWM").unwrap_or(0);
    let bytes_per_pe = hwm.saturating_sub(rss_at_start) as f64 * 1024.0 / PES as f64;
    drop(m);

    // The measured jobs: fresh machines run the same program again.
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut layers = Layers::default();
    loop {
        let with_spans = trace && plain.len() > spanned.len();
        // Four phases a cycle.
        let mut m = build(with_spans.then_some(4 * reference.cycles as usize + 64));
        let t = Instant::now();
        m.run();
        let wall = t.elapsed();
        let counts = check_job(&mut m, &inputs, Some(&reference), &mut out);
        if with_spans {
            layers.add(m.phase_spans(), wall, &counts, &mut out);
            spanned.push(wall.as_secs_f64());
        } else {
            plain.push(wall.as_secs_f64());
        }
        drop(m);
        let enough = if trace {
            !spanned.is_empty() && spanned.len() == plain.len()
        } else {
            plain.len() >= 2
        };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    eprintln!(
        "perfbench: {} jobs of {} cycles, median {:.1} ms",
        plain.len() + spanned.len(),
        reference.cycles,
        1e3 * stats::median(&plain)
    );
    if trace {
        reference.report(&mut out);
        layers.report(&mut out);
        out.set("core.bytes_per_pe", bytes_per_pe);
        // Last, so the restored copy cannot raise the high-water mark
        // read above.
        let (encode, decode, bytes) = time_snapshot(&inputs.build(), &mut out);
        out.set("core.snapshot.encode_ms", encode);
        out.set("core.snapshot.decode_ms", decode);
        out.set("core.snapshot.bytes", bytes as f64);
        out.set(
            "core.trace_overhead",
            stats::median(&spanned) / stats::median(&plain),
        );
    } else {
        // Rates from the median job, so one disturbed job cannot move them.
        let typical = stats::median(&plain);
        out.set(
            "pe_cycles_per_s",
            PES as f64 * reference.cycles as f64 / typical,
        );
        out.set("jobs_per_s", 1.0 / typical);
        let lat: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
        out.set("job_p50_ms", stats::percentile(&lat, 50.0));
        out.set("job_p99_ms", stats::percentile(&lat, 99.0));
        out.set(
            "peak_rss_mb",
            stats::proc_status_kib(None, "VmHWM").unwrap_or(0) as f64 / 1024.0,
        );
    }
    out.set("setup_s", stats::median(&builds));
    out
}
