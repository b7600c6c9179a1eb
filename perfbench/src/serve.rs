//! The service workload, `serve-warm`: the real
//! `ultra-serve --listen 127.0.0.1:0` binary, driven over TCP.
//!
//! A run starts the server (several times, for a set-up median). Then,
//! `SEGMENTS` times over, it sends a segment of seeded Poisson arrivals
//! at the fixed offered rate (job latency), followed by a burst larger
//! than the server can absorb at once (throughput). Load comes from this
//! process alone: one writer (the main thread), one reader thread, one
//! job connection and one control connection.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ultra_serve::json::{parse_object, Json};
use ultra_serve::spec::JobSpec;
use ultracomputer::machine::Machine;
use ultracomputer::EngineTuning;

use crate::engine::{time_snapshot, Counts, Layers};
use crate::report::Outcome;
use crate::stats::{self, ms, Rng};

/// How long the benchmark waits for the server to start, answer, or
/// exit before it calls the run a failure.
const PATIENCE: Duration = Duration::from_secs(60);

/// Offered open-loop rate in jobs per second: a constant, chosen once,
/// well below the service's capacity (~200 warm jobs/s with one worker
/// on a 2-vCPU host).
const OPEN_RATE: f64 = 50.0;

/// A run whose generator sent its p99 job this late is a failed run:
/// the offered load was not what the workload says. Two and a half mean
/// gaps; scheduler jitter on a busy 2-core host stays well below it.
const LATE_P99_LIMIT_MS: f64 = 50.0;

/// Job results checked against an in-process one-shot run per run.
const ONE_SHOT_SAMPLE: usize = 4;

/// Jobs replayed in-process with engine phase spans in a traced run.
const REPLAY_SAMPLE: usize = 8;

/// Seed offsets of the two sampling streams, so which jobs are sampled
/// never changes the jobs themselves.
const ONE_SHOT_STREAM: u64 = 1 << 32;
const REPLAY_STREAM: u64 = 2 << 32;

/// Open-loop jobs per run: p99 needs ten samples beyond it.
const MIN_OPEN_JOBS: usize = 1000;

/// Share of `--seconds` the open loop takes; the bursts take most of the
/// rest.
const OPEN_SHARE: f64 = 0.85;

/// Open-loop segments per run, each followed by a burst. Throughput is
/// taken over all bursts together, so it averages the host's speed over
/// the whole run rather than over a few seconds of it.
const SEGMENTS: usize = 10;

// Set-up runs each machine to `WARM_FILL` cycles with a checkpoint
// every `WARM_EVERY`; requests then ask for `WARM_FILL + d`, `d` from
// `WARM_DELTAS`. Few distinct budgets keep the per-key cache at its cap
// without ever evicting a checkpoint a request needs.
const WARM_MACHINES: [(&str, usize, i64); 5] = [
    ("ticket", 256, 60),
    ("counter", 512, 200),
    ("barrier", 1024, 100),
    ("serving", 2048, 256),
    ("ticket", 4096, 60),
];
const WARM_EVERY: u64 = 32;
const WARM_FILL: u64 = 8 * WARM_EVERY;
const WARM_DELTAS: [u64; 4] = [0, 3, 7, 13];

/// Server starts per run, each with its cache fill (the set-up median).
const SETUP_REPS: usize = 3;

/// The job shapes of one deck pass: (machine, budget delta) pairs, each
/// machine with odds inversely proportional to its size, so every
/// machine contributes about the same snapshot bytes to restore.
fn shapes() -> Vec<(usize, usize)> {
    let largest = WARM_MACHINES[WARM_MACHINES.len() - 1].1;
    let mut cards = Vec::new();
    for (m, &(_, pes, _)) in WARM_MACHINES.iter().enumerate() {
        for _ in 0..largest / pes {
            cards.extend((0..WARM_DELTAS.len()).map(|d| (m, d)));
        }
    }
    cards
}

/// One job line: the id, and the rest of the spec (which is also the
/// key under which repeats must answer identically).
struct Job {
    id: String,
    spec: String,
}

impl Job {
    fn line(&self) -> String {
        format!("{{\"id\": \"{}\", {}}}", self.id, self.spec)
    }
}

/// The seeded inputs of one serve run: the warm set-up jobs, then
/// `SEGMENTS` rounds of an open-loop segment (jobs with send offsets in
/// seconds from the segment's start) followed by a burst.
struct Inputs {
    fill: Vec<Job>,
    segments: Vec<(Vec<Job>, Vec<f64>)>,
    bursts: Vec<Vec<Job>>,
}

fn machine_fields(workload: &str, pes: usize, seed: u64, rounds: i64) -> String {
    let gap = if workload == "serving" {
        ", \"mean_gap\": 4"
    } else {
        ""
    };
    format!(
        "\"workload\": \"{workload}\", \"pes\": {pes}, \"seed\": {seed}, \"rounds\": {rounds}{gap}"
    )
}

impl Inputs {
    /// Every open-loop job, in send order.
    fn open_jobs(&self) -> Vec<&Job> {
        self.segments.iter().flat_map(|(jobs, _)| jobs).collect()
    }

    fn generate(seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed);
        // The open loop fills its share of `--seconds`, or runs longer
        // where that would give too few samples for a p99.
        let open_jobs = MIN_OPEN_JOBS.max((OPEN_RATE * OPEN_SHARE * seconds) as usize);
        let per_segment = open_jobs.div_ceil(SEGMENTS);
        // Whole deck passes, so every burst has exactly the same job mix.
        let deck_len = shapes().len();
        let per_burst = (open_jobs / (2 * SEGMENTS)).div_ceil(deck_len) * deck_len;
        let warm: Vec<String> = WARM_MACHINES
            .iter()
            .map(|&(w, pes, rounds)| machine_fields(w, pes, rng.json_seed(), rounds))
            .collect();
        let mut open_deck = Deck::new(shapes());
        let mut burst_deck = Deck::new(shapes());
        let mut job = |deck: &mut Deck, name: &str, i: usize| -> Job {
            let (m, d) = deck.deal(&mut rng);
            Job {
                id: format!("{name}-{i}"),
                spec: format!("{}, \"cycles\": {}", warm[m], WARM_FILL + WARM_DELTAS[d]),
            }
        };
        let mut segments = Vec::new();
        let mut bursts = Vec::new();
        for seg in 0..SEGMENTS {
            let jobs: Vec<Job> = (0..per_segment)
                .map(|i| job(&mut open_deck, "open", seg * per_segment + i))
                .collect();
            bursts.push(
                (0..per_burst)
                    .map(|i| job(&mut burst_deck, "burst", seg * per_burst + i))
                    .collect(),
            );
            segments.push((jobs, Vec::new()));
        }
        // Arrival times come last, from the same generator, so the job
        // mix above does not depend on them.
        for (_, offsets) in &mut segments {
            let mut at = 0.0;
            *offsets = (0..per_segment)
                .map(|_| {
                    at += rng.exp(1.0 / OPEN_RATE);
                    at
                })
                .collect();
        }
        let fill = warm
            .iter()
            .enumerate()
            .map(|(i, m)| Job {
                id: format!("fill-{i}"),
                spec: format!("{m}, \"cycles\": {WARM_FILL}, \"checkpoint_every\": {WARM_EVERY}"),
            })
            .collect();
        Self {
            fill,
            segments,
            bursts,
        }
    }
}

/// A seeded deck of job shapes: every card once per pass, each pass in a
/// fresh order, so every run's job mix has the workload's proportions
/// and only the order and machine seeds change with the seed.
struct Deck {
    cards: Vec<(usize, usize)>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<(usize, usize)>) -> Self {
        let next = cards.len();
        Self { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> (usize, usize) {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// A parsed Prometheus exposition: series (name plus labels) to value.
#[derive(Default, Clone)]
struct Exposition(HashMap<String, f64>);

impl Exposition {
    fn parse(text: &str) -> Self {
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse() {
                    map.insert(series.to_owned(), v);
                }
            }
        }
        Self(map)
    }

    /// Sum over the series of family `name` whose labels contain `label`.
    fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                let family = k.split('{').next().unwrap_or("");
                family == name && k.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Adds `other` to `self`, series by series.
    fn add(&mut self, other: &Exposition) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_default() += v;
        }
    }

    /// `self - before`, series by series.
    fn since(&self, before: &Exposition) -> Exposition {
        Exposition(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.0.get(k).unwrap_or(&0.0)))
                .collect(),
        )
    }

    /// Mean of one job phase, in seconds, from its exact sum and count.
    fn phase_mean_s(&self, phase: &str) -> f64 {
        let label = format!("phase=\"{phase}\"");
        let count = self.sum("ultra_serve_job_latency_seconds_count", &label);
        self.sum("ultra_serve_job_latency_seconds_sum", &label) / count.max(1.0)
    }
}

/// A running `ultra-serve --listen` process and its control connection.
struct Server {
    child: Child,
    port: u16,
    control: BufReader<TcpStream>,
    log: PathBuf,
}

impl Server {
    /// Starts the server and waits until it answers a `{"metrics"}` line.
    fn start(bin: &Path, work: &Path, tag: &str, trace_out: Option<&Path>) -> Result<Self, String> {
        let log = work.join(format!("serve-{}-{tag}.log", std::process::id()));
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        // One worker: two workers plus the load generator oversubscribe a
        // 2-vCPU host, and their throughput then swings with how the host
        // places the vCPUs (see README.md).
        cmd.args(["--listen", "127.0.0.1:0", "--log-level", "info"]);
        cmd.args(["--workers", "1"]);
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let deadline = Instant::now() + PATIENCE;
        let port = loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(port) = text
                .split("listening on 127.0.0.1:")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .and_then(|p| p.parse().ok())
            {
                break port;
            }
            if Instant::now() > deadline || matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server never listened; log:\n{text}"));
            }
            thread::sleep(Duration::from_micros(200));
        };
        let connected = TcpStream::connect(("127.0.0.1", port));
        let mut server = Self {
            child,
            port,
            control: BufReader::new(connected.map_err(|e| format!("control connection: {e}"))?),
            log,
        };
        server
            .control
            .get_ref()
            .set_read_timeout(Some(PATIENCE))
            .ok();
        server.scrape()?;
        Ok(server)
    }

    fn scrape(&mut self) -> Result<Exposition, String> {
        writeln!(self.control.get_mut(), "{{\"metrics\"}}").map_err(|e| e.to_string())?;
        let mut text = String::new();
        loop {
            let mut line = String::new();
            match self.control.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("metrics reply cut short".into()),
                Ok(_) if line.starts_with("# EOF") => return Ok(Exposition::parse(&text)),
                Ok(_) => text.push_str(&line),
            }
        }
    }

    /// The server's peak RSS so far, in MB.
    fn peak_rss_mb(&self) -> f64 {
        stats::proc_status_kib(Some(self.child.id()), "VmHWM").unwrap_or(0) as f64 / 1024.0
    }

    /// Sends `{"shutdown": true}` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = writeln!(self.control.get_mut(), "{{\"shutdown\": true}}");
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                _ if Instant::now() > deadline => return Err("server did not shut down".into()),
                _ => thread::sleep(Duration::from_millis(2)),
            }
        }
        let _ = std::fs::remove_file(&self.log);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one batch of jobs got back: per job, its scheduled and actual
/// send times and its result line with arrival time.
#[derive(Default)]
struct Driven {
    sched: Vec<Instant>,
    sent: Vec<Instant>,
    results: Vec<Option<(Instant, String)>>,
}

impl Driven {
    fn append(&mut self, mut other: Driven) {
        self.sched.append(&mut other.sched);
        self.sent.append(&mut other.sent);
        self.results.append(&mut other.results);
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.results
            .iter()
            .zip(&self.sched)
            .filter_map(|(r, s)| r.as_ref().map(|(at, _)| ms(*at - *s)))
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.sched)
            .map(|(a, s)| ms(*a - *s))
            .collect()
    }

    /// A burst's duration: from its send to its last result, in seconds.
    fn burst_s(&self) -> f64 {
        let last = self.results.iter().flatten().map(|(at, _)| *at).max();
        match (self.sched.first(), last) {
            (Some(&start), Some(last)) => (last - start).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Simulated PE-cycles over all result lines (`pes` x `cycles`).
    fn pe_cycles(&self) -> f64 {
        self.results
            .iter()
            .flatten()
            .filter_map(|(_, line)| {
                let obj = parse_object(line).ok()?;
                Some(obj.get("pes")?.as_f64()? * obj.get("cycles")?.as_f64()?)
            })
            .sum()
    }
}

/// Jobs and simulated PE-cycles per second over a set of bursts: their
/// totals over their summed durations.
fn burst_rates(bursts: &[Driven]) -> (f64, f64) {
    let secs: f64 = bursts.iter().map(Driven::burst_s).sum::<f64>().max(1e-9);
    let jobs: usize = bursts.iter().map(|b| b.results.len()).sum();
    let work: f64 = bursts.iter().map(Driven::pe_cycles).sum();
    (jobs as f64 / secs, work / secs)
}

/// Sends `jobs` on one connection, job `i` at `offsets[i]` seconds after
/// the start, and collects one result line per job on a reader thread.
fn drive(
    port: u16,
    jobs: &[Job],
    offsets: Option<&[f64]>,
    out: &mut Outcome,
) -> Result<Driven, String> {
    let stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("job connection: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(PATIENCE)).ok();
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let expected = jobs.len();
    let receiver = thread::spawn(move || {
        let mut got = Vec::with_capacity(expected);
        for line in BufReader::new(reader).lines().take(expected) {
            let Ok(line) = line else { break };
            got.push((Instant::now(), line));
        }
        got
    });
    let mut writer = stream;
    // A short lead so the first arrival is not already late.
    let start = Instant::now() + Duration::from_millis(20);
    let mut sched = Vec::with_capacity(expected);
    let mut sent = Vec::with_capacity(expected);
    for (i, job) in jobs.iter().enumerate() {
        let at = start + Duration::from_secs_f64(offsets.map_or(0.0, |o| o[i]));
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        sched.push(at);
        let mut line = job.line();
        line.push('\n');
        if let Err(e) = writer.write_all(line.as_bytes()) {
            out.fail(&format!("sending job {}: {e}", job.id));
            break;
        }
        sent.push(Instant::now());
    }
    let got = receiver.join().map_err(|_| "reader thread panicked")?;
    let _ = writer.shutdown(std::net::Shutdown::Both);

    let index: HashMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();
    let mut results: Vec<Option<(Instant, String)>> = vec![None; expected];
    for (at, line) in got {
        let id = parse_object(&line)
            .ok()
            .and_then(|o| o.get("id").and_then(Json::as_str).map(str::to_owned));
        match id.as_deref().and_then(|id| index.get(id)) {
            Some(&i) if results[i].is_none() => results[i] = Some((at, line)),
            _ => out.fail(&format!("unexpected result line: {line}")),
        }
    }
    Ok(Driven {
        sched,
        sent,
        results,
    })
}

/// Per-job checks: one result line each, a non-failure status, and the
/// same answer for every repeat of a spec.
fn check_results(
    jobs: &[Job],
    driven: &Driven,
    seen: &mut HashMap<String, String>,
    out: &mut Outcome,
) {
    for (job, result) in jobs.iter().zip(&driven.results) {
        out.attempted += 1;
        let Some((_, line)) = result else {
            out.fail(&format!("no result line for job {}", job.id));
            continue;
        };
        let status = parse_object(line)
            .ok()
            .and_then(|o| o.get("status").and_then(Json::as_str).map(str::to_owned))
            .unwrap_or_default();
        if status != "completed" && status != "budget-exhausted" {
            out.fail(&format!("job {} ended `{status}`: {line}", job.id));
            continue;
        }
        let anonymous = line.replace(&format!("\"id\": \"{}\"", job.id), "\"id\": \"\"");
        match seen.get(&job.spec) {
            Some(first) => out.check(*first == anonymous, || {
                format!("repeat of a spec answered differently: {first} vs {anonymous}")
            }),
            None => {
                seen.insert(job.spec.clone(), anonymous);
            }
        }
    }
}

fn spec_of(job: &Job) -> Result<JobSpec, String> {
    let obj = parse_object(&job.line()).map_err(|e| e.to_string())?;
    JobSpec::from_json(&obj, &job.id)
}

/// A seeded sample of served jobs must match an in-process one-shot
/// `Server::new().run_job` of the same spec, byte for byte.
fn check_one_shot(inputs: &Inputs, driven: &Driven, seed: u64, out: &mut Outcome) {
    let jobs = inputs.open_jobs();
    let mut rng = Rng::new(seed.wrapping_add(ONE_SHOT_STREAM));
    for _ in 0..ONE_SHOT_SAMPLE.min(jobs.len()) {
        let i = rng.below(jobs.len());
        let Some((_, served)) = &driven.results[i] else {
            continue;
        };
        match spec_of(jobs[i]) {
            Ok(spec) => {
                let fresh = ultra_serve::Server::new().run_job(&spec).line;
                out.check(fresh == *served, || {
                    format!("served {served} but one-shot gives {fresh}")
                });
            }
            Err(e) => out.fail(&format!("job {} does not parse: {e}", jobs[i].id)),
        }
    }
}

/// Starts a server and fills its cache. Returns the server and the
/// set-up time.
fn set_up(
    inputs: &Inputs,
    bin: &Path,
    work: &Path,
    tag: &str,
    trace_out: Option<&Path>,
    out: &mut Outcome,
) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let mut server = Server::start(bin, work, tag, trace_out)?;
    let driven = drive(server.port, &inputs.fill, None, out)?;
    check_results(&inputs.fill, &driven, &mut HashMap::new(), out);
    let setup = t.elapsed().as_secs_f64();
    let filled = server.scrape()?.sum("ultra_serve_cache_checkpoints", "");
    let want = (inputs.fill.len() as u64 * (WARM_FILL / WARM_EVERY)) as f64;
    out.check(filled == want, || {
        format!("cache holds {filled} checkpoints after set-up, expected {want}")
    });
    Ok((server, setup))
}

/// Runs `serve-warm` against the `ultra-serve` binary `bin`, keeping
/// server logs and trace files under `work`.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(seed, seconds);

    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        let (s, setup) = set_up(&inputs, bin, work, &format!("setup{rep}"), None, &mut out)?;
        setups.push(setup);
        if rep + 1 < reps {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let mut seen = HashMap::new();

    // Open-loop segments, each followed by a burst. Per-layer numbers
    // cover the open-loop segments only; throughput covers the bursts.
    let before = server.scrape()?;
    let mut layer = Exposition::default();
    let mut open = Driven::default();
    let mut bursts = Vec::new();
    for ((jobs, offsets), burst_jobs) in inputs.segments.iter().zip(&inputs.bursts) {
        let segment_start = server.scrape()?;
        let segment = drive(server.port, jobs, Some(offsets), &mut out)?;
        layer.add(&server.scrape()?.since(&segment_start));
        check_results(jobs, &segment, &mut seen, &mut out);
        open.append(segment);
        let burst = drive(server.port, burst_jobs, None, &mut out)?;
        check_results(burst_jobs, &burst, &mut seen, &mut out);
        bursts.push(burst);
    }
    let end = server.scrape()?;
    let peak_rss_mb = server.peak_rss_mb();
    server.shutdown()?;

    let late_p99 = stats::percentile(&open.late_ms(), 99.0);
    out.check(late_p99 <= LATE_P99_LIMIT_MS, || {
        format!(
            "generator fell behind: p99 send {late_p99:.2} ms late (limit {LATE_P99_LIMIT_MS} ms)"
        )
    });
    let hits = layer.sum("ultra_serve_cache_hits_total", "");
    let misses = layer.sum("ultra_serve_cache_misses_total", "");
    let (jobs_per_s, pe_cycles_per_s) = burst_rates(&bursts);
    eprintln!(
        "perfbench: {} open-loop jobs, {} bursts of {}, cache hit ratio {:.3}",
        open.results.len(),
        bursts.len(),
        inputs.bursts[0].len(),
        hits / (hits + misses).max(1.0)
    );

    if trace {
        out.set("loadgen.late_ms_p99", late_p99);
        out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.set("serve.restore_ms_mean", 1e3 * layer.phase_mean_s("restore"));
        out.set("serve.slices_ms_mean", 1e3 * layer.phase_mean_s("slices"));
        out.set(
            "serve.queue_wait_ms_mean",
            1e3 * layer.phase_mean_s("queue-wait"),
        );
        out.set("serve.parse_us_mean", 1e6 * layer.phase_mean_s("parse"));
        out.set("serve.report_us_mean", 1e6 * layer.phase_mean_s("report"));
        out.set(
            "serve.slice_ms_mean",
            layer.sum("ultra_serve_slice_us_sum", "")
                / 1e3
                / layer.sum("ultra_serve_slice_us_count", "").max(1.0),
        );
        let busy = layer.sum("ultra_serve_worker_busy_seconds_total", "");
        let idle = layer.sum("ultra_serve_worker_idle_seconds_total", "");
        out.set("serve.worker_busy_frac", busy / (busy + idle).max(1e-9));
        out.set(
            "serve.cache_checkpoints",
            end.sum("ultra_serve_cache_checkpoints", ""),
        );
        out.set(
            "serve.cache_evictions",
            end.since(&before)
                .sum("ultra_serve_cache_evictions_total", ""),
        );

        // The same bursts against a server that records job spans.
        let trace_path = work.join(format!("serve-{}-trace.json", std::process::id()));
        let (traced, _) = set_up(&inputs, bin, work, "traced", Some(&trace_path), &mut out)?;
        let mut traced_bursts = Vec::new();
        for burst_jobs in &inputs.bursts {
            let burst = drive(traced.port, burst_jobs, None, &mut out)?;
            check_results(burst_jobs, &burst, &mut seen, &mut out);
            traced_bursts.push(burst);
        }
        traced.shutdown()?;
        let spans = std::fs::read_to_string(&trace_path).unwrap_or_default();
        let _ = std::fs::remove_file(&trace_path);
        let jobs_traced = spans.matches("\"name\": \"total\"").count();
        let jobs_sent = inputs.fill.len() + inputs.bursts.iter().map(Vec::len).sum::<usize>();
        out.check(jobs_traced == jobs_sent, || {
            format!("trace holds {jobs_traced} job spans for {jobs_sent} jobs")
        });
        out.set(
            "serve.trace_overhead",
            jobs_per_s / burst_rates(&traced_bursts).0,
        );

        replay_engine(&inputs, seed, &mut out);
    } else {
        let lat = open.latencies_ms();
        match (
            stats::tail_percentile(&lat, 50.0),
            stats::tail_percentile(&lat, 99.0),
        ) {
            (Some(p50), Some(p99)) => {
                out.set("job_p50_ms", p50);
                out.set("job_p99_ms", p99);
            }
            _ => out.fail(&format!("{} latency samples cannot name a p99", lat.len())),
        }
        out.set("jobs_per_s", jobs_per_s);
        out.set("pe_cycles_per_s", pe_cycles_per_s);
        out.set("peak_rss_mb", peak_rss_mb);
        out.set("setup_s", stats::median(&setups));
    }
    check_one_shot(&inputs, &open, seed, &mut out);
    Ok(out)
}

/// Runs a slice loop the way the server does: `run_for` one checkpoint
/// interval at a time, a snapshot after each. Returns the time spent in
/// `run_for` and the snapshots' encode times and sizes.
fn slices(m: &mut Machine, spec: &JobSpec) -> (Duration, Vec<(f64, usize)>) {
    let mut running = Duration::ZERO;
    let mut snaps = Vec::new();
    while m.now() < spec.cycles {
        let t = Instant::now();
        let done = m.run_for((spec.cycles - m.now()).min(spec.checkpoint_every));
        running += t.elapsed();
        let t = Instant::now();
        let bytes = m.snapshot().len();
        snaps.push((ms(t.elapsed()), bytes));
        if done.completed {
            break;
        }
    }
    (running, snaps)
}

/// Replays a seeded sample of the run's jobs in-process, once plain and
/// once with engine phase spans, to split the engine's share of a job by
/// layer. A warm job resumes from its set-up checkpoint, as the server's
/// would.
fn replay_engine(inputs: &Inputs, seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed.wrapping_add(REPLAY_STREAM));
    let jobs = inputs.open_jobs();
    let mut sample: Vec<JobSpec> = (0..REPLAY_SAMPLE)
        .filter_map(|_| spec_of(jobs[rng.below(jobs.len())]).ok())
        .collect();
    // Largest first, so the high-water mark read below is that machine's.
    sample.sort_by_key(|s| std::cmp::Reverse(s.pes));
    let rss_at_start = stats::proc_status_kib(None, "VmRSS").unwrap_or(0);
    let mut checkpoints: HashMap<String, Vec<u8>> = HashMap::new();
    let (mut plain, mut traced) = (Duration::ZERO, Duration::ZERO);
    let (mut encodes, mut decodes, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut totals = Counts::default();
    let mut bytes_per_pe = None;
    for spec in &sample {
        let fresh = |checkpoints: &mut HashMap<String, Vec<u8>>| -> Machine {
            let bytes = checkpoints.entry(spec.prefix_key()).or_insert_with(|| {
                let mut m = spec.machine();
                m.run_for(WARM_FILL);
                m.snapshot()
            });
            let tuning = EngineTuning {
                threads: Some(spec.threads),
                ..EngineTuning::default()
            };
            Machine::restore_tuned(bytes, tuning).expect("a fresh checkpoint restores")
        };
        let mut m = fresh(&mut checkpoints);
        let start = Counts::of(&m);
        let (wall, snaps) = slices(&mut m, spec);
        plain += wall;
        for (encode, bytes) in snaps {
            encodes.push(encode);
            sizes.push(bytes as f64);
        }
        let end = Counts::of(&m);
        totals.add(&end);
        bytes_per_pe.get_or_insert_with(|| {
            let hwm = stats::proc_status_kib(None, "VmHWM").unwrap_or(0);
            hwm.saturating_sub(rss_at_start) as f64 * 1024.0 / spec.pes as f64
        });
        decodes.push(time_snapshot(&m, out).1);
        drop(m);

        let work = end.since(&start);
        let mut m = fresh(&mut checkpoints);
        m.enable_phase_spans(4 * work.cycles as usize + 64);
        let (wall, _) = slices(&mut m, spec);
        traced += wall;
        out.check(Counts::of(&m) == end, || "traced replay diverged".into());
        layers.add(m.phase_spans(), wall, &work, out);
    }
    totals.report(out);
    layers.report(out);
    out.set("core.bytes_per_pe", bytes_per_pe.unwrap_or(0.0));
    out.set("core.snapshot.encode_ms", stats::mean(&encodes));
    out.set("core.snapshot.decode_ms", stats::mean(&decodes));
    out.set("core.snapshot.bytes", stats::mean(&sizes));
    out.set(
        "core.trace_overhead",
        traced.as_secs_f64() / plain.as_secs_f64().max(1e-9),
    );
}
