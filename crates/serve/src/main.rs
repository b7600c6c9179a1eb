//! `ultra-serve` — the Ultracomputer simulator as a resident service.
//!
//! ```text
//! ultra-serve --batch jobs.ndjson [--workers N] [--queue-cap N]
//!             [--metrics-out FILE] [--trace-out FILE]
//!             [--log-level debug|info|warn|error] [--flight-cap N]
//! ultra-serve --listen 127.0.0.1:7077 [same flags]
//! ```
//!
//! Both modes speak the same newline-delimited JSON protocol: one object
//! per line. A job line names a machine and a workload (see
//! `ultra_serve::spec::JobSpec`); `{"cancel": "<id>"}` cancels a queued
//! or running job; `{"metrics"}` (or `{"metrics": true}`) answers with
//! the Prometheus text exposition terminated by a `# EOF` line;
//! `{"dump"}` (or `{"dump": true}`) answers with the flight recorder's
//! NDJSON events terminated by a `{"dump_complete": N}` line;
//! `{"shutdown": true}` (socket mode) drains the queue and exits.
//!
//! **Result lines** go to stdout in batch mode and to the submitting
//! connection in socket mode — every input job yields exactly one.
//! **Diagnostics** are structured NDJSON events on stderr, filtered by
//! `--log-level` (everything is retained in the bounded flight recorder
//! regardless, and the ring is dumped to stderr on job error/timeout).
//!
//! Batch mode exits non-zero if any line failed to parse or validate,
//! or any job timed out (`cancelled` and `budget-exhausted` are
//! requested behavior, not failures); `--batch -` reads from stdin. On
//! exit, `--metrics-out` writes the metrics state as JSON and
//! `--trace-out` writes per-job lifecycle spans as Chrome `trace_event`
//! JSON (loadable in Perfetto).

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use ultra_obs::flight::FlightLevel;
use ultra_serve::json::{parse_object, Json};
use ultra_serve::line::{read_line_capped, MAX_LINE_BYTES};
use ultra_serve::obs::{JobPhase, ObsOptions, ServeObs};
use ultra_serve::queue::JobQueue;
use ultra_serve::spec::JobSpec;
use ultra_serve::{error_line, JobCtx, JobOutcome, JobStatus, Server};

const DEFAULT_WORKERS: usize = 2;
const DEFAULT_QUEUE_CAP: usize = 64;
const DEFAULT_FLIGHT_CAP: usize = 256;

fn usage() -> ! {
    eprintln!(
        "usage: ultra-serve --batch <file|-> [--workers N] [--queue-cap N]\n\
         \x20                 [--metrics-out FILE] [--trace-out FILE]\n\
         \x20                 [--log-level debug|info|warn|error] [--flight-cap N]\n\
         \x20      ultra-serve --listen <addr> [same flags]"
    );
    std::process::exit(2);
}

struct Options {
    batch: Option<String>,
    listen: Option<String>,
    workers: usize,
    queue_cap: usize,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    log_level: FlightLevel,
    flight_cap: usize,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        batch: None,
        listen: None,
        workers: DEFAULT_WORKERS,
        queue_cap: DEFAULT_QUEUE_CAP,
        metrics_out: None,
        trace_out: None,
        log_level: FlightLevel::Info,
        flight_cap: DEFAULT_FLIGHT_CAP,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--batch" => opts.batch = Some(value(i)),
            "--listen" => opts.listen = Some(value(i)),
            "--workers" => {
                opts.workers = value(i).parse().unwrap_or_else(|_| usage());
            }
            "--queue-cap" => {
                opts.queue_cap = value(i).parse().unwrap_or_else(|_| usage());
            }
            "--metrics-out" => opts.metrics_out = Some(value(i)),
            "--trace-out" => opts.trace_out = Some(value(i)),
            "--log-level" => {
                opts.log_level = FlightLevel::parse(&value(i)).unwrap_or_else(|| usage());
            }
            "--flight-cap" => {
                opts.flight_cap = value(i).parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
        i += 2;
    }
    if opts.batch.is_some() == opts.listen.is_some() {
        usage();
    }
    if opts.workers < 1 || opts.queue_cap < 1 || opts.flight_cap < 1 {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let server = Server::with_obs(ObsOptions {
        flight_capacity: opts.flight_cap,
        log_level: opts.log_level,
        trace_jobs: opts.trace_out.is_some(),
    });
    let code = if let Some(path) = &opts.batch {
        run_batch_mode(&server, path, &opts)
    } else if let Some(addr) = &opts.listen {
        run_listen_mode(&server, addr, &opts)
    } else {
        usage()
    };
    write_artifacts(&server, &opts);
    code
}

/// Writes the `--metrics-out` / `--trace-out` files from the final
/// service state (both modes, on exit).
fn write_artifacts(server: &Server, opts: &Options) {
    let obs = server.obs().expect("main always enables obs");
    for (path, content, kind) in [
        (&opts.metrics_out, server.metrics_json(), "metrics"),
        (&opts.trace_out, server.trace_json(), "trace"),
    ] {
        let (Some(path), Some(content)) = (path, content) else {
            continue;
        };
        match std::fs::write(path, content) {
            Ok(()) => obs.log(
                FlightLevel::Info,
                "",
                "artifact",
                &format!("wrote {kind} to {path}"),
            ),
            Err(e) => obs.log(
                FlightLevel::Error,
                "",
                "artifact",
                &format!("writing {kind} to {path}: {e}"),
            ),
        }
    }
}

/// What one protocol line meant.
enum Classified {
    /// A job to enqueue.
    Job(JobSpec),
    /// A blank line, comment, or control line already acted on.
    Control,
    /// A `{"shutdown": true}` request (socket mode drains and exits; in
    /// a batch the end of file is the shutdown, so it is a no-op there).
    Shutdown,
    /// A `{"metrics"}` request for the Prometheus exposition.
    Metrics,
    /// A `{"dump"}` request for the flight recorder's contents.
    Dump,
}

/// Parses one protocol line, applying `{"cancel": ...}` control lines to
/// the server immediately. `Err` carries a rendered error result line.
fn classify_line(server: &Server, line: &str, lineno: usize) -> Result<Classified, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(Classified::Control);
    }
    // Bare control literals — accepted before JSON parsing because the
    // brace-only shorthand is not a valid JSON object.
    if trimmed == "{\"metrics\"}" {
        return Ok(Classified::Metrics);
    }
    if trimmed == "{\"dump\"}" {
        return Ok(Classified::Dump);
    }
    let fallback_id = format!("job-{lineno}");
    let obj = match parse_object(trimmed) {
        Ok(obj) => obj,
        Err(e) => return Err(error_line(&fallback_id, &format!("parse error: {e}"))),
    };
    if let Some(target) = obj.get("cancel") {
        return match target.as_str() {
            Some(id) => {
                server.cancel(id);
                Ok(Classified::Control)
            }
            None => Err(error_line(&fallback_id, "field `cancel` must be a job id")),
        };
    }
    if obj.get("metrics") == Some(&Json::Bool(true)) {
        return Ok(Classified::Metrics);
    }
    if obj.get("dump") == Some(&Json::Bool(true)) {
        return Ok(Classified::Dump);
    }
    if obj.get("shutdown") == Some(&Json::Bool(true)) {
        return Ok(Classified::Shutdown);
    }
    match JobSpec::from_json(&obj, &fallback_id) {
        Ok(spec) => Ok(Classified::Job(spec)),
        Err(e) => Err(error_line(&fallback_id, &e)),
    }
}

/// Classifies one line with parse-phase timing and protocol-error
/// accounting (shared by both modes).
fn classify_observed(
    server: &Server,
    obs: &ServeObs,
    line: &str,
    lineno: usize,
) -> Result<Classified, String> {
    let parse_started = Instant::now();
    let classified = classify_line(server, line, lineno);
    let parse_us = u64::try_from(parse_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    match &classified {
        Ok(Classified::Job(spec)) => {
            obs.observe_phase(spec.workload.name(), JobPhase::Parse, 0, parse_us);
        }
        Ok(_) => {}
        Err(error) => {
            obs.observe_phase("invalid", JobPhase::Parse, 0, parse_us);
            record_rejection(obs, lineno, error);
        }
    }
    classified
}

/// Accounts one rejected protocol line: the protocol-error counter, an
/// error flight event, and a dump of the flight ring to stderr.
fn record_rejection(obs: &ServeObs, lineno: usize, error: &str) {
    obs.protocol_error();
    obs.log(
        FlightLevel::Error,
        "",
        "protocol",
        &format!("line {lineno} rejected: {error}"),
    );
    obs.dump_flight_to_stderr(&format!("protocol error on line {lineno}"));
}

fn run_batch_mode(server: &Server, path: &str, opts: &Options) -> ExitCode {
    let obs = server.obs().expect("main always enables obs");
    let text = if path == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            obs.log(FlightLevel::Error, "", "io", &format!("reading stdin: {e}"));
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                obs.log(
                    FlightLevel::Error,
                    "",
                    "io",
                    &format!("reading {path}: {e}"),
                );
                return ExitCode::FAILURE;
            }
        }
    };

    let mut specs = Vec::new();
    let mut had_error = false;
    for (index, line) in text.lines().enumerate() {
        match classify_observed(server, obs, line, index + 1) {
            Ok(Classified::Job(spec)) => specs.push(spec),
            Ok(Classified::Control | Classified::Shutdown) => {}
            Ok(Classified::Metrics) => obs.log(
                FlightLevel::Warn,
                "",
                "protocol",
                "metrics control line is answered in --listen mode; use --metrics-out for batch runs",
            ),
            Ok(Classified::Dump) => obs.dump_flight_to_stderr("dump requested by batch line"),
            Err(error) => {
                // Every input job yields exactly one terminal result
                // line on stdout, parse failures included.
                println!("{error}");
                had_error = true;
            }
        }
    }

    let submitted = specs.len();
    let mut failed_jobs = 0usize;
    let done = server.run_batch(specs, opts.workers, opts.queue_cap, |outcome| {
        println!("{}", outcome.line);
        if outcome.status.is_failure() {
            failed_jobs += 1;
        }
    });
    obs.log(
        FlightLevel::Info,
        "",
        "batch",
        &format!(
            "{done}/{submitted} jobs done ({failed_jobs} failed); cache: {} hits, {} misses, {} evictions, {} checkpoints",
            server.cache().hits(),
            server.cache().misses(),
            server.cache().evictions(),
            server.cache().len()
        ),
    );
    if had_error || done != submitted || failed_jobs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One queued unit in socket mode: the job, when it was enqueued, and
/// the channel back to the connection that submitted it.
struct Submission {
    spec: JobSpec,
    enqueued_at: Instant,
    reply: mpsc::Sender<JobOutcome>,
}

/// A non-job reply (metrics exposition, flight dump) routed through the
/// connection's writer channel.
fn raw_reply(line: String) -> JobOutcome {
    JobOutcome {
        id: String::new(),
        status: JobStatus::Completed,
        line,
        log: Vec::new(),
    }
}

fn run_listen_mode(server: &Server, addr: &str, opts: &Options) -> ExitCode {
    let obs = Arc::clone(server.obs().expect("main always enables obs"));
    let listener = match TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(e) => {
            obs.log(
                FlightLevel::Error,
                "",
                "io",
                &format!("binding {addr}: {e}"),
            );
            return ExitCode::FAILURE;
        }
    };
    let local = listener.local_addr().ok();
    obs.log(
        FlightLevel::Info,
        "",
        "listen",
        &format!(
            "listening on {}",
            local.map_or_else(|| addr.to_owned(), |a| a.to_string())
        ),
    );

    let queue = Arc::new(JobQueue::<Submission>::with_meter(
        opts.queue_cap,
        Some(obs.queue_meter()),
    ));
    let shutdown = Arc::new(AtomicBool::new(false));

    thread::scope(|scope| {
        let mut worker_handles = Vec::new();
        for worker in 0..opts.workers {
            let queue = Arc::clone(&queue);
            let obs = Arc::clone(&obs);
            worker_handles.push(scope.spawn(move || {
                let mut idle_since = Instant::now();
                while let Some(sub) = queue.pop() {
                    let busy_since = Instant::now();
                    obs.worker_idle(
                        worker,
                        u64::try_from(idle_since.elapsed().as_micros()).unwrap_or(u64::MAX),
                    );
                    let ctx = JobCtx {
                        worker,
                        enqueued_at: Some(sub.enqueued_at),
                    };
                    let outcome = server.run_job_ctx(&sub.spec, ctx);
                    obs.worker_busy(
                        worker,
                        u64::try_from(busy_since.elapsed().as_micros()).unwrap_or(u64::MAX),
                    );
                    idle_since = Instant::now();
                    // A disconnected client just drops its results.
                    let _ = sub.reply.send(outcome);
                }
            }));
        }

        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Result lines are small and latency-bound: without this,
            // Nagle's algorithm holds each one back waiting for the
            // client's delayed ACK.
            let _ = stream.set_nodelay(true);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            scope.spawn(move || handle_connection(stream, server, &queue, &shutdown, local));
        }

        queue.close();
        for handle in worker_handles {
            let _ = handle.join();
        }
    });
    obs.log(FlightLevel::Info, "", "listen", "shut down");
    ExitCode::SUCCESS
}

fn handle_connection(
    stream: TcpStream,
    server: &Server,
    queue: &JobQueue<Submission>,
    shutdown: &AtomicBool,
    local: Option<std::net::SocketAddr>,
) {
    let obs = server.obs().expect("main always enables obs");
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<JobOutcome>();
    let writer = thread::spawn(move || {
        let mut out = write_half;
        for outcome in rx {
            // One write per line: the line and its newline leave in the
            // same segment.
            let mut bytes = outcome.line.into_bytes();
            bytes.push(b'\n');
            if out.write_all(&bytes).is_err() {
                break;
            }
        }
    });

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut lineno = 0;
    while let Ok(Some(line)) = read_line_capped(&mut reader, MAX_LINE_BYTES, &mut buf) {
        lineno += 1;
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                let error = error_line(&format!("job-{lineno}"), &error.to_string());
                record_rejection(obs, lineno, &error);
                let _ = tx.send(JobOutcome {
                    id: String::new(),
                    status: JobStatus::Error,
                    line: error,
                    log: Vec::new(),
                });
                continue;
            }
        };
        match classify_observed(server, obs, line, lineno) {
            Ok(Classified::Job(spec)) => {
                let priority = spec.priority;
                let submission = Submission {
                    spec,
                    enqueued_at: Instant::now(),
                    reply: tx.clone(),
                };
                if !queue.push(priority, submission) {
                    break;
                }
            }
            Ok(Classified::Control) => {}
            Ok(Classified::Metrics) => {
                // The exposition is multi-line; `# EOF` terminates it so
                // clients on the NDJSON stream know where it ends.
                let text = server.render_metrics().expect("main always enables obs");
                let _ = tx.send(raw_reply(format!("{text}# EOF")));
            }
            Ok(Classified::Dump) => {
                let mut lines = obs.dump_flight();
                let count = lines.len();
                lines.push(format!("{{\"dump_complete\": {count}}}"));
                let _ = tx.send(raw_reply(lines.join("\n")));
            }
            Ok(Classified::Shutdown) => {
                // Flag the whole server down, then poke the accept loop
                // awake with a throwaway connection.
                shutdown.store(true, Ordering::SeqCst);
                if let Some(addr) = local {
                    let _ = TcpStream::connect(addr);
                }
                break;
            }
            Err(error) => {
                let _ = tx.send(JobOutcome {
                    id: String::new(),
                    status: JobStatus::Error,
                    line: error,
                    log: Vec::new(),
                });
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}
