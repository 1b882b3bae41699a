//! `serve-hot` and `serve-cold`: an in-process `Server` over a result
//! store primed with a few thousand small-instance keys, driven over
//! loopback keep-alive connections from this process.
//!
//! - `serve-hot` is a closed loop over one connection keeping
//!   `PIPELINE` requests in flight, drawing keys from the primed
//!   set, so every request is a cache hit. It runs in short slices, each
//!   scaled to the nominal host speed (see `speed`).
//! - `serve-cold` is an open loop on one pipelined connection at a fixed
//!   rate; every request names a fresh seed, so every request is a miss:
//!   a small solve plus a store append. Latency is timed from each
//!   request's scheduled send time.

use crate::layers::{self, handler_layers, solve_layers};
use crate::speed::{self, Reference};
use crate::stats::{self, process_cpu_s, quantile, windowed_quantile, Hist, Samples, SplitMix};
use crate::wire::{self, Conn};
use crate::{peak_rss_mb, secs, Args, Metric, Outcome};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wrsn_engine::{InstanceParams, ResultStore, SolverRegistry};
use wrsn_serve::api::{ApiContext, SolveRequest};
use wrsn_serve::{Server, ServerConfig, ServerHandle};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Cold,
}

/// Distinct keys primed into the store; more than one, so a one-entry
/// memo cannot pass for a faster hit path.
const HOT_KEYS: usize = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Cache-hit requests each set-up sends before it counts as done.
const WARMUP_REQUESTS: usize = 1000;
/// `serve-cold`'s latency quantiles are medians over windows this long
/// of each window's quantile (each window holds well over 1000 requests).
const TAIL_WINDOW_S: f64 = 5.0;
/// `serve-hot` runs in slices this long, with a reference batch between
/// them; its figures are medians over slices (each holds over 10,000
/// requests).
const SLICE_S: f64 = 0.5;
/// Requests `serve-hot`'s one connection keeps in flight (pipelined).
/// Enough to keep both vCPUs of the development host busy: with one
/// request in flight every answer waits for a vCPU to wake from idle,
/// which spread p50 24% between runs. One load thread rather than one
/// per vCPU leaves the scheduler less to interleave: against 2
/// connections × 8, p99 spread 1.8% instead of 5.4% over six seeds.
const PIPELINE: usize = 16;
/// `serve-cold`'s offered load: far below the miss capacity of a
/// 2-vCPU host even in its slow phases, so latency reflects service
/// time rather than a growing backlog.
const COLD_RATE_PER_S: f64 = 400.0;
/// Latency limits behind `slo_attainment`.
const HOT_SLO_MS: f64 = 1.0;
const COLD_SLO_MS: f64 = 5.0;

/// The request body for one small-instance key.
fn body(seed: u64) -> String {
    format!(
        "{{\"instance\":{{\"posts\":10,\"nodes\":40,\"field\":150.0}},\
         \"solver\":\"irfh\",\"seed\":{seed}}}"
    )
}

fn decode(body: &str) -> Result<SolveRequest, String> {
    serde_json::from_str(body).map_err(|e| format!("{body}: {e}"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `n` distinct seeds from `rng` that are not in `taken` and whose
/// instance builds (a sampled field can come out disconnected; such a
/// request is a correct 400, not a workload input).
pub fn fresh_seeds(
    rng: &mut SplitMix,
    n: usize,
    params: &InstanceParams,
    taken: &mut HashSet<u64>,
) -> Result<Vec<u64>, String> {
    let source = params.source().map_err(|e| e.to_string())?;
    let mut seeds = Vec::with_capacity(n);
    while seeds.len() < n {
        let seed = rng.next_seed();
        if !taken.contains(&seed) && source.instance(seed).is_ok() {
            taken.insert(seed);
            seeds.push(seed);
        }
    }
    Ok(seeds)
}

/// A running server and the store behind it.
pub struct Service {
    handle: ServerHandle,
    store: Arc<ResultStore>,
}

impl Service {
    /// Opens a store at `dir`, primes it with `prime` through the
    /// handlers, starts the server and sends `warmup` requests, each of
    /// which must answer 200.
    pub fn start(dir: &Path, prime: &[SolveRequest], warmup: &[Vec<u8>]) -> Result<Self, String> {
        let store = Arc::new(ResultStore::open(dir).map_err(|e| e.to_string())?);
        let api = ApiContext {
            registry: SolverRegistry::with_defaults(),
            store: Some(store.clone()),
        };
        for req in prime {
            api.solve(req).map_err(|e| e.message)?;
        }
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc(),
            keep_alive: true,
            keep_alive_max_requests: usize::MAX,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, api).map_err(|e| e.to_string())?;
        let service = Service { handle, store };
        let mut conn = Conn::connect(service.addr()).map_err(|e| e.to_string())?;
        for request in warmup {
            let response = conn.roundtrip(request).map_err(|e| e.to_string())?;
            if response.status != 200 {
                return Err(format!(
                    "warm-up answered {}: {}",
                    response.status, response.body
                ));
            }
        }
        Ok(service)
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown().map_err(|e| e.to_string())
    }
}

/// The `/v1/solve` histogram and cache counters from `/statusz`.
pub struct Snapshot {
    count: u64,
    sum_us: f64,
    buckets: Vec<(u64, u64)>,
    appended: u64,
}

pub fn snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let response = conn.get("/statusz").map_err(|e| e.to_string())?;
    let doc: serde::Value = serde_json::from_str(&response.body).map_err(|e| e.to_string())?;
    let latency = doc
        .get("endpoints")
        .and_then(|e| e.get("/v1/solve"))
        .and_then(|e| e.get("latency"));
    let count = latency
        .and_then(|l| l.get("count"))
        .and_then(serde::Value::as_u64)
        .unwrap_or(0);
    let mean_us = latency
        .and_then(|l| l.get("mean_us"))
        .and_then(serde::Value::as_f64)
        .unwrap_or(0.0);
    let buckets = latency
        .and_then(|l| l.get("buckets_us"))
        .and_then(serde::Value::as_array)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    let appended = doc
        .get("cache")
        .and_then(|c| c.get("appended"))
        .and_then(serde::Value::as_u64)
        .ok_or("/statusz has no cache.appended")?;
    Ok(Snapshot {
        count,
        sum_us: mean_us * count as f64,
        buckets,
        appended,
    })
}

/// Wire-level figures over one measured window.
pub struct WireStats {
    /// Mean handler time the server recorded (`/statusz` sum delta).
    pub server_mean_us: f64,
    /// The server histogram's p99 bucket bound over the window.
    pub server_p99_us: f64,
    /// Mean time from send to last response byte, at the client.
    pub wire_mean_us: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub appended: u64,
    pub segments: usize,
}

impl WireStats {
    pub fn new(
        before: &Snapshot,
        after: &Snapshot,
        wire_mean_us: f64,
        hits_misses: (u64, u64),
        store: &ResultStore,
    ) -> Result<Self, String> {
        let count = after.count.saturating_sub(before.count);
        let bucket = |bound: u64, snap: &Snapshot| {
            snap.buckets
                .iter()
                .find(|(le, _)| *le == bound)
                .map_or(0, |(_, n)| *n)
        };
        let target = (0.99 * count as f64).ceil() as u64;
        let mut cumulative = 0;
        let mut server_p99_us = f64::NAN;
        for &(le, n) in &after.buckets {
            cumulative += n.saturating_sub(bucket(le, before));
            if cumulative >= target.max(1) {
                server_p99_us = le as f64;
                break;
            }
        }
        Ok(WireStats {
            server_mean_us: (after.sum_us - before.sum_us) / count.max(1) as f64,
            server_p99_us,
            wire_mean_us,
            cache_hits: hits_misses.0,
            cache_misses: hits_misses.1,
            appended: after.appended.saturating_sub(before.appended),
            segments: store.segment_count().map_err(|e| e.to_string())?,
        })
    }
}

/// What a load loop measured.
#[derive(Default)]
struct LoadResult {
    /// `serve-cold`: latency of the requests answered correctly, timed
    /// from the scheduled send, one histogram per `TAIL_WINDOW_S` window.
    windows: Vec<Hist>,
    /// `serve-hot`: raw latency of each correct answer in a slice.
    latencies_ms: Vec<f64>,
    /// Σ and count of send → last-byte times, µs, for the transport gap.
    wire_sum_us: f64,
    wire_count: u64,
    attempted: u64,
    within_slo: u64,
    hits: u64,
    misses: u64,
    /// Wrong or failed answers, and the first few of them.
    failed: u64,
    first_failures: Vec<String>,
}

impl LoadResult {
    fn new(seconds: f64) -> Self {
        let windows = ((seconds / TAIL_WINDOW_S).ceil() as usize).max(1);
        LoadResult {
            windows: vec![Hist::new(); windows],
            ..LoadResult::default()
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failures.len() < 8 {
            self.first_failures.push(what);
        }
    }

    /// Records one correct answer `latency_ms` after it was due, which
    /// completed `at_s` after the loop started.
    fn record(&mut self, latency_ms: f64, at_s: f64, slo_ms: f64) {
        let last = self.windows.len() - 1;
        self.windows[((at_s / TAIL_WINDOW_S) as usize).min(last)].record_ms(latency_ms);
        if latency_ms <= slo_ms {
            self.within_slo += 1;
        }
    }

    fn merge(&mut self, other: LoadResult) {
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
        self.latencies_ms.extend(other.latencies_ms);
        self.wire_sum_us += other.wire_sum_us;
        self.wire_count += other.wire_count;
        self.attempted += other.attempted;
        self.within_slo += other.within_slo;
        self.hits += other.hits;
        self.misses += other.misses;
        self.failed += other.failed;
        self.first_failures.extend(other.first_failures);
    }

    fn samples(&self) -> u64 {
        self.windows.iter().map(Hist::count).sum()
    }
}

/// `serve-hot`'s figures for one slice, scaled to the nominal host speed.
struct Slice {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    /// Correct answers per CPU second of the whole process.
    throughput_per_s: f64,
    raw_p50_ms: f64,
    raw_throughput_per_s: f64,
    reference_ms: f64,
}

/// One `serve-hot` slice: a new request each time one of the
/// `PIPELINE` in-flight requests is answered, until `until`, then a
/// drain. Raw latencies go to `latencies_ms`.
fn drive(
    conn: &mut Conn,
    rng: &mut SplitMix,
    requests: &[Vec<u8>],
    expected: &[String],
    until: Instant,
) -> LoadResult {
    let mut log = LoadResult::default();
    let mut in_flight = std::collections::VecDeque::with_capacity(PIPELINE);
    loop {
        if in_flight.len() < PIPELINE && Instant::now() < until {
            let k = rng.below(requests.len());
            log.attempted += 1;
            in_flight.push_back((k, Instant::now()));
            if let Err(e) = conn.send(&requests[k]) {
                log.fail(format!("key {k}: {e}"));
                return log;
            }
            continue;
        }
        let Some((k, sent)) = in_flight.pop_front() else {
            return log;
        };
        let response = conn.recv();
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match response {
            Ok(r) => {
                log.hits += r.cache_hits.unwrap_or(0);
                log.misses += r.cache_misses.unwrap_or(0);
                if r.status == 200
                    && r.body == expected[k]
                    && r.cache_hits == Some(1)
                    && r.cache_misses == Some(0)
                {
                    log.latencies_ms.push(ms);
                    log.wire_sum_us += ms * 1e3;
                    log.wire_count += 1;
                } else {
                    log.fail(format!(
                        "key {k}: status {} hits {:?} misses {:?} body {}",
                        r.status, r.cache_hits, r.cache_misses, r.body
                    ));
                }
            }
            Err(e) => {
                log.fail(format!("key {k}: {e}"));
                return log;
            }
        }
    }
}

/// `serve-hot`'s load loop: one keep-alive connection driven from this
/// thread in `SLICE_S` slices. Between slices the pipeline is drained
/// and a reference batch is timed, so each slice's figures are scaled by
/// the mean host speed on either side.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[String],
    seconds: f64,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(LoadResult, Vec<Slice>), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = SplitMix::new(seed ^ 0xA076_1D64_78BD_642F);
    let reference = Reference::new();
    let mut total = LoadResult::default();
    let mut slices = Vec::new();
    let until = Instant::now() + secs(seconds);
    let mut before = reference.time_ms();
    while slices.is_empty() || Instant::now() < until {
        let slice_until = Instant::now() + secs(SLICE_S);
        let cpu_start = process_cpu_s();
        let mut slice = drive(&mut conn, &mut rng, requests, expected, slice_until);
        let cpu_s = process_cpu_s() - cpu_start;
        let after = reference.time_ms();
        let factor = speed::factor((before + after) / 2.0);
        before = after;
        let raw = std::mem::take(&mut slice.latencies_ms);
        let scaled: Vec<f64> = raw.iter().map(|ms| ms * factor).collect();
        slice.within_slo = scaled.iter().filter(|&&ms| ms <= HOT_SLO_MS).count() as u64;
        let answers = raw.len() as f64;
        slices.push(Slice {
            p50_ms: quantile(&scaled, 0.5),
            p90_ms: quantile(&scaled, 0.9),
            p99_ms: quantile(&scaled, 0.99),
            throughput_per_s: answers / (cpu_s * factor),
            raw_p50_ms: quantile(&raw, 0.5),
            raw_throughput_per_s: answers / cpu_s,
            reference_ms: after,
        });
        let broken = slice.failed > 0;
        total.merge(slice);
        if broken {
            break;
        }
    }
    outcome.failed += total.failed;
    outcome
        .mismatches
        .extend(total.first_failures.drain(..).take(8));
    Ok((total, slices))
}

/// `serve-cold`'s load loop: one pipelined connection; a sender thread
/// sends request `j` at `start + j / rate` whatever the server is
/// doing, and a reader thread takes the answers in order. Returns, per
/// request, how late it was sent, when it was answered, and the answer.
#[allow(clippy::type_complexity)]
fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    rate: f64,
) -> Result<
    (
        Instant,
        Vec<f64>,
        Vec<(Instant, wire::Response)>,
        Vec<Instant>,
    ),
    String,
> {
    let n = requests.len();
    let mut sender = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut reader = sender.split().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |j: usize| start + secs(j as f64 / rate);
    let (sent, received, error) = std::thread::scope(|s| {
        let read = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            for _ in 0..n {
                match reader.recv() {
                    Ok(r) => got.push((Instant::now(), r)),
                    Err(e) => return (got, Some(e.to_string())),
                }
            }
            (got, None)
        });
        let mut sent = Vec::with_capacity(n);
        let mut send_error = None;
        for (j, request) in requests.iter().enumerate() {
            let now = Instant::now();
            if now < due(j) {
                std::thread::sleep(due(j) - now);
            }
            sent.push(Instant::now());
            if let Err(e) = sender.send(request) {
                send_error = Some(format!("send {j}: {e}"));
                let _ = sender.stream.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        let (received, read_error) = read.join().expect("the reader thread panicked");
        (sent, received, send_error.or(read_error))
    });
    if let Some(e) = error {
        return Err(e);
    }
    let late_ms = sent
        .iter()
        .enumerate()
        .map(|(j, &at)| (at - due(j)).as_secs_f64() * 1e3)
        .collect();
    Ok((start, late_ms, received, sent))
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let work = crate::work_dir()?;
    let params = decode(&body(0))?.instance;
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // Inputs, all drawn from --seed: the primed keys, the keys the
    // traced run's handler timers use, and serve-cold's fresh keys.
    let mut taken = HashSet::new();
    let mut rng = SplitMix::new(args.seed);
    let hot_seeds = fresh_seeds(&mut rng, HOT_KEYS, &params, &mut taken)?;
    let hot_bodies: Vec<String> = hot_seeds.iter().map(|&s| body(s)).collect();
    let hot_requests: Vec<Vec<u8>> = hot_bodies.iter().map(|b| wire::solve_request(b)).collect();
    let prime = hot_bodies
        .iter()
        .map(|b| decode(b))
        .collect::<Result<Vec<_>, _>>()?;
    let cold_count = (COLD_RATE_PER_S * e2e_seconds).round() as usize;
    let cold_seeds = match mode {
        Mode::Cold => fresh_seeds(&mut rng, cold_count, &params, &mut taken)?,
        Mode::Hot => Vec::new(),
    };
    let probe_bodies: Vec<String> = if args.trace {
        fresh_seeds(&mut rng, 4096, &params, &mut taken)?
            .into_iter()
            .map(body)
            .collect()
    } else {
        Vec::new()
    };
    let warmup: Vec<Vec<u8>> = (0..WARMUP_REQUESTS)
        .map(|i| hot_requests[i % HOT_KEYS].clone())
        .collect();

    // The reference answers, from a storeless in-process context.
    let reference = ApiContext::new();
    let reference_body = |req: &SolveRequest| -> Result<(String, f64), String> {
        let answer = reference.solve(req).map_err(|e| e.message)?;
        let cost = answer
            .body
            .get("cost_uj")
            .and_then(serde::Value::as_f64)
            .ok_or("reference body has no cost_uj")?;
        Ok((
            serde_json::to_string(&answer.body).map_err(|e| e.to_string())?,
            cost,
        ))
    };
    let mut hot_expected = Vec::with_capacity(HOT_KEYS);
    let mut hot_costs = Vec::with_capacity(HOT_KEYS);
    for req in &prime {
        let (text, cost) = reference_body(req)?;
        hot_expected.push(text);
        hot_costs.push(cost);
    }

    // Set-up, several times over, each from a fresh store and between
    // two reference batches.
    let reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut raw_setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut service: Option<Service> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(old) = service.take() {
            old.stop()?;
        }
        let ref_before = reference.time_ms();
        let started = process_cpu_s();
        service = Some(Service::start(
            &work.join(format!("store-{i}")),
            &prime,
            &warmup,
        )?);
        let raw = process_cpu_s() - started;
        setup_s.push(raw * speed::factor((ref_before + reference.time_ms()) / 2.0));
        raw_setup_s.push(raw);
    }
    outcome
        .context
        .push(Metric::new("raw.setup_s", stats::median(&raw_setup_s), "s"));
    let service = service.expect("at least one set-up ran");
    let addr = service.addr();

    let before = snapshot(addr)?;
    let cpu_start = process_cpu_s();
    // The serve throughput is answers per CPU second of the whole process
    // (client and server) in the measured loop; `serve-hot`'s figures
    // are medians over its slices, scaled to the nominal host speed.
    let (load, cost_uj_mean, throughput_per_s, tails) = match mode {
        Mode::Hot => {
            let (load, slices) = closed_loop(
                addr,
                &hot_requests,
                &hot_expected,
                e2e_seconds,
                args.seed,
                &mut outcome,
            )?;
            let per_slice =
                |f: fn(&Slice) -> f64| stats::median(&slices.iter().map(f).collect::<Vec<_>>());
            outcome.context.extend([
                Metric::new(
                    "raw.throughput_per_s",
                    per_slice(|s| s.raw_throughput_per_s),
                    "1/s",
                ),
                Metric::new("raw.latency_p50_ms", per_slice(|s| s.raw_p50_ms), "ms"),
                Metric::new("reference_ms", per_slice(|s| s.reference_ms), "ms"),
                Metric::new("samples", load.wire_count as f64, "count"),
                Metric::new("slices", slices.len() as f64, "count"),
            ]);
            let tails = [
                per_slice(|s| s.p50_ms),
                per_slice(|s| s.p90_ms),
                per_slice(|s| s.p99_ms),
            ];
            let throughput = per_slice(|s| s.throughput_per_s);
            (load, stats::mean(&hot_costs), throughput, tails)
        }
        Mode::Cold => {
            let bodies: Vec<String> = cold_seeds.iter().map(|&s| body(s)).collect();
            let requests: Vec<Vec<u8>> = bodies.iter().map(|b| wire::solve_request(b)).collect();
            let (start, late_ms, responses, sent) = open_loop(addr, &requests, COLD_RATE_PER_S)?;
            let loop_cpu_s = process_cpu_s() - cpu_start;
            let late_p90 = quantile(&late_ms, 0.9);
            outcome.context.push(Metric::new(
                "loadgen.late_ms_p99",
                quantile(&late_ms, 0.99),
                "ms",
            ));
            if late_p90 > COLD_SLO_MS {
                return Err(format!(
                    "invalid run: the generator fell behind its schedule \
                     (p90 lateness {late_p90:.2} ms > {COLD_SLO_MS} ms)"
                ));
            }
            // Every answer is checked after the loop, untimed, against
            // the in-process reference.
            let mut load = LoadResult::new(e2e_seconds);
            let mut costs = Vec::with_capacity(bodies.len());
            load.attempted = bodies.len() as u64;
            for (j, (text, (done, response))) in bodies.iter().zip(&responses).enumerate() {
                let (expected, cost) = reference_body(&decode(text)?)?;
                costs.push(cost);
                load.hits += response.cache_hits.unwrap_or(0);
                load.misses += response.cache_misses.unwrap_or(0);
                let due = start + secs(j as f64 / COLD_RATE_PER_S);
                if response.status == 200
                    && response.body == expected
                    && response.cache_hits == Some(0)
                    && response.cache_misses == Some(1)
                {
                    let at = (*done - start).as_secs_f64();
                    load.record((*done - due).as_secs_f64() * 1e3, at, COLD_SLO_MS);
                    load.wire_sum_us += (*done - sent[j]).as_secs_f64() * 1e6;
                    load.wire_count += 1;
                } else {
                    outcome.fail(format!(
                        "request {j}: status {} hits {:?} misses {:?} body {}",
                        response.status, response.cache_hits, response.cache_misses, response.body
                    ));
                }
            }
            let tail = |q: f64| windowed_quantile(&load.windows, q, 1000);
            let tails = [tail(0.5), tail(0.9), tail(0.99)];
            outcome
                .context
                .push(Metric::new("samples", load.samples() as f64, "count"));
            let throughput = load.wire_count as f64 / loop_cpu_s;
            (load, stats::mean(&costs), throughput, tails)
        }
    };
    let after = snapshot(addr)?;
    let slo_ms = match mode {
        Mode::Hot => HOT_SLO_MS,
        Mode::Cold => COLD_SLO_MS,
    };
    outcome.attempted = load.attempted;
    outcome.end_to_end = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s"),
        Metric::new("throughput_per_s", throughput_per_s, "1/s"),
        Metric::new("latency_p50_ms", tails[0], "ms"),
        Metric::new("latency_p90_ms", tails[1], "ms"),
        Metric::new("latency_p99_ms", tails[2], "ms"),
        Metric::new(
            "slo_attainment",
            load.within_slo as f64 / load.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("cost_uj_mean", cost_uj_mean, "uJ"),
    ];
    outcome
        .context
        .push(Metric::new("slo_limit_ms", slo_ms, "ms"));

    if args.trace {
        let wire = WireStats::new(
            &before,
            &after,
            load.wire_sum_us / load.wire_count.max(1) as f64,
            (load.hits, load.misses),
            service.store(),
        )?;
        let mut samples = Samples::default();
        let layers_start = Instant::now();
        let remaining = args.seconds - e2e_seconds;
        let seeds = match mode {
            Mode::Hot => &hot_seeds,
            Mode::Cold => &cold_seeds,
        };
        solve_layers(
            &params,
            seeds,
            layers_start + secs(remaining / 2.0),
            &mut samples,
        )?;
        let api = ApiContext {
            registry: SolverRegistry::with_defaults(),
            store: Some(service.store().clone()),
        };
        handler_layers(
            &api,
            service.store(),
            &probe_bodies,
            layers_start + secs(remaining),
            &mut samples,
        )?;
        outcome.per_layer = layers::metrics(&samples, &wire);
    }
    service.stop()?;
    Ok(outcome)
}
