//! `solve-paper`: the paper's default instance (100 posts, 400 nodes, a
//! 500 m field, 3 levels) through in-process `Experiment::run`, single
//! threaded and with no store. Every seed runs `irfh`, `idb` and
//! `sched-bilevel` back to back, so a slow phase of the host lands on
//! all three alike. The run repeats whole passes over a fixed seed list
//! until its time is up and reports medians per solve. Solves are timed
//! on the thread's CPU clock, which leaves out hypervisor steal, and
//! scaled to the nominal host speed by the reference batch timed between
//! seeds (see `speed`).

use crate::layers::{experiment, handler_layers, solve_layers, SOLVERS};
use crate::serve::{fresh_seeds, snapshot, Service, WireStats};
use crate::speed::{self, Reference};
use crate::stats::{self, process_cpu_s, quantile, thread_cpu_s, Samples, SplitMix};
use crate::wire::{self, Conn};
use crate::{peak_rss_mb, secs, work_dir, Args, Metric, Outcome};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use wrsn_core::{optimal_cost, tree_cost};
use wrsn_engine::{InstanceParams, InstanceSource, ResultStore, SolverRegistry};
use wrsn_serve::api::ApiContext;

/// Seeds in one pass; a pass is about 3 s of solving on a 2-vCPU host.
/// The costs and the solve tail depend on which seeds a run draws; at 24
/// seeds `cost_uj_mean` spread 4.6% over ten runs.
const SEEDS_PER_PASS: usize = 48;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Latency limit behind `slo_attainment`.
const SOLVE_SLO_MS: f64 = 100.0;
/// Keys the traced run sends through a server, each twice (miss, hit).
const WIRE_KEYS: usize = 12;
/// Relative tolerance for costs computed along different paths.
const TOLERANCE: f64 = 1e-9;

fn body(solver: &str, seed: u64) -> String {
    format!("{{\"instance\":{{}},\"solver\":\"{solver}\",\"seed\":{seed}}}")
}

/// Checks one solve against the cost model: the deployment places all
/// M nodes with every post holding at least one, the reported cost is
/// the tree cost of the returned routing, and no routing of the same
/// deployment is cheaper than `optimal_cost` says.
fn verify(
    source: &InstanceSource,
    registry: &SolverRegistry,
    params: &InstanceParams,
    solver: &str,
    seed: u64,
    engine_cost_uj: f64,
) -> Result<(), String> {
    let what = format!("{solver} seed {seed}");
    let instance = source.instance(seed).map_err(|e| e.to_string())?;
    let solution = registry
        .create(solver)
        .map_err(|e| e.to_string())?
        .solve(&instance)
        .map_err(|e| format!("{what}: {e}"))?;
    let deployment = solution.deployment();
    if deployment.total() != u64::from(params.nodes) || deployment.counts().contains(&0) {
        return Err(format!("{what}: deployment {:?}", deployment.counts()));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= TOLERANCE * a.abs().max(b.abs());
    let cost = solution.total_cost().as_ujoules();
    let tree = tree_cost(&instance, deployment, solution.tree()).as_ujoules();
    if !close(cost, tree) {
        return Err(format!("{what}: reported {cost} µJ, tree cost {tree} µJ"));
    }
    if !close(cost, engine_cost_uj) {
        return Err(format!(
            "{what}: solver {cost} µJ, engine {engine_cost_uj} µJ"
        ));
    }
    let (optimal, _) = optimal_cost(&instance, deployment).map_err(|e| format!("{what}: {e}"))?;
    let optimal = optimal.as_ujoules();
    if optimal > tree * (1.0 + TOLERANCE) {
        return Err(format!(
            "{what}: optimal {optimal} µJ above tree cost {tree} µJ"
        ));
    }
    Ok(())
}

/// What the timed passes collected; times are scaled to the nominal
/// host speed unless named raw.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    latency_ms: Vec<f64>,
    round_ms: Vec<f64>,
    raw_round_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    costs: Vec<f64>,
    passes: u64,
}

/// The workload's inputs: the seeds of one pass and a warm-up seed.
fn inputs(args: &Args, params: &InstanceParams) -> Result<(Vec<u64>, u64), String> {
    let mut seeds = fresh_seeds(
        &mut SplitMix::new(args.seed),
        SEEDS_PER_PASS + 1,
        params,
        &mut HashSet::new(),
    )?;
    let warm_seed = seeds.pop().expect("seeds were drawn");
    Ok((seeds, warm_seed))
}

/// Set-up, then whole passes over `seeds` for `seconds`, in this process.
fn measure(
    params: &InstanceParams,
    seeds: &[u64],
    warm_seed: u64,
    seconds: f64,
    outcome: &mut Outcome,
) -> Result<Measured, String> {
    let mut part = Measured::default();
    let reference = Reference::new();
    // Set-up: registry, instance source, and one warm-up solve per
    // solver, several times over, each between two reference batches.
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let before = reference.time_ms();
        let started = process_cpu_s();
        let registry = SolverRegistry::with_defaults();
        let source = params.source().map_err(|e| e.to_string())?;
        for name in SOLVERS {
            experiment(&source, name, warm_seed)
                .run(&registry)
                .map_err(|e| e.to_string())?;
        }
        let setup_s = process_cpu_s() - started;
        let factor = speed::factor((before + reference.time_ms()) / 2.0);
        part.setup_s.push(setup_s * factor);
        part.raw_setup_s.push(setup_s);
        ready = Some((registry, source));
    }
    let (registry, source) = ready.expect("at least one set-up ran");

    // Whole passes until the time is up. Only the `Experiment::run`
    // call is timed; the first pass verifies each solve untimed and
    // later passes must reproduce its costs exactly. A reference batch
    // between seeds gives each seed's solves the mean host speed of the
    // batches on either side.
    part.costs = vec![f64::NAN; seeds.len() * SOLVERS.len()];
    let until = Instant::now() + secs(seconds);
    let mut before = reference.time_ms();
    while part.passes == 0 || Instant::now() < until {
        for (i, &seed) in seeds.iter().enumerate() {
            let mut solves_ms = Vec::with_capacity(SOLVERS.len());
            for (k, name) in SOLVERS.iter().enumerate() {
                outcome.attempted += 1;
                let started = thread_cpu_s();
                let report = experiment(&source, name, seed).run(&registry);
                let ms = (thread_cpu_s() - started) * 1e3;
                let cost = match report {
                    Ok(report) if report.runs.len() == 1 => report.runs[0].cost_uj,
                    Ok(report) => {
                        outcome.fail(format!("{name} seed {seed}: {} runs", report.runs.len()));
                        continue;
                    }
                    Err(e) => {
                        outcome.fail(format!("{name} seed {seed}: {e}"));
                        continue;
                    }
                };
                let slot = i * SOLVERS.len() + k;
                if part.passes == 0 {
                    if let Err(e) = verify(&source, &registry, params, name, seed, cost) {
                        outcome.fail(e);
                        continue;
                    }
                    part.costs[slot] = cost;
                } else if cost.to_bits() != part.costs[slot].to_bits() {
                    let first = part.costs[slot];
                    outcome.fail(format!(
                        "{name} seed {seed}: cost {cost} µJ, first pass {first} µJ"
                    ));
                    continue;
                }
                solves_ms.push(ms);
            }
            let after = reference.time_ms();
            let factor = speed::factor((before + after) / 2.0);
            before = after;
            let round: f64 = solves_ms.iter().sum();
            part.latency_ms
                .extend(solves_ms.iter().map(|ms| ms * factor));
            part.round_ms.push(round * factor);
            part.raw_round_ms.push(round);
            part.reference_ms.push(after);
        }
        part.passes += 1;
    }
    Ok(part)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let params = InstanceParams::default();
    let (seeds, warm_seed) = inputs(args, &params)?;
    let e2e_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut outcome = Outcome::default();
    let part = measure(&params, &seeds, warm_seed, e2e_seconds, &mut outcome)?;
    let solves_per_round = SOLVERS.len() as f64;
    let within_slo = part
        .latency_ms
        .iter()
        .filter(|&&l| l <= SOLVE_SLO_MS)
        .count();
    outcome.end_to_end = vec![
        Metric::new("setup_s", stats::median(&part.setup_s), "s"),
        Metric::new(
            "throughput_per_s",
            solves_per_round / (stats::median(&part.round_ms) / 1e3),
            "1/s",
        ),
        Metric::new("latency_p50_ms", quantile(&part.latency_ms, 0.5), "ms"),
        Metric::new("latency_p90_ms", quantile(&part.latency_ms, 0.9), "ms"),
        Metric::new("latency_p99_ms", quantile(&part.latency_ms, 0.99), "ms"),
        Metric::new(
            "slo_attainment",
            within_slo as f64 / outcome.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("cost_uj_mean", stats::mean(&part.costs), "uJ"),
    ];
    outcome.context.extend([
        Metric::new("raw.setup_s", stats::median(&part.raw_setup_s), "s"),
        Metric::new(
            "raw.throughput_per_s",
            solves_per_round / (stats::median(&part.raw_round_ms) / 1e3),
            "1/s",
        ),
        Metric::new("reference_ms", stats::median(&part.reference_ms), "ms"),
        Metric::new("samples", part.latency_ms.len() as f64, "count"),
        Metric::new("passes", part.passes as f64, "count"),
        Metric::new("slo_limit_ms", SOLVE_SLO_MS, "ms"),
    ]);

    if args.trace {
        outcome.per_layer = traced_layers(args, &params, &seeds, e2e_seconds)?;
    }
    Ok(outcome)
}

/// The traced run's second half: the solve-path layers, the request-path
/// layers over a fresh store, and a few keys through a real server for
/// the wire-level figures, all on this workload's paper-scale keys.
fn traced_layers(
    args: &Args,
    params: &InstanceParams,
    seeds: &[u64],
    e2e_seconds: f64,
) -> Result<Vec<Metric>, String> {
    let work = work_dir()?;
    let remaining = args.seconds - e2e_seconds;
    let start = Instant::now();
    let mut samples = Samples::default();
    solve_layers(params, seeds, start + secs(remaining * 0.6), &mut samples)?;

    let bodies: Vec<String> = seeds
        .iter()
        .flat_map(|&seed| SOLVERS.iter().map(move |name| body(name, seed)))
        .collect();
    let store = Arc::new(ResultStore::open(work.join("handlers")).map_err(|e| e.to_string())?);
    let api = ApiContext {
        registry: SolverRegistry::with_defaults(),
        store: Some(store.clone()),
    };
    handler_layers(
        &api,
        &store,
        &bodies,
        start + secs(remaining * 0.9),
        &mut samples,
    )?;

    let service = Service::start(&work.join("wire"), &[], &[])?;
    let before = snapshot(service.addr())?;
    let mut conn = Conn::connect(service.addr()).map_err(|e| e.to_string())?;
    let mut wire_us = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    for body in bodies.iter().take(WIRE_KEYS) {
        let request = wire::solve_request(body);
        for _ in 0..2 {
            let sent = Instant::now();
            let response = conn.roundtrip(&request).map_err(|e| e.to_string())?;
            wire_us.push(sent.elapsed().as_secs_f64() * 1e6);
            if response.status != 200 {
                return Err(format!("{body}: status {}", response.status));
            }
            hits += response.cache_hits.unwrap_or(0);
            misses += response.cache_misses.unwrap_or(0);
        }
    }
    let after = snapshot(service.addr())?;
    let wire = WireStats::new(
        &before,
        &after,
        stats::mean(&wire_us),
        (hits, misses),
        service.store(),
    )?;
    service.stop()?;
    Ok(crate::layers::metrics(&samples, &wire))
}
