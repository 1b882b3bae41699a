//! The traced run's per-layer timers: each one times a single public
//! call into one layer, from outside the program, on the workload's own
//! inputs. Nothing here runs during an untraced (`--trace 0`) run.

use crate::serve::WireStats;
use crate::stats::{ms_since, us_since, Samples};
use crate::{wire, Metric};
use std::hint::black_box;
use std::time::Instant;
use wrsn_core::{cost_digraph, optimal_cost, CostEvaluator};
use wrsn_engine::{
    seed_fingerprint_scenario, Experiment, InstanceParams, ResultStore, SolverRegistry,
    SweepRunner, ENGINE_VERSION,
};
use wrsn_graph::dijkstra_to;
use wrsn_serve::api::{ApiContext, SolveRequest};
use wrsn_serve::http::{self, Response};

/// The solvers `solve-paper` interleaves on every seed.
pub const SOLVERS: [&str; 3] = ["irfh", "idb", "sched-bilevel"];

/// Posts probed with `CostEvaluator::probe_add` per deployment.
const PROBED_POSTS: usize = 8;

fn solve_metric(solver: &str) -> &'static str {
    match solver {
        "irfh" => "solver.irfh.solve_ms",
        "idb" => "solver.idb.solve_ms",
        _ => "solver.sched-bilevel.solve_ms",
    }
}

/// One seed through the engine, exactly as `solve-paper` times it: a
/// single-threaded one-seed `Experiment` with no store.
pub fn experiment(source: &wrsn_engine::InstanceSource, solver: &str, seed: u64) -> Experiment {
    Experiment::new(source.clone())
        .solver(solver)
        .seeds(seed..seed + 1)
        .runner(SweepRunner::sequential())
        .record_timings(false)
}

/// Times the core, graph, solver and engine layers on `seeds` (cycled)
/// until `until`, completing at least one seed.
pub fn solve_layers(
    params: &InstanceParams,
    seeds: &[u64],
    until: Instant,
    samples: &mut Samples,
) -> Result<(), String> {
    let registry = SolverRegistry::with_defaults();
    let source = params.source().map_err(|e| e.to_string())?;
    for (round, &seed) in seeds.iter().cycle().enumerate() {
        // The engine run and the bare build + solve alternate which goes
        // first, so neither always meets warm caches.
        let engine_first = round % 2 == 0;
        let run_ms = |name: &str| -> Result<f64, String> {
            let start = Instant::now();
            experiment(&source, name, seed)
                .run(&registry)
                .map_err(|e| e.to_string())?;
            Ok(ms_since(start))
        };
        let early_runs = if engine_first {
            SOLVERS
                .iter()
                .map(|name| run_ms(name))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let instance = source.instance(seed).map_err(|e| e.to_string())?;
        let build_ms = ms_since(start);
        samples.push("core.instance_build_ms", build_ms);
        for (k, name) in SOLVERS.into_iter().enumerate() {
            let solver = registry.create(name).map_err(|e| e.to_string())?;
            let start = Instant::now();
            let (solution, _) = solver
                .solve_traced(&instance)
                .map_err(|e| format!("{name} seed {seed}: {e}"))?;
            let solve_ms = ms_since(start);
            samples.push(solve_metric(name), solve_ms);
            let engine_ms = match early_runs.get(k) {
                Some(&ms) => ms,
                None => run_ms(name)?,
            };
            samples.push("engine.run_overhead_ms", engine_ms - build_ms - solve_ms);

            let deployment = solution.deployment();
            let graph = cost_digraph(&instance, deployment);
            let start = Instant::now();
            black_box(dijkstra_to(&graph, instance.bs()));
            samples.push("graph.dijkstra_to_us", us_since(start));

            let mut eval = CostEvaluator::new(&instance);
            let start = Instant::now();
            black_box(eval.set_deployment(deployment.counts()));
            samples.push("core.eval_set_deployment_us", us_since(start));
            let posts = instance.num_posts();
            for k in 0..PROBED_POSTS.min(posts) {
                let start = Instant::now();
                black_box(eval.probe_add(k * posts / PROBED_POSTS.min(posts)));
                samples.push("core.eval_probe_add_us", us_since(start));
            }

            let start = Instant::now();
            black_box(optimal_cost(&instance, deployment).map_err(|e| e.to_string())?);
            samples.push("core.optimal_cost_us", us_since(start));
        }
        if Instant::now() >= until {
            break;
        }
    }
    Ok(())
}

/// Times the request path's layers, one `/v1/solve` body at a time, on
/// keys `api`'s store does not hold yet: parse, decode, fingerprint, the
/// handler on a miss, the store read, the handler on a hit, encode,
/// response bytes, and a store append. Stops at `until` (after at least
/// one body) or when the bodies run out.
pub fn handler_layers(
    api: &ApiContext,
    store: &ResultStore,
    bodies: &[String],
    until: Instant,
    samples: &mut Samples,
) -> Result<(), String> {
    for body in bodies {
        let bytes = wire::solve_request(body);
        let start = Instant::now();
        let parsed = http::try_parse(black_box(&bytes));
        samples.push("serve.http_parse_us", us_since(start));
        let (request, _) = parsed
            .map_err(|e| e.to_string())?
            .ok_or("try_parse wants more bytes of a whole request")?;

        let start = Instant::now();
        let decoded = serde_json::from_str::<SolveRequest>(&request.body_text());
        samples.push("serve.decode_us", us_since(start));
        let req = decoded.map_err(|e| e.to_string())?;

        let source = req.instance.source().map_err(|e| e.to_string())?;
        let fingerprint = |namespace: Option<&str>| {
            seed_fingerprint_scenario(
                namespace,
                req.instance.scenario.as_ref(),
                &source,
                &req.solver,
                ENGINE_VERSION,
                false,
                req.seed,
            )
        };
        let start = Instant::now();
        let key = black_box(fingerprint(None));
        samples.push("engine.fingerprint_us", us_since(start));

        let start = Instant::now();
        let miss = api.solve_in(None, &req).map_err(|e| e.message)?;
        samples.push("serve.solve_in_miss_us", us_since(start));
        if miss.cache.misses != 1 {
            return Err(format!("key {body} was expected to miss the store"));
        }

        let start = Instant::now();
        let stored = store.get(&key);
        samples.push("store.get_us", us_since(start));
        let stored = stored.ok_or("the engine stored the result under another key")?;

        let start = Instant::now();
        let hit = api.solve_in(None, &req).map_err(|e| e.message)?;
        samples.push("serve.solve_in_hit_us", us_since(start));
        if hit.cache.hits != 1 {
            return Err(format!("key {body} was expected to hit the store"));
        }

        let start = Instant::now();
        let text = serde_json::to_string(&hit.body).map_err(|e| e.to_string())?;
        samples.push("serve.encode_us", us_since(start));

        let start = Instant::now();
        let wire_bytes = Response::json(200, text)
            .header("x-cache-hits", hit.cache.hits.to_string())
            .header("x-cache-misses", hit.cache.misses.to_string())
            .serialize(true);
        samples.push("serve.response_bytes_us", us_since(start));
        black_box(wire_bytes);

        let copy = fingerprint(Some("perfbench-put"));
        let start = Instant::now();
        let appended = store.put(&copy, stored).map_err(|e| e.to_string())?;
        samples.push("store.put_us", us_since(start));
        if !appended {
            return Err("a fresh key was not appended".to_string());
        }
        if Instant::now() >= until {
            break;
        }
    }
    Ok(())
}

/// Timed per-layer metrics, reported as medians, with their units.
const TIMED: [(&str, &str); 18] = [
    ("core.instance_build_ms", "ms"),
    ("solver.irfh.solve_ms", "ms"),
    ("solver.idb.solve_ms", "ms"),
    ("solver.sched-bilevel.solve_ms", "ms"),
    ("graph.dijkstra_to_us", "us"),
    ("core.eval_set_deployment_us", "us"),
    ("core.eval_probe_add_us", "us"),
    ("core.optimal_cost_us", "us"),
    ("engine.run_overhead_ms", "ms"),
    ("serve.http_parse_us", "us"),
    ("serve.decode_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("store.get_us", "us"),
    ("serve.solve_in_hit_us", "us"),
    ("serve.solve_in_miss_us", "us"),
    ("store.put_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.response_bytes_us", "us"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(samples: &Samples, wire: &WireStats) -> Vec<Metric> {
    let mut out: Vec<Metric> = TIMED
        .iter()
        .map(|&(name, unit)| Metric::new(name, samples.median(name), unit))
        .collect();
    let outcomes = (wire.cache_hits + wire.cache_misses).max(1) as f64;
    out.extend([
        Metric::new("serve.server_mean_us", wire.server_mean_us, "us"),
        Metric::new("serve.server_p99_us", wire.server_p99_us, "us"),
        Metric::new(
            "serve.transport_us",
            wire.wire_mean_us - wire.server_mean_us,
            "us",
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            wire.cache_hits as f64 / outcomes,
            "ratio",
        ),
        Metric::new("store.appended", wire.appended as f64, "count"),
        Metric::new("store.segments", wire.segments as f64, "count"),
    ]);
    out
}
