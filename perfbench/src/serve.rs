//! The `serve` workload: one closed-loop client drives `Server::submit`
//! with the fsynced WAL on disk, then `Server::recover` rebuilds fresh
//! servers from that WAL.
//!
//! Requests are a seeded mix over the five mechanisms other than PrivHRG,
//! on `serve_replay`'s two hosted 200-node graphs: 97 % name one of 240
//! hot keys, so that with their first measures about 95 % of requests are
//! cache hits; the rest carry fresh seeds (measure and insert). Every
//! tenant's grant covers its requests twice over, so no request is
//! refused. The servers write an accountant checkpoint every
//! `CHECKPOINT_EVERY` admissions, which recovery verifies.

use crate::probe::{inside_s, peak_rss_mib, wrap, Probe};
use crate::{median, percentile, repeat_for, set_up, timed, Args, Report};
use pgb_core::{standard_suite, GraphGenerator};
use pgb_serve::{
    csr_bytes, fnv1a, BudgetStatement, GenerateRequest, LogEntry, Recovery, RequestLog, Server,
    ServerConfig, TenantAccountant, Wal,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests driven per second of `--seconds`.
const REQUESTS_PER_SECOND: f64 = 250.0;
/// Fewest `Server::recover` calls per run; `wall_s` is their median.
const MIN_RECOVERIES: usize = 3;
/// Admissions between two accountant checkpoints in the WAL.
const CHECKPOINT_EVERY: u64 = 256;
/// Admissions appended to a scratch WAL for `serve.wal_append_ms`.
const WAL_APPENDS: usize = 2000;
/// Scratch WALs created for `serve.wal_create_ms`.
const WAL_CREATES: usize = 21;
const TENANTS: usize = 4;
const HOT_SHARE: f64 = 0.97;
/// Hot keys per (dataset, mechanism, ε): enough that no single noisy
/// intermediate sets the cost of the run.
const HOT_SEEDS: usize = 8;
const EPSILONS: [f64; 3] = [0.5, 1.0, 2.0];
const DATASETS: [&str; 2] = ["er", "ba"];

/// The seeded session: tenant grants and the request log.
struct Session {
    tenants: Vec<(String, f64)>,
    log: RequestLog,
}

/// The hot keys are `HOT_SEEDS` per (dataset, mechanism, ε), each with a
/// seeded request seed, so every seed puts the same mix of mechanism work
/// on the server; fresh requests cycle through the same combinations with
/// seeds that never repeat.
fn session(seed: u64, requests: usize) -> Session {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut combos = Vec::new();
    for g in standard_suite().iter().filter(|g| g.name() != "PrivHRG") {
        for dataset in DATASETS {
            for epsilon in EPSILONS {
                combos.push((dataset, g.name(), epsilon));
            }
        }
    }
    let request = |(dataset, mechanism, epsilon): (&str, &str, f64), seed: u64| GenerateRequest {
        dataset: dataset.to_string(),
        mechanism: mechanism.to_string(),
        epsilon,
        samples: 1,
        seed,
        deadline_ticks: 0,
    };
    let hot: Vec<GenerateRequest> = combos
        .iter()
        .flat_map(|&c| std::iter::repeat_n(c, HOT_SEEDS))
        .map(|c| request(c, rng.gen_range(0..1u64 << 32)))
        .collect();
    let mut spent = [0.0f64; TENANTS];
    let mut fresh = 0;
    let log: RequestLog = (0..requests)
        .map(|_| {
            let request = if rng.gen::<f64>() < HOT_SHARE {
                hot[rng.gen_range(0..hot.len())].clone()
            } else {
                fresh += 1;
                request(combos[fresh % combos.len()], (1u64 << 32) + fresh as u64)
            };
            let t = rng.gen_range(0..TENANTS);
            spent[t] += request.epsilon;
            LogEntry { tenant: format!("tenant{t}"), request }
        })
        .collect();
    let tenants =
        spent.iter().enumerate().map(|(t, s)| (format!("tenant{t}"), 2.0 * s + 1.0)).collect();
    Session { tenants, log }
}

/// A server hosting `serve_replay`'s two datasets, with the session's
/// tenants registered.
fn server(suite: Vec<Box<dyn GraphGenerator>>, session: &Session) -> Result<Server, String> {
    let config = ServerConfig { wal_checkpoint_every: CHECKPOINT_EVERY, ..ServerConfig::default() };
    let mut server = Server::with_generators(config, suite);
    let er = pgb_models::erdos_renyi_gnp(200, 0.05, &mut StdRng::seed_from_u64(0xE0));
    let ba = pgb_models::barabasi_albert(200, 3, &mut StdRng::seed_from_u64(0xBA));
    server.host_dataset("er", er);
    server.host_dataset("ba", ba);
    for (tenant, grant) in &session.tenants {
        server.register_tenant(tenant, *grant).map_err(|e| format!("registering {tenant}: {e}"))?;
    }
    Ok(server)
}

/// What the client saw, per request.
struct Drive {
    latency_ms: Vec<f64>,
    /// Latency minus the wrapped measure and sample time inside it.
    overhead_ms: Vec<f64>,
    /// The committed charge and sample digests of each answered request.
    answers: Vec<Option<(BudgetStatement, Vec<u64>)>>,
    secs: f64,
}

fn drive(server: &Server, log: &RequestLog) -> Drive {
    let mut d = Drive { latency_ms: vec![], overhead_ms: vec![], answers: vec![], secs: 0.0 };
    let start = Instant::now();
    for entry in log {
        let inside_before = inside_s();
        let sent = Instant::now();
        let response = server.submit(&entry.tenant, entry.request.clone());
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        d.latency_ms.push(ms);
        d.overhead_ms.push(ms - (inside_s() - inside_before) * 1e3);
        d.answers.push(
            response
                .ok()
                .map(|r| (r.statement, r.graphs.iter().map(|g| fnv1a(&csr_bytes(g))).collect())),
        );
    }
    d.secs = start.elapsed().as_secs_f64();
    d
}

/// Recovers a fresh server from `wal` and checks the result against the
/// driven session: no torn tail, no divergence, every admission back,
/// the same log, and a transcript equal to what the client received.
fn recover(
    suite: Vec<Box<dyn GraphGenerator>>,
    session: &Session,
    wal: &Path,
    driven: &Drive,
    report: &mut Report,
) -> Result<f64, String> {
    let server = server(suite, session)?;
    let (recovery, secs) = timed(|| server.recover(wal));
    let Recovery { transcript, recovered, corrupt, divergence } =
        recovery.map_err(|e| format!("recovering {}: {e}", wal.display()))?;
    report.check(corrupt.is_none(), || format!("recovery found a torn tail: {corrupt:?}"));
    report.check(divergence.is_none(), || format!("recovery diverged: {divergence:?}"));
    report.check(recovered == session.log.len(), || {
        format!("recovered {recovered} of {} admissions", session.log.len())
    });
    report
        .check(server.log() == session.log, || "recovered log differs from the driven log".into());
    let mismatch = transcript.records.iter().zip(&driven.answers).position(|(rec, answer)| {
        let replayed = match (&rec.admission, &rec.samples) {
            (Ok(statement), Some(Ok(samples))) => {
                Some((statement.clone(), samples.iter().map(|b| fnv1a(b)).collect::<Vec<_>>()))
            }
            _ => None,
        };
        replayed != *answer
    });
    let (replayed, sent) = (transcript.records.len(), driven.answers.len());
    report.check(mismatch.is_none() && replayed == sent, || {
        format!(
            "replayed transcript ({replayed} records) differs from the driven session \
             ({sent} requests) at request {mismatch:?}"
        )
    });
    Ok(secs)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let started = Instant::now();
    let dir = args.work_dir.as_deref().ok_or("serve needs --work-dir")?;
    let requests = ((args.seconds * REQUESTS_PER_SECOND) as usize).max(1);
    let session = session(args.seed, requests);
    let wal = dir.join("drive.wal");

    let suite = |probe: Option<&Arc<Probe>>| match probe {
        Some(p) => wrap(standard_suite(), p),
        None => standard_suite(),
    };
    let probe = Probe::new();
    let traced = args.trace.then_some(&probe);

    // Set-up: the server with its hosted graphs and tenants. Creating the
    // WAL is left out: it is one fsync, which the shared disk makes too
    // noisy to bound, and `serve.wal_create_ms` reads it.
    let (driven_server, setup) = set_up(|| server(suite(traced), &session))?;
    driven_server.attach_wal(&wal).map_err(|e| format!("creating {}: {e}", wal.display()))?;
    let driven = drive(&driven_server, &session.log);

    let mut report = Report {
        attempted: requests as u64,
        failed: driven.answers.iter().filter(|a| a.is_none()).count() as u64,
        ..Report::default()
    };
    report
        .check(driven_server.log() == session.log, || "driven log differs from the session".into());
    let (read, wal_read_s) = timed(|| Wal::read(&wal));
    let contents = read.map_err(|e| format!("reading {}: {e}", wal.display()))?;
    report.check(contents.entries == session.log, || "WAL entries differ from the session".into());
    let checkpoints = requests as u64 / CHECKPOINT_EVERY;
    report.check(contents.checkpoints.len() as u64 == checkpoints, || {
        format!("the WAL holds {} checkpoints, not {checkpoints}", contents.checkpoints.len())
    });

    if !args.trace {
        // Recover until the run has lasted `--seconds`.
        let left = args.seconds - started.elapsed().as_secs_f64();
        let walls = repeat_for(left, MIN_RECOVERIES, || {
            recover(suite(None), &session, &wal, &driven, &mut report)
        })?;
        report.metric("setup_s", median(&setup), "s");
        report.metric("wall_s", median(&walls), "s");
        return Ok(report);
    }

    let recorded = probe.take();
    recorded.report(&mut report);
    report.metric("serve.requests", requests as f64, "count");
    report.metric("serve.throughput_rps", requests as f64 / driven.secs, "1/s");
    report.metric("serve.latency_p50_ms", percentile(&driven.latency_ms, 0.5), "ms");
    report.metric("serve.latency_p99_ms", percentile(&driven.latency_ms, 0.99), "ms");
    report.metric("serve.overhead_ms.p50", percentile(&driven.overhead_ms, 0.5), "ms");
    report.metric("serve.overhead_ms.p99", percentile(&driven.overhead_ms, 0.99), "ms");
    let measure_s: f64 = recorded.mech.values().map(|t| t.measure_s).sum();
    report.metric("serve.measure_s", measure_s, "s");
    let sample_ms: Vec<f64> = recorded.sample_s.iter().map(|s| s * 1e3).collect();
    report.metric("serve.sample_ms.p50", percentile(&sample_ms, 0.5), "ms");
    let stats = driven_server.cache().stats();
    report.metric("serve.cache.hits", stats.hits as f64, "count");
    report.metric("serve.cache.measures", stats.measures as f64, "count");
    let lookups = (stats.hits + stats.measures + stats.coalesced).max(1);
    report.metric("serve.cache.hit_ratio", stats.hits as f64 / lookups as f64, "ratio");
    drop(driven_server);

    let wal_bytes = std::fs::metadata(&wal).map_err(|e| format!("{}: {e}", wal.display()))?.len();
    report.metric("serve.wal_bytes", wal_bytes as f64, "bytes");
    report.metric("serve.wal_read_s", wal_read_s, "s");

    // Recovery without and with the wrapper: both must reproduce the
    // session the wrapped client saw.
    let untraced = recover(suite(None), &session, &wal, &driven, &mut report)?;
    report.metric("process.peak_rss_mib", peak_rss_mib()?, "MiB");
    let traced = recover(suite(Some(&Probe::new())), &session, &wal, &driven, &mut report)?;
    report.metric("trace.overhead_s", traced - untraced, "s");

    let create_ms = wal_creates(&dir.join("create.wal"))?;
    report.metric("serve.wal_create_ms", median(&create_ms), "ms");
    let append_ms = wal_appends(&dir.join("append.wal"), &session.log)?;
    report.metric("serve.wal_append_ms.p50", percentile(&append_ms, 0.5), "ms");
    report.metric("serve.wal_append_ms.p99", percentile(&append_ms, 0.99), "ms");
    report.metric("serve.admit_us.p50", percentile(&admissions_us(&session), 0.5), "us");
    Ok(report)
}

/// Milliseconds of each of `WAL_CREATES` `Wal::create` calls on `path`.
fn wal_creates(path: &Path) -> Result<Vec<f64>, String> {
    let ms = (0..WAL_CREATES)
        .map(|_| {
            let (created, secs) = timed(|| Wal::create(path));
            created.map(|_| secs * 1e3).map_err(|e| format!("creating {}: {e}", path.display()))
        })
        .collect();
    let _ = std::fs::remove_file(path);
    ms
}

/// Milliseconds of each `Wal::append_admission` of the session's first
/// admissions, on a fresh WAL in the same directory.
fn wal_appends(path: &Path, log: &RequestLog) -> Result<Vec<f64>, String> {
    let mut wal = Wal::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut ms = Vec::new();
    for (id, entry) in log.iter().take(WAL_APPENDS).enumerate() {
        let (appended, secs) = timed(|| wal.append_admission(id as u64, entry));
        appended.map_err(|e| format!("appending to {}: {e}", path.display()))?;
        ms.push(secs * 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_file(path);
    Ok(ms)
}

/// Microseconds of each `TenantAccountant::spend`, in log order, on a
/// scratch accountant with the session's grants.
fn admissions_us(session: &Session) -> Vec<f64> {
    let accountant = TenantAccountant::new();
    for (tenant, grant) in &session.tenants {
        accountant.register(tenant, *grant).expect("fresh scratch tenant registers");
    }
    session
        .log
        .iter()
        .enumerate()
        .map(|(id, e)| {
            let q = &e.request;
            let label =
                format!("req{id:05} {}/{} ε={} seed={}", q.dataset, q.mechanism, q.epsilon, q.seed);
            let (spent, secs) = timed(|| accountant.spend(&e.tenant, label, q.epsilon));
            let _ = std::hint::black_box(spent);
            secs * 1e6
        })
        .collect()
}
