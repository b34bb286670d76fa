//! Seeded light → validation → archival pipeline benchmark.
//!
//! ```text
//! biot-perfbench --workload <ingest_burst|read_trickle|attack_mix>
//!                --seed <n> --seconds <s> --trace <0|1> [--prepare 1]
//! ```
//!
//! `--prepare 1` only generates and caches the corpus, then exits: a run
//! that measures then always loads its corpus from the cache, so the heap
//! it starts from (and `peak_rss_mb`) does not depend on whether an
//! earlier run already made the corpus.
//!
//! Generates (or loads from the cache) the seeded corpus, boots the
//! validation and archival nodes in one event loop on a virtual clock,
//! drives the closed loop over loopback sockets, checks every output
//! against the in-process twin and the archival node's oracle, and prints
//! each metric by name with its unit. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics` — the end-to-end
//! metrics untraced, the per-layer ones with `--trace 1`. See README.md.

mod corpus;
mod rig;
mod stats;
mod trace;

use corpus::{Class, Corpus, Params, QueryKind, Workload};
use rig::{Finished, PhaseResult, Rig, Wire};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Closed-loop steps of one repetition.
///
/// The archival and the validation node's gossip tangle are never sealed,
/// so attach work grows with the ledger and per-step latency rises through
/// a repetition. The burst workloads therefore repeat a short corpus on
/// fresh boots until `seconds` of timed work is done and report medians
/// over the repetitions: every repetition covers the whole latency curve,
/// and a slow host shortens the run's repetition count rather than
/// lengthening the run. `read_trickle`, whose boot alone takes seconds,
/// runs one repetition whose step count is scaled to `seconds` instead
/// (about 0.13 ms per query step on a 2-vCPU x86-64 VM, plus the disk's
/// `fdatasync` time for the transactions).
fn steps_for(w: Workload, seconds: u64) -> usize {
    match w {
        Workload::IngestBurst => 4,
        Workload::AttackMix => 16,
        Workload::ReadTrickle => seconds.max(1) as usize * 4_000,
    }
}

/// Fewest repetitions a burst-workload run makes, whatever the time.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut prepare = false;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => trace = Some(val == "1"),
            "--prepare" => prepare = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        prepare,
    })
}

/// (VmRSS, VmHWM) in KiB, from `/proc/self/status`.
fn memory_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount) = left.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fs) = right.split_whitespace().next() else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|b| mount.len() >= b.0) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |b| b.1)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Builds (once per corpus) the deep store `read_trickle` boots from.
fn deep_store(c: &Corpus, cache: &Path) -> Result<Option<PathBuf>, String> {
    if c.deep.is_empty() {
        return Ok(None);
    }
    let dir = cache.join(format!(
        "{}-s{}-n{}.store",
        c.workload.name(),
        c.seed,
        c.params.steps
    ));
    let done = dir.join("complete");
    if !done.exists() {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let mut store = biot_store::LedgerStore::open(&dir).map_err(|e| e.to_string())?;
        store
            .checkpoint(&corpus::deep_tangle(c))
            .map_err(|e| e.to_string())?;
        drop(store);
        std::fs::write(&done, b"").map_err(|e| e.to_string())?;
    }
    Ok(Some(dir))
}

/// Boots one system from a fresh store directory (a copy of the deep store
/// when there is one). Returns it with the boot's wall seconds; the copy
/// is made before the clock starts.
fn boot<'c>(
    c: &'c Corpus,
    work: &Path,
    deep: Option<&Path>,
    tag: &str,
) -> Result<(Rig<'c>, f64), String> {
    let dir = work.join(format!("store-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    match deep {
        Some(src) => copy_dir(src, &dir).map_err(|e| e.to_string())?,
        None => std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?,
    }
    let t = Instant::now();
    let rig = Rig::boot(c, dir, deep)?;
    Ok((rig, t.elapsed().as_secs_f64()))
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), (value, unit));
}

/// End-to-end metrics. The query figures are `read_trickle`'s: on the
/// burst workloads one probe rides each closed-loop step, so their query
/// rate is the step rate and their query latency is reported per layer.
/// Every figure but `setup_s` and `peak_rss_mb` is a median over the run's
/// segments (repetitions, or eighths of a `read_trickle` phase) of that
/// segment's own rate or latency median, so one slow window of the host
/// does not move it. A median of samples
/// pooled over repetitions would not do: a repetition's latencies cluster
/// by closed-loop step, and the pooled median sits on the gap between two
/// clusters, where it reads an extreme of one of them.
fn end_to_end(w: Workload, res: &PhaseResult, setup: &[f64], peak_mb: f64) -> Metrics {
    let seg = |f: fn(&rig::Segment) -> f64| {
        stats::median(&res.segments.iter().map(f).collect::<Vec<_>>())
    };
    let mut m = Metrics::new();
    put(&mut m, "setup_s", stats::median(setup), "s");
    put(&mut m, "tx_per_s", seg(|s| s.tx_per_s), "1/s");
    put(&mut m, "ack_p50_ms", seg(|s| s.ack_p50_ms), "ms");
    put(&mut m, "visible_p50_ms", seg(|s| s.visible_p50_ms), "ms");
    if w == Workload::ReadTrickle {
        put(&mut m, "query_per_s", seg(|s| s.query_per_s), "1/s");
        put(&mut m, "query_p50_ms", seg(|s| s.query_p50_ms), "ms");
    }
    put(&mut m, "peak_rss_mb", peak_mb, "MB");
    m
}

/// Per-layer metrics from an untraced phase (`plain`), a traced phase of
/// the same corpus (`traced`), the finished traced system, and timed
/// replays of single layers outside the phase.
fn per_layer(
    c: &Corpus,
    deep: Option<&Path>,
    plain: &PhaseResult,
    traced: &PhaseResult,
    fin: &mut Finished<'_>,
) -> Result<(Metrics, trace::Tracer), String> {
    let mut m = Metrics::new();
    let txs = traced.txs.max(1) as f64;
    let reqs = traced.queries.max(1) as f64;
    let tracer = traced.tracer.as_ref().ok_or("traced phase has no spans")?;
    let totals = tracer.totals();
    let self_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    let phase_us = traced.phase_s * 1e6;

    put(
        &mut m,
        "loop.turn_us_per_tx",
        plain.loop_ns as f64 / 1e3 / plain.txs.max(1) as f64,
        "us",
    );
    put(
        &mut m,
        "loop.wakeups_per_tx",
        plain.wakeups as f64 / plain.txs.max(1) as f64,
        "count",
    );
    put(
        &mut m,
        "loop.idle_wall_ms",
        plain.idle_ns as f64 / 1e6,
        "ms",
    );
    put(
        &mut m,
        "loop.wake_self_us_per_tx",
        self_us("wake") / txs,
        "us",
    );
    put(
        &mut m,
        "validation.on_ingest_us_per_tx",
        self_us("validation.on_ingest") / txs,
        "us",
    );
    put(
        &mut m,
        "ingest.busy_share",
        self_us("validation.on_ingest") / phase_us,
        "ratio",
    );
    put(
        &mut m,
        "validation.on_gossip_us_per_tx",
        self_us("validation.on_gossip") / txs,
        "us",
    );
    put(
        &mut m,
        "archival.on_gossip_us_per_tx",
        self_us("archival.on_gossip") / txs,
        "us",
    );
    put(
        &mut m,
        "archival.on_persist_us_per_tx",
        self_us("archival.on_persist") / txs,
        "us",
    );
    put(
        &mut m,
        "archival.on_http_us_per_req",
        self_us("archival.on_http") / reqs,
        "us",
    );
    let driver: f64 = totals
        .iter()
        .filter(|(k, _)| k.starts_with("driver."))
        .map(|(_, t)| t.self_ns as f64 / 1e3)
        .sum();
    put(&mut m, "driver_us_per_tx", driver / txs, "us");
    let covered: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == u32::MAX)
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .sum();
    put(
        &mut m,
        "trace.unaccounted_share",
        (phase_us - covered).max(0.0) / phase_us,
        "ratio",
    );
    put(
        &mut m,
        "trace_overhead_share",
        (traced.phase_s - plain.phase_s) / plain.phase_s,
        "ratio",
    );

    let n = fin.counters();
    for (name, v) in n.rejected {
        put(
            &mut m,
            format!("gateway.rejected.{name}"),
            v as f64,
            "count",
        );
    }
    put(
        &mut m,
        "gateway.lazy_punished",
        n.lazy_punished as f64,
        "count",
    );
    put(
        &mut m,
        "tangle.frontier_len",
        n.frontier_len as f64,
        "count",
    );
    put(&mut m, "tangle.sealed_len", n.sealed_len as f64, "count");
    put(
        &mut m,
        "credit.events_per_tx",
        n.credit_events as f64 / txs,
        "count",
    );
    put(
        &mut m,
        "gossip.frames_per_tx",
        n.gossip_frames as f64 / txs,
        "count",
    );
    put(
        &mut m,
        "gossip.tx_sent_per_tx",
        n.gossip_tx_sent as f64 / txs,
        "count",
    );
    put(
        &mut m,
        "gossip.duplicates",
        n.gossip_duplicates as f64,
        "count",
    );
    put(
        &mut m,
        "gossip.credit_events_sent",
        n.gossip_credit_sent as f64,
        "count",
    );
    put(
        &mut m,
        "credit.replica_divergent_devices",
        traced.credit_divergent as f64,
        "count",
    );
    put(
        &mut m,
        "http.resp_bytes_per_req",
        traced.resp_bytes as f64 / reqs,
        "B",
    );

    // Store: WAL footprint, segment count, and a timed read-only recovery.
    let (mut wal_bytes, mut segments) = (0u64, 0u64);
    for e in std::fs::read_dir(fin.store_dir()).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("wal") && name.ends_with(".biot") {
            wal_bytes += e.metadata().map_err(|e| e.to_string())?.len();
            segments += 1;
        }
    }
    let persisted = fin.archival_len().saturating_sub(2 + c.deep.len()).max(1);
    put(
        &mut m,
        "store.wal_bytes_per_tx",
        wal_bytes as f64 / persisted as f64,
        "B",
    );
    put(&mut m, "store.segments", segments as f64, "count");
    // Snapshot recovery, as a boot performs it: of the deep store, or of
    // this run's archival store once checkpointed. Measured after the
    // WAL counts above.
    let boot_store = match deep {
        Some(dir) => dir.to_path_buf(),
        None => {
            fin.checkpoint()?;
            fin.store_dir().to_path_buf()
        }
    };
    let t = Instant::now();
    let store = biot_store::LedgerStore::open_read_only(&boot_store).map_err(|e| e.to_string())?;
    std::hint::black_box(store.recover_full().map_err(|e| e.to_string())?);
    put(&mut m, "store.recover_s", t.elapsed().as_secs_f64(), "s");

    // Twin replays of single layers, each call in a span of its own.
    let mut replay = trace::Tracer::new();
    let history = (!c.deep.is_empty()).then(|| corpus::deep_tangle(c));
    let mut gw = corpus::build_gateway(c, history.clone());
    let mut mismatched = 0usize;
    for s in &c.steps {
        let now = biot_net::time::SimTime::from_millis(s.at_ms);
        if s.refresh {
            gw.refresh(now);
        }
        for f in &s.frames {
            let batch: Vec<_> = f.txs.iter().map(|t| t.tx.clone()).collect();
            let got = replay.span("twin.submit_batch", || gw.submit_batch(batch, now));
            mismatched += got
                .iter()
                .zip(&f.txs)
                .filter(|(g, w)| corpus::ack_code(g) != w.ack)
                .count();
        }
        gw.take_broadcasts();
        gw.take_credit_events();
    }
    if mismatched > 0 {
        return Err(format!(
            "twin replay: {mismatched} acks differ from the corpus"
        ));
    }
    let mut tangle = history.unwrap_or_else(|| {
        let mut t = biot_tangle::graph::Tangle::new();
        t.attach_genesis(biot_core::identity::node_id_of(&c.manager_pk), 0);
        t.attach(c.auth_tx.clone(), 0).expect("auth list attaches");
        t
    });
    for s in &c.steps {
        for spec in s.frames.iter().flat_map(|f| &f.txs).filter(|t| t.ack == 0) {
            let tx = spec.tx.clone();
            let _ = replay.span("twin.attach", || tangle.attach(tx, s.at_ms));
        }
    }
    let log = fin.credit_log();
    let mut ledger = biot_credit::CreditLedger::new(biot_credit::CreditParams::default());
    for ev in &log {
        replay.span("twin.credit_apply", || ledger.apply(ev));
    }
    for k in 0..16u64 {
        for id in c.device_ids() {
            let at = biot_net::time::SimTime::from_millis(c.end_ms - k * 97);
            std::hint::black_box(replay.span("twin.credit_of", || ledger.credit_of(id, at)));
        }
    }
    const RENDER: [&str; 5] = [
        "twin.render.tx",
        "twin.render.weight",
        "twin.render.credit",
        "twin.render.tips",
        "twin.render.stats",
    ];
    // One representative request per endpoint, about the last accepted
    // honest transaction and its issuer, rendered 200 times each.
    let last = c
        .txs()
        .filter(|t| t.ack == 0 && t.class == Class::Honest)
        .last()
        .ok_or("no accepted honest transaction")?;
    let (id, dev) = (
        corpus::hex(&last.tx.id().0),
        corpus::hex(last.tx.issuer.as_bytes()),
    );
    let paths = [
        (format!("/v1/tx/{id}"), String::new()),
        (format!("/v1/weight/{id}"), String::new()),
        (format!("/v1/credit/{dev}"), format!("at_ms={}", c.end_ms)),
        ("/v1/tips".to_string(), String::new()),
        ("/v1/stats".to_string(), String::new()),
    ];
    for ((kind, span), (path, query)) in QueryKind::ALL.into_iter().zip(RENDER).zip(paths) {
        let q = corpus::QuerySpec { kind, path, query };
        for _ in 0..200 {
            std::hint::black_box(replay.span(span, || fin.oracle(&q)));
        }
    }
    let twin = replay.totals();
    let mean_us = |name: &str| {
        twin.get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let total_us = |name: &str| twin.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    put(
        &mut m,
        "gateway.submit_us_per_tx",
        total_us("twin.submit_batch") / txs,
        "us",
    );
    put(
        &mut m,
        "tangle.attach_us_per_tx",
        mean_us("twin.attach"),
        "us",
    );
    put(
        &mut m,
        "credit.apply_us_per_event",
        mean_us("twin.credit_apply"),
        "us",
    );
    put(
        &mut m,
        "credit.credit_of_us",
        mean_us("twin.credit_of"),
        "us",
    );
    for (kind, span) in QueryKind::ALL.into_iter().zip(RENDER) {
        put(
            &mut m,
            format!("api.render_us.{}", kind.name()),
            mean_us(span),
            "us",
        );
    }

    let honest = c.mean_trials(Class::Honest);
    let attacker = c.mean_trials(Class::Attacker);
    put(&mut m, "pow.trials_per_tx.honest", honest, "count");
    put(&mut m, "pow.trials_per_tx.attacker", attacker, "count");
    put(
        &mut m,
        "attacker_pow_x",
        if honest > 0.0 { attacker / honest } else { 0.0 },
        "ratio",
    );
    // Query latency: a probe per step gives the burst workloads too few
    // samples for a gated p99 (and their query rate is the step rate), so
    // it is reported here, the tail at the highest percentile with ten
    // samples beyond it.
    let (pct, value) = stats::tail(&plain.query_ms).unwrap_or((0.0, 0.0));
    put(&mut m, "query_p50_ms", stats::median(&plain.query_ms), "ms");
    put(
        &mut m,
        "query_p99_ms",
        stats::percentile(&plain.query_ms, 99.0),
        "ms",
    );
    put(&mut m, "query_tail_pct", pct, "%");
    put(&mut m, "query_tail_ms", value, "ms");
    put(
        &mut m,
        "query_samples",
        plain.query_ms.len() as f64,
        "count",
    );
    // The visibility tail rides on per-transaction fsyncs of the store, whose
    // latency on a shared disk did not repeat within the bound, so it is
    // reported here rather than gated.
    put(
        &mut m,
        "visible_p99_ms",
        stats::percentile(&plain.visible_ms, 99.0),
        "ms",
    );
    put(
        &mut m,
        "visible_samples",
        plain.visible_ms.len() as f64,
        "count",
    );
    Ok((m, replay))
}

fn json_metrics(m: &Metrics) -> String {
    let parts: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work_root = root.join(".perfbench_work");
    let cache = work_root.join("corpus");
    let work = work_root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;

    let trickle = args.workload == Workload::ReadTrickle;
    let segments = if trickle { 8 } else { 1 };
    let params = Params::for_workload(args.workload, steps_for(args.workload, args.seconds));
    let t = Instant::now();
    let (c, cached) = Corpus::load_or_generate(&cache, args.workload, args.seed, params);
    let deep = deep_store(&c, &cache)?;
    let wire = Wire::encode(&c);
    let corpus_s = t.elapsed().as_secs_f64();
    if args.prepare {
        println!(
            "corpus {} seed {} ready in {corpus_s:.3} s (cached: {cached})",
            args.workload.name(),
            args.seed
        );
        let _ = std::fs::remove_dir_all(&work);
        return Ok(0);
    }
    let (rss0, _) = memory_kib();

    let store_fs = fs_type(&work);
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"host_cores\": {}, \
         \"commit\": \"{}\", \"clock\": \"virtual\", \"link_delay_ms\": 0, \"store_fs\": \"{store_fs}\", \
         \"store_on_tmpfs\": {}, \"corpus_cached\": {cached}, \"corpus_s\": {corpus_s:.3}, \"steps\": {}, \"txs\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("BIOT_PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        store_fs == "tmpfs",
        c.steps.len(),
        c.txs().count(),
    );
    println!("stamp {stamp}");
    if store_fs != "tmpfs" {
        eprintln!(
            "note: the store directory is on {store_fs}, not tmpfs: every WAL fsync reaches the disk \
             and its latency is part of the figures"
        );
    }

    // Untraced repetitions on fresh boots (one when traced: it is the
    // baseline the traced repetition's overhead is measured against).
    let mut setup = Vec::new();
    let mut plain = PhaseResult::default();
    let wall = Instant::now();
    for r in 0.. {
        let (rig, secs) = boot(&c, &work, deep.as_deref(), &format!("a{r}"))?;
        setup.push(secs);
        let (res, fin) = rig.run(&wire, false, segments)?;
        let dir = fin.store_dir().to_path_buf();
        drop(fin);
        let _ = std::fs::remove_dir_all(dir);
        plain.absorb(res);
        let enough = plain.phase_s >= args.seconds as f64 && r + 1 >= MIN_REPS;
        if args.trace || trickle || enough {
            break;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let (_, hwm) = memory_kib();
    let peak_mb = hwm.saturating_sub(rss0) as f64 / 1024.0;
    let mut failed = plain.failed;
    let mut failures = plain.failures.clone();
    let mut attempted = plain.attempted;

    let metrics = if args.trace {
        let (rig, _) = boot(&c, &work, deep.as_deref(), "b")?;
        let (traced, mut fin) = rig.run(&wire, true, 1)?;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());
        attempted += traced.attempted;
        let (metrics, replay) = per_layer(&c, deep.as_deref(), &plain, &traced, &mut fin)?;
        let stem = format!("trace-{}-s{}", args.workload.name(), args.seed);
        let phase_path = work_root.join(format!("{stem}.tsv"));
        let replay_path = work_root.join(format!("{stem}-replays.tsv"));
        traced
            .tracer
            .as_ref()
            .expect("traced")
            .write(&phase_path)
            .map_err(|e| e.to_string())?;
        replay.write(&replay_path).map_err(|e| e.to_string())?;
        println!(
            "spans written to {} and {}",
            phase_path.display(),
            replay_path.display()
        );
        metrics
    } else {
        end_to_end(args.workload, &plain, &setup, peak_mb)
    };

    if args.workload == Workload::AttackMix {
        let x = c.mean_trials(Class::Attacker) / c.mean_trials(Class::Honest).max(1e-9);
        println!("attacker_pow_x {x} (mean PoW trials per admitted attacker tx / honest tx)");
        if x <= 1.0 {
            failed += 1;
            failures.push(format!("attacker_pow_x {x} is not above 1"));
        }
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "credit replica check: {} device(s) differ between the validation ledger and the archival replica",
        plain.credit_divergent
    );
    println!(
        "timed phase {:.3} s ({wall_s:.3} s with boots) in {} repetition(s); \
         loop idle wall {:.3} ms over {} wakes; setup boots {:?} s; failed_share {failed_share}",
        plain.phase_s,
        setup.len(),
        plain.idle_ns as f64 / 1e6,
        plain.wakeups,
        setup
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    if let Some([q1, q2, q3]) = stats::quartiles(&plain.ack_ms) {
        println!(
            "ack ms quartiles {q1:.3} / {q2:.3} / {q3:.3} over {} samples",
            plain.ack_ms.len()
        );
    }
    if let Some((p, v)) = stats::tail(&plain.visible_ms) {
        println!(
            "visible p{p} {v:.3} ms over {} samples",
            plain.visible_ms.len()
        );
    }
    let spread = |f: fn(&rig::Segment) -> f64| {
        let v: Vec<f64> = plain.segments.iter().map(f).collect();
        stats::quartiles(&v).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2)
    };
    println!(
        "segment spread (quartile distance / median over {} segments): tx_per_s {:.3}, \
         ack_p50_ms {:.3}, visible_p50_ms {:.3}, query_p50_ms {:.3}",
        plain.segments.len(),
        spread(|s| s.tx_per_s),
        spread(|s| s.ack_p50_ms),
        spread(|s| s.visible_p50_ms),
        spread(|s| s.query_p50_ms),
    );
    for (k, (v, u)) in &metrics {
        println!("{k:<34} {v:>18.6} {u}");
    }
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let _ = std::fs::write(
        work_root.join(format!(
            "result-{}-s{}-t{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        )),
        format!(
            "{{\"stamp\": {stamp}, \"repetitions\": {}, \"phase_s\": {}, \"wall_s\": {wall_s}, \"failed\": {failed}, \"metrics\": {}}}\n",
            setup.len(),
            plain.phase_s,
            json_metrics(&metrics)
        ),
    );
    let _ = std::fs::remove_dir_all(&work);
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let code = match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
