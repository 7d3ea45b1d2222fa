//! `supervised_crawl`: `supervise_crawl` over the popular cohort on four
//! leased shards with a seeded fault script that crashes at least one
//! worker; workers spill epoch-qualified segments, and the supervisor
//! merges them duplicate-safely.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use canvassing_crawler::{
    crawl_with_caches, merge_supervised, supervise_crawl, CrawlConfig, FaultScript, SegmentWriter,
    SiteOutcome, SupervisorConfig, WorkerFault,
};
use canvassing_trace::{EventKind, TraceSink, VisitTrace};

use crate::ledger::{Ledger, Span};
use crate::replay::{replay_rows, serial_visits};
use crate::util::{fault_seed, ms_since, records_digest, Setup};
use crate::{Layers, Rep};

/// Web scale: 0.1 is a 2,000-site popular cohort.
pub const SCALE: f64 = 0.1;
const SHARDS: usize = 4;

/// Per-layer metrics of layers this workload never calls: no detection,
/// folds, attribution, re-crawls or report, no ad-block coverage, and no
/// batch-study probe.
pub const NOT_CALLED: &[&str] = &[
    "blocklist.match_ms",
    "core.detect_ms",
    "core.cluster_ms",
    "core.fold_other_ms",
    "core.finish_ms",
    "core.attribution_ms",
    "core.recrawl_ms",
    "core.recrawl_detect_ms",
    "core.report_ms",
    "core.retained_detections",
    "core.retained_canvas_bytes",
    "crawler.recrawl_ms",
    "crawler.fold_stall_ms",
    "probe.batch_crawl_ms",
    "probe.batch_analyze_ms",
];

fn config(workers: usize) -> CrawlConfig {
    let mut config = CrawlConfig::control();
    config.workers = workers;
    config
}

/// The library's seeded fault mix, plus one scripted crash on a
/// seed-chosen shard so every seed crashes at least one worker.
fn faults(seed: u64) -> FaultScript {
    let s = fault_seed(seed);
    let mut script = FaultScript::seeded(s, SHARDS);
    script.inject(
        (s % SHARDS as u64) as usize,
        1,
        WorkerFault::CrashAtRecord(((s >> 8) % 7) as usize),
    );
    script
}

/// A fresh, empty spill directory.
fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    dir.to_path_buf()
}

/// The measured operation. `dir` is emptied before the crawl; the caller
/// removes it afterwards, outside the timed region.
pub fn run(setup: &Setup, workers: usize, seed: u64, dir: &Path) -> Rep {
    let (ds, _report) = supervise_crawl(
        &setup.web.network,
        &setup.popular,
        &config(workers),
        &fresh_dir(dir),
        &SupervisorConfig::new(SHARDS),
        &faults(seed),
    )
    .unwrap_or_else(|e| panic!("supervised crawl failed: {e}"));
    let failures = ds.failed().count();
    Rep::records(setup.popular.len(), failures, ds.records)
}

/// The independent reference: a direct crawl over the same frontier.
pub fn reference(setup: &Setup, workers: usize) -> String {
    let config = config(workers);
    let (ds, _) = crawl_with_caches(
        &setup.web.network,
        &setup.popular,
        &config,
        &config.build_caches(),
    );
    records_digest(&ds.records)
}

/// Stamps every supervision and spill instant with the wall clock.
#[derive(Default)]
struct WallSink {
    events: Mutex<Vec<(Instant, &'static str)>>,
}

impl TraceSink for WallSink {
    fn consume(&self, trace: VisitTrace) {
        let now = Instant::now();
        if let Ok(mut events) = self.events.lock() {
            for e in trace.events {
                if let EventKind::Instant { name, .. } = e.kind {
                    events.push((now, name));
                }
            }
        }
    }
}

fn spill_files(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            files += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    (files, bytes)
}

/// The traced build: the same supervised crawl with a wall-clock sink on
/// `SupervisorConfig::trace`, then `merge_supervised` over the finished
/// spill directory on its own. Appends emit no instants, so the sink
/// cannot split the tick loop into visits, spill, and supervision; a
/// probe afterwards re-runs one worker's hot loop (`SiteCrawler::visit`
/// then `SegmentWriter::append`) over the frontier to estimate that
/// split.
pub fn traced(
    setup: &Setup,
    workers: usize,
    seed: u64,
    work: &Path,
    ledger: &Ledger,
) -> (String, Layers) {
    let network = &setup.web.network;
    let frontier = &setup.popular;
    let config = config(workers);
    let dir = fresh_dir(&work.join("spill"));
    let sink = Arc::new(WallSink::default());
    let mut sup = SupervisorConfig::new(SHARDS);
    sup.trace = Some(sink.clone() as Arc<dyn TraceSink>);

    let root = ledger.next_id();
    let sup_start = ledger.now_ns();
    let (ds, report) = supervise_crawl(network, frontier, &config, &dir, &sup, &faults(seed))
        .unwrap_or_else(|e| panic!("supervised crawl failed: {e}"));
    let sup_end = ledger.now_ns();
    ledger.push(Span {
        id: root,
        parent: None,
        name: "workload",
        thread: 0,
        start_ns: sup_start,
        end_ns: sup_end,
    });
    // Instants become zero-length spans on the ledger clock. The tick
    // loop runs from the first lease acquired to the last protocol or
    // seal instant; the supervisor's own merge runs from there to the
    // last `segment.merge` instant (one per recovered segment). What
    // neither covers (cache and breaker set-up before the first lease,
    // the merge's gap re-crawl and assembly after the last segment) is
    // the root's self time.
    let (now, now_ns) = (Instant::now(), ledger.now_ns());
    let events: Vec<(u64, &'static str)> = sink
        .events
        .lock()
        .map(|e| e.clone())
        .unwrap_or_default()
        .into_iter()
        .map(|(at, name)| (now_ns - (now - at).as_nanos() as u64, name))
        .collect();
    let last = |pick: &dyn Fn(&str) -> bool| {
        events
            .iter()
            .filter(|(_, n)| pick(n))
            .map(|(t, _)| *t)
            .max()
    };
    let tick_start = events
        .iter()
        .filter(|(_, n)| *n == "lease.acquire")
        .map(|(t, _)| *t)
        .min()
        .unwrap_or(sup_start);
    let tick_end = last(&|n| n != "segment.merge" && n != "segment.skip").unwrap_or(tick_start);
    let merge_end = last(&|n| n == "segment.merge").unwrap_or(tick_end);
    for (name, start_ns, end_ns) in [
        ("supervisor.tick_loop", tick_start, tick_end),
        ("segment.merge_in_supervisor", tick_end, merge_end),
    ] {
        ledger.push(Span {
            id: ledger.next_id(),
            parent: Some(root),
            name,
            thread: 0,
            start_ns,
            end_ns,
        });
    }
    for (t, name) in &events {
        ledger.push(Span {
            id: ledger.next_id(),
            parent: Some(root),
            name,
            thread: 0,
            start_ns: *t,
            end_ns: *t,
        });
    }
    let (files, bytes) = spill_files(&dir);

    let t = Instant::now();
    let merged = merge_supervised(network, frontier, &config, &dir, None)
        .unwrap_or_else(|e| panic!("merge failed: {e}"));
    let merge_ms = ms_since(t);
    let digest = records_digest(&ds.records);
    let merged_ok = records_digest(&merged.0.records) == digest;
    drop(merged);
    let _ = std::fs::remove_dir_all(&dir);

    // Probe: one worker's hot loop, serial like the supervisor's own,
    // with the supervisor's segment size.
    let probe_dir = fresh_dir(&work.join("probe"));
    let mut writer = SegmentWriter::create(
        &probe_dir,
        &config.label,
        &config.device.id,
        0,
        sup.segment_sites,
    )
    .map(|w| w.with_epoch(1))
    .unwrap_or_else(|e| panic!("probe spill failed: {e}"));
    let mut spill_ns = 0u64;
    let probe = serial_visits(network, frontier, &config, |record| {
        let t = Instant::now();
        writer
            .append(record)
            .unwrap_or_else(|e| panic!("probe spill failed: {e}"));
        spill_ns += t.elapsed().as_nanos() as u64;
    });
    let t = Instant::now();
    writer
        .finish()
        .unwrap_or_else(|e| panic!("probe spill failed: {e}"));
    spill_ns += t.elapsed().as_nanos() as u64;
    let _ = std::fs::remove_dir_all(&probe_dir);
    // And the direct crawl the supervised one is compared against.
    let t = Instant::now();
    std::hint::black_box(crawl_with_caches(
        network,
        frontier,
        &config,
        &config.build_caches(),
    ));
    let direct_ms = ms_since(t);

    // Estimates: the visits and appends the tick loop performed, re-done
    // work included, at the probe's per-record cost; supervision is what
    // the tick loop leaves over.
    let tick_ms = (tick_end - tick_start) as f64 / 1e6;
    let scale = report.records_crawled as f64 / frontier.len().max(1) as f64;
    let visit_est = probe.visit_ms() * scale;
    let spill_est = spill_ns as f64 / 1e6 * scale;
    let mut layers = Layers::new(NOT_CALLED);
    layers.set("supervisor.tick_loop_ms", tick_ms);
    layers.set("supervisor.self_ms", tick_ms - visit_est - spill_est);
    layers.set("supervisor.records_redone", report.records_redone as f64);
    layers.set(
        "supervisor.workers_launched",
        report.workers_launched as f64,
    );
    layers.set("supervisor.wasted_work_ratio", report.wasted_work_ratio());
    layers.set(
        "segment.merge_in_supervisor_ms",
        (merge_end - tick_end) as f64 / 1e6,
    );
    layers.set("segment.merge_ms", merge_ms);
    layers.set("segment.spill_ms", spill_est);
    layers.set("segment.files", files as f64);
    layers.set("segment.bytes_written", bytes as f64);
    layers.set(
        "segment.bytes_per_record",
        bytes as f64 / report.records_crawled.max(1) as f64,
    );
    layers.set("crawler.crawl_ms", visit_est);
    layers.set("probe.direct_crawl_ms", direct_ms);
    probe.set_layers(&mut layers);
    if !merged_ok {
        layers.probe_mismatches += 1;
    }
    let failures = ds
        .records
        .iter()
        .filter(|r| matches!(r.outcome, SiteOutcome::Failure(_)))
        .count();
    layers.crawl_stats(&probe.stats, frontier.len(), failures);
    layers.readbacks(&ds.records);
    layers.table(
        "`supervisor.tick_loop` split (probe estimates, supervision as residual)",
        vec![
            ("crawler: visits (probe estimate)".into(), visit_est),
            ("segment: spill (probe estimate)".into(), spill_est),
            (
                "supervisor: residual".into(),
                tick_ms - visit_est - spill_est,
            ),
        ],
        tick_ms,
    );
    let (rows, total) = replay_rows(&layers);
    layers.table(
        "replayed memo computes by layer (visit probe, one thread)",
        rows,
        total,
    );
    (digest, layers)
}
