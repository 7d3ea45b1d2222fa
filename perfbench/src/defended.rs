//! `defended_crawl`: the popular cohort crawled under per-render canvas
//! randomization, then `detect` and `Clustering::build` — the E13
//! defense-sweep row. The render memo is bypassed under any defense, so
//! every visit runs the VM, rasterizes, and encodes its canvases.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use canvassing::{detect, Clustering, SiteDetection};
use canvassing_analysis::AnalysisCache;
use canvassing_browser::{DefenseMode, PageVisit, ScriptCache};
use canvassing_crawler::{
    crawl, BreakerPlan, CrawlConfig, CrawlStats, SiteCrawler, SiteOutcome, SiteRecord,
};
use canvassing_raster::SurfacePool;

use crate::ledger::{self, Ledger, Span};
use crate::replay::{ReplayTimes, Replayer};
use crate::util::{percentile, records_digest, Setup};
use crate::{Layers, Rep};

/// Web scale: 0.2 is a 4,000-site popular cohort.
pub const SCALE: f64 = 0.2;

/// Per-layer metrics of layers this workload never calls: no ad-block
/// coverage, no streamed fold, attribution, re-crawl or report, no
/// spill or supervision, and neither the batch-study nor the
/// direct-crawl probe.
pub const NOT_CALLED: &[&str] = &[
    "blocklist.match_ms",
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
    "segment.spill_ms",
    "segment.merge_ms",
    "segment.merge_in_supervisor_ms",
    "segment.bytes_written",
    "segment.bytes_per_record",
    "segment.files",
    "supervisor.tick_loop_ms",
    "supervisor.self_ms",
    "supervisor.records_redone",
    "supervisor.workers_launched",
    "supervisor.wasted_work_ratio",
    "probe.batch_crawl_ms",
    "probe.batch_analyze_ms",
    "probe.direct_crawl_ms",
];

/// The E13 per-render noise row's configuration.
fn config(workers: usize) -> CrawlConfig {
    let mut config = CrawlConfig::control();
    config.label = "defense-per-render noise".into();
    config.workers = workers;
    config.defense = DefenseMode::RandomizePerRender { seed: 1 };
    config
}

fn detections(records: &[SiteRecord]) -> Vec<SiteDetection> {
    records
        .iter()
        .filter_map(|r| match &r.outcome {
            SiteOutcome::Success(v) => Some(detect(v)),
            SiteOutcome::Failure(_) => None,
        })
        .collect()
}

/// The measured operation.
pub fn run(setup: &Setup, workers: usize) -> Rep {
    let ds = crawl(&setup.web.network, &setup.popular, &config(workers));
    std::hint::black_box(Clustering::build(detections(&ds.records).iter()).unique_canvases());
    let failures = ds.failed().count();
    Rep::records(setup.popular.len(), failures, ds.records)
}

/// The independent reference: the same crawl on one worker.
pub fn reference(setup: &Setup) -> String {
    records_digest(&crawl(&setup.web.network, &setup.popular, &config(1)).records)
}

/// Runs `job(worker, claim)` on `workers` threads, where `claim` hands
/// out the indices `0..n` from one shared atomic cursor (the crawler's own
/// scheduling shape). Returns each worker's result.
fn fan_out<T: Send>(
    workers: usize,
    n: usize,
    job: impl Fn(usize, &mut dyn FnMut() -> Option<usize>) -> T + Sync,
) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let cursor = &cursor;
                let job = &job;
                scope.spawn(move || {
                    let mut claim = || {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        (i < n).then_some(i)
                    };
                    job(w, &mut claim)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    })
}

/// The traced build: the crawl re-driven site by site through
/// `SiteCrawler::visit` (each visit a span), then detect and cluster;
/// afterwards a replay probe splits visit time into host-call layers.
pub fn traced(setup: &Setup, workers: usize, ledger: &Ledger) -> (String, Layers) {
    let network = &setup.web.network;
    let frontier = &setup.popular;
    let config = config(workers);
    let caches = config.build_caches();
    let plan = BreakerPlan::plan(network, frontier, &config);
    let slots: Vec<OnceLock<SiteRecord>> = (0..frontier.len()).map(|_| OnceLock::new()).collect();

    let (records, stats) = ledger.time("workload", None, |root| {
        ledger.time("crawler.crawl", Some(root), |crawl_id| {
            let batches = fan_out(workers, frontier.len(), |w, claim| {
                let crawler = SiteCrawler::new(network, frontier, &config, &caches, plan.as_ref());
                let mut spans = Vec::new();
                while let Some(i) = claim() {
                    let start_ns = ledger.now_ns();
                    let record = crawler.visit(i);
                    spans.push(Span {
                        id: ledger.next_id(),
                        parent: Some(crawl_id),
                        name: "browser.visit",
                        thread: w + 1,
                        start_ns,
                        end_ns: ledger.now_ns(),
                    });
                    let _ = slots[i].set(record);
                }
                spans
            });
            for batch in batches {
                ledger.extend(batch);
            }
        });
        let records: Vec<SiteRecord> = slots.into_iter().filter_map(OnceLock::into_inner).collect();
        let stats = CrawlStats::snapshot(&caches);

        let detections = ledger.time("core.detect", Some(root), |_| detections(&records));
        ledger.time("core.cluster", Some(root), |_| {
            std::hint::black_box(Clustering::build(detections.iter()).unique_canvases())
        });
        (records, stats)
    });
    let spans = ledger.spans();

    // Replay probe, outside the traced build's root: same threads, fresh
    // triage cache (so first sight of each body is timed), the crawl's
    // warm compile cache (compiles are counted by the crawl itself).
    let visits: Vec<&PageVisit> = records
        .iter()
        .filter_map(|r| match &r.outcome {
            SiteOutcome::Success(v) => Some(&**v),
            SiteOutcome::Failure(_) => None,
        })
        .collect();
    let analysis = AnalysisCache::new();
    let scripts = caches
        .scripts
        .clone()
        .unwrap_or_else(|| Arc::new(ScriptCache::new()));
    let mut times = ReplayTimes::default();
    for part in fan_out(workers, visits.len(), |_, claim| {
        // One surface pool per worker, as the crawler gives its workers.
        let replayer = Replayer {
            network,
            device: &config.device,
            defense: config.defense,
            scripts: &scripts,
            analysis: &analysis,
            pool: Arc::new(SurfacePool::new()),
        };
        let mut t = ReplayTimes::default();
        while let Some(i) = claim() {
            replayer.replay_in_place(visits[i], &mut t);
        }
        t
    }) {
        times.add(&part);
    }

    let mut visit_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "browser.visit")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let visit_ms: f64 = visit_us.iter().sum::<f64>() / 1e3;

    let mut layers = Layers::new(NOT_CALLED);
    layers.set(
        "crawler.crawl_ms",
        ledger::total_ms(&spans, "crawler.crawl"),
    );
    layers.set("core.detect_ms", ledger::total_ms(&spans, "core.detect"));
    layers.set("core.cluster_ms", ledger::total_ms(&spans, "core.cluster"));
    layers.set("browser.visit_samples", visit_us.len() as f64);
    layers.set("browser.visit_p50_us", percentile(&mut visit_us, 0.50));
    layers.set("browser.visit_p99_us", percentile(&mut visit_us, 0.99));
    times.set_layers(&mut layers, visit_ms);
    let sites = records.len();
    let failures = records
        .iter()
        .filter(|r| matches!(r.outcome, SiteOutcome::Failure(_)))
        .count();
    layers.crawl_stats(&stats, sites, failures);
    layers.readbacks(&records);
    let (rows, total) = crate::replay::replay_rows(&layers);
    layers.table(
        "replayed visit time by layer (in place, summed over workers)",
        rows,
        total,
    );
    (records_digest(&records), layers)
}
