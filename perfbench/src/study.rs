//! `study`: the paper's full pipeline on the constant-memory path —
//! `run_study_streamed` with the default `StudyOptions` (control crawls
//! of both cohorts, Table 2 ad-block re-crawls, M1 validation,
//! attribution) and the rendered report.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::Instant;

use canvassing::attribution::{attribute, gather_ground_truth, AttributionSources};
use canvassing::blocklist_coverage::CoverageCounts;
use canvassing::study::{analyze_cohort, Table2Row, ValidationResult};
use canvassing::validation::bytecode_triage;
use canvassing::{
    detect, run_study, run_study_streamed, vendor_static_rows, BiasAccounting, ClusterAccumulator,
    Clustering, CohortAnalysis, EvasionStats, Figure1, OverlapStats, PrevalenceAccumulator,
    ScriptVotes, SiteDetection, StreamingOptions, StudyOptions, StudyResults,
};
use canvassing_browser::AdBlockerKind;
use canvassing_crawler::{
    crawl, crawl_streamed_range_until, crawl_with_stats, CrawlConfig, CrawlStats, FailureKind,
    SiteOutcome, SiteRecord,
};
use canvassing_net::Url;
use canvassing_raster::DeviceProfile;
use canvassing_webgen::Cohort;

use crate::ledger::{self, Ledger, Span};
use crate::replay::{replay_rows, serial_visits, VisitProbe};
use crate::util::{ms_since, text_digest, Setup};
use crate::{Layers, Rep};

/// Web scale: 0.1 is 4,000 control sites (2,000 per cohort).
pub const SCALE: f64 = 0.1;

/// Per-layer metrics of layers this workload never calls: no spill or
/// supervision, and no direct-crawl probe.
pub const NOT_CALLED: &[&str] = &[
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
    "probe.direct_crawl_ms",
];

fn options(workers: usize) -> StudyOptions {
    StudyOptions {
        workers,
        ..StudyOptions::default()
    }
}

/// Control sites of both cohorts, and their failure records.
fn control_sites(popular: &CohortAnalysis, tail: &CohortAnalysis) -> (usize, usize) {
    let failures = |c: &CohortAnalysis| c.failures.values().sum::<usize>();
    (
        popular.attempted + tail.attempted,
        failures(popular) + failures(tail),
    )
}

/// The measured operation.
pub fn run(setup: &Setup, workers: usize) -> Rep {
    let results = run_study_streamed(&setup.web, &options(workers), &StreamingOptions::default())
        .unwrap_or_else(|e| panic!("streamed study failed: {e}"));
    let report = results.render_report();
    let (sites, failures) = control_sites(&results.popular, &results.tail);
    Rep::report(sites, failures, report)
}

/// The independent reference: the batch study's report bytes.
pub fn reference(setup: &Setup, workers: usize) -> String {
    text_digest(&run_study(&setup.web, &options(workers)).render_report())
}

/// `CohortAccumulator`, rebuilt from its public components so each
/// component's `absorb` can be timed on its own.
struct TimedCohort {
    attempted: usize,
    failures: BTreeMap<FailureKind, usize>,
    prevalence: PrevalenceAccumulator,
    clusters: ClusterAccumulator,
    evasion: EvasionStats,
    coverage: CoverageCounts,
    votes: ScriptVotes,
    bias: BiasAccounting,
    retained: BTreeMap<String, SiteDetection>,
}

impl TimedCohort {
    fn new() -> TimedCohort {
        TimedCohort {
            attempted: 0,
            failures: BTreeMap::new(),
            prevalence: PrevalenceAccumulator::default(),
            clusters: ClusterAccumulator::default(),
            evasion: EvasionStats::default(),
            coverage: CoverageCounts::default(),
            votes: ScriptVotes::default(),
            bias: BiasAccounting::empty(),
            retained: BTreeMap::new(),
        }
    }

    /// `CohortAccumulator::absorb`, one span per component under one
    /// `crawler.callback` span.
    fn absorb(&mut self, record: &SiteRecord, setup: &Setup, ledger: &Ledger, parent: u64) {
        ledger.time("crawler.callback", Some(parent), |cb| {
            self.attempted += 1;
            match &record.outcome {
                SiteOutcome::Success(visit) => {
                    let det = ledger.time("core.detect", Some(cb), |_| detect(visit));
                    ledger.time("blocklist.match", Some(cb), |_| {
                        self.coverage.absorb(
                            &det,
                            &setup.easylist,
                            &setup.easyprivacy,
                            &setup.disconnect,
                        )
                    });
                    ledger.time("core.cluster", Some(cb), |_| self.clusters.absorb(&det));
                    ledger.time("core.fold_other", Some(cb), |_| {
                        self.prevalence.absorb(&det);
                        self.evasion.absorb(&det);
                        self.votes.absorb(visit, &det);
                        self.bias.absorb(record, Some(&det));
                        if det.is_fingerprinting() {
                            self.retained.insert(det.site.clone(), det);
                        }
                    });
                }
                SiteOutcome::Failure(failure) => {
                    ledger.time("core.fold_other", Some(cb), |_| {
                        *self.failures.entry(failure.kind).or_insert(0) += 1;
                        self.bias.absorb(record, None);
                    });
                }
            }
        });
    }

    fn finish(self, cohort: Cohort, perf: CrawlStats) -> CohortAnalysis {
        CohortAnalysis {
            cohort,
            attempted: self.attempted,
            detections: self.retained.into_values().collect(),
            clustering: self.clusters.finish(),
            prevalence: self.prevalence.finish(self.attempted),
            evasion: self.evasion,
            coverage: self.coverage,
            failures: self.failures,
            bias: self.bias,
            static_dynamic: self.votes.finish(),
            perf,
            bytecode: Default::default(),
        }
    }
}

fn add_stats(into: &mut CrawlStats, from: &CrawlStats) {
    into.sites += from.sites;
    into.script_parses += from.script_parses;
    into.script_compiles += from.script_compiles;
    into.script_cache_hits += from.script_cache_hits;
    into.script_executions += from.script_executions;
    into.memo_hits += from.memo_hits;
    into.memo_computes += from.memo_computes;
    into.memo_bypasses += from.memo_bypasses;
    into.static_analyses += from.static_analyses;
    into.analysis_hits += from.analysis_hits;
}

fn canvases(d: &[SiteDetection]) -> usize {
    d.iter().map(|d| d.canvases.len()).sum()
}

fn fp_sites(d: &[SiteDetection]) -> usize {
    d.iter().filter(|d| d.is_fingerprinting()).count()
}

/// What the traced build measures besides its spans.
#[derive(Default)]
struct Tally {
    stats: CrawlStats,
    sites: usize,
    failures: usize,
    retained: usize,
    retained_bytes: usize,
    readbacks: usize,
    readback_bytes: usize,
}

/// The traced build: the same study, assembled from public calls with a
/// span around each layer. Returns the report digest and layer metrics.
pub fn traced(setup: &Setup, workers: usize, ledger: &Ledger) -> (String, Layers) {
    let mut tally = Tally::default();
    let report = ledger.time("workload", None, |root| {
        traced_build(setup, workers, ledger, root, &mut tally)
    });
    let (batch_crawl_ms, batch_analyze_ms) = batch_probe(setup, workers);
    // Visit probe: the control crawl of each cohort again, one site at a
    // time on fresh caches, with the memo computes replayed.
    let mut control = CrawlConfig::control();
    control.workers = workers;
    let mut probe = VisitProbe::default();
    for frontier in [&setup.popular, &setup.tail] {
        let cohort = serial_visits(&setup.web.network, frontier, &control, |_| {});
        probe.visit_us.extend(cohort.visit_us);
        probe.replay.add(&cohort.replay);
    }
    let spans = ledger.spans();
    let ms = |name: &str| ledger::total_ms(&spans, name);
    let mut layers = Layers::new(NOT_CALLED);
    layers.set(
        "crawler.crawl_ms",
        ms("crawler.crawl") - ms("crawler.callback"),
    );
    layers.set("crawler.fold_stall_ms", ms("crawler.callback"));
    layers.set("core.detect_ms", ms("core.detect"));
    layers.set("blocklist.match_ms", ms("blocklist.match"));
    layers.set("core.cluster_ms", ms("core.cluster"));
    layers.set("core.fold_other_ms", ms("core.fold_other"));
    layers.set("core.finish_ms", ms("core.finish"));
    layers.set("core.attribution_ms", ms("core.attribution"));
    layers.set("core.recrawl_ms", ms("core.recrawl"));
    layers.set("crawler.recrawl_ms", ms("crawler.recrawl"));
    layers.set("core.recrawl_detect_ms", ms("core.recrawl_detect"));
    layers.set("core.report_ms", ms("core.report"));
    layers.set("core.retained_detections", tally.retained as f64);
    layers.set("core.retained_canvas_bytes", tally.retained_bytes as f64);
    layers.set("dom.readbacks", tally.readbacks as f64);
    layers.set("dom.readback_bytes", tally.readback_bytes as f64);
    layers.set("probe.batch_crawl_ms", batch_crawl_ms);
    layers.set("probe.batch_analyze_ms", batch_analyze_ms);
    layers.crawl_stats(&tally.stats, tally.sites, tally.failures);
    probe.set_layers(&mut layers);
    let (rows, total) = replay_rows(&layers);
    layers.table(
        "replayed memo computes by layer (visit probe, one thread)",
        rows,
        total,
    );
    // Triage is the corpus passes plus the probe's first-sight triage.
    layers.set(
        "analysis.triage_ms",
        ms("analysis.triage") + layers.get("analysis.triage_ms"),
    );
    (text_digest(&report), layers)
}

/// Probe for the streamed-vs-batch comparison: the batch path's two
/// control crawls, then its two cohort analyses, each phase timed whole.
fn batch_probe(setup: &Setup, workers: usize) -> (f64, f64) {
    let mut control = CrawlConfig::control();
    control.workers = workers;
    let t = Instant::now();
    let popular = crawl_with_stats(&setup.web.network, &setup.popular, &control).0;
    let tail = crawl_with_stats(&setup.web.network, &setup.tail, &control).0;
    let crawl_ms = ms_since(t);
    let t = Instant::now();
    for (cohort, ds) in [(Cohort::Popular, &popular), (Cohort::Tail, &tail)] {
        std::hint::black_box(analyze_cohort(
            cohort,
            ds,
            &setup.easylist,
            &setup.easyprivacy,
            &setup.disconnect,
        ));
    }
    (crawl_ms, ms_since(t))
}

fn traced_build(
    setup: &Setup,
    workers: usize,
    ledger: &Ledger,
    root: u64,
    tally: &mut Tally,
) -> String {
    let web = &setup.web;
    let options = options(workers);
    let mut control = CrawlConfig::control();
    control.workers = options.workers;
    control.engine = options.engine;

    let mut stream = |cohort: Cohort, frontier: &[Url]| -> CohortAnalysis {
        let caches = control.build_caches();
        let mut acc = TimedCohort::new();
        let entry = ledger.next_id();
        let start_ns = ledger.now_ns();
        let stats = crawl_streamed_range_until(
            &web.network,
            frontier,
            &control,
            &caches,
            0..frontier.len(),
            StreamingOptions::default().chunk_sites,
            |_, record| {
                if let SiteOutcome::Success(visit) = &record.outcome {
                    tally.readbacks += visit.extractions.len();
                    tally.readback_bytes += visit
                        .extractions
                        .iter()
                        .map(|e| e.data_url.len())
                        .sum::<usize>();
                }
                acc.absorb(&record, setup, ledger, entry);
                ControlFlow::Continue(())
            },
        );
        ledger.push(Span {
            id: entry,
            parent: Some(root),
            name: "crawler.crawl",
            thread: 0,
            start_ns,
            end_ns: ledger.now_ns(),
        });
        add_stats(&mut tally.stats, &stats);
        tally.retained += acc.retained.len();
        tally.retained_bytes += acc
            .retained
            .values()
            .flat_map(|d| d.canvases.iter().map(|c| c.data_url.len()))
            .sum::<usize>();
        let mut analysis = ledger.time("core.finish", Some(root), |_| acc.finish(cohort, stats));
        analysis.bytecode = ledger.time("analysis.triage", Some(root), |_| {
            bytecode_triage(&web.network, frontier)
        });
        analysis
    };
    let popular = stream(Cohort::Popular, &setup.popular);
    let tail = stream(Cohort::Tail, &setup.tail);
    (tally.sites, tally.failures) = control_sites(&popular, &tail);

    let attribution = ledger.time("core.attribution", Some(root), |_| {
        let sources = AttributionSources {
            demos: web.demo_pages(),
            customers: web.known_customers(),
        };
        let truth = gather_ground_truth(&web.network, &sources, &DeviceProfile::intel_ubuntu());
        attribute(
            &web.network,
            &truth,
            &popular.detections,
            &tail.detections,
            &popular.clustering,
            &tail.clustering,
        )
    });

    let (table2, validation) = ledger.time("core.recrawl", Some(root), |recrawl| {
        let mut table2 = vec![Table2Row {
            label: "Control".into(),
            canvases: (canvases(&popular.detections), canvases(&tail.detections)),
            sites: (fp_sites(&popular.detections), fp_sites(&tail.detections)),
        }];
        // Each re-crawl is a crawl (crawler layer) then detect (core).
        let crawl_det = |config: &CrawlConfig, frontier: &[Url]| -> Vec<SiteDetection> {
            let ds = ledger.time("crawler.recrawl", Some(recrawl), |_| {
                crawl(&web.network, frontier, config)
            });
            ledger.time("core.recrawl_detect", Some(recrawl), |_| {
                ds.successful().map(|(_, v)| detect(v)).collect()
            })
        };
        for kind in [AdBlockerKind::AdblockPlus, AdBlockerKind::UblockOrigin] {
            let mut config = CrawlConfig::with_adblocker(kind, &web.lists.easylist);
            config.workers = options.workers;
            config.engine = options.engine;
            let (p, t) = (
                crawl_det(&config, &setup.popular),
                crawl_det(&config, &setup.tail),
            );
            table2.push(Table2Row {
                label: kind.name().into(),
                canvases: (canvases(&p), canvases(&t)),
                sites: (fp_sites(&p), fp_sites(&t)),
            });
        }
        let mut config = CrawlConfig::with_device(DeviceProfile::apple_m1());
        config.workers = options.workers;
        config.engine = options.engine;
        let m1_det = crawl_det(&config, &setup.popular);
        let validation = ledger.time("core.recrawl_detect", Some(recrawl), |_| {
            let m1_clustering = Clustering::build(m1_det.iter());
            let urls = |c: &Clustering| -> std::collections::BTreeSet<String> {
                c.clusters.iter().map(|c| c.data_url.clone()).collect()
            };
            let (intel_urls, m1_urls) = (urls(&popular.clustering), urls(&m1_clustering));
            ValidationResult {
                canvases_differ: intel_urls.is_disjoint(&m1_urls) || intel_urls != m1_urls,
                partitions_match: popular.clustering.site_partition()
                    == m1_clustering.site_partition(),
                unique_canvases: (
                    popular.clustering.unique_canvases(),
                    m1_clustering.unique_canvases(),
                ),
            }
        });
        (table2, Some(validation))
    });

    ledger.time("core.report", Some(root), |_| {
        StudyResults {
            figure1: Figure1::build(&popular.clustering, &tail.clustering, 50),
            overlap: OverlapStats::compute(&popular.clustering, &tail.clustering),
            popular,
            tail,
            attribution,
            table2,
            validation,
            vendor_static: vendor_static_rows(),
            defense_sweep: Vec::new(),
            serving: None,
        }
        .render_report()
    })
}
