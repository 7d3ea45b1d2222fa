//! Probes for the layers a visit hides: a forwarding `script::Host` that
//! times every host call by method, replays of visits through it, and the
//! serial visit probe the memo workloads use.
//!
//! A probe re-runs the same public calls the crawl made, outside the
//! traced build's root span, so its time counts toward neither
//! `trace.overhead_ratio` nor `trace.unattributed_ms`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use canvassing_analysis::AnalysisCache;
use canvassing_browser::{DefenseMode, PageVisit, ScriptCache};
use canvassing_crawler::{
    BreakerPlan, CrawlConfig, CrawlStats, SiteCrawler, SiteOutcome, SiteRecord,
};
use canvassing_dom::Document;
use canvassing_net::{Network, Resource, ScriptRef, Url};
use canvassing_raster::{content_hash, DeviceProfile, SurfacePool};
use canvassing_script::{
    run_compiled_with_budget, Host, HostRef, RuntimeError, Value, DEFAULT_STEP_BUDGET,
};

use crate::ledger::Rows;
use crate::util::percentile;
use crate::Layers;

/// Host-call time by category, accumulated by [`TimedHost`] and the
/// replay around it (ns unless noted).
#[derive(Default, Clone, Copy)]
pub struct ReplayTimes {
    pub total: u64,
    pub fetch: u64,
    pub fetches: u64,
    pub triage: u64,
    pub compile: u64,
    pub exec: u64,
    pub draw: u64,
    pub readback: u64,
    pub readbacks: u64,
    pub dom_other: u64,
    pub mismatches: u64,
}

impl ReplayTimes {
    pub fn add(&mut self, o: &ReplayTimes) {
        self.total += o.total;
        self.fetch += o.fetch;
        self.fetches += o.fetches;
        self.triage += o.triage;
        self.compile += o.compile;
        self.exec += o.exec;
        self.draw += o.draw;
        self.readback += o.readback;
        self.readbacks += o.readbacks;
        self.dom_other += o.dom_other;
        self.mismatches += o.mismatches;
    }

    /// The replay's layer metrics, plus the visit time it splits
    /// (`visit_ms`, summed over threads) and what the split leaves over.
    pub fn set_layers(&self, layers: &mut Layers, visit_ms: f64) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let host = self.draw + self.readback + self.dom_other;
        layers.set("browser.visit_thread_ms", visit_ms);
        layers.set("probe.replay_thread_ms", ms(self.total));
        layers.set("browser.self_ms", visit_ms - ms(self.total));
        layers.set("net.fetch_ms", ms(self.fetch));
        layers.set("net.fetches", self.fetches as f64);
        layers.set("analysis.triage_ms", ms(self.triage));
        layers.set("script.compile_lookup_ms", ms(self.compile));
        layers.set("script.vm_self_ms", ms(self.exec.saturating_sub(host)));
        layers.set("raster.draw_ms", ms(self.draw));
        layers.set("dom.readback_ms", ms(self.readback));
        layers.set("dom.host_other_ms", ms(self.dom_other));
        layers.probe_mismatches += self.mismatches as usize;
    }
}

/// The replay's rows: its own time, summed over threads, by layer.
pub fn replay_rows(layers: &Layers) -> (Rows, f64) {
    let names = [
        "dom.readback_ms",
        "raster.draw_ms",
        "script.vm_self_ms",
        "dom.host_other_ms",
        "net.fetch_ms",
        "analysis.triage_ms",
        "script.compile_lookup_ms",
    ];
    let total = layers.get("probe.replay_thread_ms");
    let mut rows: Rows = names
        .iter()
        .map(|n| (n.to_string(), layers.get(n)))
        .collect();
    let covered: f64 = rows.iter().map(|r| r.1).sum();
    rows.push((
        "replay residual (document set-up, comparison)".into(),
        total - covered,
    ));
    (rows, total)
}

/// A forwarding `Host` around `dom::Document` that times every host call
/// by method: canvas read-backs (`toDataURL`, `getImageData`: PNG,
/// checksums, base64), document-level calls and property traffic, and
/// everything else on a 2D context, which is drawing.
struct TimedHost<'a> {
    doc: &'a mut Document,
    t: &'a mut ReplayTimes,
}

impl TimedHost<'_> {
    fn other<R>(&mut self, f: impl FnOnce(&mut Document) -> R) -> R {
        let start = Instant::now();
        let out = f(self.doc);
        self.t.dom_other += start.elapsed().as_nanos() as u64;
        out
    }
}

impl Host for TimedHost<'_> {
    fn global(&mut self, name: &str) -> Option<Value> {
        self.other(|d| d.global(name))
    }

    fn get_prop(&mut self, obj: HostRef, name: &str) -> Result<Value, RuntimeError> {
        self.other(|d| d.get_prop(obj, name))
    }

    fn set_prop(&mut self, obj: HostRef, name: &str, value: Value) -> Result<(), RuntimeError> {
        self.other(|d| d.set_prop(obj, name, value))
    }

    fn call_method(
        &mut self,
        obj: HostRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let start = Instant::now();
        let out = self.doc.call_method(obj, method, args);
        let ns = start.elapsed().as_nanos() as u64;
        match method {
            "toDataURL" | "getImageData" => {
                self.t.readback += ns;
                self.t.readbacks += 1;
            }
            "createElement" | "getContext" | "getElementById" | "querySelector" | "toBlob" => {
                self.t.dom_other += ns
            }
            _ => self.t.draw += ns,
        }
        out
    }
}

/// The defense the browser installs for `page`: the configured seed
/// mixed with the page host, exactly as a visit does it.
fn page_defense(defense: DefenseMode, page: &Url) -> DefenseMode {
    let mut defense = defense;
    if let DefenseMode::RandomizePerRender { seed } | DefenseMode::RandomizePerSession { seed } =
        &mut defense
    {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in page.host.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        *seed ^= h;
    }
    defense
}

fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_nanos() as u64;
    out
}

/// One script a page runs: its source, the URL it is attributed to, and
/// the fetch latency the document clock advances by before it runs.
struct PageScript {
    source: String,
    attributed: String,
    latency_ms: u64,
}

/// What replaying a visit needs besides the visit: the crawl's inputs and
/// one worker's caches.
pub struct Replayer<'a> {
    pub network: &'a Network,
    pub device: &'a DeviceProfile,
    pub defense: DefenseMode,
    pub scripts: &'a ScriptCache,
    pub analysis: &'a AnalysisCache,
    pub pool: Arc<SurfacePool>,
}

impl Replayer<'_> {
    /// Fetches the page and its external scripts as the visit did, and
    /// triages each body. Returns the page's load latency, whether it
    /// shows a consent banner, and its scripts in order.
    fn fetch_scripts(
        &self,
        visit: &PageVisit,
        t: &mut ReplayTimes,
    ) -> Option<(u64, bool, Vec<PageScript>)> {
        t.fetches += 1;
        let resp = timed(&mut t.fetch, || self.network.fetch(&visit.page)).ok()?;
        let Resource::Page(page) = resp.resource else {
            return None;
        };
        let page_url = visit.page.to_string();
        let mut out = Vec::with_capacity(page.scripts.len());
        for script in &page.scripts {
            let script = match script {
                ScriptRef::Inline { source, .. } => PageScript {
                    source: source.clone(),
                    attributed: page_url.clone(),
                    latency_ms: 0,
                },
                ScriptRef::External(url) => {
                    t.fetches += 1;
                    match timed(&mut t.fetch, || self.network.fetch(url)) {
                        Ok(resp) => match resp.resource {
                            Resource::Script(s) => PageScript {
                                source: s.source,
                                attributed: url.to_string(),
                                latency_ms: resp.latency_ms,
                            },
                            Resource::Page(_) => continue,
                        },
                        Err(_) => continue,
                    }
                }
            };
            timed(&mut t.triage, || {
                self.analysis.analyze(&script.source, Some(self.scripts))
            });
            out.push(script);
        }
        Some((resp.latency_ms, page.consent_banner, out))
    }

    /// Runs `source` on `doc` through [`TimedHost`], resolving it through
    /// the compile cache.
    fn execute(&self, doc: &mut Document, source: &str, t: &mut ReplayTimes) {
        let Ok(exec) = timed(&mut t.compile, || self.scripts.get_or_compile(source)) else {
            return;
        };
        let start = Instant::now();
        let mut host = TimedHost { doc, t: &mut *t };
        run_compiled_with_budget(&exec.bytecode, &mut host, DEFAULT_STEP_BUDGET);
        t.exec += start.elapsed().as_nanos() as u64;
    }

    /// Replays one successful visit's (page, script) pairs in place on a
    /// fresh document, as a visit that bypasses the render memo runs
    /// them, and checks that it extracts the same canvases the crawl
    /// recorded. Adds its whole duration to `t.total`.
    pub fn replay_in_place(&self, visit: &PageVisit, t: &mut ReplayTimes) {
        let start = Instant::now();
        match self.fetch_scripts(visit, t) {
            None => t.mismatches += 1,
            Some((latency_ms, consent_banner, scripts)) => {
                let mut doc = Document::with_pool(self.device.clone(), Arc::clone(&self.pool));
                doc.set_defense(page_defense(self.defense, &visit.page).build());
                doc.advance_clock(latency_ms);
                if consent_banner {
                    doc.advance_clock(350);
                }
                for script in &scripts {
                    doc.advance_clock(script.latency_ms);
                    doc.set_current_script(&script.attributed);
                    self.execute(&mut doc, &script.source, t);
                }
                let replayed = doc.extractions().iter().map(|e| e.data_url.as_str());
                let recorded = visit.extractions.iter().map(|e| e.data_url.as_str());
                if !replayed.eq(recorded) {
                    t.mismatches += 1;
                }
            }
        }
        t.total += start.elapsed().as_nanos() as u64;
    }

    /// Replays the render-memo computes one successful visit caused: each
    /// script body not in `seen` runs once on a fresh scratch document,
    /// as the memo's canonical render does. Every canvas the visit
    /// recorded must be among the canvases computed so far. Adds its
    /// whole duration to `t.total`.
    pub fn replay_memo_computes(
        &self,
        visit: &PageVisit,
        seen: &mut HashSet<u64>,
        canvases: &mut HashSet<String>,
        t: &mut ReplayTimes,
    ) {
        let start = Instant::now();
        match self.fetch_scripts(visit, t) {
            None => t.mismatches += 1,
            Some((_, _, scripts)) => {
                for script in &scripts {
                    if !seen.insert(content_hash(script.source.as_bytes())) {
                        continue;
                    }
                    let mut doc = Document::new(self.device.clone());
                    doc.set_current_script("");
                    self.execute(&mut doc, &script.source, t);
                    canvases.extend(doc.extractions().iter().map(|e| e.data_url.clone()));
                }
                if !visit
                    .extractions
                    .iter()
                    .all(|e| canvases.contains(&e.data_url))
                {
                    t.mismatches += 1;
                }
            }
        }
        t.total += start.elapsed().as_nanos() as u64;
    }
}

/// What [`serial_visits`] measured.
#[derive(Default)]
pub struct VisitProbe {
    pub visit_us: Vec<f64>,
    pub replay: ReplayTimes,
    pub stats: CrawlStats,
}

impl VisitProbe {
    pub fn visit_ms(&self) -> f64 {
        self.visit_us.iter().sum::<f64>() / 1e3
    }

    /// Visit percentiles and the replay split of visit time.
    pub fn set_layers(&self, layers: &mut Layers) {
        let mut us = self.visit_us.clone();
        layers.set("browser.visit_samples", us.len() as f64);
        layers.set("browser.visit_p50_us", percentile(&mut us, 0.50));
        layers.set("browser.visit_p99_us", percentile(&mut us, 0.99));
        self.replay.set_layers(layers, self.visit_ms());
    }
}

/// Probe for crawls whose render memo is on: visits `frontier` one site
/// at a time through `SiteCrawler::visit` on fresh caches, as one crawl
/// worker does, timing each visit. After each visit, `each` gets the
/// record, and the memo computes it caused are replayed through
/// [`TimedHost`] to split visit time into layers.
pub fn serial_visits(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    mut each: impl FnMut(&SiteRecord),
) -> VisitProbe {
    let caches = config.build_caches();
    let plan = BreakerPlan::plan(network, frontier, config);
    let crawler = SiteCrawler::new(network, frontier, config, &caches, plan.as_ref());
    let analysis = AnalysisCache::new();
    let scripts = caches
        .scripts
        .clone()
        .unwrap_or_else(|| Arc::new(ScriptCache::new()));
    let replayer = Replayer {
        network,
        device: &config.device,
        defense: config.defense,
        scripts: &scripts,
        analysis: &analysis,
        pool: Arc::new(SurfacePool::new()),
    };
    let (mut seen, mut canvases) = (HashSet::new(), HashSet::new());
    let mut probe = VisitProbe {
        visit_us: Vec::with_capacity(frontier.len()),
        ..VisitProbe::default()
    };
    for i in 0..frontier.len() {
        let t = Instant::now();
        let record = crawler.visit(i);
        probe.visit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        each(&record);
        if let SiteOutcome::Success(visit) = &record.outcome {
            replayer.replay_memo_computes(visit, &mut seen, &mut canvases, &mut probe.replay);
        }
    }
    probe.stats = CrawlStats::snapshot(&caches);
    probe
}
