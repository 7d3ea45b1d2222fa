//! `perfbench` — the measurement pipeline's benchmark binary.
//!
//! ```text
//! perfbench measure   --workload W --seed N --seconds S [--out DIR]
//! perfbench reference --workload W --seed N
//! perfbench trace     --workload W --seed N --seconds S [--out DIR]
//! ```
//!
//! Workloads: `study`, `defended_crawl`, `supervised_crawl` (see
//! `WORKLOADS.md`). Every mode prints one JSON object as its last
//! stdout line; `run.py` turns those into the benchmark's result line.
//!
//! * `measure` repeats set-up plus workload until `--seconds` have
//!   passed, reporting the median set-up time (set-up runs
//!   `SETUP_SAMPLES` times before each repetition), the median rate and
//!   CPU cost per site, peak RSS, the failure share, and the output
//!   digest of every repetition (all must agree).
//! * `reference` computes the independent reference digest in its own
//!   process, so it can never raise the measured process's peak RSS.
//! * `trace` alternates an untraced repetition with a traced build of the
//!   same work until `--seconds` have passed, and reports the per-layer
//!   metrics of the traced build with the median wall time, plus the
//!   ledger's own overhead and coverage gap. That build's spans go to
//!   `DIR/spans-<workload>-<seed>.jsonl`, and its layer tables to
//!   `DIR/table-<workload>-<seed>.md` and to stderr.
//!
//! `measure` and `trace` print their metrics under `metrics`; `trace`
//! also lists under `not_called` the per-layer metrics of layers the
//! workload never calls. `run.py` checks both against `BENCHMARK.json`.

mod defended;
mod ledger;
mod replay;
mod study;
mod supervised;
mod util;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use canvassing_crawler::{CrawlStats, SiteOutcome, SiteRecord};

use crate::ledger::{Ledger, Rows, Span};
use crate::util::{
    cpu_ms, median, nproc, peak_rss_mb, records_digest, reset_peak_rss, text_digest, Args,
    JsonLine, Setup,
};

/// What one repetition produced: the sites it attempted, the failure
/// records among them, and the output the check digests.
pub struct Rep {
    sites: usize,
    failures: usize,
    output: Output,
}

enum Output {
    Report(String),
    Records(Vec<SiteRecord>),
}

impl Rep {
    pub fn report(sites: usize, failures: usize, report: String) -> Rep {
        Rep {
            sites,
            failures,
            output: Output::Report(report),
        }
    }

    pub fn records(sites: usize, failures: usize, records: Vec<SiteRecord>) -> Rep {
        Rep {
            sites,
            failures,
            output: Output::Records(records),
        }
    }

    fn digest(&self) -> String {
        match &self.output {
            Output::Report(text) => text_digest(text),
            Output::Records(records) => records_digest(records),
        }
    }
}

/// Per-layer metrics of one traced build, by name, with the layers the
/// workload never calls, the probes' output mismatches, and the extra
/// tables the workload's probes give.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    not_called: &'static [&'static str],
    pub probe_mismatches: usize,
    tables: Vec<(String, Rows, f64)>,
}

impl Layers {
    pub fn new(not_called: &'static [&'static str]) -> Layers {
        Layers {
            not_called,
            ..Layers::default()
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds a table of `rows` (label, ms) against `total` ms.
    pub fn table(&mut self, title: &str, rows: Rows, total: f64) {
        self.tables.push((title.to_string(), rows, total));
    }

    /// Scheduler, cache, and triage counters from the crawl's stats.
    pub fn crawl_stats(&mut self, stats: &CrawlStats, sites: usize, failures: usize) {
        self.set("crawler.sites", sites as f64);
        self.set("crawler.failures", failures as f64);
        self.set("script.parses", stats.script_parses as f64);
        self.set("script.compiles", stats.script_compiles as f64);
        self.set("script.executions", stats.script_executions as f64);
        self.set("script.cache_hit_rate", stats.script_cache_hit_rate());
        self.set("browser.memo_hit_rate", stats.memo_hit_rate());
        self.set("analysis.analyses", stats.static_analyses as f64);
    }

    /// `toDataURL` results the records carry, and their bytes.
    pub fn readbacks(&mut self, records: &[SiteRecord]) {
        let (mut n, mut bytes) = (0usize, 0usize);
        for r in records {
            if let SiteOutcome::Success(v) = &r.outcome {
                n += v.extractions.len();
                bytes += v
                    .extractions
                    .iter()
                    .map(|e| e.data_url.len())
                    .sum::<usize>();
            }
        }
        self.set("dom.readbacks", n as f64);
        self.set("dom.readback_bytes", bytes as f64);
    }
}

/// How many times `measure` sets up before each repetition: set-up is
/// short, so several samples per repetition steady its median.
const SETUP_SAMPLES: usize = 5;

fn scale(workload: &str) -> Option<f64> {
    match workload {
        "study" => Some(study::SCALE),
        "defended_crawl" => Some(defended::SCALE),
        "supervised_crawl" => Some(supervised::SCALE),
        _ => None,
    }
}

fn run_once(args: &Args, setup: &Setup, workers: usize, work: &Path) -> Rep {
    match args.workload.as_str() {
        "study" => study::run(setup, workers),
        "defended_crawl" => defended::run(setup, workers),
        _ => supervised::run(setup, workers, args.seed, &work.join("spill")),
    }
}

fn measure(args: &Args, scale: f64, workers: usize, work: &Path) -> JsonLine {
    let start = Instant::now();
    let (mut rates, mut cpu_per_site, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut peaks = Vec::new();
    let (mut digest, mut mismatches, mut reps) = (None::<String>, 0usize, 0usize);
    let (mut sites, mut failures) = (0usize, 0usize);
    while reps < 3 || start.elapsed().as_secs_f64() < args.seconds {
        // Every repetition sets up afresh, so set-up time is sampled
        // across the whole run, like the workload itself. Each sample is
        // dropped before the next is built, so at most one web is alive.
        let mut setup = Setup::build(args.seed, scale);
        setup_s.push(setup.total_s());
        for _ in 1..SETUP_SAMPLES {
            drop(setup);
            setup = Setup::build(args.seed, scale);
            setup_s.push(setup.total_s());
        }
        // Peak RSS is taken per repetition, set-up included, so it does
        // not grow with the number of repetitions a run fits in.
        let reset = reset_peak_rss();
        let (cpu0, t0) = (cpu_ms(), Instant::now());
        let rep = run_once(args, &setup, workers, work);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu = cpu_ms() - cpu0;
        if reset {
            peaks.push(peak_rss_mb());
        }
        reps += 1;
        (sites, failures) = (rep.sites, rep.failures);
        rates.push(rep.sites as f64 / wall_s);
        cpu_per_site.push(cpu / rep.sites.max(1) as f64);
        eprintln!(
            "perfbench: {} rep {reps}: {:.0} ms wall, {:.0} ms cpu, {} sites, {:.0} MB peak",
            args.workload,
            wall_s * 1e3,
            cpu,
            rep.sites,
            peak_rss_mb()
        );
        let d = rep.digest();
        drop((rep, setup));
        let _ = std::fs::remove_dir_all(work.join("spill"));
        match &digest {
            None => digest = Some(d),
            Some(first) if *first != d => mismatches += 1,
            Some(_) => {}
        }
    }
    let mut metrics = JsonLine::default();
    metrics
        .num("sites_per_s", median(&rates))
        .num("cpu_ms_per_site", median(&cpu_per_site))
        .num(
            "peak_rss_mb",
            if peaks.is_empty() {
                peak_rss_mb()
            } else {
                median(&peaks)
            },
        )
        .num("setup_s", median(&setup_s))
        .num("failed_share", failures as f64 / sites.max(1) as f64);
    let mut line = JsonLine::default();
    line.str("digest", digest.as_deref().unwrap_or(""))
        .num("reps", reps as f64)
        .num("mismatches", mismatches as f64)
        .raw("metrics", metrics.render());
    line
}

fn trace(args: &Args, scale: f64, workers: usize, work: &Path) -> JsonLine {
    // Set-up once; its phase times are reported as layer metrics.
    let setup = Setup::build(args.seed, scale);
    let start = Instant::now();
    let mut samples: Vec<(f64, Layers, Vec<Span>)> = Vec::new();
    let (mut digest, mut mismatches) = (String::new(), 0usize);
    // One untimed repetition first, so the first pair is not the one that
    // pays for cold page faults and allocator growth.
    drop(run_once(args, &setup, workers, work));
    let _ = std::fs::remove_dir_all(work.join("spill"));
    while samples.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let rep = run_once(args, &setup, workers, work);
        let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;
        let untraced_digest = rep.digest();
        drop(rep);
        let _ = std::fs::remove_dir_all(work.join("spill"));

        let ledger = Ledger::default();
        let (traced_digest, mut layers) = match args.workload.as_str() {
            "study" => study::traced(&setup, workers, &ledger),
            "defended_crawl" => defended::traced(&setup, workers, &ledger),
            _ => supervised::traced(&setup, workers, args.seed, work, &ledger),
        };
        let spans = ledger.spans();
        let (traced_ms, wall) = ledger::wall_rows(&spans).unwrap_or_default();
        let unattributed_ms = wall
            .iter()
            .find(|(name, _)| name == ledger::UNATTRIBUTED)
            .map_or(0.0, |r| r.1);
        layers.set("webgen.generate_ms", setup.generate_ms);
        layers.set("blocklist.parse_ms", setup.parse_ms);
        layers.set("crawler.frontier_ms", setup.frontier_ms);
        layers.set("trace.overhead_ratio", traced_ms / untraced_ms);
        layers.set("trace.unattributed_ms", unattributed_ms);
        layers.set("trace.untraced_ms", untraced_ms);
        layers.set("trace.traced_ms", traced_ms);
        let probe_bad = layers.probe_mismatches > 0;
        if digest.is_empty() {
            digest = untraced_digest.clone();
        }
        if traced_digest != untraced_digest || untraced_digest != digest || probe_bad {
            mismatches += 1;
        }
        layers.tables.insert(
            0,
            (
                "`workload` wall time by span (self time, driving thread)".into(),
                wall,
                traced_ms,
            ),
        );
        samples.push((traced_ms, layers, spans));
    }
    // Report the traced build with the median wall time, whole: its layer
    // rows then partition its own wall time exactly. The overhead ratio is
    // the median over all pairs, as one pair's ratio carries both sides'
    // noise.
    let pairs = samples.len();
    let ratios: Vec<f64> = samples
        .iter()
        .map(|(_, l, _)| l.get("trace.overhead_ratio"))
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, mut layers, spans) = samples.swap_remove(pairs / 2);
    layers.set("trace.overhead_ratio", median(&ratios));
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = ledger::write_jsonl(&path, &spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let tables: Vec<String> = layers
        .tables
        .iter()
        .map(|(title, rows, total)| ledger::render_table(title, rows, *total))
        .collect();
    let tables = tables.join("\n");
    eprintln!("{tables}");
    let path = args
        .out
        .join(format!("table-{}-{}.md", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, &tables) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let mut metrics = JsonLine::default();
    for (name, value) in &layers.values {
        metrics.num(name, *value);
    }
    let not_called: Vec<String> = layers
        .not_called
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let mut line = JsonLine::default();
    line.str("digest", &digest)
        .num("reps", pairs as f64)
        .num("mismatches", mismatches as f64)
        .raw("metrics", metrics.render())
        .raw("not_called", format!("[{}]", not_called.join(", ")));
    line
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(scale) = scale(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let workers = nproc();
    let work = args.out.join(format!("work-{}", std::process::id()));
    let line = match args.mode.as_str() {
        "measure" => measure(&args, scale, workers, &work),
        "trace" => trace(&args, scale, workers, &work),
        "reference" => {
            let setup = Setup::build(args.seed, scale);
            let digest = match args.workload.as_str() {
                "study" => study::reference(&setup, workers),
                "defended_crawl" => defended::reference(&setup),
                _ => supervised::reference(&setup, workers),
            };
            let mut line = JsonLine::default();
            line.str("digest", &digest);
            line
        }
        other => {
            eprintln!("perfbench: unknown mode {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    println!("{}", line.render());
}
