//! Shared plumbing: command-line arguments, process counters, digests,
//! statistics, the workload set-up phase, and the flat JSON line every
//! mode prints.

use std::collections::BTreeMap;
use std::time::Instant;

use canvassing_blocklist::{DisconnectList, FilterList};
use canvassing_crawler::SiteRecord;
use canvassing_net::Url;
use canvassing_raster::content_hash;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// Parsed `perfbench <mode> --workload W --seed N [--seconds S] [--out DIR]`.
pub struct Args {
    pub mode: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub out: std::path::PathBuf,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it.next().ok_or("missing mode")?;
        let mut args = Args {
            mode,
            workload: String::new(),
            seed: 2025,
            seconds: 10.0,
            out: std::path::PathBuf::from(".bench_build/perfbench-out"),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--out" => args.out = value.into(),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

/// Worker threads for every crawl: one per available core. The library
/// default of 8 is deliberately overridden so the load matches the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seed for the supervised crawl's fault script, derived from the one
/// `--seed` argument so webgen and the fault plan move together.
pub fn fault_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED_FA17
}

/// Process user+sys CPU time in ms, all threads (`/proc/self/stat`).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after_comm) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of stat (utime, stime) in clock ticks of 10 ms.
    (tick(11) + tick(12)) * 10.0
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mb`] reads the peak since now.
/// Returns false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Digest of a record stream: each record's JSON, in order. Records are
/// serialized one at a time, so hashing never holds the whole dataset as
/// text.
pub fn records_digest<'a>(records: impl IntoIterator<Item = &'a SiteRecord>) -> String {
    let mut h = 0u64;
    for record in records {
        let json =
            serde_json::to_string(record).unwrap_or_else(|e| format!("<unserializable {e}>"));
        h = content_hash(&(h ^ content_hash(json.as_bytes())).to_le_bytes());
    }
    format!("{h:016x}")
}

pub fn text_digest(text: &str) -> String {
    format!("{:016x}", content_hash(text.as_bytes()))
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Everything a workload needs before its first crawl: the generated web,
/// the parsed blocklists, and the frontiers.
pub struct Setup {
    pub web: SyntheticWeb,
    pub easylist: FilterList,
    pub easyprivacy: FilterList,
    pub disconnect: DisconnectList,
    pub popular: Vec<Url>,
    pub tail: Vec<Url>,
    /// Wall ms of each phase: webgen, list parsing, frontier build.
    pub generate_ms: f64,
    pub parse_ms: f64,
    pub frontier_ms: f64,
}

impl Setup {
    pub fn build(seed: u64, scale: f64) -> Setup {
        let t = Instant::now();
        let web = SyntheticWeb::generate(WebConfig { seed, scale });
        let generate_ms = ms_since(t);
        let t = Instant::now();
        let easylist = FilterList::parse("EasyList", &web.lists.easylist);
        let easyprivacy = FilterList::parse("EasyPrivacy", &web.lists.easyprivacy);
        let disconnect = DisconnectList::parse(&web.lists.disconnect);
        let parse_ms = ms_since(t);
        let t = Instant::now();
        let popular = web.frontier(Cohort::Popular);
        let tail = web.frontier(Cohort::Tail);
        let frontier_ms = ms_since(t);
        Setup {
            web,
            easylist,
            easyprivacy,
            disconnect,
            popular,
            tail,
            generate_ms,
            parse_ms,
            frontier_ms,
        }
    }

    pub fn total_s(&self) -> f64 {
        (self.generate_ms + self.parse_ms + self.frontier_ms) / 1e3
    }
}

/// One JSON object on one line: string, number, and pre-rendered fields.
#[derive(Default)]
pub struct JsonLine {
    fields: BTreeMap<String, String>,
}

impl JsonLine {
    pub fn num(&mut self, key: &str, value: f64) -> &mut JsonLine {
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "0".into()
        };
        self.fields.insert(key.to_string(), v);
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut JsonLine {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if (c as u32) < 0x20 => vec![' '],
                c => vec![c],
            })
            .collect();
        self.fields
            .insert(key.to_string(), format!("\"{escaped}\""));
        self
    }

    /// Inserts `rendered`, already valid JSON, as the value of `key`.
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut JsonLine {
        self.fields.insert(key.to_string(), rendered);
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
