//! Ablation benchmarks for the design choices DESIGN.md §4 calls out:
//! clustering key (full data URL vs 64-bit hash), detection heuristic
//! ordering, and regex-engine cost for Imperva-style attribution.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// The offline criterion stub models `Criterion` as a unit struct.
#![allow(clippy::default_constructed_unit_structs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;

use canvassing::detect::{detect, SiteDetection};
use canvassing_crawler::{crawl, CrawlConfig};
use canvassing_regexlite::Regex;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

fn detections() -> Vec<SiteDetection> {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 33,
        scale: 0.05,
    });
    let frontier = web.frontier(Cohort::Popular);
    crawl(&web.network, &frontier, &CrawlConfig::control())
        .successful()
        .map(|(_, v)| detect(v))
        .collect()
}

/// Clustering-key ablation: exact data-URL keys (collision-free, matching
/// the paper's "exactly the same output") vs bare 64-bit content hashes
/// (faster, but a collision would merge clusters). The pipeline's
/// `ClusterAccumulator` keys on the hash and compares the bytes on a hit.
fn bench_cluster_key(c: &mut Criterion) {
    let dets = detections();
    let mut group = c.benchmark_group("ablations/cluster_key");
    group.bench_function("full_data_url", |b| {
        b.iter(|| {
            let mut map: BTreeMap<&str, usize> = BTreeMap::new();
            for d in &dets {
                for canvas in &d.canvases {
                    *map.entry(canvas.data_url.as_str()).or_default() += 1;
                }
            }
            black_box(map.len())
        })
    });
    group.bench_function("u64_hash", |b| {
        b.iter(|| {
            let mut map: BTreeMap<u64, usize> = BTreeMap::new();
            for d in &dets {
                for canvas in &d.canvases {
                    *map.entry(canvas.hash).or_default() += 1;
                }
            }
            black_box(map.len())
        })
    });
    group.finish();
}

/// The two keys must agree on cluster counts for the generated web
/// (otherwise the hash ablation would be unsound).
fn bench_key_agreement(c: &mut Criterion) {
    let dets = detections();
    c.bench_function("ablations/key_agreement_check", |b| {
        b.iter(|| {
            let mut by_url = std::collections::BTreeSet::new();
            let mut by_hash = std::collections::BTreeSet::new();
            for d in &dets {
                for canvas in &d.canvases {
                    by_url.insert(canvas.data_url.as_str());
                    by_hash.insert(canvas.hash);
                }
            }
            assert_eq!(by_url.len(), by_hash.len());
            black_box(by_url.len())
        })
    });
}

/// Imperva attribution regex over a batch of URLs.
fn bench_imperva_regex(c: &mut Criterion) {
    let re = Regex::new(canvassing_vendors::IMPERVA_URL_REGEX).unwrap();
    let urls: Vec<String> = (0..100)
        .map(|i| format!("https://site{i}.example/Token-Word{i}/init.js"))
        .collect();
    c.bench_function("ablations/imperva_regex_100_urls", |b| {
        b.iter(|| {
            let mut hits = 0;
            for u in &urls {
                if re.captures(u).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
}

/// Blocklist matcher ablation: the linear per-rule scan kept as the
/// test oracle vs the token-indexed matcher the pipeline uses, over the
/// generated EasyList corpus.
fn bench_blocklist_matcher(c: &mut Criterion) {
    use canvassing_blocklist::{FilterList, RequestContext};
    use canvassing_net::{ResourceType, Url};

    let web = SyntheticWeb::generate(WebConfig {
        seed: 33,
        scale: 0.3,
    });
    let list = FilterList::parse("EasyList", &web.lists.easylist);
    let urls: Vec<Url> = (0..40)
        .map(|i| Url::parse(&format!("https://ads{i}-delivery.com/fp.js")).unwrap())
        .chain((0..40).map(|i| Url::parse(&format!("https://clean{i}.example/app.js")).unwrap()))
        .collect();
    let contexts: Vec<RequestContext> = urls
        .iter()
        .map(|u| RequestContext::new(u, ResourceType::Script, false, "page.example"))
        .collect();

    let mut group = c.benchmark_group("ablations/blocklist_matcher");
    group.bench_function("linear_oracle", |b| {
        b.iter(|| {
            let blocked = contexts
                .iter()
                .filter(|ctx| list.evaluate_linear(ctx).is_block())
                .count();
            black_box(blocked)
        })
    });
    group.bench_function("token_indexed", |b| {
        b.iter(|| {
            let blocked = contexts
                .iter()
                .filter(|ctx| list.evaluate(ctx).is_block())
                .count();
            black_box(blocked)
        })
    });
    group.finish();
}

criterion_group! {
    name = ablation_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cluster_key, bench_key_agreement, bench_imperva_regex, bench_blocklist_matcher
}
criterion_main!(ablation_benches);
