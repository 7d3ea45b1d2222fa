//! Blocklist engine benchmarks: rule parsing and per-request matching
//! over a realistically sized EasyList corpus (the §5.1 static check runs
//! once per canvas; the §5.2 extensions run once per script request).

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]
// The offline criterion stub models `Criterion` as a unit struct.
#![allow(clippy::default_constructed_unit_structs)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use canvassing_blocklist::{FilterList, RequestContext};
use canvassing_net::{ResourceType, Url};
use canvassing_webgen::{SyntheticWeb, WebConfig};

fn corpus() -> String {
    SyntheticWeb::generate(WebConfig {
        seed: 42,
        scale: 0.2,
    })
    .lists
    .easylist
}

fn bench_parse(c: &mut Criterion) {
    let text = corpus();
    let rules = text.lines().count();
    c.bench_function(&format!("blocklist/parse_{rules}_lines"), |b| {
        b.iter(|| black_box(FilterList::parse("EasyList", &text).len()))
    });
}

fn bench_match(c: &mut Criterion) {
    let text = corpus();
    let list = FilterList::parse("EasyList", &text);
    let urls: Vec<Url> = vec![
        Url::parse("https://ads3-delivery.com/fp.js").unwrap(),
        Url::parse("https://cdn.example.com/jquery.min.js").unwrap(),
        Url::parse("https://customer.com/akam/13/ab12cd.js").unwrap(),
        Url::parse("https://privacy-cs.mail.ru/counter/top.js").unwrap(),
        Url::parse("https://sdk9-web.io/fp.js").unwrap(),
    ];
    c.bench_function("blocklist/evaluate_5_urls", |b| {
        b.iter(|| {
            let mut blocked = 0;
            for url in &urls {
                let ctx = RequestContext::new(url, ResourceType::Script, false, "page.example");
                if list.evaluate(&ctx).is_block() {
                    blocked += 1;
                }
            }
            black_box(blocked)
        })
    });
    c.bench_function("blocklist/covers_script_url", |b| {
        b.iter(|| black_box(list.covers_script_url(&urls[0], ResourceType::Script)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parse, bench_match
}
criterion_main!(benches);
