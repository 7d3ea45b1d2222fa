//! The token-indexed filter matcher against its linear oracle.
//!
//! `FilterList::evaluate` tests a request only against the rules filed
//! under the request URL's tokens. Its verdict must be exactly the one
//! `FilterList::evaluate_linear` gives by testing every rule in list
//! order, including which blocking rule and which exception it reports:
//! Table 2 records that rule text in `BlockedScript::rule`. These tests
//! compare full `Verdict`s on the generated lists and every script URL of
//! several generated webs, and on a seeded soup of hand-shaped rules that
//! covers the syntax the generated lists do not use.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_blocklist::{FilterList, RequestContext, Verdict};
use canvassing_net::domain::registrable_domain;
use canvassing_net::{Resource, ResourceType, ScriptRef, Url};
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

/// Evaluates `ctx` with both matchers, asserts they agree, and returns
/// the verdict.
fn same_verdict(list: &FilterList, ctx: &RequestContext) -> Verdict {
    let compiled = list.evaluate(ctx);
    assert_eq!(
        compiled,
        list.evaluate_linear(ctx),
        "{}: {} as {:?}, first_party={}, page {}",
        list.name,
        ctx.url,
        ctx.resource_type,
        ctx.first_party,
        ctx.page_domain
    );
    compiled
}

/// Tallies of verdict kinds, so a test can show it exercised each.
#[derive(Default, Debug)]
struct Tally {
    allow: usize,
    block: usize,
    excepted: usize,
}

impl Tally {
    fn count(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Allow => self.allow += 1,
            Verdict::Block(_) => self.block += 1,
            Verdict::Excepted { .. } => self.excepted += 1,
        }
    }
}

/// Every external script the pages of `web` reference, with the page's
/// registrable domain: once as requested, and once more under its
/// canonical host when the script host is a CNAME cloak (the URL uBlock
/// Origin evaluates).
fn script_requests(web: &SyntheticWeb) -> Vec<(Url, String)> {
    let mut requests = Vec::new();
    for cohort in [Cohort::Popular, Cohort::Tail] {
        for page in web.frontier(cohort) {
            let Some(Resource::Page(resource)) = web.network.peek(&page) else {
                continue;
            };
            let domain = registrable_domain(&page.host).unwrap_or(&page.host);
            for script in &resource.scripts {
                let ScriptRef::External(url) = script else {
                    continue;
                };
                if let Ok(res) = web.network.dns.resolve(&url.host) {
                    if res.is_cloaked() {
                        let canonical = Url {
                            host: res.canonical,
                            ..url.clone()
                        };
                        requests.push((canonical, domain.to_string()));
                    }
                }
                requests.push((url.clone(), domain.to_string()));
            }
        }
    }
    requests
}

#[test]
fn compiled_matcher_equals_linear_oracle_on_generated_webs() {
    for seed in [2025, 7, 31] {
        let web = SyntheticWeb::generate(WebConfig { seed, scale: 0.02 });
        let lists = [
            FilterList::parse("EasyList", &web.lists.easylist),
            FilterList::parse("EasyPrivacy", &web.lists.easyprivacy),
        ];
        let requests = script_requests(&web);
        assert!(
            requests.len() > 100,
            "seed {seed}: {} requests",
            requests.len()
        );
        let mut tally = Tally::default();
        for (url, page_domain) in &requests {
            // The page itself, a `.ru` page (mail.ru's `@@…$domain=ru`
            // exception), and the context-free Table 4 question.
            for page in [page_domain.as_str(), "news.ru", "adblockparser.invalid"] {
                for list in &lists {
                    let ctx = RequestContext::new(url, ResourceType::Script, false, page);
                    tally.count(&same_verdict(list, &ctx));
                }
            }
        }
        assert!(
            tally.allow > 0 && tally.block > 0 && tally.excepted > 0,
            "seed {seed}: every verdict kind must occur, got {tally:?}"
        );
    }
}

/// SplitMix64: a small seeded generator for the rule soup.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Words shared by rules and URLs, so rules often match: some are
/// prefixes or infixes of others (`fp`/`fpx`, `tracker`/`nottracker`),
/// so a token test that ignored run boundaries would show.
const WORDS: &[&str] = &[
    "tracker",
    "nottracker",
    "cdn",
    "ads",
    "fp",
    "fpx",
    "collect",
    "akam",
    "js",
    "mail",
    "privacy",
    "cs",
    "v2",
    "1",
    "pixel",
    "gif",
    "FP",
];
const TLDS: &[&str] = &["net", "com", "ru", "io"];
const PAGES: &[&str] = &["news.ru", "blog.news.ru", "shop.com", "other.org"];

fn soup_host(rng: &mut SplitMix) -> String {
    let labels = 1 + rng.below(3);
    let mut host: Vec<&str> = (0..labels).map(|_| rng.pick(WORDS)).collect();
    host.push(rng.pick(TLDS));
    host.join(".").to_ascii_lowercase()
}

fn soup_path(rng: &mut SplitMix) -> String {
    let mut path = String::new();
    for _ in 0..rng.below(4) {
        path.push('/');
        path.push_str(rng.pick(WORDS));
        if rng.chance(40) {
            path.push_str(rng.pick(&["-", "_", ".", "%2f"]));
            path.push_str(rng.pick(WORDS));
        }
    }
    if rng.chance(50) {
        path.push_str(rng.pick(&["/fp.js", "/collect.gif", ".js", "/"]));
    }
    if path.is_empty() || !path.starts_with('/') {
        path.insert(0, '/');
    }
    if rng.chance(20) {
        path.push_str(&format!("?v={}&{}=1", rng.pick(WORDS), rng.pick(WORDS)));
    }
    path
}

fn soup_url(rng: &mut SplitMix) -> Url {
    let scheme = rng.pick(&["https", "http"]);
    Url::parse(&format!("{scheme}://{}{}", soup_host(rng), soup_path(rng))).unwrap()
}

/// One random rule: an optional `@@`, an anchor, a pattern of words,
/// separators and wildcards, an optional end anchor, and options.
fn soup_rule(rng: &mut SplitMix) -> String {
    let mut rule = String::new();
    if rng.chance(30) {
        rule.push_str("@@");
    }
    match rng.below(3) {
        0 => {
            rule.push_str("||");
            rule.push_str(&soup_host(rng));
        }
        1 => {
            rule.push('|');
            rule.push_str(rng.pick(&["https://", "http://", "https://cdn."]));
            rule.push_str(rng.pick(WORDS));
        }
        _ => {
            rule.push_str(rng.pick(&["/", "", "-", "."]));
            rule.push_str(rng.pick(WORDS));
        }
    }
    for _ in 0..rng.below(4) {
        rule.push_str(rng.pick(&["^", "*", "/", ".", "-", "^*", "*/", ""]));
        rule.push_str(rng.pick(WORDS));
    }
    match rng.below(4) {
        0 => rule.push('^'),
        1 => rule.push('*'),
        2 if rng.chance(50) => rule.push('|'),
        _ => {}
    }
    let mut options: Vec<String> = Vec::new();
    for _ in 0..rng.below(3) {
        let option = rng.pick(&[
            "script",
            "~script",
            "image",
            "document",
            "~document",
            "other",
            "third-party",
            "~third-party",
            "first-party",
            "domain=ru",
            "domain=news.ru|~blog.news.ru",
            "domain=~shop.com",
            "domain=SHOP.com|other.org",
        ]);
        options.push(option.to_string());
    }
    if !options.is_empty() {
        rule.push('$');
        rule.push_str(&options.join(","));
    }
    rule
}

#[test]
fn compiled_matcher_equals_linear_oracle_on_a_seeded_rule_soup() {
    let types = [
        ResourceType::Script,
        ResourceType::Image,
        ResourceType::Document,
        ResourceType::Other,
    ];
    let mut tally = Tally::default();
    for seed in 0..12u64 {
        let mut rng = SplitMix(seed);
        let text: Vec<String> = (0..60).map(|_| soup_rule(&mut rng)).collect();
        let list = FilterList::parse("soup", &text.join("\n"));
        for _ in 0..150 {
            let url = soup_url(&mut rng);
            for _ in 0..3 {
                let ty = types[rng.below(types.len())];
                let page = rng.pick(PAGES);
                let ctx = RequestContext::new(&url, ty, rng.chance(30), page);
                tally.count(&same_verdict(&list, &ctx));
            }
        }
    }
    assert!(
        tally.allow > 0 && tally.block > 100 && tally.excepted > 10,
        "the soup must exercise every verdict kind, got {tally:?}"
    );
}
