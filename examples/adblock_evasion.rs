//! Ad-blocker evasion lab (§5.2): shows, request by request, why
//! blocklist rules that *statically* cover fingerprinting scripts fail to
//! block them in practice — the first-party exception, site-scoped `@@`
//! exceptions, the `$document` rule-design failure, CDN fronting, and
//! CNAME cloaking (which only uBlock Origin sees through).
//!
//! ```sh
//! cargo run --example adblock_evasion
//! ```

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_blocklist::{FilterList, RequestContext, Verdict};
use canvassing_browser::{AdBlockerKind, Extension};
use canvassing_net::{DnsZone, ResourceType, Url};

const EASYLIST_EXCERPT: &str = "\
! EasyList excerpt (synthetic, mirrors the rule shapes the paper found)
/akam/*$script
||privacy-cs.mail.ru^$script
@@||privacy-cs.mail.ru^$script,domain=ru
||mgid.com^$document
||tracker-pixel.net^$script
";

struct Case {
    what: &'static str,
    page: &'static str,
    script: &'static str,
}

fn main() {
    let list = FilterList::parse("EasyList", EASYLIST_EXCERPT);
    let abp = Extension::new(AdBlockerKind::AdblockPlus, EASYLIST_EXCERPT);
    let ubo = Extension::new(AdBlockerKind::UblockOrigin, EASYLIST_EXCERPT);

    // DNS with one CNAME cloak: metrics.shop.com is really tracker-pixel.net.
    let mut dns = DnsZone::new();
    dns.insert_auto("tracker-pixel.net");
    dns.insert_cname("metrics.shop.com", "tracker-pixel.net");

    let cases = [
        Case {
            what: "Akamai sensor, first-party path (footnote 5)",
            page: "https://bank.example/",
            script: "https://bank.example/akam/13/ab12.js",
        },
        Case {
            what: "mail.ru counter on a .ru site (site-scoped @@ exception)",
            page: "https://news.ru/",
            script: "https://privacy-cs.mail.ru/counter/top.js",
        },
        Case {
            what: "mail.ru counter on a .com site (no exception)",
            page: "https://blog.example/",
            script: "https://privacy-cs.mail.ru/counter/top.js",
        },
        Case {
            what: "mgid fingerprinting script ($document rule, A.6)",
            page: "https://news.example/",
            script: "https://mgid.com/fp-collect.js",
        },
        Case {
            what: "plain third-party tracker",
            page: "https://shop.com/",
            script: "https://tracker-pixel.net/fp.js",
        },
        Case {
            what: "the same tracker, CNAME-cloaked as first-party",
            page: "https://shop.com/",
            script: "https://metrics.shop.com/fp.js",
        },
    ];

    println!(
        "{:<55} {:>10} {:>8} {:>8}",
        "scenario", "static", "ABP", "uBO"
    );
    for case in &cases {
        let page = Url::parse(case.page).unwrap();
        let script = Url::parse(case.script).unwrap();

        // Static coverage, adblockparser style (§5.1): does any rule
        // match the URL as a script, ignoring page context?
        let statically_covered = list.covers_script_url(&script, ResourceType::Script);

        let abp_blocked = abp.check_script(&page, &script, &dns).is_some();
        let ubo_blocked = ubo.check_script(&page, &script, &dns).is_some();

        println!(
            "{:<55} {:>10} {:>8} {:>8}",
            case.what,
            if statically_covered { "covered" } else { "-" },
            if abp_blocked { "BLOCK" } else { "allow" },
            if ubo_blocked { "BLOCK" } else { "allow" },
        );
    }

    // Show the full verdict detail for the mail.ru exception case.
    println!("\nverdict detail for mail.ru on news.ru:");
    let mailru = Url::parse("https://privacy-cs.mail.ru/counter/top.js").unwrap();
    let ctx = RequestContext::new(&mailru, ResourceType::Script, false, "news.ru");
    match list.evaluate(&ctx) {
        Verdict::Excepted { block, exception } => {
            println!("  blocking rule matched:  {block}");
            println!("  but exception applied:  {exception}");
        }
        other => println!("  {other:?}"),
    }
}
