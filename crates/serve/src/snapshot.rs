//! Epoch-swapped rule snapshots and hot reload events.
//!
//! The daemon never mutates rules in place. A [`RuleSnapshot`] is an
//! immutable, `Arc`-shared bundle of (compiled blocklist + vendor rules)
//! tagged with an epoch number; a [`ReloadEvent`] swaps in a new snapshot
//! at a simulated instant. Requests admitted before the swap keep their
//! admission snapshot `Arc` until they finish — a reload can therefore
//! never mix rule generations within one response, and never drops an
//! in-flight request.
//!
//! Reload also drives *incremental re-classification* (Durey et al.,
//! arXiv 2103.00590: verdicts must follow the rules that justify them):
//! [`RuleSnapshot::diff`] computes which anchor domains changed between
//! two snapshots, the daemon maps those domains to the analysis-cache
//! shards that hold scripts served from them, and only those shards are
//! invalidated — cold traffic re-classifies exactly the affected bodies
//! while the rest of the cache stays hot.

use std::collections::{BTreeMap, BTreeSet};

use canvassing_blocklist::FilterList;
use canvassing_net::domain::registrable_domain;
use canvassing_net::{ResourceType, Url};

/// What changed between two snapshots, in cache-invalidation terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleDiff {
    /// Anchor domains of added/removed `||domain`-style rules and of
    /// host-shaped vendor patterns, reduced to registrable domains.
    pub domains: BTreeSet<String>,
    /// Whether any changed rule cannot be attributed to a host (plain
    /// substring rules, path-shaped vendor patterns): such a change can
    /// affect any script, so the whole cache must be invalidated.
    pub unanchored: bool,
}

impl RuleDiff {
    /// Whether the diff is empty (a no-op reload).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty() && !self.unanchored
    }
}

/// An immutable rule generation.
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    /// Epoch number (0 for the boot snapshot; +1 per reload).
    pub epoch: u64,
    /// List name (diagnostics only).
    pub name: String,
    /// The compiled blocklist.
    pub list: FilterList,
    /// Vendor attribution rules: URL substring pattern → vendor name
    /// (the Table 3 script-pattern method, hot-reloadable like the list).
    pub vendor_patterns: BTreeMap<String, String>,
    /// Raw non-comment rule lines, kept for diffing against the next
    /// generation.
    raw_lines: BTreeSet<String>,
}

impl RuleSnapshot {
    /// Compiles a snapshot from filter-list text and vendor patterns.
    pub fn new(
        epoch: u64,
        name: &str,
        list_text: &str,
        vendor_patterns: BTreeMap<String, String>,
    ) -> RuleSnapshot {
        let list = FilterList::parse(name, list_text);
        let raw_lines = list_text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('!'))
            .map(str::to_string)
            .collect();
        RuleSnapshot {
            epoch,
            name: name.to_string(),
            list,
            vendor_patterns,
            raw_lines,
        }
    }

    /// The Table 3 vendor URL patterns shipped with the repo, as the boot
    /// vendor-rule set.
    pub fn standard_vendor_patterns() -> BTreeMap<String, String> {
        canvassing_vendors::all_vendors()
            .iter()
            .filter_map(|v| v.url_pattern.map(|p| (p.to_string(), v.name.to_string())))
            .collect()
    }

    /// Whether this snapshot's blocklist covers a script URL (the §5.1
    /// static-coverage question, page-context-free like
    /// `FilterList::covers_script_url`).
    pub fn covers(&self, url: &Url) -> bool {
        self.list.covers_script_url(url, ResourceType::Script)
    }

    /// Vendor attribution of a script URL under this snapshot's vendor
    /// rules (first matching pattern in map order — deterministic).
    pub fn vendor_for(&self, url: &Url) -> Option<&str> {
        let rendered = url.to_string();
        self.vendor_patterns
            .iter()
            .find(|(pattern, _)| rendered.contains(pattern.as_str()))
            .map(|(_, name)| name.as_str())
    }

    /// The invalidation-relevant difference between this snapshot and the
    /// next generation.
    pub fn diff(&self, next: &RuleSnapshot) -> RuleDiff {
        let mut diff = RuleDiff::default();
        for line in self
            .raw_lines
            .symmetric_difference(&next.raw_lines)
            .map(String::as_str)
        {
            match rule_anchor_domain(line) {
                Some(domain) => {
                    diff.domains.insert(domain);
                }
                None => diff.unanchored = true,
            }
        }
        let old: BTreeSet<(&str, &str)> = self
            .vendor_patterns
            .iter()
            .map(|(p, v)| (p.as_str(), v.as_str()))
            .collect();
        let new: BTreeSet<(&str, &str)> = next
            .vendor_patterns
            .iter()
            .map(|(p, v)| (p.as_str(), v.as_str()))
            .collect();
        for (pattern, _) in old.symmetric_difference(&new) {
            match pattern_anchor_domain(pattern) {
                Some(domain) => {
                    diff.domains.insert(domain);
                }
                None => diff.unanchored = true,
            }
        }
        diff
    }
}

/// Anchor domain of a filter rule line: `||host...` (or `@@||host...`)
/// reduced to the host's registrable domain. `None` for rules that cannot
/// be pinned to a host.
fn rule_anchor_domain(line: &str) -> Option<String> {
    let body = line.strip_prefix("@@").unwrap_or(line);
    let rest = body.strip_prefix("||")?;
    let host: String = rest
        .chars()
        .take_while(|c| !matches!(c, '^' | '/' | '$' | '*' | '|'))
        .collect::<String>()
        .to_ascii_lowercase();
    if host.is_empty() {
        return None;
    }
    Some(
        registrable_domain(&host)
            .map(str::to_string)
            .unwrap_or(host),
    )
}

/// Anchor domain of a vendor URL pattern: host-shaped patterns (contain a
/// dot, no slash) reduce to a registrable domain; path-shaped patterns
/// (`/akam/`) are unanchored.
fn pattern_anchor_domain(pattern: &str) -> Option<String> {
    if pattern.contains('/') || !pattern.contains('.') {
        return None;
    }
    let host = pattern.to_ascii_lowercase();
    Some(
        registrable_domain(&host)
            .map(str::to_string)
            .unwrap_or(host),
    )
}

/// A hot rule reload, scheduled on the simulated clock. Requests arriving
/// at or after `at_ms` are admitted under the new snapshot; requests
/// already admitted finish on their admission epoch.
#[derive(Debug, Clone)]
pub struct ReloadEvent {
    /// When the swap happens.
    pub at_ms: u64,
    /// Name for the new generation (diagnostics).
    pub name: String,
    /// Full new filter-list text (epoch swaps are whole-snapshot, never
    /// in-place edits).
    pub list_text: String,
    /// New vendor patterns, or `None` to carry the current ones forward.
    pub vendor_patterns: Option<BTreeMap<String, String>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, text: &str) -> RuleSnapshot {
        RuleSnapshot::new(
            epoch,
            "test",
            text,
            RuleSnapshot::standard_vendor_patterns(),
        )
    }

    #[test]
    fn covers_and_vendor_attribution() {
        let s = snap(0, "||tracker.net^$script\n");
        assert!(s.covers(&Url::https("cdn.tracker.net", "/fp.js")));
        assert!(!s.covers(&Url::https("clean.example", "/app.js")));
        let fp = Url::https("cdn.fpnpmcdn.net", "/v3/loader.js");
        assert_eq!(s.vendor_for(&fp), Some("FingerprintJS"));
        assert_eq!(s.vendor_for(&Url::https("clean.example", "/a.js")), None);
    }

    #[test]
    fn diff_attributes_anchored_changes_to_domains() {
        let a = snap(0, "||tracker.net^$script\n||ads.example.com^\n");
        let b = snap(1, "||tracker.net^$script\n||ads.example.com^\n||evil.io^\n");
        let d = a.diff(&b);
        assert!(!d.unanchored);
        assert_eq!(
            d.domains.iter().collect::<Vec<_>>(),
            vec![&"evil.io".to_string()]
        );
        // Removals count too, and exception rules anchor like blocks.
        let c = snap(2, "||ads.example.com^\n@@||tracker.net/allowed/*\n");
        let d2 = b.diff(&c);
        assert!(d2.domains.contains("evil.io"));
        assert!(d2.domains.contains("tracker.net"));
    }

    #[test]
    fn diff_marks_substring_rules_unanchored() {
        let a = snap(0, "||tracker.net^\n");
        let b = snap(1, "||tracker.net^\n/fp-collect.js\n");
        assert!(a.diff(&b).unanchored);
    }

    #[test]
    fn diff_of_identical_snapshots_is_empty() {
        let a = snap(0, "||tracker.net^\n! a comment\n");
        let b = snap(1, "! different comment\n||tracker.net^\n");
        assert!(a.diff(&b).is_empty(), "comments never invalidate");
    }

    #[test]
    fn vendor_pattern_changes_anchor_by_host_shape() {
        let mut patterns = RuleSnapshot::standard_vendor_patterns();
        let a = RuleSnapshot::new(0, "t", "", patterns.clone());
        patterns.insert("newvendor.example".into(), "NewVendor".into());
        let b = RuleSnapshot::new(1, "t", "", patterns.clone());
        let d = a.diff(&b);
        assert!(d.domains.contains("newvendor.example"));
        assert!(!d.unanchored);
        // A path-shaped pattern cannot be host-attributed.
        patterns.insert("/collect/".into(), "PathVendor".into());
        let c = RuleSnapshot::new(2, "t", "", patterns);
        assert!(b.diff(&c).unanchored);
    }

    #[test]
    fn anchor_extraction_handles_rule_shapes() {
        assert_eq!(
            rule_anchor_domain("||cdn.tracker.net^$script"),
            Some("tracker.net".into())
        );
        assert_eq!(
            rule_anchor_domain("@@||tracker.net/allowed/*"),
            Some("tracker.net".into())
        );
        assert_eq!(rule_anchor_domain("/fp-collect.js"), None);
        assert_eq!(rule_anchor_domain("||^"), None);
    }
}
