//! Canvas clustering (§4.2): group sites by *identical* extracted canvas
//! bytes. On one crawl machine, every site running the same fingerprinting
//! script produces byte-identical `toDataURL` output, so equality of the
//! data URL is the grouping key. Each canvas arrives with its content
//! hash already computed (at read-back), so clusters are looked up by
//! `(hash, data_url)`: the hash decides, and the bytes are compared only
//! when two hashes agree — colliding canvases stay separate clusters.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::detect::SiteDetection;

/// One canvas cluster: a distinct data URL and everything observed about
/// its use.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    /// Content hash of the data URL (cluster identity in reports; the
    /// full data URL is kept for exactness).
    pub hash: u64,
    /// The canvas bytes (data URL).
    pub data_url: String,
    /// Sites on which the canvas was extracted.
    pub sites: BTreeSet<String>,
    /// Total extractions (≥ `sites.len()` when double-rendered).
    pub extractions: usize,
    /// Script URLs observed generating this canvas.
    pub script_urls: BTreeSet<String>,
}

impl Cluster {
    /// An empty cluster for one canvas.
    fn new(hash: u64, data_url: String) -> Cluster {
        Cluster {
            hash,
            data_url,
            sites: BTreeSet::new(),
            extractions: 0,
            script_urls: BTreeSet::new(),
        }
    }

    /// Number of sites using this canvas.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }
}

/// All clusters from one cohort's detections, sorted by descending site
/// count, then hash, then data URL.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Clustering {
    /// Clusters, most-shared first.
    pub clusters: Vec<Cluster>,
}

impl Clustering {
    /// Builds clusters from per-site detections.
    pub fn build<'a, I: IntoIterator<Item = &'a SiteDetection>>(detections: I) -> Clustering {
        let mut acc = ClusterAccumulator::default();
        for d in detections {
            acc.absorb(d);
        }
        acc.into_clustering()
    }

    /// Number of distinct canvases.
    pub fn unique_canvases(&self) -> usize {
        self.clusters.len()
    }

    /// Looks up the cluster of a canvas by its hash and bytes.
    pub fn find(&self, hash: u64, data_url: &str) -> Option<&Cluster> {
        self.clusters
            .iter()
            .find(|c| c.hash == hash && c.data_url == data_url)
    }

    /// The `(hash, data_url)` identities of every cluster.
    pub(crate) fn canvas_keys(&self) -> BTreeSet<(u64, &str)> {
        self.clusters
            .iter()
            .map(|c| (c.hash, c.data_url.as_str()))
            .collect()
    }

    /// Number of distinct sites covered by the `k` most-shared clusters.
    pub fn sites_covered_by_top(&self, k: usize) -> usize {
        let mut sites: BTreeSet<&str> = BTreeSet::new();
        for c in self.clusters.iter().take(k) {
            sites.extend(c.sites.iter().map(String::as_str));
        }
        sites.len()
    }

    /// All distinct sites across all clusters.
    pub fn all_sites(&self) -> BTreeSet<&str> {
        self.clusters
            .iter()
            .flat_map(|c| c.sites.iter().map(String::as_str))
            .collect()
    }

    /// The partition of sites induced by canvas-sharing: for validation
    /// across devices (§3.1), two clusterings computed from crawls on
    /// different machines must induce the same site groups even though
    /// the canvas bytes differ.
    pub fn site_partition(&self) -> BTreeSet<Vec<String>> {
        self.clusters
            .iter()
            .map(|c| c.sites.iter().cloned().collect::<Vec<String>>())
            .collect()
    }
}

/// Streaming fold for [`Clustering`]: a mergeable map keyed by canvas
/// content hash, each bucket holding one cluster per distinct data URL
/// (more than one only on a hash collision). Cluster membership is pure
/// set union plus an extraction counter, so absorb order and shard
/// partitioning never change the finished clustering.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterAccumulator {
    clusters: BTreeMap<u64, Vec<Cluster>>,
}

impl ClusterAccumulator {
    /// The cluster of the canvas `(hash, data_url)`, created empty on
    /// first sight — the one place a data URL is copied.
    fn cluster(&mut self, hash: u64, data_url: &str) -> &mut Cluster {
        let bucket = self.clusters.entry(hash).or_default();
        let at = match bucket.iter().position(|c| c.data_url == data_url) {
            Some(at) => at,
            None => {
                bucket.push(Cluster::new(hash, data_url.to_string()));
                bucket.len() - 1
            }
        };
        &mut bucket[at]
    }

    /// Folds one site's detection into the cluster map.
    pub fn absorb(&mut self, d: &SiteDetection) {
        for c in &d.canvases {
            let cluster = self.cluster(c.hash, &c.data_url);
            if !cluster.sites.contains(&c.site) {
                cluster.sites.insert(c.site.clone());
            }
            cluster.extractions += 1;
            cluster.script_urls.insert(c.script_url.to_string());
        }
    }

    /// Merges a sibling accumulator: union of sites and script URLs per
    /// canvas, summed extraction counts.
    pub fn merge(&mut self, other: &ClusterAccumulator) {
        for c in other.clusters.values().flatten() {
            let cluster = self.cluster(c.hash, &c.data_url);
            cluster.sites.extend(c.sites.iter().cloned());
            cluster.extractions += c.extractions;
            cluster.script_urls.extend(c.script_urls.iter().cloned());
        }
    }

    /// Number of distinct canvases absorbed so far.
    pub fn unique_canvases(&self) -> usize {
        self.clusters.values().map(Vec::len).sum()
    }

    /// Finalizes a copy into a [`Clustering`], sorted exactly as the
    /// batch path: descending site count, then hash, then data URL (the
    /// order a map keyed by data URL gives colliding hashes).
    pub fn finish(&self) -> Clustering {
        self.clone().into_clustering()
    }

    /// [`ClusterAccumulator::finish`] without the copy.
    pub(crate) fn into_clustering(self) -> Clustering {
        let mut clusters: Vec<Cluster> = self.clusters.into_values().flatten().collect();
        clusters.sort_by(|a, b| {
            b.site_count()
                .cmp(&a.site_count())
                .then(a.hash.cmp(&b.hash))
                .then_with(|| a.data_url.cmp(&b.data_url))
        });
        Clustering { clusters }
    }
}

/// Cross-cohort overlap statistics (§4.2 "Overlap of test canvases
/// between the tail and top sites").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Fingerprinting tail sites sharing at least one canvas with a
    /// popular site.
    pub tail_sites_sharing: usize,
    /// Total fingerprinting tail sites.
    pub tail_sites_total: usize,
    /// Sizes of tail-only clusters, descending.
    pub tail_only_cluster_sizes: Vec<usize>,
}

impl OverlapStats {
    /// Computes overlap between popular and tail clusterings.
    pub fn compute(popular: &Clustering, tail: &Clustering) -> OverlapStats {
        let popular_canvases = popular.canvas_keys();
        let mut sharing: BTreeSet<&str> = BTreeSet::new();
        let mut tail_sites: BTreeSet<&str> = BTreeSet::new();
        let mut tail_only_sizes = Vec::new();
        for c in &tail.clusters {
            tail_sites.extend(c.sites.iter().map(String::as_str));
            if popular_canvases.contains(&(c.hash, c.data_url.as_str())) {
                sharing.extend(c.sites.iter().map(String::as_str));
            } else {
                tail_only_sizes.push(c.site_count());
            }
        }
        tail_only_sizes.sort_unstable_by(|a, b| b.cmp(a));
        OverlapStats {
            tail_sites_sharing: sharing.len(),
            tail_sites_total: tail_sites.len(),
            tail_only_cluster_sizes: tail_only_sizes,
        }
    }

    /// Fraction of tail fingerprinting sites sharing a canvas with a
    /// popular site (the paper's 91.4%).
    pub fn sharing_fraction(&self) -> f64 {
        if self.tail_sites_total == 0 {
            return 0.0;
        }
        self.tail_sites_sharing as f64 / self.tail_sites_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::FpCanvas;
    use canvassing_net::{Party, Url};

    fn canvas(site: &str, data: &str) -> FpCanvas {
        FpCanvas {
            site: site.into(),
            data_url: data.into(),
            hash: canvassing_raster::content_hash(data.as_bytes()),
            script_url: Url::https("s.net", "/fp.js"),
            inline: false,
            party: Party::ThirdParty,
            cname_cloaked: false,
            cdn: false,
            width: 100,
            height: 50,
        }
    }

    fn find<'a>(c: &'a Clustering, data: &str) -> Option<&'a Cluster> {
        c.find(canvassing_raster::content_hash(data.as_bytes()), data)
    }

    fn site(host: &str, datas: &[&str]) -> SiteDetection {
        SiteDetection {
            site: host.into(),
            canvases: datas.iter().map(|d| canvas(host, d)).collect(),
            excluded: vec![],
            double_render_check: false,
        }
    }

    #[test]
    fn clusters_group_identical_data_urls() {
        let sites = [
            site("a.com", &["X", "Y"]),
            site("b.com", &["X"]),
            site("c.com", &["Z"]),
        ];
        let c = Clustering::build(sites.iter());
        assert_eq!(c.unique_canvases(), 3);
        let x = find(&c, "X").unwrap();
        assert_eq!(x.site_count(), 2);
        // Sorted by site count: X first.
        assert_eq!(c.clusters[0].data_url, "X");
    }

    #[test]
    fn double_render_counts_extractions_not_sites() {
        let sites = [site("a.com", &["X", "X"])];
        let c = Clustering::build(sites.iter());
        let x = find(&c, "X").unwrap();
        assert_eq!(x.site_count(), 1);
        assert_eq!(x.extractions, 2);
    }

    #[test]
    fn top_k_site_coverage_deduplicates() {
        let sites = [site("a.com", &["X", "Y"]), site("b.com", &["X"])];
        let c = Clustering::build(sites.iter());
        assert_eq!(c.sites_covered_by_top(1), 2); // X covers a and b
        assert_eq!(c.sites_covered_by_top(2), 2); // Y adds no new site
        assert_eq!(c.all_sites().len(), 2);
    }

    #[test]
    fn overlap_stats() {
        let popular = Clustering::build([site("p1.com", &["X"]), site("p2.com", &["Y"])].iter());
        let tail = Clustering::build(
            [
                site("t1.com", &["X"]),
                site("t2.com", &["T"]),
                site("t3.com", &["T"]),
                site("t4.com", &["X", "U"]),
            ]
            .iter(),
        );
        let o = OverlapStats::compute(&popular, &tail);
        assert_eq!(o.tail_sites_total, 4);
        assert_eq!(o.tail_sites_sharing, 2); // t1 and t4
        assert_eq!(o.tail_only_cluster_sizes, vec![2, 1]); // T(2), U(1)
        assert!((o.sharing_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partitions_compare_across_devices() {
        // Same grouping, different canvas bytes.
        let dev1 = Clustering::build([site("a.com", &["X1"]), site("b.com", &["X1"])].iter());
        let dev2 = Clustering::build([site("a.com", &["X2"]), site("b.com", &["X2"])].iter());
        assert_eq!(dev1.site_partition(), dev2.site_partition());
        assert_ne!(dev1.clusters[0].data_url, dev2.clusters[0].data_url);
    }

    #[test]
    fn empty_input_is_empty_clustering() {
        let c = Clustering::build(std::iter::empty());
        assert_eq!(c.unique_canvases(), 0);
        assert_eq!(c.sites_covered_by_top(5), 0);
    }

    /// The string-keyed accumulator this module used before clusters
    /// were keyed by hash: one map entry per distinct data URL, finished
    /// by a stable sort on (site count desc, hash).
    #[derive(Default)]
    struct StringKeyedOracle {
        clusters: BTreeMap<String, Cluster>,
    }

    impl StringKeyedOracle {
        fn absorb(&mut self, d: &SiteDetection) {
            for c in &d.canvases {
                let entry = self
                    .clusters
                    .entry(c.data_url.clone())
                    .or_insert_with(|| Cluster::new(c.hash, c.data_url.clone()));
                entry.sites.insert(c.site.clone());
                entry.extractions += 1;
                entry.script_urls.insert(c.script_url.to_string());
            }
        }

        fn finish(&self) -> Clustering {
            let mut clusters: Vec<Cluster> = self.clusters.values().cloned().collect();
            clusters.sort_by(|a, b| {
                b.site_count()
                    .cmp(&a.site_count())
                    .then(a.hash.cmp(&b.hash))
            });
            Clustering { clusters }
        }
    }

    fn json(c: &Clustering) -> String {
        serde_json::to_string(&c.clusters).unwrap()
    }

    /// Sites whose canvases "Y" and "X" (and "W") are forced onto one
    /// hash, next to distinct canvases, with site-count ties inside and
    /// across the colliding bucket.
    fn colliding_sites() -> Vec<SiteDetection> {
        const SHARED: u64 = 0x5eed;
        let collide = |mut d: SiteDetection| {
            for c in &mut d.canvases {
                if ["X", "Y", "W"].contains(&c.data_url.as_str()) {
                    c.hash = SHARED;
                }
            }
            d
        };
        [
            site("a.com", &["Y", "X"]),
            site("b.com", &["X", "Z"]),
            site("c.com", &["Y", "Y"]),
            site("d.com", &["W", "Z", "V"]),
            site("e.com", &["X"]),
            site("f.com", &["V", "Y"]),
        ]
        .into_iter()
        .map(collide)
        .collect()
    }

    #[test]
    fn colliding_hashes_stay_separate_clusters_in_the_oracle_order() {
        let sites = colliding_sites();
        let built = Clustering::build(sites.iter());
        let mut oracle = StringKeyedOracle::default();
        sites.iter().for_each(|d| oracle.absorb(d));
        assert_eq!(json(&built), json(&oracle.finish()));

        assert_eq!(built.unique_canvases(), 5);
        let shared: Vec<&str> = built
            .clusters
            .iter()
            .filter(|c| c.hash == 0x5eed)
            .map(|c| c.data_url.as_str())
            .collect();
        // X and Y tie on 3 sites and on hash: data URL order decides.
        assert_eq!(shared, ["X", "Y", "W"]);
        assert_eq!(built.find(0x5eed, "Y").unwrap().extractions, 4);
        assert_eq!(built.find(0x5eed, "W").unwrap().site_count(), 1);
        assert!(built.find(0x5eed, "Z").is_none(), "bytes decide a hash hit");
        let keys = built.canvas_keys();
        assert!(keys.contains(&(0x5eed, "X")) && keys.contains(&(0x5eed, "Y")));
    }

    #[test]
    fn colliding_clusters_fold_the_same_in_any_absorb_or_merge_order() {
        let sites = colliding_sites();
        let expected = json(&Clustering::build(sites.iter()));
        let n = sites.len();
        for rotation in 0..n {
            for reversed in [false, true] {
                let mut order: Vec<&SiteDetection> =
                    sites.iter().cycle().skip(rotation).take(n).collect();
                if reversed {
                    order.reverse();
                }
                assert_eq!(json(&Clustering::build(order.iter().copied())), expected);
                for cut in 0..=n {
                    let (mut left, mut right) =
                        (ClusterAccumulator::default(), ClusterAccumulator::default());
                    order[..cut].iter().for_each(|d| left.absorb(d));
                    order[cut..].iter().for_each(|d| right.absorb(d));
                    let mut right_first = right.clone();
                    right_first.merge(&left);
                    left.merge(&right);
                    assert_eq!(json(&left.finish()), expected);
                    assert_eq!(json(&right_first.into_clustering()), expected);
                }
            }
        }
    }

    #[test]
    fn accumulator_merge_matches_batch_build() {
        let sites = [
            site("a.com", &["X", "Y"]),
            site("b.com", &["X"]),
            site("c.com", &["Z"]),
            site("d.com", &["X", "X"]),
        ];
        let batch = Clustering::build(sites.iter());
        let mut left = ClusterAccumulator::default();
        left.absorb(&sites[3]);
        left.absorb(&sites[0]);
        let mut right = ClusterAccumulator::default();
        right.absorb(&sites[2]);
        right.absorb(&sites[1]);
        left.merge(&right);
        let merged = left.finish();
        assert_eq!(
            serde_json::to_string(&merged.clusters).unwrap(),
            serde_json::to_string(&batch.clusters).unwrap()
        );
        assert_eq!(find(&merged, "X").unwrap().extractions, 4);
    }
}
