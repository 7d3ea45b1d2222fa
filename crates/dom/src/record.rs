//! Instrumentation records.
//!
//! The paper's crawler is DuckDuckGo's Tracker Radar Collector modified to
//! intercept "the arguments, return value, script source URL, and
//! timestamp of API calls and property accesses to the interfaces
//! `CanvasRenderingContext2D` and `HTMLCanvasElement`" (§3.1). These types
//! are that log.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// Which instrumented interface an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApiInterface {
    /// `HTMLCanvasElement`.
    Canvas,
    /// `CanvasRenderingContext2D`.
    Context2D,
}

/// Kind of interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallKind {
    /// Method invocation.
    Method,
    /// Property read.
    Get,
    /// Property write.
    Set,
}

/// One recorded API event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiCall {
    /// Monotonic sequence number within the page load.
    pub seq: u64,
    /// Timestamp in (simulated) milliseconds since navigation start.
    pub timestamp_ms: u64,
    /// Interface the member belongs to.
    pub interface: ApiInterface,
    /// Method/property interaction kind.
    pub kind: CallKind,
    /// Member name (`fillText`, `toDataURL`, `fillStyle`, …).
    pub name: String,
    /// Stringified arguments (for `Set`, the assigned value).
    pub args: Vec<String>,
    /// Stringified return value when interesting (notably `toDataURL`).
    pub return_value: Option<String>,
    /// URL of the script that performed the call (the page URL for inline
    /// first-party-bundled code).
    pub script_url: String,
    /// Which canvas element (per-document index) the call targets.
    pub canvas_index: usize,
}

/// A canvas extraction event — one `toDataURL` call, the unit of analysis
/// for the whole study.
///
/// Equality and the serialized form cover the recorded fields only: the
/// content-hash cache is neither compared nor written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Extraction {
    /// Sequence number of the corresponding [`ApiCall`].
    pub seq: u64,
    /// Timestamp in simulated milliseconds.
    pub timestamp_ms: u64,
    /// Per-document canvas index.
    pub canvas_index: usize,
    /// The full data URL returned to the script.
    pub data_url: String,
    /// MIME type actually used (`image/png`, `image/jpeg`, `image/webp`).
    pub mime: String,
    /// Canvas width at extraction time.
    pub width: u32,
    /// Canvas height at extraction time.
    pub height: u32,
    /// URL of the extracting script.
    pub script_url: String,
    /// Cached [`Extraction::content_hash`]: filled where the bytes are
    /// made (read-back, or the canonical render a memo replay copies
    /// from), lazily after deserialization.
    #[serde(skip)]
    pub(crate) hash: OnceLock<u64>,
}

impl Extraction {
    /// Stable content hash (FNV-1a) of the data URL, the clustering key.
    /// Computed at most once per extraction.
    pub fn content_hash(&self) -> u64 {
        let hash = *self
            .hash
            .get_or_init(|| canvassing_raster::content_hash(self.data_url.as_bytes()));
        debug_assert_eq!(
            hash,
            canvassing_raster::content_hash(self.data_url.as_bytes()),
            "stale content hash: data_url changed after it was hashed"
        );
        hash
    }
}

impl PartialEq for Extraction {
    fn eq(&self, other: &Extraction) -> bool {
        let Extraction {
            seq,
            timestamp_ms,
            canvas_index,
            data_url,
            mime,
            width,
            height,
            script_url,
            hash: _,
        } = self;
        *seq == other.seq
            && *timestamp_ms == other.timestamp_ms
            && *canvas_index == other.canvas_index
            && *data_url == other.data_url
            && *mime == other.mime
            && *width == other.width
            && *height == other.height
            && *script_url == other.script_url
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_hash_depends_on_data_url() {
        let mk = |url: &str| Extraction {
            seq: 0,
            timestamp_ms: 0,
            canvas_index: 0,
            data_url: url.into(),
            mime: "image/png".into(),
            width: 300,
            height: 150,
            script_url: "https://a.com/x.js".into(),
            hash: OnceLock::new(),
        };
        assert_eq!(mk("data:x").content_hash(), mk("data:x").content_hash());
        assert_ne!(mk("data:x").content_hash(), mk("data:y").content_hash());
    }

    /// An extraction's JSON as spilled segments and checkpoints hold it
    /// (the recorded fields in declaration order, nothing else).
    const EXTRACTION_JSON: &str = r#"{"seq":3,"timestamp_ms":7,"canvas_index":1,"data_url":"data:image/png;base64,iVBORw0KGgo=","mime":"image/png","width":280,"height":60,"script_url":"https://cdn.example/fp.js"}"#;

    fn fixture_extraction(hash: OnceLock<u64>) -> Extraction {
        Extraction {
            seq: 3,
            timestamp_ms: 7,
            canvas_index: 1,
            data_url: "data:image/png;base64,iVBORw0KGgo=".into(),
            mime: "image/png".into(),
            width: 280,
            height: 60,
            script_url: "https://cdn.example/fp.js".into(),
            hash,
        }
    }

    #[test]
    fn extraction_json_leaves_the_hash_cache_out() {
        let fnv = canvassing_raster::content_hash(b"data:image/png;base64,iVBORw0KGgo=");
        let hashed = fixture_extraction(OnceLock::from(fnv));
        assert_eq!(serde_json::to_string(&hashed).unwrap(), EXTRACTION_JSON);
        assert_eq!(
            serde_json::to_string(&fixture_extraction(OnceLock::new())).unwrap(),
            EXTRACTION_JSON
        );

        // Read back: the cell is empty until first use, then filled with
        // the same FNV-1a, and the bytes re-serialize identically.
        let back: Extraction = serde_json::from_str(EXTRACTION_JSON).unwrap();
        assert_eq!(back.hash.get(), None);
        assert_eq!(back.content_hash(), fnv);
        assert_eq!(back.hash.get(), Some(&fnv));
        assert_eq!(serde_json::to_string(&back).unwrap(), EXTRACTION_JSON);
    }

    #[test]
    fn extraction_equality_ignores_the_hash_cache() {
        let fnv = canvassing_raster::content_hash(b"data:image/png;base64,iVBORw0KGgo=");
        let filled = fixture_extraction(OnceLock::from(fnv));
        let empty = fixture_extraction(OnceLock::new());
        assert_eq!(filled, empty);
        let mut other = empty.clone();
        other.data_url.push('A');
        assert_ne!(other, filled);
        let mut other = empty.clone();
        other.seq += 1;
        assert_ne!(other, filled);
    }

    #[test]
    fn api_call_serializes_to_json() {
        let call = ApiCall {
            seq: 1,
            timestamp_ms: 5,
            interface: ApiInterface::Context2D,
            kind: CallKind::Method,
            name: "fillText".into(),
            args: vec!["Cwm".into(), "2".into(), "15".into()],
            return_value: None,
            script_url: "https://cdn.example/fp.js".into(),
            canvas_index: 0,
        };
        let json = serde_json::to_string(&call).unwrap();
        let back: ApiCall = serde_json::from_str(&json).unwrap();
        assert_eq!(back, call);
    }
}
