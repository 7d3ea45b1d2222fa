//! Sharded segment spill for million-site crawls.
//!
//! The checkpoint layer (PR 2) persists one append-only file per crawl;
//! at scale 25 (1M sites) a single file and a single in-memory dataset
//! both stop working. This module splits the durable story two ways:
//!
//! * **shards** — the frontier is cut into `count` contiguous ranges
//!   ([`crate::shard_range`]); each shard is crawled independently (in
//!   this process or N separate ones) and owns its own files;
//! * **segments** — within a shard, records spill into *bounded* segment
//!   files of at most `segment_sites` records each, so no file grows
//!   with the frontier.
//!
//! Every segment is a complete, self-describing checkpoint in the PR-2
//! CRC-framed v2 format — [`crate::checkpoint::recover`] works on any
//! segment unchanged, and a torn tail in one segment loses at most that
//! segment's suffix. Filenames embed shard and sequence
//! (`shard003-seg00007.ckpt`) so a lexicographic sort of the spill
//! directory reconstructs global frontier order without any manifest.
//!
//! [`merge_segments`] recovers every segment (concurrently, on the
//! crawl's worker count), concatenates the valid prefixes in listed
//! order, and moves the union into [`crate::resume_crawl`]'s core — which
//! recrawls whatever the spill lost and, because the breaker plan is
//! always computed over the *full* frontier, produces a dataset
//! byte-identical to a single uninterrupted `workers = 1` crawl. That
//! identity is the merge's proof obligation and what
//! `tests/streaming_equivalence.rs` and `tests/checkpoint_recovery.rs`
//! sweep.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use canvassing_net::{Network, Url};
use canvassing_trace::{TraceSink, VisitRecorder};

use crate::checkpoint::{recover, CheckpointWriter, RecoveryReport};
use crate::dataset::{CrawlDataset, SiteRecord};
use crate::{crawl_streamed_range_until, resume_crawl_owned, shard_range, CrawlConfig};

/// Rolls visit records into bounded CRC-framed segment files.
///
/// Each segment is a standalone PR-2 checkpoint holding at most
/// `segment_sites` records; when one fills, it is sealed and the next
/// opens. The writer never holds more than the current segment's file
/// handle — memory is constant in the number of records spilled.
pub struct SegmentWriter {
    dir: PathBuf,
    label: String,
    device_id: String,
    shard: usize,
    /// Lease epoch for supervised spills: when set, segment names carry
    /// it (`shard003-e0002-seg00007.ckpt`) so re-leased and speculative
    /// owners of the same shard never collide on a file. `None` is the
    /// unsupervised scheme [`list_segments`] recognises.
    epoch: Option<u64>,
    segment_sites: usize,
    seq: usize,
    current: Option<CheckpointWriter>,
    sealed: Vec<PathBuf>,
    /// Spill-side observability: seal/finish instants go here, *not* to
    /// the crawl's trace sink, so study trace totals are unaffected by
    /// whether a run spilled.
    trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for SegmentWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentWriter")
            .field("dir", &self.dir)
            .field("shard", &self.shard)
            .field("segment_sites", &self.segment_sites)
            .field("seq", &self.seq)
            .field("sealed", &self.sealed.len())
            .finish_non_exhaustive()
    }
}

impl SegmentWriter {
    /// Creates a writer spilling into `dir` (created if absent) for one
    /// frontier shard. `segment_sites` is clamped to at least 1.
    pub fn create(
        dir: &Path,
        label: &str,
        device_id: &str,
        shard: usize,
        segment_sites: usize,
    ) -> io::Result<SegmentWriter> {
        fs::create_dir_all(dir)?;
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            label: label.to_string(),
            device_id: device_id.to_string(),
            shard,
            epoch: None,
            segment_sites: segment_sites.max(1),
            seq: 0,
            current: None,
            sealed: Vec::new(),
            trace: None,
        })
    }

    /// Switches to epoch-qualified segment names for supervised spills.
    /// Epoch-qualified files are deliberately invisible to
    /// [`list_segments`]; [`crate::supervisor::merge_supervised`] owns
    /// them.
    pub fn with_epoch(mut self, epoch: u64) -> SegmentWriter {
        self.epoch = Some(epoch);
        self
    }

    /// Attaches a sink for spill instants (`segment.seal`,
    /// `segment.finish`). Keep this separate from the crawl config's
    /// sink — spill observability must not perturb study trace totals.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> SegmentWriter {
        self.trace = Some(sink);
        self
    }

    fn segment_path(&self, seq: usize) -> PathBuf {
        self.dir.join(match self.epoch {
            Some(epoch) => format!("shard{:03}-e{:04}-seg{:05}.ckpt", self.shard, epoch, seq),
            None => format!("shard{:03}-seg{:05}.ckpt", self.shard, seq),
        })
    }

    /// Appends one record, opening a fresh segment when none is open and
    /// sealing it once it holds `segment_sites` records.
    pub fn append(&mut self, record: &SiteRecord) -> io::Result<()> {
        if self.current.is_none() {
            let path = self.segment_path(self.seq);
            self.current = Some(CheckpointWriter::create(
                &path,
                &self.label,
                &self.device_id,
            )?);
        }
        let full = {
            let writer = self
                .current
                .as_mut()
                .unwrap_or_else(|| unreachable!("segment opened above"));
            writer.append(record)?;
            writer.records_written() >= self.segment_sites
        };
        if full {
            self.seal("segment.seal")?;
        }
        Ok(())
    }

    fn seal(&mut self, instant: &'static str) -> io::Result<()> {
        if let Some(writer) = self.current.take() {
            let records = writer.records_written();
            let path = writer.path().to_path_buf();
            drop(writer);
            self.emit(instant, &path, records);
            self.sealed.push(path);
            self.seq += 1;
        }
        Ok(())
    }

    fn emit(&self, instant: &'static str, path: &Path, records: usize) {
        if let Some(sink) = &self.trace {
            if sink.enabled() {
                let recorder = VisitRecorder::new(&self.label, None);
                recorder.instant(instant, || format!("{} records={records}", path.display()));
                if let Some(trace) = recorder.finish() {
                    sink.consume(trace);
                }
            }
        }
    }

    /// Segments already sealed, in write (= frontier) order.
    pub fn sealed(&self) -> &[PathBuf] {
        &self.sealed
    }

    /// Seals any open segment and returns every segment path in frontier
    /// order. Dropping a writer without calling `finish` leaves the last
    /// segment on disk unsealed — still a valid checkpoint (recovery
    /// reads it fine), just unlisted here. That recoverability is pinned
    /// by `unsealed_segment_from_dropped_writer_is_recoverable` below
    /// and is what supervised re-leases resume from.
    pub fn finish(mut self) -> io::Result<Vec<PathBuf>> {
        self.seal("segment.finish")?;
        Ok(std::mem::take(&mut self.sealed))
    }

    /// Simulates the owning process dying while appending `record`: half
    /// the framed line lands in the current segment (opening a fresh one
    /// if none is open) and the file handle dies with the process,
    /// leaving an unsealed segment with a torn tail — the exact state
    /// [`crate::checkpoint::recover`] is built to clean up. Supervisor
    /// fault injection only; a real crash needs no help.
    pub fn crash(&mut self, record: &SiteRecord) -> io::Result<()> {
        if self.current.is_none() {
            let path = self.segment_path(self.seq);
            self.current = Some(CheckpointWriter::create(
                &path,
                &self.label,
                &self.device_id,
            )?);
        }
        let writer = self
            .current
            .as_mut()
            .unwrap_or_else(|| unreachable!("segment opened above"));
        writer.tear(record)?;
        self.current = None;
        Ok(())
    }

    /// Aborts the spill: the current *unsealed* segment file is removed
    /// (a half-written segment that will never be sealed must not
    /// pollute a later merge) and the sealed segments — all complete and
    /// mergeable — are returned. This is the error path of
    /// [`crawl_shard_to_segments`]; a `segment.abort` instant records
    /// the removal on the spill sink.
    pub fn abort(mut self) -> io::Result<Vec<PathBuf>> {
        if let Some(writer) = self.current.take() {
            let records = writer.records_written();
            let path = writer.path().to_path_buf();
            drop(writer);
            fs::remove_file(&path)?;
            self.emit("segment.abort", &path, records);
        }
        Ok(std::mem::take(&mut self.sealed))
    }
}

/// Parses a canonical unsupervised segment file name —
/// `shard{NNN}-seg{NNNNN}.ckpt`, zero-padded to at least 3 and 5 digits
/// but open-ended above that — into `(shard, seq)`. Anything else
/// (lease files, `.tmp` rename leftovers, supervised epoch-qualified
/// segments, foreign checkpoints) is not a segment.
pub(crate) fn parse_segment_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_suffix(".ckpt")?;
    let rest = rest.strip_prefix("shard")?;
    let (shard, seq) = rest.split_once("-seg")?;
    Some((parse_padded(shard, 3)?, parse_padded(seq, 5)?))
}

/// Parses a supervised, epoch-qualified segment file name —
/// `shard{NNN}-e{EEEE}-seg{NNNNN}.ckpt` — into `(shard, epoch, seq)`.
/// The supervised scheme is deliberately disjoint from the canonical
/// one: [`list_segments`] never sees supervised segments and
/// [`crate::supervisor::list_supervised_segments`] never sees
/// unsupervised ones, so the two merge paths cannot double-read a file.
pub(crate) fn parse_supervised_name(name: &str) -> Option<(usize, u64, usize)> {
    let rest = name.strip_suffix(".ckpt")?;
    let rest = rest.strip_prefix("shard")?;
    let (shard, rest) = rest.split_once("-e")?;
    let (epoch, seq) = rest.split_once("-seg")?;
    Some((
        parse_padded(shard, 3)?,
        parse_padded(epoch, 4)? as u64,
        parse_padded(seq, 5)?,
    ))
}

/// A zero-padded decimal field: all digits, at least `min_len` of them.
pub(crate) fn parse_padded(digits: &str, min_len: usize) -> Option<usize> {
    if digits.len() < min_len || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists every canonical segment file (`shard{NNN}-seg{NNNNN}.ckpt`) in
/// `dir`, sorted by file name — which, given the zero-padded scheme, is
/// global frontier order across all shards. Files that do not match the
/// canonical name are skipped, so stray checkpoints, lease files, or
/// supervised epoch-qualified segments can never corrupt merge order.
pub fn list_segments(dir: &Path) -> io::Result<Vec<PathBuf>> {
    list_segments_traced(dir, None)
}

/// [`list_segments`] with spill-side observability: every skipped file
/// is recorded as a `segment.skip` instant on `trace`.
pub fn list_segments_traced(
    dir: &Path,
    trace: Option<&Arc<dyn TraceSink>>,
) -> io::Result<Vec<PathBuf>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if parse_segment_name(name).is_some() && path.is_file() {
            segments.push(path);
        } else if path.is_file() {
            emit_spill_instant(trace, "segments", "segment.skip", || {
                format!("{} not a canonical segment name", path.display())
            });
        }
    }
    segments.sort();
    Ok(segments)
}

/// What [`merge_segments`] recovered and re-did.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MergeReport {
    /// Segment files read.
    pub segments: usize,
    /// **Unique** records recovered across all segments' valid prefixes:
    /// a site crawled by several shard executions (a re-leased or
    /// speculative owner, a duplicate shard crawl) counts once.
    pub records_recovered: usize,
    /// Segments whose tail had to be truncated during recovery.
    pub segments_recovered_dirty: usize,
    /// Recovered records dropped because an earlier segment (in merge
    /// order) already supplied their site. Always zero when no shard ran
    /// twice; `records_recovered + recrawled == frontier` holds exactly
    /// because duplicates are excluded here.
    pub duplicates_dropped: usize,
    /// Frontier sites not covered by any recovered record (lost to torn
    /// tails or a crawl that never reached them) and therefore recrawled.
    pub recrawled: usize,
}

/// Recovers every segment, merges the valid prefixes, and resumes the
/// crawl over the full frontier to fill any gaps.
///
/// Because [`resume_crawl`] computes the breaker plan over the complete
/// frontier and every [`SiteRecord`] is a pure function of
/// `(network, url, config)`, the merged dataset is byte-identical to a
/// single uninterrupted crawl — regardless of shard count, segment size,
/// how many segments were torn, or the order segments are listed in.
/// Duplicate safety: segments are read in the given order (callers pass
/// a name-sorted list, i.e. `(shard, [epoch,] seq)` order) and records
/// deduplicate by site — the first occurrence wins. Re-executed shard
/// work is therefore *dropped*, not double-counted, and because every
/// execution of a site produces the identical record, which occurrence
/// wins is immaterial to the dataset. The exact accounting lands in
/// [`MergeReport::duplicates_dropped`].
///
/// Segments are recovered on up to `config.workers` threads, then folded
/// on the calling thread in listed order, so the dataset, the report,
/// the order of `segment.merge` instants, and which error is returned
/// (the first in listed order) do not depend on the worker count.
pub fn merge_segments(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    segments: &[PathBuf],
    trace: Option<&Arc<dyn TraceSink>>,
) -> io::Result<(CrawlDataset, MergeReport)> {
    let mut records = Vec::new();
    let mut seen: std::collections::BTreeSet<Url> = std::collections::BTreeSet::new();
    let mut dirty = 0usize;
    let mut total = 0usize;
    // Segments recover concurrently; everything order-sensitive (dedupe,
    // accounting, `segment.merge` instants, which error surfaces) folds
    // here on the calling thread in listed order.
    for (path, recovered) in segments.iter().zip(recover_all(segments, config.workers)) {
        let (dataset, report) = recovered?;
        if !report.clean() {
            dirty += 1;
        }
        emit_spill_instant(trace, &config.label, "segment.merge", || {
            format!("{} records={}", path.display(), report.records_recovered)
        });
        for record in dataset.records {
            total += 1;
            if seen.insert(record.url.clone()) {
                records.push(record);
            }
        }
    }
    let unique = records.len();
    let recrawled = frontier.iter().filter(|u| !seen.contains(u)).count();
    let merged = resume_crawl_owned(network, frontier, config, records);
    let report = MergeReport {
        segments: segments.len(),
        records_recovered: unique,
        segments_recovered_dirty: dirty,
        duplicates_dropped: total - unique,
        recrawled,
    };
    Ok((merged, report))
}

type Recovered = io::Result<(CrawlDataset, RecoveryReport)>;

/// Runs [`recover`] over `segments` on up to `workers` scoped threads,
/// each pulling the next segment from a shared cursor, and returns the
/// results in listed order. Once a recovery fails no thread claims
/// another segment; claims go in listed order, so every segment before
/// the failing one is still recovered and the returned prefix always
/// reaches the first error in listed order.
fn recover_all(segments: &[PathBuf], workers: usize) -> Vec<Recovered> {
    // Relaxed is enough: neither atomic publishes data (results come back
    // through `join`), and a late-seen `failed` only costs extra work.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let drain = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(path) = segments.get(i) else { break };
            let result = recover(path);
            if result.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, result));
        }
        done
    };
    let workers = workers.clamp(1, segments.len().max(1));
    let mut slots: Vec<Option<Recovered>> = segments.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map_while(|slot| slot).collect()
}

/// One spill-side instant on an optional sink — the shared emission
/// shape for `segment.merge`, `segment.skip`, and the supervisor's
/// protocol events.
pub(crate) fn emit_spill_instant(
    trace: Option<&Arc<dyn TraceSink>>,
    label: &str,
    instant: &'static str,
    detail: impl FnOnce() -> String,
) {
    if let Some(sink) = trace {
        if sink.enabled() {
            let recorder = VisitRecorder::new(label, None);
            recorder.instant(instant, detail);
            if let Some(trace) = recorder.finish() {
                sink.consume(trace);
            }
        }
    }
}

/// Crawls one frontier shard, spilling records into bounded segments
/// under `dir`, and returns the segment paths in frontier order.
///
/// This is the per-process entry point for an N-process scale-out: give
/// each process the same `(network, frontier, config)` and a distinct
/// `shard < count`; afterwards [`list_segments`] over the shared spill
/// directory plus [`merge_segments`] reassembles the full dataset.
/// Memory is bounded by `chunk_sites` (in-flight records) regardless of
/// shard size.
///
/// On the first spill I/O error the streamed crawl aborts immediately —
/// no further sites are visited — the unsealed partial segment is
/// removed, and the error returns; sealed segments stay on disk and
/// remain mergeable.
#[allow(clippy::too_many_arguments)]
pub fn crawl_shard_to_segments(
    network: &Network,
    frontier: &[Url],
    config: &CrawlConfig,
    dir: &Path,
    shard: usize,
    count: usize,
    segment_sites: usize,
    chunk_sites: usize,
) -> io::Result<Vec<PathBuf>> {
    let caches = config.build_caches();
    let mut writer =
        SegmentWriter::create(dir, &config.label, &config.device.id, shard, segment_sites)?;
    let range = shard_range(frontier.len(), shard, count);
    let mut io_err: Option<io::Error> = None;
    crawl_streamed_range_until(
        network,
        frontier,
        config,
        &caches,
        range,
        chunk_sites,
        |_, record| match writer.append(&record) {
            Ok(()) => std::ops::ControlFlow::Continue(()),
            Err(e) => {
                // First spill failure aborts the crawl outright: records
                // that can no longer be persisted are not worth visiting,
                // and a silently-lossy spill must never look complete.
                io_err = Some(e);
                std::ops::ControlFlow::Break(())
            }
        },
    );
    if let Some(e) = io_err {
        writer.abort().ok();
        return Err(e);
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_trace::CountingSink;
    use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("canvassing-seg-{}-{name}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn workload() -> (SyntheticWeb, Vec<Url>, CrawlConfig) {
        let web = SyntheticWeb::generate(WebConfig {
            seed: 17,
            scale: 0.02,
        });
        let mut frontier = web.frontier(Cohort::Popular);
        frontier.truncate(50);
        let mut config = CrawlConfig::control();
        config.workers = 4;
        (web, frontier, config)
    }

    #[test]
    fn segments_are_bounded_and_ordered() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("bounded");
        let segments =
            crawl_shard_to_segments(&web.network, &frontier, &config, &dir, 0, 1, 12, 8).unwrap();
        // 50 records at <=12/segment: five segments, last holding 2.
        assert_eq!(segments.len(), 5);
        let mut total = 0;
        for (i, path) in segments.iter().enumerate() {
            let (ds, report) = recover(path).unwrap();
            assert!(report.clean());
            assert!(ds.records.len() <= 12, "segment {i} over bound");
            total += ds.records.len();
        }
        assert_eq!(total, frontier.len());
        assert_eq!(list_segments(&dir).unwrap(), segments);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_spill_merges_byte_identical_to_single_crawl() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("identity");
        for shard in 0..3 {
            crawl_shard_to_segments(&web.network, &frontier, &config, &dir, shard, 3, 8, 4)
                .unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        let (merged, report) =
            merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
        assert_eq!(report.records_recovered, frontier.len());
        assert_eq!(report.segments_recovered_dirty, 0);
        assert_eq!(report.recrawled, 0);

        let direct = crate::crawl(&web.network, &frontier, &config);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_counts_unique_records_and_drops_duplicates() {
        // Regression for the PR-9 over-count: shard 0 of 2 crawled into
        // one directory and the whole frontier into another overlap on
        // the first half of the frontier; the merge must count each site
        // once, account for the dropped duplicates exactly, and still be
        // byte-identical to a single crawl.
        let (web, frontier, config) = workload();
        let dir_half = tmp_dir("dup-half");
        let dir_full = tmp_dir("dup-full");
        crawl_shard_to_segments(&web.network, &frontier, &config, &dir_half, 0, 2, 8, 4).unwrap();
        crawl_shard_to_segments(&web.network, &frontier, &config, &dir_full, 0, 1, 8, 4).unwrap();
        let mut segments = list_segments(&dir_half).unwrap();
        segments.extend(list_segments(&dir_full).unwrap());
        let (merged, report) =
            merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();

        let half = crate::shard_range(frontier.len(), 0, 2).len();
        assert_eq!(report.records_recovered, frontier.len(), "unique records");
        assert_eq!(report.duplicates_dropped, half, "overlap counted exactly");
        assert_eq!(report.recrawled, 0);
        assert_eq!(
            report.records_recovered + report.recrawled,
            frontier.len(),
            "recovered unique + recrawled must cover the frontier exactly"
        );
        let direct = crate::crawl(&web.network, &frontier, &config);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        fs::remove_dir_all(&dir_half).ok();
        fs::remove_dir_all(&dir_full).ok();
    }

    /// Copies every file of `from` into a fresh `to` (recovery truncates
    /// torn tails in place, so each merge gets its own copy).
    fn copy_dir(from: &Path, to: &Path) {
        fs::remove_dir_all(to).ok();
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }

    /// Merges `names` from a private copy of `src` at `workers`, returning
    /// the serialized dataset, the report, and the `segment.merge`
    /// instant details with the directory stripped.
    fn merge_copy(
        src: &Path,
        names: &[String],
        workers: usize,
    ) -> io::Result<(String, MergeReport, Vec<String>)> {
        let (web, frontier, mut config) = workload();
        config.workers = workers;
        let dir = tmp_dir(&format!("workers-{workers}"));
        copy_dir(src, &dir);
        let segments: Vec<PathBuf> = names.iter().map(|n| dir.join(n)).collect();
        let sink = Arc::new(canvassing_trace::RingSink::new(1024));
        let trace = Arc::clone(&sink) as Arc<dyn TraceSink>;
        let merged = merge_segments(&web.network, &frontier, &config, &segments, Some(&trace));
        let prefix = format!("{}/", dir.display());
        let instants = sink
            .traces()
            .into_iter()
            .flat_map(|t| t.events)
            .filter_map(|e| match e.kind {
                canvassing_trace::EventKind::Instant { name, detail, .. } => {
                    Some(format!("{name} {}", detail.replace(&prefix, "")))
                }
                _ => None,
            })
            .collect();
        fs::remove_dir_all(&dir).ok();
        let (merged, report) = merged?;
        Ok((serde_json::to_string(&merged).unwrap(), report, instants))
    }

    #[test]
    fn merge_is_identical_at_one_and_four_workers() {
        // Three shards into one directory, then shard 0 again under a
        // second name (a duplicate execution listed after the first), and
        // a torn tail on one mid-list segment.
        let (web, frontier, config) = workload();
        let src = tmp_dir("workers-src");
        for shard in 0..3 {
            crawl_shard_to_segments(&web.network, &frontier, &config, &src, shard, 3, 6, 4)
                .unwrap();
        }
        let mut names: Vec<String> = list_segments(&src)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let dup = tmp_dir("workers-dup");
        for path in
            crawl_shard_to_segments(&web.network, &frontier, &config, &dup, 0, 3, 6, 4).unwrap()
        {
            let name = format!("dup-{}", path.file_name().unwrap().to_string_lossy());
            fs::copy(&path, src.join(&name)).unwrap();
            names.push(name);
        }
        let torn = src.join(&names[names.len() / 3]);
        let bytes = fs::read(&torn).unwrap();
        fs::write(&torn, &bytes[..bytes.len() - 40]).unwrap();

        let one = merge_copy(&src, &names, 1).unwrap();
        let four = merge_copy(&src, &names, 4).unwrap();
        assert_eq!(one.0, four.0, "dataset");
        assert_eq!(one.1, four.1, "merge report");
        assert_eq!(one.2, four.2, "segment.merge instants, in listed order");
        assert_eq!(one.1.segments_recovered_dirty, 1);
        assert_eq!(one.1.recrawled, 1, "the torn record is recrawled");
        assert!(one.1.duplicates_dropped > 0);
        assert_eq!(one.2.len(), names.len());
        let direct = crate::crawl(&web.network, &frontier, &config);
        assert_eq!(one.0, serde_json::to_string(&direct).unwrap());
        fs::remove_dir_all(&src).ok();
        fs::remove_dir_all(&dup).ok();
    }

    #[test]
    fn merge_returns_the_first_error_in_listed_order_at_any_worker_count() {
        let (web, frontier, config) = workload();
        let src = tmp_dir("workers-err-src");
        let mut names: Vec<String> =
            crawl_shard_to_segments(&web.network, &frontier, &config, &src, 0, 1, 6, 4)
                .unwrap()
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect();
        // A bad header mid-list, and a later segment failing differently.
        fs::write(src.join("bad-header.ckpt"), b"not json\n").unwrap();
        fs::write(
            src.join("bad-version.ckpt"),
            b"{\"version\":9,\"label\":\"control\",\"device_id\":\"x\"}\n",
        )
        .unwrap();
        let mid = names.len() / 2;
        names.insert(mid, "bad-header.ckpt".into());
        names.push("bad-version.ckpt".into());
        for workers in [1, 4] {
            let err = merge_copy(&src, &names, workers).unwrap_err();
            assert!(err.to_string().contains("bad header"), "{workers}: {err}");
        }
        fs::remove_dir_all(&src).ok();
    }

    #[test]
    fn list_segments_skips_foreign_files_with_a_trace_instant() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("strays");
        let segments =
            crawl_shard_to_segments(&web.network, &frontier, &config, &dir, 0, 1, 20, 10).unwrap();
        // Strays that a real spill directory accumulates: lease files,
        // tmp rename leftovers, foreign checkpoints, a supervised
        // epoch-qualified segment, and an under-padded impostor.
        for stray in [
            "shard000.lease",
            "shard000.lease.tmp",
            "foreign.ckpt",
            "shard000-e0002-seg00000.ckpt",
            "shard0-seg1.ckpt",
        ] {
            fs::write(dir.join(stray), b"not a segment").unwrap();
        }
        let sink = Arc::new(CountingSink::new());
        let listed =
            list_segments_traced(&dir, Some(&(Arc::clone(&sink) as Arc<dyn TraceSink>))).unwrap();
        assert_eq!(listed, segments, "only canonical segment names listed");
        let (_, _, events) = sink.totals();
        assert_eq!(events, 5, "one segment.skip instant per stray file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_segment_from_dropped_writer_is_recoverable() {
        // The doc-promised drop-without-finish path: the last segment
        // stays on disk unsealed, recovery reads it clean, and a merge
        // over the directory loses nothing.
        let (web, frontier, config) = workload();
        let full = crate::crawl(&web.network, &frontier, &config);
        let dir = tmp_dir("unsealed");
        let caches = config.build_caches();
        let mut writer =
            SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 20).unwrap();
        crawl_streamed_range_until(
            &web.network,
            &frontier,
            &config,
            &caches,
            0..frontier.len(),
            16,
            |_, record| {
                writer.append(&record).unwrap();
                std::ops::ControlFlow::Continue(())
            },
        );
        assert_eq!(writer.sealed().len(), 2, "50 records seal two of three");
        drop(writer); // crash before finish(): the third segment is unsealed
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 3, "the unsealed segment is still listed");
        let (ds, report) = recover(&segments[2]).unwrap();
        assert!(report.clean(), "every fully-appended record survives");
        assert_eq!(ds.records.len(), 10);
        let (merged, report) =
            merge_segments(&web.network, &frontier, &config, &segments, None).unwrap();
        assert_eq!(report.records_recovered, frontier.len());
        assert_eq!(report.recrawled, 0);
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&full).unwrap()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_error_aborts_the_crawl_and_removes_the_partial_segment() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("abort");
        // Booby-trap the second segment's path: rolling over to it fails,
        // which must abort the crawl (not silently discard the rest of
        // the range) and leave only complete, sealed segments behind.
        fs::create_dir_all(dir.join("shard000-seg00001.ckpt")).unwrap();
        let err = crawl_shard_to_segments(&web.network, &frontier, &config, &dir, 0, 1, 10, 5)
            .unwrap_err();
        assert!(!err.to_string().is_empty());
        let listed = list_segments(&dir).unwrap();
        assert_eq!(listed.len(), 1, "only the sealed first segment remains");
        let (ds, report) = recover(&listed[0]).unwrap();
        assert!(report.clean());
        assert_eq!(ds.records.len(), 10);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_removes_only_the_unsealed_segment() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("abort-unit");
        let caches = config.build_caches();
        let mut writer =
            SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 20).unwrap();
        crawl_streamed_range_until(
            &web.network,
            &frontier,
            &config,
            &caches,
            0..frontier.len(),
            16,
            |_, record| {
                writer.append(&record).unwrap();
                std::ops::ControlFlow::Continue(())
            },
        );
        let sealed = writer.abort().unwrap();
        assert_eq!(sealed.len(), 2);
        assert_eq!(list_segments(&dir).unwrap(), sealed, "partial third gone");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_crawl_stops_at_the_breaking_record() {
        let (web, frontier, config) = workload();
        let caches = config.build_caches();
        let mut delivered = 0usize;
        let stats = crawl_streamed_range_until(
            &web.network,
            &frontier,
            &config,
            &caches,
            0..frontier.len(),
            8,
            |_, _| {
                delivered += 1;
                if delivered == 11 {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(delivered, 11, "break stops delivery mid-chunk");
        assert_eq!(stats.sites, 11, "stats count delivered records only");
    }

    #[test]
    fn spill_trace_goes_to_the_spill_sink_only() {
        let (web, frontier, config) = workload();
        let dir = tmp_dir("trace");
        let sink = Arc::new(CountingSink::new());
        let caches = config.build_caches();
        let mut writer = SegmentWriter::create(&dir, &config.label, &config.device.id, 0, 10)
            .unwrap()
            .with_trace(Arc::clone(&sink) as Arc<dyn TraceSink>);
        crate::crawl_streamed_range(
            &web.network,
            &frontier,
            &config,
            &caches,
            0..frontier.len(),
            16,
            |_, record| writer.append(&record).unwrap(),
        );
        let segments = writer.finish().unwrap();
        assert_eq!(segments.len(), 5);
        let (_, spans, events) = sink.totals();
        assert_eq!(spans, 0, "seal instants open no spans");
        assert_eq!(events as usize, segments.len());
        fs::remove_dir_all(&dir).ok();
    }
}
