//! `#corrfuse-journal v1`: append-only session persistence.
//!
//! The journal extends the `corrfuse_core::io` TSV dialect. A file is a
//! seed snapshot (the embedded `#corrfuse-dataset v1` section, verbatim)
//! followed by event lines, one per ingest event, with `+B` marking batch
//! boundaries:
//!
//! ```text
//! #corrfuse-journal v1
//! #seed
//! #corrfuse-dataset v1
//! S<TAB>source-name
//! T<TAB>subject<TAB>predicate<TAB>object<TAB>label<TAB>providers
//! #events
//! +S<TAB>source-name                                  (AddSource)
//! +T<TAB>subject<TAB>predicate<TAB>object<TAB>domain  (AddTriple)
//! +C<TAB>source-index<TAB>triple-index                (Claim)
//! +L<TAB>triple-index<TAB>0|1                         (Label)
//! +B                                                  (batch boundary)
//! ```
//!
//! Field escaping is shared with the dataset dialect
//! ([`corrfuse_core::io::escape`]). Appending is the only mutation — a
//! session's whole history replays from the top — and every parse error
//! reports the 1-based line number *in the journal file*, including
//! errors inside the embedded seed section. A trailing run of events
//! without a closing `+B` (e.g. after a crash mid-append) is replayed as
//! a final partial batch.
//!
//! # Durability and crash recovery
//!
//! Every write ends in a newline, so after a crash (power loss, a killed
//! shard worker) only the *final* line of the file can be torn.
//! [`recover`] exploits that: an unterminated last line is dropped as
//! torn before parsing, and the byte length of the surviving well-formed
//! prefix is reported so the caller can truncate the file and resume
//! appending. How eagerly writes reach the disk is the writer's
//! [`FsyncPolicy`]; [`JournalWriter::seal`] forces a full sync at
//! shutdown regardless of policy, and [`JournalWriter::rotate`] compacts
//! the journal in place (snapshot of the accumulated dataset written to a
//! temporary sibling, synced, then atomically renamed over the journal).
//! Unless the policy is [`FsyncPolicy::Never`], creating or rotating a
//! journal also syncs its directory, so the new entry survives power
//! loss.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use corrfuse_core::dataset::Dataset;
use corrfuse_core::error::{FusionError, Result};

use crate::codec;
use crate::event::Event;

/// First line of every journal file.
pub const HEADER: &str = "#corrfuse-journal v1";
const SEED_MARK: &str = "#seed";
const EVENTS_MARK: &str = "#events";
/// Optional epoch line between the header and the seed section:
/// `#epoch <n>` records the replication epoch of the snapshot, i.e. how
/// many batches had been committed when the seed was captured. Emitted
/// only when the epoch is non-zero, so journals written before epochs
/// existed — and journals from un-replicated sessions — are byte-for-byte
/// unchanged. A missing line reads as epoch 0.
const EPOCH_MARK: &str = "#epoch";

/// A complete batch boundary as it appears in the file: the `+B` line,
/// newline-anchored on both sides. Event lines always follow the
/// `#events` marker line, so this sequence can never occur inside
/// escaped field content.
pub(crate) const BOUNDARY_LINE: &str = "\n+B\n";

/// Byte offset just past the last complete batch boundary in `prefix`,
/// falling back to the end of the `#events` marker line when no batch
/// ever completed. Used by crash recovery to discard an unterminated
/// trailing batch atomically.
pub(crate) fn last_complete_boundary(prefix: &str) -> usize {
    if let Some(i) = prefix.rfind(BOUNDARY_LINE) {
        return i + BOUNDARY_LINE.len();
    }
    let marker = format!("\n{EVENTS_MARK}\n");
    prefix
        .rfind(&marker)
        .map(|i| i + marker.len())
        .unwrap_or(prefix.len())
}

// The event-line encoding itself lives in [`crate::codec`], shared with
// the wire protocol (`corrfuse-net`); this module owns the file format
// around it: header, embedded seed snapshot, durability and rotation.

/// How eagerly journal writes are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `sync_all` after every write (data + metadata). The strongest
    /// guarantee: an acknowledged batch survives power loss.
    Always,
    /// `sync_data` after each appended batch. Snapshot writes are synced
    /// at creation/rotation/seal only; batch data is durable per ingest
    /// but file metadata may lag.
    EveryBatch,
    /// No explicit syncing — writes reach the OS page cache only (the
    /// pre-policy behaviour). Fastest; a crash can lose recent batches,
    /// which [`recover`] then trims as a torn tail.
    #[default]
    Never,
}

/// The snapshot prefix of a journal: header, epoch line (omitted when
/// `epoch` is zero), seed section, events marker.
fn snapshot_string(seed: &Dataset, epoch: u64) -> String {
    // `io::to_string` ends with a newline, so the marker lands on its own
    // line.
    if epoch == 0 {
        format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n",
            corrfuse_core::io::to_string(seed)
        )
    } else {
        format!(
            "{HEADER}\n{EPOCH_MARK} {epoch}\n{SEED_MARK}\n{}{EVENTS_MARK}\n",
            corrfuse_core::io::to_string(seed)
        )
    }
}

/// Sync the directory that holds `path`. A file created or renamed
/// into place survives power loss only once its directory entry is on
/// disk too. A bare file name lives in `.`.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

/// An open journal file accepting appended batches.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
    path: PathBuf,
    fsync: FsyncPolicy,
    /// Current file length in bytes (snapshot + appended batches).
    bytes: u64,
}

impl JournalWriter {
    /// Create (or truncate) a journal at `path` with `seed` as its
    /// snapshot, ready to append batches under the durability policy
    /// `fsync`. The snapshot is stamped with `epoch`, the replication
    /// epoch at which `seed` was captured: [`read`]/[`recover`] report
    /// it back so a restored session (or a cold-restarting follower)
    /// resumes epoch numbering where the snapshot left off instead of
    /// restarting from zero.
    pub fn create(
        path: impl AsRef<Path>,
        seed: &Dataset,
        fsync: FsyncPolicy,
        epoch: u64,
    ) -> Result<JournalWriter> {
        let path = path.as_ref();
        fs::write(path, snapshot_string(seed, epoch))?;
        let w = Self::append(path, fsync)?;
        if w.fsync != FsyncPolicy::Never {
            w.file.sync_all()?;
            sync_parent_dir(path)?;
        }
        Ok(w)
    }

    /// Open an existing journal for appending under the durability
    /// policy `fsync`, validating its header. Only the first line is
    /// read — journals can be large and this runs on every restore.
    pub fn append(path: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<JournalWriter> {
        let path = path.as_ref().to_path_buf();
        let mut first_line = String::new();
        {
            use std::io::BufRead as _;
            let mut reader = std::io::BufReader::new(fs::File::open(&path)?);
            reader.read_line(&mut first_line)?;
        }
        if first_line.trim_end() != HEADER {
            return Err(FusionError::Parse {
                line: 1,
                msg: format!("expected journal header `{HEADER}`"),
            });
        }
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(JournalWriter {
            file,
            path,
            fsync,
            bytes,
        })
    }

    /// Append one batch: its event lines plus the `+B` boundary (the
    /// shared [`crate::codec`] encoding), synced according to the
    /// writer's [`FsyncPolicy`].
    pub fn append_batch(&mut self, batch: &[Event]) -> Result<()> {
        let mut buf = String::new();
        codec::write_batch(batch, &mut buf);
        self.file.write_all(buf.as_bytes())?;
        self.file.flush()?;
        match self.fsync {
            FsyncPolicy::Always => self.file.sync_all()?,
            FsyncPolicy::EveryBatch => self.file.sync_data()?,
            FsyncPolicy::Never => {}
        }
        self.bytes += buf.len() as u64;
        Ok(())
    }

    /// Current journal size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The writer's durability policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Force everything written so far to stable storage (graceful
    /// shutdown), regardless of the running [`FsyncPolicy`].
    pub fn seal(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Compact the journal in place: rewrite it as a snapshot of `seed`
    /// (the accumulated dataset) with no events. The snapshot is written
    /// to a temporary sibling, synced, and atomically renamed over the
    /// journal, so a crash mid-rotation leaves either the old or the new
    /// journal — never a torn hybrid. Returns the new size in bytes.
    ///
    /// The snapshot is stamped with `epoch` — the number of batches
    /// committed into `seed` — so epoch numbering survives compaction
    /// exactly as it survives a plain restart, and a follower
    /// bootstrapping from the rotated file does not re-request batches
    /// the snapshot already contains.
    pub fn rotate(&mut self, seed: &Dataset, epoch: u64) -> Result<u64> {
        let file_name = self
            .path
            .file_name()
            .ok_or_else(|| {
                FusionError::Io(format!(
                    "journal path `{}` has no file name",
                    self.path.display()
                ))
            })?
            .to_string_lossy()
            .into_owned();
        let tmp = self.path.with_file_name(format!("{file_name}.rotate.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(snapshot_string(seed, epoch).as_bytes())?;
            f.flush()?;
            // Always sync the snapshot before the rename: renaming an
            // unsynced file over the journal could lose both copies.
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        if self.fsync != FsyncPolicy::Never {
            sync_parent_dir(&self.path)?;
        }
        *self = Self::append(&self.path, self.fsync)?;
        Ok(self.bytes)
    }
}

/// Read a journal: the snapshot's base epoch, the seed snapshot and the
/// recorded event batches. The base epoch is the replication epoch at
/// which the seed was captured (0 for journals without an `#epoch`
/// line); the session's epoch after replay is
/// `base_epoch + batches.len()`.
pub fn read(path: impl AsRef<Path>) -> Result<(u64, Dataset, Vec<Vec<Event>>)> {
    let text = fs::read_to_string(path)?;
    parse(&text)
}

/// Outcome of a crash-tolerant journal read ([`recover`]).
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The base epoch of the seed snapshot (0 when the journal predates
    /// epochs or was written by an un-replicated session).
    pub base_epoch: u64,
    /// The seed snapshot.
    pub seed: Dataset,
    /// The surviving event batches (a trailing run without `+B` is the
    /// final partial batch, exactly as [`parse`] treats it).
    pub batches: Vec<Vec<Event>>,
    /// Byte length of the well-formed prefix. Truncate the file to this
    /// length before resuming appends.
    pub good_len: u64,
    /// Whether a torn (unterminated) final line was dropped.
    pub torn: bool,
}

/// Parse journal text tolerating a torn tail.
///
/// Every journal write ends in a newline, so a crash can only tear the
/// *final* line. An unterminated last line is therefore dropped before
/// parsing — unconditionally, because a truncated numeric field can
/// coincidentally still parse (`+C\t1\t234` torn to `+C\t1\t23`) and
/// must not be replayed as a different event. Corruption anywhere else
/// (e.g. truncation inside the seed snapshot) is not recoverable and
/// surfaces as the underlying parse error.
pub fn recover(text: &str) -> Result<Recovered> {
    let (prefix, torn) = if text.is_empty() || text.ends_with('\n') {
        (text, false)
    } else {
        match text.rfind('\n') {
            Some(i) => (&text[..=i], true),
            // No complete line at all: even the header is torn.
            None => ("", true),
        }
    };
    let (base_epoch, seed, batches) = parse(prefix)?;
    Ok(Recovered {
        base_epoch,
        seed,
        batches,
        good_len: prefix.len() as u64,
        torn,
    })
}

/// Parse journal text into `(base_epoch, seed, batches)` (see
/// [`read`]). See the module docs for the format.
pub fn parse(text: &str) -> Result<(u64, Dataset, Vec<Vec<Event>>)> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim_end() == HEADER => {}
        _ => {
            return Err(FusionError::Parse {
                line: 1,
                msg: format!("expected journal header `{HEADER}`"),
            })
        }
    }
    // An optional `#epoch <n>` line may sit between the header and the
    // seed marker; its presence shifts every subsequent line by one.
    let mut base_epoch = 0u64;
    let mut seed_offset = 2;
    let mut next = lines.next();
    if let Some((_, l)) = next {
        if let Some(rest) = l.trim_end().strip_prefix(EPOCH_MARK) {
            base_epoch = rest.trim().parse().map_err(|_| FusionError::Parse {
                line: 2,
                msg: format!("bad `{EPOCH_MARK}` value `{}`", rest.trim()),
            })?;
            seed_offset = 3;
            next = lines.next();
        }
    }
    match next {
        Some((_, l)) if l.trim_end() == SEED_MARK => {}
        _ => {
            return Err(FusionError::Parse {
                line: seed_offset,
                msg: format!("expected `{SEED_MARK}` section"),
            })
        }
    }
    // The seed section runs until the events marker; its first line is
    // the file line just past the seed marker, so dataset parse errors
    // are offset by `seed_offset` (2, or 3 with an epoch line).
    let mut seed_text = String::new();
    let mut saw_events_mark = false;
    for (_, raw) in lines.by_ref() {
        if raw.trim_end() == EVENTS_MARK {
            saw_events_mark = true;
            break;
        }
        seed_text.push_str(raw);
        seed_text.push('\n');
    }
    if !saw_events_mark {
        return Err(FusionError::Parse {
            line: text.lines().count(),
            msg: format!("missing `{EVENTS_MARK}` marker"),
        });
    }
    let seed = corrfuse_core::io::from_str(&seed_text).map_err(|e| match e {
        FusionError::Parse { line, msg } => FusionError::Parse {
            line: line + seed_offset,
            msg,
        },
        other => other,
    })?;

    // The event section is the shared codec dialect; a trailing run
    // without `+B` (crash mid-append) replays as a final partial batch.
    let parsed = codec::parse_batch_lines(lines.map(|(idx, raw)| (idx + 1, raw)))?;
    Ok((base_epoch, seed, parsed.batches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use corrfuse_core::dataset::{DatasetBuilder, SourceId};
    use corrfuse_core::triple::TripleId;

    fn seed() -> Dataset {
        let mut b = DatasetBuilder::new();
        let (s1, t1) = b.observe_named("A", "x", "p", "1");
        let s2 = b.source("B");
        b.observe(s2, t1);
        let t2 = b.triple("weird\tfield", "q", "2");
        b.observe(s1, t2);
        b.label(t1, true);
        b.label(t2, false);
        b.build().unwrap()
    }

    fn batches() -> Vec<Vec<Event>> {
        vec![
            vec![
                Event::add_triple("y", "p", "3"),
                Event::claim(SourceId(1), TripleId(2)),
            ],
            vec![
                Event::add_source("C\nwith newline"),
                Event::label(TripleId(2), true),
            ],
        ]
    }

    #[test]
    fn roundtrip_preserves_seed_and_batches() {
        let dir = std::env::temp_dir().join("corrfuse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Never, 0).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let (_, back_seed, back_batches) = read(&path).unwrap();
        assert_eq!(back_seed.n_triples(), 2);
        assert_eq!(back_seed.n_sources(), 2);
        assert_eq!(
            back_seed.triple(TripleId(1)).subject,
            "weird\tfield",
            "seed escaping survives"
        );
        assert_eq!(back_batches, batches());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_partial_batch_is_replayed() {
        let text = format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n+C\t0\t0\n+B\n+C\t1\t0\n",
            corrfuse_core::io::to_string(&seed())
        );
        let (_, _, batches) = parse(&text).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1], vec![Event::claim(SourceId(1), TripleId(0))]);
    }

    #[test]
    fn seed_errors_report_absolute_journal_lines() {
        // Corrupt the label field of the seed's first T record. The seed
        // section starts at line 3; its header is line 3, S lines 4-5, so
        // the broken T record sits on line 6 of the journal file.
        let good = snapshot_string(&seed(), 0);
        let bad = good.replace("\t1\t0,1\n", "\t9\t0,1\n");
        assert_ne!(good, bad);
        match parse(&bad).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 6, "{msg}");
                assert!(msg.contains("bad label"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn event_errors_are_one_based() {
        let text = format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n+L\t0\t7\n",
            corrfuse_core::io::to_string(&seed())
        );
        let events_line = text.lines().count();
        match parse(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, events_line, "{msg}");
                assert!(msg.contains("0 or 1"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_headers_rejected() {
        assert!(parse("").is_err());
        assert!(parse("#wrong\n").is_err());
        assert!(parse(&format!("{HEADER}\nnot-seed\n")).is_err());
        let no_events = format!(
            "{HEADER}\n{SEED_MARK}\n{}",
            corrfuse_core::io::to_string(&seed())
        );
        match parse(&no_events).unwrap_err() {
            FusionError::Parse { msg, .. } => assert!(msg.contains("#events")),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(JournalWriter::append("/nonexistent/nope.journal", FsyncPolicy::Never).is_err());
    }

    #[test]
    fn rotation_compacts_and_keeps_appending() {
        let dir = std::env::temp_dir().join("corrfuse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.journal");
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::EveryBatch, 0).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let before = w.bytes();
        assert_eq!(before, std::fs::metadata(&path).unwrap().len());
        // Rotate onto the *original* seed here (a real caller passes the
        // accumulated dataset): the events must be gone afterwards.
        let after = w.rotate(&seed(), 0).unwrap();
        assert!(after < before, "rotation shrank the journal");
        let (_, _, back) = read(&path).unwrap();
        assert!(back.is_empty(), "rotation dropped the replayed events");
        // Appending keeps working post-rotation, and the tmp file is gone.
        w.append_batch(&batches()[0]).unwrap();
        w.seal().unwrap();
        let (_, _, back) = read(&path).unwrap();
        assert_eq!(back, vec![batches()[0].clone()]);
        assert!(!dir.join("rotate.journal.rotate.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_drops_torn_tail_lines() {
        let mut text = format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n+C\t0\t0\n+B\n",
            corrfuse_core::io::to_string(&seed())
        );
        let whole = recover(&text).unwrap();
        assert!(!whole.torn);
        assert_eq!(whole.good_len, text.len() as u64);
        assert_eq!(
            whole.batches,
            vec![vec![Event::claim(SourceId(0), TripleId(0))]]
        );

        // A torn numeric field that would still parse must be dropped,
        // not misread as a different event.
        text.push_str("+C\t1\t0");
        let torn = recover(&text).unwrap();
        assert!(torn.torn);
        assert_eq!(torn.good_len, whole.good_len);
        assert_eq!(torn.batches, whole.batches);

        // Truncation inside the seed snapshot is not recoverable.
        assert!(recover(&text[..HEADER.len() + 10]).is_err());
        assert!(recover("").is_err());
        assert!(recover("#corrfuse-jour").is_err());
    }

    #[test]
    fn writer_tracks_bytes_across_reopen() {
        let dir = std::env::temp_dir().join("corrfuse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes.journal");
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Always, 0).unwrap();
        w.append_batch(&batches()[0]).unwrap();
        let bytes = w.bytes();
        drop(w);
        let w2 = JournalWriter::append(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(w2.bytes(), bytes);
        assert_eq!(w2.fsync_policy(), FsyncPolicy::Never);
        assert_eq!(w2.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parent_dir_sync_accepts_bare_file_names() {
        // A bare name has an empty parent, which cannot be opened: it
        // must resolve to the working directory instead.
        sync_parent_dir(Path::new("bare.journal")).unwrap();
        sync_parent_dir(&std::env::temp_dir().join("any.journal")).unwrap();
        assert!(sync_parent_dir(Path::new("/nonexistent/dir/x.journal")).is_err());
    }

    #[test]
    fn epoch_line_roundtrips_and_defaults_to_zero() {
        let dir = std::env::temp_dir().join("corrfuse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.journal");

        // Epoch 0 omits the line entirely: byte-identical to the
        // pre-epoch format.
        assert_eq!(
            snapshot_string(&seed(), 0),
            format!(
                "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n",
                corrfuse_core::io::to_string(&seed())
            )
        );

        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Never, 7).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let (base, _, back) = read(&path).unwrap();
        assert_eq!(base, 7);
        assert_eq!(back, batches());

        // Rotation re-stamps: the compacted snapshot carries the epoch
        // of the accumulated state.
        w.rotate(&seed(), 9).unwrap();
        let (base, _, back) = read(&path).unwrap();
        assert_eq!(base, 9);
        assert!(back.is_empty());

        // `recover` reports the base epoch too.
        w.append_batch(&batches()[0]).unwrap();
        w.seal().unwrap();
        let rec = recover(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(rec.base_epoch, 9);
        assert_eq!(rec.batches.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn epoch_line_shifts_seed_error_offsets() {
        // With the `#epoch` line the seed section starts one line later,
        // so the broken T record sits on line 7 instead of 6.
        let good = snapshot_string(&seed(), 3);
        let bad = good.replace("\t1\t0,1\n", "\t9\t0,1\n");
        assert_ne!(good, bad);
        match parse(&bad).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 7, "{msg}");
                assert!(msg.contains("bad label"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_epoch_line_rejected() {
        let text = format!("{HEADER}\n{EPOCH_MARK} not-a-number\n{SEED_MARK}\n");
        match parse(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 2, "{msg}");
                assert!(msg.contains("#epoch"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let text = format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n+X\tboom\n",
            corrfuse_core::io::to_string(&seed())
        );
        assert!(parse(&text).is_err());
    }
}
