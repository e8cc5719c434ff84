//! `#corrfuse-journal v1`: append-only session persistence.
//!
//! The journal extends the `corrfuse_core::io` TSV dialect. A file is a
//! seed snapshot (the embedded `#corrfuse-dataset v1` section, verbatim)
//! followed by event lines, one per ingest event, with `+B` marking batch
//! boundaries:
//!
//! ```text
//! #corrfuse-journal v1
//! #epoch n                                            (optional)
//! #threshold t                                        (optional)
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
//! The optional lines stamp the snapshot with the session's replication
//! epoch and decision threshold, each only off its default (0 and 0.5).
//!
//! Field escaping is shared with the dataset dialect
//! ([`corrfuse_core::io::escape`]). Appending is the only mutation — a
//! session's whole history replays from the top — and every parse error
//! reports the 1-based line number *in the journal file*, including
//! errors inside the embedded seed section.
//!
//! # Durability and crash recovery
//!
//! A batch is committed once its `+B` line is whole: the `+B` line is
//! the commit record ([`crate::codec`]'s commit rule). After a crash
//! (power loss, a killed shard worker) the file can end in a torn line
//! or in events whose `+B` never landed, because one append is one
//! `write_all`, not one atomic disk write. Neither is a batch: [`recover`]
//! decodes only the committed prefix — through the last whole `+B` line,
//! or through the `#events` line when no batch closed — and reports its
//! byte length, so [`crate::StreamSession::recover`] replays it and
//! truncates the file to it before appending again. A cut before the
//! whole `#events` line leaves no seed to start from and is an error
//! (a replication follower then rebuilds that journal from a snapshot).
//! How eagerly writes reach the disk is the writer's
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
/// Optional threshold line after the epoch line: `#threshold <t>`
/// records the session's decision threshold, so a restored session
/// decides as the one that wrote the journal. Emitted only when the
/// threshold is not [`DEFAULT_THRESHOLD`]; a missing line reads as it.
const THRESHOLD_MARK: &str = "#threshold";
/// The decision threshold a journal without a `#threshold` line
/// records: 0.5, the paper's setting and a session's default.
pub const DEFAULT_THRESHOLD: f64 = 0.5;

// The event-line encoding and the commit rule live in [`crate::codec`],
// shared with the wire protocol (`corrfuse-net`); this module owns the
// file format around it: header, embedded seed snapshot, durability and
// rotation.

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
/// `epoch` is zero), threshold line (omitted at [`DEFAULT_THRESHOLD`]),
/// seed section, events marker.
fn snapshot_string(seed: &Dataset, epoch: u64, threshold: f64) -> String {
    let mut out = format!("{HEADER}\n");
    if epoch != 0 {
        out += &format!("{EPOCH_MARK} {epoch}\n");
    }
    // `f64`'s `Display` is the shortest text that parses back to the
    // same bits.
    if threshold != DEFAULT_THRESHOLD {
        out += &format!("{THRESHOLD_MARK} {threshold}\n");
    }
    // `io::to_string` ends with a newline, so the marker lands on its own
    // line.
    out + SEED_MARK + "\n" + &corrfuse_core::io::to_string(seed) + EVENTS_MARK + "\n"
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
    /// epoch at which `seed` was captured, and with the session's
    /// decision `threshold`: [`recover`] reports both back, so a
    /// restored session (or a cold-restarting follower) resumes epoch
    /// numbering where the snapshot left off instead of restarting from
    /// zero, and decides as before.
    pub fn create(
        path: impl AsRef<Path>,
        seed: &Dataset,
        fsync: FsyncPolicy,
        epoch: u64,
        threshold: f64,
    ) -> Result<JournalWriter> {
        let path = path.as_ref();
        fs::write(path, snapshot_string(seed, epoch, threshold))?;
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
    /// the snapshot already contains. It keeps the decision `threshold`
    /// as [`JournalWriter::create`] does.
    pub fn rotate(&mut self, seed: &Dataset, epoch: u64, threshold: f64) -> Result<u64> {
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
            f.write_all(snapshot_string(seed, epoch, threshold).as_bytes())?;
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

/// A journal's committed prefix, decoded ([`recover`]).
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The base epoch of the seed snapshot (0 when the journal predates
    /// epochs or was written by an un-replicated session).
    pub base_epoch: u64,
    /// The decision threshold of the session that wrote the journal
    /// ([`DEFAULT_THRESHOLD`] when the journal has no `#threshold` line).
    pub threshold: f64,
    /// The seed snapshot.
    pub seed: Dataset,
    /// The committed event batches, each closed by its whole `+B` line.
    /// The session's epoch after replaying them is
    /// `base_epoch + batches.len()`.
    pub batches: Vec<Vec<Event>>,
    /// Byte length of the committed prefix. Bytes past it (a torn line,
    /// or events whose `+B` never landed) are no batch; truncate the
    /// file to this length before resuming appends.
    pub good_len: u64,
}

/// Decode journal text up to its committed prefix: the seed snapshot
/// through the whole `#events` line, then every batch closed by a whole
/// `+B` line. What follows the last one is never a batch. Its whole
/// lines are still checked, so corruption anywhere but a torn final line
/// is an error, as is a cut before the whole `#events` line.
pub fn recover(text: &str) -> Result<Recovered> {
    // Each line with the byte offset just past it, so the event section
    // can be sliced out of `text`.
    let mut lines = text.split_inclusive('\n').scan(0, |end, line| {
        *end += line.len();
        Some((*end, line))
    });
    match lines.next() {
        Some((_, l)) if l.trim_end() == HEADER => {}
        _ => {
            return Err(FusionError::Parse {
                line: 1,
                msg: format!("expected journal header `{HEADER}`"),
            })
        }
    }
    // Optional `#epoch <n>` and `#threshold <t>` lines may sit between
    // the header and the seed marker; each one present shifts every
    // later line by one. `seed_offset` ends as the seed marker's line.
    let mut base_epoch = 0u64;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut seed_offset = 1;
    let seed_start = loop {
        seed_offset += 1;
        let Some((end, l)) = lines.next() else {
            break None;
        };
        let l = l.trim_end();
        if l == SEED_MARK {
            break Some(end);
        } else if let Some(v) = l.strip_prefix(EPOCH_MARK) {
            base_epoch = header_value(EPOCH_MARK, v, seed_offset)?;
        } else if let Some(v) = l.strip_prefix(THRESHOLD_MARK) {
            threshold = header_value(THRESHOLD_MARK, v, seed_offset)?;
        } else {
            break None;
        }
    }
    .ok_or_else(|| FusionError::Parse {
        line: seed_offset,
        msg: format!("expected `{SEED_MARK}` section"),
    })?;
    // The seed section runs until the whole events marker line; its
    // first line is the file line just past the seed marker, so dataset
    // parse errors are offset by `seed_offset`.
    let mut seed_lines = 0;
    let (seed_end, events) = loop {
        match lines.next() {
            Some((end, l)) if l.ends_with('\n') && l.trim_end() == EVENTS_MARK => {
                break (end - l.len(), end)
            }
            Some(_) => seed_lines += 1,
            None => {
                return Err(FusionError::Parse {
                    line: text.lines().count(),
                    msg: format!("missing `{EVENTS_MARK}` marker"),
                })
            }
        }
    };
    let seed = corrfuse_core::io::from_str(&text[seed_start..seed_end]).map_err(|e| match e {
        FusionError::Parse { line, msg } => FusionError::Parse {
            line: line + seed_offset,
            msg,
        },
        other => other,
    })?;
    // The event section is the shared codec dialect, under its commit
    // rule.
    let first_line = seed_offset + seed_lines + 2;
    let (batches, committed) = codec::parse_batch_lines(&text[events..], first_line)?;
    Ok(Recovered {
        base_epoch,
        threshold,
        seed,
        batches,
        good_len: (events + committed) as u64,
    })
}

/// The value `v` of the optional header line `mark` on file line `line`.
fn header_value<T: std::str::FromStr>(mark: &str, v: &str, line: usize) -> Result<T> {
    v.trim().parse().map_err(|_| FusionError::Parse {
        line,
        msg: format!("bad `{mark}` value `{}`", v.trim()),
    })
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

    /// A journal file's committed prefix.
    fn read(path: &Path) -> Recovered {
        recover(&fs::read_to_string(path).unwrap()).unwrap()
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
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Never, 0, 0.5).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let back = read(&path);
        assert_eq!(back.seed.n_triples(), 2);
        assert_eq!(back.seed.n_sources(), 2);
        assert_eq!(
            back.seed.triple(TripleId(1)).subject,
            "weird\tfield",
            "seed escaping survives"
        );
        assert_eq!(back.batches, batches());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_trailing_unclosed_batch_is_not_replayed() {
        let text = format!(
            "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n+C\t0\t0\n+B\n+C\t1\t0\n",
            corrfuse_core::io::to_string(&seed())
        );
        let rec = recover(&text).unwrap();
        assert_eq!(
            rec.batches,
            vec![vec![Event::claim(SourceId(0), TripleId(0))]]
        );
        // Recovery keeps the committed prefix only.
        assert_eq!(rec.good_len as usize, text.len() - "+C\t1\t0\n".len());
    }

    #[test]
    fn seed_errors_report_absolute_journal_lines() {
        // Corrupt the label field of the seed's first T record. The seed
        // section starts at line 3; its header is line 3, S lines 4-5, so
        // the broken T record sits on line 6 of the journal file.
        let good = snapshot_string(&seed(), 0, 0.5);
        let bad = good.replace("\t1\t0,1\n", "\t9\t0,1\n");
        assert_ne!(good, bad);
        match recover(&bad).unwrap_err() {
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
        match recover(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, events_line, "{msg}");
                assert!(msg.contains("0 or 1"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_headers_rejected() {
        assert!(recover("").is_err());
        assert!(recover("#wrong\n").is_err());
        assert!(recover(&format!("{HEADER}\nnot-seed\n")).is_err());
        let no_events = format!(
            "{HEADER}\n{SEED_MARK}\n{}",
            corrfuse_core::io::to_string(&seed())
        );
        match recover(&no_events).unwrap_err() {
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
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::EveryBatch, 0, 0.5).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let before = w.bytes();
        assert_eq!(before, std::fs::metadata(&path).unwrap().len());
        // Rotate onto the *original* seed here (a real caller passes the
        // accumulated dataset): the events must be gone afterwards.
        let after = w.rotate(&seed(), 0, 0.5).unwrap();
        assert!(after < before, "rotation shrank the journal");
        let back = read(&path).batches;
        assert!(back.is_empty(), "rotation dropped the replayed events");
        // Appending keeps working post-rotation, and the tmp file is gone.
        w.append_batch(&batches()[0]).unwrap();
        w.seal().unwrap();
        let back = read(&path).batches;
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
        assert_eq!(whole.good_len, text.len() as u64);
        assert_eq!(
            whole.batches,
            vec![vec![Event::claim(SourceId(0), TripleId(0))]]
        );

        // A torn numeric field that would still parse must be dropped,
        // not misread as a different event.
        text.push_str("+C\t1\t0");
        let torn = recover(&text).unwrap();
        assert!(torn.good_len < text.len() as u64);
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
        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Always, 0, 0.5).unwrap();
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
            snapshot_string(&seed(), 0, 0.5),
            format!(
                "{HEADER}\n{SEED_MARK}\n{}{EVENTS_MARK}\n",
                corrfuse_core::io::to_string(&seed())
            )
        );

        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Never, 7, 0.5).unwrap();
        for b in batches() {
            w.append_batch(&b).unwrap();
        }
        let back = read(&path);
        assert_eq!(back.base_epoch, 7);
        assert_eq!(back.batches, batches());

        // Rotation re-stamps: the compacted snapshot carries the epoch
        // of the accumulated state.
        w.rotate(&seed(), 9, 0.5).unwrap();
        let back = read(&path);
        assert_eq!(back.base_epoch, 9);
        assert!(back.batches.is_empty());

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
        let good = snapshot_string(&seed(), 3, 0.5);
        let bad = good.replace("\t1\t0,1\n", "\t9\t0,1\n");
        assert_ne!(good, bad);
        match recover(&bad).unwrap_err() {
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
        match recover(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 2, "{msg}");
                assert!(msg.contains("#epoch"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn threshold_line_roundtrips_through_create_and_rotate() {
        let dir = std::env::temp_dir().join("corrfuse-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("threshold.journal");

        let mut w = JournalWriter::create(&path, &seed(), FsyncPolicy::Never, 4, 0.7).unwrap();
        w.append_batch(&batches()[0]).unwrap();
        let back = read(&path);
        assert_eq!(back.threshold.to_bits(), 0.7f64.to_bits());
        assert_eq!(back.base_epoch, 4);
        assert_eq!(back.batches, vec![batches()[0].clone()]);

        // Rotation stamps the threshold it is given, bit for bit.
        let odd = 0.1 + 0.2;
        w.rotate(&seed(), 5, odd).unwrap();
        let back = read(&path);
        assert_eq!(back.threshold.to_bits(), odd.to_bits());
        assert_eq!(back.base_epoch, 5);
        assert!(back.batches.is_empty());

        // Back at the default, the line goes and the value reads as 0.5.
        w.rotate(&seed(), 6, DEFAULT_THRESHOLD).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains(THRESHOLD_MARK), "{text}");
        assert_eq!(recover(&text).unwrap().threshold, DEFAULT_THRESHOLD);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_default_threshold_writes_the_bytes_it_always_did() {
        // The snapshot prefixes as journals without a threshold line
        // spelled them, with and without an epoch.
        let dataset = corrfuse_core::io::to_string(&seed());
        assert_eq!(
            snapshot_string(&seed(), 0, DEFAULT_THRESHOLD),
            format!("#corrfuse-journal v1\n#seed\n{dataset}#events\n")
        );
        assert_eq!(
            snapshot_string(&seed(), 7, DEFAULT_THRESHOLD),
            format!("#corrfuse-journal v1\n#epoch 7\n#seed\n{dataset}#events\n")
        );
        assert_eq!(
            snapshot_string(&seed(), 7, 0.25),
            format!("#corrfuse-journal v1\n#epoch 7\n#threshold 0.25\n#seed\n{dataset}#events\n")
        );
    }

    #[test]
    fn both_header_lines_shift_error_offsets() {
        // With `#epoch` and `#threshold` the seed section starts two
        // lines later: the broken T record sits on line 8, not 6.
        let good = snapshot_string(&seed(), 3, 0.7);
        let bad = good.replace("\t1\t0,1\n", "\t9\t0,1\n");
        assert_ne!(good, bad);
        match recover(&bad).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 8, "{msg}");
                assert!(msg.contains("bad label"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // An event error counts both lines too.
        let text = format!("{good}+L\t0\t7\n");
        match recover(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, text.lines().count(), "{msg}");
                assert!(msg.contains("0 or 1"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A bad threshold value is reported on its own line.
        let text = format!("{HEADER}\n{EPOCH_MARK} 3\n{THRESHOLD_MARK} high\n{SEED_MARK}\n");
        match recover(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 3, "{msg}");
                assert!(msg.contains("#threshold"));
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
        assert!(recover(&text).is_err());
    }
}
