//! The `#corrfuse-journal v1` *event codec*: the line-oriented encoding
//! of [`Event`]s and batch boundaries, factored out of [`crate::journal`]
//! so every transport that carries event batches speaks one dialect.
//!
//! Two consumers share this module:
//!
//! * [`crate::journal`] — the on-disk append-only session history (a
//!   dataset snapshot followed by encoded batches);
//! * `corrfuse-net` — the wire protocol's `INGEST` frame payload is
//!   exactly one encoded batch ([`encode_batch`]), which makes a captured
//!   wire stream *replayable as a journal*: concatenate the payloads
//!   after a snapshot prefix and the result parses as a journal file.
//!
//! The encoding is TSV-per-line, reusing [`corrfuse_core::io::escape`]
//! for field content, with one line per event and a `+B` line closing
//! each batch:
//!
//! ```text
//! +S<TAB>source-name                                  (AddSource)
//! +T<TAB>subject<TAB>predicate<TAB>object<TAB>domain  (AddTriple)
//! +C<TAB>source-index<TAB>triple-index                (Claim)
//! +L<TAB>triple-index<TAB>0|1                         (Label)
//! +B                                                  (batch boundary)
//! ```
//!
//! Every line — including the last — ends in `\n`, so encoded batches
//! concatenate cleanly and a torn append can only damage the final line.
//! Parse errors report the 1-based line number handed in by the caller,
//! so journal files can surface absolute file positions while wire
//! payloads report payload-relative ones.
//!
//! # The commit rule
//!
//! A batch exists once its `+B` line is whole, newline included. Events
//! after the last whole boundary are never a batch, and a line without
//! its newline is never parsed. [`parse_batch_lines`] is the one place
//! that applies this rule: the journal replays and keeps only the
//! committed prefix it reports ([`crate::journal::recover`]), and the
//! `INGEST` and `BATCH` payloads must each be exactly one committed
//! batch ([`parse_batch`]).

use std::fmt::Write as _;

use corrfuse_core::dataset::{Domain, SourceId};
use corrfuse_core::error::{FusionError, Result};
use corrfuse_core::io::{escape, unescape};
use corrfuse_core::triple::{Triple, TripleId};

use crate::event::Event;

/// The batch-boundary tag (a complete line of its own).
pub const BOUNDARY_TAG: &str = "+B";

/// Append one encoded batch — its event lines plus the closing `+B`
/// line, every line `\n`-terminated — to `out`.
pub fn write_batch(batch: &[Event], out: &mut String) {
    for ev in batch {
        let written = match ev {
            Event::AddSource { name } => {
                out.push_str("+S\t");
                escape(name, out);
                Ok(())
            }
            Event::AddTriple { triple, domain } => {
                out.push_str("+T\t");
                escape(&triple.subject, out);
                out.push('\t');
                escape(&triple.predicate, out);
                out.push('\t');
                escape(&triple.object, out);
                write!(out, "\t{}", domain.0)
            }
            Event::Claim { source, triple } => write!(out, "+C\t{}\t{}", source.0, triple.0),
            Event::Label { triple, truth } => {
                write!(out, "+L\t{}\t{}", triple.0, u8::from(*truth))
            }
        };
        written.expect("writing into a String cannot fail");
        out.push('\n');
    }
    out.push_str(BOUNDARY_TAG);
    out.push('\n');
}

/// One encoded batch as a standalone string (the wire payload form).
pub fn encode_batch(batch: &[Event]) -> String {
    let mut out = String::new();
    write_batch(batch, &mut out);
    out
}

/// A decoded codec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// An event line (`+S` / `+T` / `+C` / `+L`).
    Event(Event),
    /// The `+B` batch boundary.
    Boundary,
}

/// Decode one codec line. `lineno` is the 1-based line number reported
/// in parse errors (journal files pass absolute file positions, wire
/// payloads pass payload-relative ones). Trailing `\r` is tolerated.
pub fn parse_line(raw: &str, lineno: usize) -> Result<Line> {
    let line = raw.trim_end_matches('\r');
    let mut fields = line.split('\t');
    let tag = fields.next().unwrap_or_default();
    match tag {
        BOUNDARY_TAG => Ok(Line::Boundary),
        "+S" => {
            let name = fields.next().ok_or_else(|| FusionError::Parse {
                line: lineno,
                msg: "+S line missing name".to_string(),
            })?;
            Ok(Line::Event(Event::AddSource {
                name: unescape(name, lineno)?,
            }))
        }
        "+T" => {
            let mut next = |what: &str| -> Result<String> {
                fields
                    .next()
                    .ok_or_else(|| FusionError::Parse {
                        line: lineno,
                        msg: format!("+T line missing {what}"),
                    })
                    .and_then(|f| unescape(f, lineno))
            };
            let subject = next("subject")?;
            let predicate = next("predicate")?;
            let object = next("object")?;
            let domain: u32 = next("domain")?.parse().map_err(|_| FusionError::Parse {
                line: lineno,
                msg: "+T line needs a numeric domain".to_string(),
            })?;
            Ok(Line::Event(Event::AddTriple {
                triple: Triple::new(subject, predicate, object),
                domain: Domain(domain),
            }))
        }
        "+C" => {
            let s = index_field(&mut fields, "+C", "source index", lineno)?;
            let t = index_field(&mut fields, "+C", "triple index", lineno)?;
            Ok(Line::Event(Event::Claim {
                source: SourceId(s),
                triple: TripleId(t),
            }))
        }
        "+L" => {
            let t: u32 = index_field(&mut fields, "+L", "triple index", lineno)?;
            let truth = match fields.next() {
                Some("1") => true,
                Some("0") => false,
                other => {
                    return Err(FusionError::Parse {
                        line: lineno,
                        msg: format!(
                            "+L label must be 0 or 1, got `{}`",
                            other.unwrap_or_default()
                        ),
                    })
                }
            };
            Ok(Line::Event(Event::Label {
                triple: TripleId(t),
                truth,
            }))
        }
        other => Err(FusionError::Parse {
            line: lineno,
            msg: format!("unknown journal tag `{other}`"),
        }),
    }
}

/// Decode the batches `text` commits, and the byte length of its
/// committed prefix: through its last whole `+B` line, 0 when none is
/// (the commit rule; see the module docs). Blank lines and `#`-comments
/// are skipped, mirroring the journal's event section. `first_line` is
/// the 1-based number of `text`'s first line, for parse errors. This is
/// the shared walk behind [`crate::journal::recover`] and the wire
/// decoder ([`parse_batch`]).
pub fn parse_batch_lines(text: &str, first_line: usize) -> Result<(Vec<Vec<Event>>, usize)> {
    let mut batches = Vec::new();
    let mut current = Vec::new();
    let (mut read, mut committed) = (0, 0);
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        read += raw.len();
        let line = raw.trim_end_matches(['\n', '\r']);
        if !raw.ends_with('\n') || line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line, first_line + i)? {
            Line::Boundary => {
                batches.push(std::mem::take(&mut current));
                committed = read;
            }
            Line::Event(ev) => current.push(ev),
        }
    }
    // `current` holds the events after the last boundary: never a batch.
    Ok((batches, committed))
}

/// Decode the event text of an `INGEST` or `BATCH` frame, which must be
/// exactly one batch that its whole `+B` line commits and ends. Line
/// numbers in errors are relative to `text` (1-based).
pub fn parse_batch(text: &str) -> Result<Vec<Event>> {
    let (batches, committed) = parse_batch_lines(text, 1)?;
    let n = batches.len();
    match <[Vec<Event>; 1]>::try_from(batches) {
        Ok([events]) if committed == text.len() => Ok(events),
        _ => Err(FusionError::Parse {
            line: text.lines().count(),
            msg: format!(
                "expected exactly one batch ended by its `+B` line, got {n} and {} uncommitted bytes",
                text.len() - committed
            ),
        }),
    }
}

fn index_field<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    what: &str,
    lineno: usize,
) -> Result<u32> {
    fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| FusionError::Parse {
            line: lineno,
            msg: format!("{tag} line needs a {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::add_source("A\twith tab"),
            Event::add_triple_in("x\ny", "p", "1", Domain(3)),
            Event::claim(SourceId(0), TripleId(7)),
            Event::label(TripleId(7), true),
        ]
    }

    #[test]
    fn batch_roundtrip_preserves_events() {
        let text = encode_batch(&sample());
        assert!(text.ends_with("+B\n"), "batches are self-terminating");
        let (batches, committed) = parse_batch_lines(&text, 1).unwrap();
        assert_eq!(batches, vec![sample()]);
        assert_eq!(committed, text.len());
    }

    #[test]
    fn concatenated_batches_parse_in_order() {
        let mut text = encode_batch(&sample());
        text.push_str(&encode_batch(&[Event::label(TripleId(0), false)]));
        let (batches, _) = parse_batch_lines(&text, 1).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1], vec![Event::label(TripleId(0), false)]);
    }

    #[test]
    fn an_open_tail_is_never_a_batch() {
        // Events with no `+B` after them commit nothing.
        assert_eq!(parse_batch_lines("+C\t0\t0\n", 1).unwrap(), (vec![], 0));
        // Neither does a boundary without its newline, nor anything
        // after the last whole one; a torn line is never parsed.
        let text = "+C\t0\t0\n+B\n+C\t1\t0\n+B";
        let claim = Event::claim(SourceId(0), TripleId(0));
        assert_eq!(
            parse_batch_lines(text, 1).unwrap(),
            (vec![vec![claim.clone()]], 10)
        );
        assert_eq!(
            parse_batch_lines("+C\t0\t0\n+B\n+T\tx", 1).unwrap(),
            (vec![vec![claim.clone()]], 10)
        );
        // An empty closed batch is just the boundary.
        assert_eq!(parse_batch_lines("+B\n", 1).unwrap(), (vec![vec![]], 3));
        // A frame payload is exactly one committed batch.
        assert_eq!(parse_batch("+C\t0\t0\n+B\n").unwrap(), vec![claim]);
        for bad in [
            "",
            "+C\t0\t0\n",
            "+C\t0\t0\n+B",
            "+B\n+B\n",
            "+B\n+C\t0\t0\n",
        ] {
            assert!(parse_batch(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn errors_carry_the_caller_lineno() {
        match parse_line("+L\t0\t7", 42).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 42);
                assert!(msg.contains("0 or 1"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_line("+X\tboom", 1).is_err());
        assert!(parse_line("+S", 1).is_err());
        assert!(parse_line("+T\ta\tb", 1).is_err());
        assert!(parse_line("+T\ta\tb\tc\tnot-a-number", 1).is_err());
        assert!(parse_line("+C\t1", 1).is_err());
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let (batches, _) = parse_batch_lines("# comment\n\n+C\t0\t0\n+B\n", 1).unwrap();
        assert_eq!(batches.len(), 1);
    }
}
