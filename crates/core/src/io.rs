//! Plain-text persistence for datasets.
//!
//! The format is a line-oriented TSV dialect (no external format crates):
//!
//! ```text
//! #corrfuse-dataset v1
//! S<TAB>source-name
//! O<TAB>source-index<TAB>domain,domain,...  (optional; explicit scope override)
//! D<TAB>triple-index<TAB>domain            (optional; default domain 0)
//! T<TAB>subject<TAB>predicate<TAB>object<TAB>label<TAB>provider,provider,...
//! ```
//!
//! `label` is `1` (true), `0` (false) or `?` (unlabelled). Providers are
//! comma-separated indices into the `S` lines, in file order. Triples are
//! written in [`TripleId`](crate::triple::TripleId) order so a round-trip
//! preserves ids. Tab and newline characters inside fields are escaped
//! (`\t`, `\n`, `\\`).
//!
//! An `O` record pins a source's scope to an explicit domain set (an
//! empty set is legal: `O<TAB>3<TAB>` followed by nothing). It is only
//! written for sources whose scope differs from the provision-inferred
//! default, so files without overrides are unchanged from the base
//! dialect.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::dataset::{Dataset, DatasetBuilder, Domain, SourceId};
use crate::error::{FusionError, Result};

const HEADER: &str = "#corrfuse-dataset v1";

/// Escape a field for the TSV dialect (`\t`, `\n`, `\\`), appending to
/// `out`. Public so dialect extensions (e.g. the `corrfuse-stream`
/// journal) share one escaping policy.
pub fn escape(field: &str, out: &mut String) {
    for c in field.chars() {
        match c {
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
}

/// Inverse of [`escape`]. `line` is the 1-based line number reported in
/// parse errors (every `FusionError::Parse` in this dialect and its
/// extensions is 1-based).
pub fn unescape(field: &str, line: usize) -> Result<String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            other => {
                return Err(FusionError::Parse {
                    line,
                    msg: format!(
                        "bad escape sequence \\{}",
                        other.map(String::from).unwrap_or_default()
                    ),
                })
            }
        }
    }
    Ok(out)
}

/// Serialise a dataset to the text format.
pub fn to_string(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for s in ds.sources() {
        out.push_str("S\t");
        escape(ds.source_name(s), &mut out);
        out.push('\n');
    }
    for s in ds.sources() {
        let inferred: std::collections::HashSet<Domain> =
            ds.output(s).iter().map(|&t| ds.domain(t)).collect();
        if *ds.scope(s) != inferred {
            let mut domains: Vec<u32> = ds.scope(s).iter().map(|d| d.0).collect();
            domains.sort_unstable();
            let list: Vec<String> = domains.iter().map(u32::to_string).collect();
            let _ = writeln!(out, "O\t{}\t{}", s.0, list.join(","));
        }
    }
    for t in ds.triples() {
        let d = ds.domain(t);
        if d != Domain(0) {
            let _ = writeln!(out, "D\t{}\t{}", t.index(), d.0);
        }
    }
    for t in ds.triples() {
        let triple = ds.triple(t);
        out.push_str("T\t");
        escape(&triple.subject, &mut out);
        out.push('\t');
        escape(&triple.predicate, &mut out);
        out.push('\t');
        escape(&triple.object, &mut out);
        out.push('\t');
        match ds.gold().and_then(|g| g.get(t)) {
            Some(true) => out.push('1'),
            Some(false) => out.push('0'),
            None => out.push('?'),
        }
        out.push('\t');
        let providers: Vec<String> = ds.providers(t).iter_ones().map(|s| s.to_string()).collect();
        out.push_str(&providers.join(","));
        out.push('\n');
    }
    out
}

/// Parse a dataset from the text format.
pub fn from_str(text: &str) -> Result<Dataset> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == HEADER => {}
        Some((_, l)) => {
            return Err(FusionError::Parse {
                line: 1,
                msg: format!("expected header `{HEADER}`, found `{l}`"),
            })
        }
        None => {
            return Err(FusionError::Parse {
                line: 1,
                msg: "empty input".to_string(),
            })
        }
    }

    let mut builder = DatasetBuilder::new();
    let mut sources: Vec<SourceId> = Vec::new();
    // (triple index, domain, 1-based line of the D record for errors).
    let mut pending_domains: Vec<(usize, u32, usize)> = Vec::new();
    // (source index, domains, 1-based line of the O record for errors).
    let mut pending_scopes: Vec<(usize, Vec<u32>, usize)> = Vec::new();
    let mut triple_count = 0usize;

    for (idx, raw) in lines {
        let lineno = idx + 1;
        let line = raw.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let tag = fields.next().unwrap_or_default();
        match tag {
            "S" => {
                let name = fields.next().ok_or_else(|| FusionError::Parse {
                    line: lineno,
                    msg: "S line missing name".to_string(),
                })?;
                sources.push(builder.source(unescape(name, lineno)?));
            }
            "O" => {
                let s: usize = fields.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    FusionError::Parse {
                        line: lineno,
                        msg: "O line needs a source index".to_string(),
                    }
                })?;
                let mut domains = Vec::new();
                for d in fields
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter(|d| !d.is_empty())
                {
                    domains.push(d.parse().map_err(|_| FusionError::Parse {
                        line: lineno,
                        msg: format!("bad scope domain `{d}`"),
                    })?);
                }
                pending_scopes.push((s, domains, lineno));
            }
            "D" => {
                let t: usize = fields.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    FusionError::Parse {
                        line: lineno,
                        msg: "D line needs a triple index".to_string(),
                    }
                })?;
                let d: u32 = fields.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    FusionError::Parse {
                        line: lineno,
                        msg: "D line needs a domain id".to_string(),
                    }
                })?;
                pending_domains.push((t, d, lineno));
            }
            "T" => {
                let mut next = |what: &str| -> Result<String> {
                    fields
                        .next()
                        .ok_or_else(|| FusionError::Parse {
                            line: lineno,
                            msg: format!("T line missing {what}"),
                        })
                        .and_then(|f| unescape(f, lineno))
                };
                let subject = next("subject")?;
                let predicate = next("predicate")?;
                let object = next("object")?;
                let label = next("label")?;
                let providers = next("providers")?;
                let t = builder.triple(subject, predicate, object);
                if t.index() != triple_count {
                    return Err(FusionError::Parse {
                        line: lineno,
                        msg: "duplicate triple".to_string(),
                    });
                }
                triple_count += 1;
                match label.as_str() {
                    "1" => builder.label(t, true),
                    "0" => builder.label(t, false),
                    "?" => {}
                    other => {
                        return Err(FusionError::Parse {
                            line: lineno,
                            msg: format!("bad label `{other}` (want 1/0/?)"),
                        })
                    }
                }
                for p in providers.split(',').filter(|p| !p.is_empty()) {
                    let s: usize = p.parse().map_err(|_| FusionError::Parse {
                        line: lineno,
                        msg: format!("bad provider index `{p}`"),
                    })?;
                    let &sid = sources.get(s).ok_or_else(|| FusionError::Parse {
                        line: lineno,
                        msg: format!("provider index {s} out of range"),
                    })?;
                    builder.observe(sid, t);
                }
            }
            other => {
                return Err(FusionError::Parse {
                    line: lineno,
                    msg: format!("unknown record tag `{other}`"),
                })
            }
        }
    }
    for (t, d, lineno) in pending_domains {
        if t >= triple_count {
            return Err(FusionError::Parse {
                line: lineno,
                msg: format!("domain for unknown triple {t}"),
            });
        }
        builder.set_domain(crate::triple::TripleId(t as u32), Domain(d));
    }
    for (s, domains, lineno) in pending_scopes {
        let &sid = sources.get(s).ok_or_else(|| FusionError::Parse {
            line: lineno,
            msg: format!("scope for unknown source {s}"),
        })?;
        builder.set_scope(sid, domains.into_iter().map(Domain));
    }
    builder.build()
}

/// Write a dataset to a file.
pub fn save(ds: &Dataset, path: impl AsRef<Path>) -> Result<()> {
    fs::write(path, to_string(ds))?;
    Ok(())
}

/// Read a dataset from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Dataset> {
    let text = fs::read_to_string(path)?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s1 = b.source("wiki-extractor");
        let s2 = b.source("infobox extractor");
        let t1 = b.triple("Obama", "profession", "president");
        let t2 = b.triple("Obama", "died", "1982");
        let t3 = b.triple("weird\tname", "has\nnewline", "back\\slash");
        b.observe(s1, t1);
        b.observe(s2, t1);
        b.observe(s1, t2);
        b.observe(s2, t3);
        b.label(t1, true);
        b.label(t2, false);
        b.set_domain(t3, Domain(7));
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let text = to_string(&ds);
        let back = from_str(&text).unwrap();
        assert_eq!(back.n_sources(), ds.n_sources());
        assert_eq!(back.n_triples(), ds.n_triples());
        for t in ds.triples() {
            assert_eq!(back.triple(t), ds.triple(t));
            assert_eq!(
                back.providers(t).iter_ones().collect::<Vec<_>>(),
                ds.providers(t).iter_ones().collect::<Vec<_>>()
            );
            assert_eq!(
                back.gold().and_then(|g| g.get(t)),
                ds.gold().and_then(|g| g.get(t))
            );
            assert_eq!(back.domain(t), ds.domain(t));
        }
        for s in ds.sources() {
            assert_eq!(back.source_name(s), ds.source_name(s));
        }
    }

    #[test]
    fn escaping_special_characters() {
        let ds = sample();
        let text = to_string(&ds);
        assert!(text.contains("weird\\tname"));
        assert!(text.contains("has\\nnewline"));
        assert!(text.contains("back\\\\slash"));
        let back = from_str(&text).unwrap();
        let t3 = back
            .triples()
            .find(|&t| back.triple(t).subject == "weird\tname")
            .expect("escaped triple survives");
        assert_eq!(back.triple(t3).predicate, "has\nnewline");
        assert_eq!(back.triple(t3).object, "back\\slash");
    }

    #[test]
    fn header_is_required() {
        assert!(from_str("S\tfoo\n").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn bad_label_rejected() {
        let text = format!("{HEADER}\nS\tA\nT\tx\tp\tv\t2\t0\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("bad label"));
    }

    #[test]
    fn provider_out_of_range_rejected() {
        let text = format!("{HEADER}\nS\tA\nT\tx\tp\tv\t1\t3\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let text = format!("{HEADER}\nX\tboom\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{HEADER}\n\n# a comment\nS\tA\nT\tx\tp\tv\t1\t0\n");
        let ds = from_str(&text).unwrap();
        assert_eq!(ds.n_triples(), 1);
    }

    #[test]
    fn scope_overrides_roundtrip() {
        let mut b = DatasetBuilder::new();
        let s1 = b.source("books");
        let s2 = b.source("bios");
        let t1 = b.triple("b1", "author", "X");
        let t2 = b.triple("p1", "born", "1960");
        b.set_domain(t1, Domain(1));
        b.set_domain(t2, Domain(2));
        b.observe(s1, t1);
        b.observe(s2, t2);
        b.label(t1, true);
        b.label(t2, false);
        // books covers both domains despite providing in one; bios is
        // pinned to an *empty* scope.
        b.set_scope(s1, [Domain(1), Domain(2)]);
        b.set_scope(s2, []);
        let ds = b.build().unwrap();
        let text = to_string(&ds);
        assert!(text.contains("O\t0\t1,2"), "{text}");
        assert!(text.contains("O\t1\t"), "{text}");
        let back = from_str(&text).unwrap();
        for s in ds.sources() {
            assert_eq!(back.scope(s), ds.scope(s), "{s}");
        }
        // Default-scope sources emit no O record.
        let plain = sample();
        assert!(!to_string(&plain).contains("\nO\t"));
    }

    #[test]
    fn scope_record_errors() {
        let text = format!("{HEADER}\nS\tA\nO\t9\t0\nT\tx\tp\tv\t1\t0\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("unknown source 9"), "{err}");
        let text = format!("{HEADER}\nS\tA\nO\t0\tbad\nT\tx\tp\tv\t1\t0\n");
        let err = from_str(&text).unwrap_err();
        assert!(err.to_string().contains("bad scope domain"), "{err}");
        let text = format!("{HEADER}\nS\tA\nO\n");
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn domain_for_unknown_triple_names_its_line() {
        // The D record sits on (1-based) line 3; the error must say so
        // rather than the old placeholder line 0.
        let text = format!("{HEADER}\nS\tA\nD\t7\t2\nT\tx\tp\tv\t1\t0\n");
        match from_str(&text).unwrap_err() {
            FusionError::Parse { line, msg } => {
                assert_eq!(line, 3, "{msg}");
                assert!(msg.contains("unknown triple 7"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_errors_report_one_based_lines() {
        // A bad label on the third line of the file.
        let text = format!("{HEADER}\nS\tA\nT\tx\tp\tv\t2\t0\n");
        match from_str(&text).unwrap_err() {
            FusionError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
        // A bad escape in a field names the line holding the field.
        let text = format!("{HEADER}\nS\tbad\\x\n");
        match from_str(&text).unwrap_err() {
            FusionError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip() {
        let ds = sample();
        let dir = std::env::temp_dir().join("corrfuse-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.tsv");
        save(&ds, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.n_triples(), ds.n_triples());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load("/nonexistent/corrfuse-nope.tsv").unwrap_err();
        assert!(matches!(err, FusionError::Io(_)));
    }

    #[test]
    fn unlabelled_triples_roundtrip() {
        let mut b = DatasetBuilder::new();
        let s = b.source("A");
        let t1 = b.triple("x", "p", "1");
        let t2 = b.triple("y", "p", "2");
        b.observe(s, t1);
        b.observe(s, t2);
        b.label(t1, true);
        let ds = b.build().unwrap();
        let back = from_str(&to_string(&ds)).unwrap();
        let g = back.gold().unwrap();
        assert_eq!(g.get(crate::triple::TripleId(0)), Some(true));
        assert_eq!(g.get(crate::triple::TripleId(1)), None);
    }
}
