//! Ingest events: the deltas a session applies, journals and
//! replicates in batches.

use corrfuse_core::dataset::{Domain, SourceId};
use corrfuse_core::triple::{Triple, TripleId};

/// One ingest event against a live session.
///
/// Sources and triples are referenced by the session's dense ids, which
/// are assigned in event order: an [`Event::AddSource`] /
/// [`Event::AddTriple`] for unseen content takes the next free id, while
/// re-registering known content is a no-op (mirroring
/// [`corrfuse_core::DatasetBuilder`]'s interning). This makes a recorded
/// event stream deterministic to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Register a new source by name.
    AddSource {
        /// Source display name (the dataset's dedup key).
        name: String,
    },
    /// Intern a new triple with its domain.
    AddTriple {
        /// The triple content.
        triple: Triple,
        /// Scope domain (use `Domain(0)` for single-domain workloads).
        domain: Domain,
    },
    /// A new claim/provider edge: `source |= triple`.
    Claim {
        /// The claiming source.
        source: SourceId,
        /// The claimed triple.
        triple: TripleId,
    },
    /// Attach (or overwrite) a gold truth label.
    Label {
        /// The labelled triple.
        triple: TripleId,
        /// Its truth value.
        truth: bool,
    },
}

impl Event {
    /// Shorthand for [`Event::AddSource`].
    pub fn add_source(name: impl Into<String>) -> Event {
        Event::AddSource { name: name.into() }
    }

    /// Shorthand for [`Event::AddTriple`] in the default domain.
    pub fn add_triple(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
    ) -> Event {
        Event::add_triple_in(subject, predicate, object, Domain(0))
    }

    /// Shorthand for [`Event::AddTriple`] with an explicit domain.
    pub fn add_triple_in(
        subject: impl Into<String>,
        predicate: impl Into<String>,
        object: impl Into<String>,
        domain: Domain,
    ) -> Event {
        Event::AddTriple {
            triple: Triple::new(subject, predicate, object),
            domain,
        }
    }

    /// Shorthand for [`Event::Claim`].
    pub fn claim(source: SourceId, triple: TripleId) -> Event {
        Event::Claim { source, triple }
    }

    /// Shorthand for [`Event::Label`].
    pub fn label(triple: TripleId, truth: bool) -> Event {
        Event::Label { triple, truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_constructors() {
        assert_eq!(
            Event::add_triple("x", "p", "1"),
            Event::AddTriple {
                triple: Triple::new("x", "p", "1"),
                domain: Domain(0)
            }
        );
        assert_eq!(
            Event::claim(SourceId(1), TripleId(2)),
            Event::Claim {
                source: SourceId(1),
                triple: TripleId(2)
            }
        );
    }
}
