//! Tenants and the per-tenant id translation into a shard's shared
//! namespaces.
//!
//! Each tenant speaks to the router as if it owned a private session:
//! its events reference tenant-local dense [`SourceId`]s / [`TripleId`]s
//! / [`Domain`]s, assigned in event order exactly like a standalone
//! [`corrfuse_stream::StreamSession`] would. A shard hosts many tenants
//! in one session, so the shard worker translates on ingest:
//!
//! * source names and triple subjects are *namespaced* with the tenant id
//!   (separated by ASCII unit-separator `\u{1F}`), so equal content from
//!   different tenants never collides in the shard dataset's interning;
//! * tenant-local ids map positionally through a [`TenantMap`] — local id
//!   `k` is the `k`-th source/triple the tenant ever registered;
//! * tenant-local domains map to shard-global domains allocated on first
//!   sight, so per-tenant scope semantics are preserved verbatim.
//!
//! Translation is deterministic, which is what lets the serving layer
//! inherit the stream layer's bitwise-equivalence trust anchor.

use std::collections::HashMap;
use std::fmt;

use corrfuse_core::dataset::{Dataset, Domain, SourceId};
use corrfuse_core::triple::{Triple, TripleId};

/// A tenant (routing key). Dense ids; [`TenantId::home_shard`] picks
/// the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The static placement, shard `self.0 % n_shards`: where the router
    /// seeds the tenant and serves it until a migration moves it.
    pub fn home_shard(self, n_shards: usize) -> usize {
        self.0 as usize % n_shards
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Separator between the tenant prefix and user content in namespaced
/// names. An ASCII control character that survives the journal's TSV
/// escaping and is vanishingly unlikely in real source names/subjects.
pub const NAMESPACE_SEP: char = '\u{1F}';

/// Namespace a tenant-local source name into the shard's source space.
pub(crate) fn scoped_source_name(tenant: TenantId, name: &str) -> String {
    format!("{}{NAMESPACE_SEP}{name}", tenant.0)
}

/// Namespace a tenant-local triple into the shard's triple space (the
/// subject carries the prefix; predicate/object are untouched).
pub(crate) fn scoped_triple(tenant: TenantId, t: &Triple) -> Triple {
    Triple::new(
        format!("{}{NAMESPACE_SEP}{}", tenant.0, t.subject),
        t.predicate.clone(),
        t.object.clone(),
    )
}

/// Strip the tenant namespace off a shard-side subject or source name
/// (for human-facing output; returns the input unchanged if it carries no
/// prefix).
pub fn unscoped(name: &str) -> &str {
    match name.split_once(NAMESPACE_SEP) {
        Some((_, rest)) => rest,
        None => name,
    }
}

/// The tenant a shard-side subject or source name belongs to, if it
/// carries a parseable namespace prefix.
pub(crate) fn tenant_of(name: &str) -> Option<TenantId> {
    let (prefix, _) = name.split_once(NAMESPACE_SEP)?;
    prefix.parse().ok().map(TenantId)
}

/// Rebuild the per-tenant id maps of a shard from its dataset alone.
///
/// Shard datasets intern sources and triples in first-registration
/// order, and a tenant's positional map is exactly its registration
/// order, so walking the dataset in id order and grouping by namespace
/// prefix reproduces the leader's [`TenantMap`]s deterministically. This
/// is how a replication follower — which receives shard-space snapshots
/// and batches, never tenant events — recovers the tenant view needed to
/// serve per-tenant reads. Domain translation maps are not recoverable
/// (and not needed: followers never translate ingest), so `domains` is
/// left empty. Entries without a parseable tenant prefix are ignored.
pub fn derive_tenant_maps(dataset: &Dataset) -> HashMap<TenantId, TenantMap> {
    let mut maps = HashMap::new();
    extend_tenant_maps(&mut maps, dataset, 0, 0);
    maps
}

/// Incrementally extend derived tenant maps with the sources/triples the
/// dataset gained since the last derivation (`from_sources` /
/// `from_triples` are the counts already mapped). Interning ids are
/// dense and append-only, so walking just the new suffix keeps a
/// follower's maps exact in O(batch) per batch instead of O(dataset).
pub fn extend_tenant_maps(
    maps: &mut HashMap<TenantId, TenantMap>,
    dataset: &Dataset,
    from_sources: usize,
    from_triples: usize,
) {
    for s in dataset.sources().skip(from_sources) {
        if let Some(tenant) = tenant_of(dataset.source_name(s)) {
            maps.entry(tenant).or_default().sources.push(s);
        }
    }
    for t in dataset.triples().skip(from_triples) {
        if let Some(tenant) = tenant_of(&dataset.triple(t).subject) {
            maps.entry(tenant).or_default().triples.push(t);
        }
    }
}

/// One tenant's positional id maps into its shard's session.
///
/// `sources[k]` / `triples[k]` is the shard-session id of the tenant's
/// `k`-th registered source / triple; `domains` maps tenant-local domains
/// to the shard-global domains allocated for this tenant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantMap {
    pub(crate) sources: Vec<SourceId>,
    pub(crate) triples: Vec<TripleId>,
    pub(crate) domains: HashMap<Domain, Domain>,
}

impl TenantMap {
    /// Number of sources the tenant has registered.
    pub fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of triples the tenant has registered.
    pub fn n_triples(&self) -> usize {
        self.triples.len()
    }

    /// Shard-session id of the tenant-local triple `t`, if registered.
    pub fn triple(&self, t: TripleId) -> Option<TripleId> {
        self.triples.get(t.index()).copied()
    }

    /// Shard-session id of the tenant-local source `s`, if registered.
    pub fn source(&self, s: SourceId) -> Option<SourceId> {
        self.sources.get(s.index()).copied()
    }

    /// Project per-triple shard values (scores, in shard `TripleId`
    /// order) onto the tenant's local triple order: entry `k` is `f` of
    /// the value of the tenant's `k`-th triple.
    pub fn project<T>(&self, shard_values: &[f64], f: impl Fn(f64) -> T) -> Vec<T> {
        self.triples
            .iter()
            .map(|&t| f(shard_values[t.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespacing_separates_tenants() {
        let a = scoped_source_name(TenantId(1), "crawler");
        let b = scoped_source_name(TenantId(2), "crawler");
        assert_ne!(a, b);
        assert_eq!(unscoped(&a), "crawler");
        assert_eq!(unscoped("plain"), "plain");
        let t = Triple::new("Obama", "profession", "president");
        let st = scoped_triple(TenantId(7), &t);
        assert_eq!(unscoped(&st.subject), "Obama");
        assert_eq!(st.predicate, "profession");
        assert_ne!(st, scoped_triple(TenantId(8), &t));
    }

    #[test]
    fn derived_maps_follow_registration_order() {
        use corrfuse_core::dataset::DatasetBuilder;
        let mut b = DatasetBuilder::new();
        let s0 = b.source(scoped_source_name(TenantId(1), "A"));
        let s1 = b.source(scoped_source_name(TenantId(2), "A"));
        let s2 = b.source(scoped_source_name(TenantId(1), "B"));
        b.source("unprefixed");
        let t0 = b.triple(format!("2{NAMESPACE_SEP}x"), "p", "1");
        b.observe(s1, t0);
        let t1 = b.triple(format!("1{NAMESPACE_SEP}x"), "p", "1");
        b.observe(s0, t1);
        b.observe(s2, t1);
        b.label(t0, true);
        b.label(t1, false);
        let d = b.build().unwrap();

        let maps = derive_tenant_maps(&d);
        assert_eq!(maps.len(), 2);
        let m1 = &maps[&TenantId(1)];
        assert_eq!(m1.sources, vec![s0, s2]);
        assert_eq!(m1.triples, vec![t1]);
        assert!(m1.domains.is_empty());
        let m2 = &maps[&TenantId(2)];
        assert_eq!(m2.sources, vec![s1]);
        assert_eq!(m2.triples, vec![t0]);
    }

    #[test]
    fn extend_picks_up_only_the_new_suffix() {
        use corrfuse_core::dataset::DatasetBuilder;
        let mut b = DatasetBuilder::new();
        let s0 = b.source(scoped_source_name(TenantId(1), "A"));
        let t0 = b.triple(format!("1{NAMESPACE_SEP}x"), "p", "1");
        b.observe(s0, t0);
        b.label(t0, true);
        let t1 = b.triple(format!("2{NAMESPACE_SEP}y"), "p", "2");
        let s1 = b.source(scoped_source_name(TenantId(2), "B"));
        b.observe(s1, t1);
        b.label(t1, false);
        let d = b.build().unwrap();

        let full = derive_tenant_maps(&d);
        let mut maps = HashMap::new();
        extend_tenant_maps(&mut maps, &d, 0, 0);
        assert_eq!(maps, full);
        // Re-extending from the current counts is a no-op.
        extend_tenant_maps(&mut maps, &d, d.n_sources(), d.n_triples());
        assert_eq!(maps, full);
        // Extending from a mid-stream count maps only the suffix.
        let mut tail = HashMap::new();
        extend_tenant_maps(&mut tail, &d, 1, 1);
        assert_eq!(tail[&TenantId(2)], full[&TenantId(2)]);
        assert!(!tail.contains_key(&TenantId(1)));
    }

    #[test]
    fn tenant_map_lookups() {
        let map = TenantMap {
            sources: vec![SourceId(4), SourceId(9)],
            triples: vec![TripleId(3)],
            domains: HashMap::new(),
        };
        assert_eq!(map.n_sources(), 2);
        assert_eq!(map.n_triples(), 1);
        assert_eq!(map.source(SourceId(1)), Some(SourceId(9)));
        assert_eq!(map.source(SourceId(2)), None);
        assert_eq!(map.triple(TripleId(0)), Some(TripleId(3)));
        assert_eq!(map.triple(TripleId(1)), None);
    }
}
