//! The per-broker filter table.
//!
//! Section 3 of the paper: "Each event broker maintains a filter table to
//! record the subscriptions of its neighbors. [...] The filter table of a
//! broker can be represented as the set {(nb, f)}, where each pair means that
//! neighbor nb is interested in the events that satisfy the filter f."
//!
//! Two extensions required by the protocols are supported:
//!
//! * **accept-only-from labels** — MHH marks a client entry with a neighbor
//!   label meaning "only accept events for this client when they arrive from
//!   that neighbor" (paper, Section 4.1 steps 2–3); matching honours the
//!   label;
//! * per-entry bookkeeping helpers used by subscription propagation with the
//!   optional covering optimisation.
//!
//! # Indexing
//!
//! At city scale every broker's table holds an entry per remote subscriber
//! (distinct per-client filters defeat `(peer, filter)` deduplication), so
//! the original flat-`Vec` representation made event matching *and* the
//! duplicate check on insert O(table) — the dominant per-event cost of the
//! whole simulation. The table therefore keeps incremental indexes beside
//! the entry vector:
//!
//! * per attribute, an **equality map** from the attribute value to the
//!   single-`Eq` entries pinned to it, and a bucketed **interval grid** over
//!   single-attribute numeric range filters (the evaluation workload's
//!   `lo <= v < hi` selectivity windows) — an event value probes one bucket;
//! * a **residual scan list** for entries the index cannot classify
//!   (multi-attribute filters, `Ne`/`Prefix`/`Exists`, match-all), always
//!   probed;
//! * a dense **peer column**, one `Option<Peer>` per entry slot (`None` for
//!   a tombstone), parallel to the entry vector;
//! * a **duplicate map** keyed by `(peer, filter-content-hash)` and a
//!   **per-peer position list**, making `add`'s set check, `contains`,
//!   `filters_for` and the label helpers O(entries of that peer).
//!
//! Every index list is ascending by entry position, and a probe reads at
//! most one list holding a given entry. Candidates from a single list are
//! therefore already in insertion order, the order the plain linear scan
//! used; candidates gathered from several lists are sorted. Matching is
//! **peer-first**: a broker's table holds one entry per remote subscriber
//! but only a handful of distinct neighbors, so most candidates belong to a
//! peer that is `from` or already chosen. Such a candidate costs one load
//! from the peer column; only a first-seen peer's entry has its label and
//! filter read. The in-order scan pushes a peer exactly when it is not
//! `from`, its label (if any) is `from`, its filter matches and it is not
//! yet chosen; the conditions are a conjunction and the chosen set only
//! grows, so testing the peer first changes no push, and results stay
//! byte-identical to the scan (pinned by two differential tests, one at
//! city shape).
//!
//! An interval grid is sized when first probed: a bucket is a quarter of
//! the mean interval width (bounds clamped to the grid's domain), capped at
//! one bucket per interval and at 512. An interval then spans about five
//! buckets and a probe reads about 1.25 times its true matches, and the
//! bucket lists hold about five positions per interval whatever the
//! widths. With peer-first matching an extra candidate is nearly free, so
//! finer buckets would buy nothing: on 2,048 windows of width 1/16 the
//! old one-bucket-per-interval rule built 512 buckets and 33 positions per
//! interval, where this rule builds 64 and 5.
//!
//! Removals tombstone the entry and unlink it from the indexes in O(its
//! buckets); the vector is compacted (and the indexes rebuilt) only when
//! dead entries outnumber live ones.
//!
//! Covering queries — "does some other peer's entry cover this filter?"
//! (subscription propagation), "is this filter still related to anyone
//! else's?" (MHH's `cancel_prev`, unsubscription) — go through a
//! **bounded prefilter** instead of calling [`Filter::covers`] on every
//! entry:
//!
//! * beside the entry vector the table keeps one 8-byte **hull** per
//!   entry: the entry's numeric interval (the same over-approximation the
//!   interval grid uses) with both bounds rounded to `f32`; entries that
//!   are not a single-attribute numeric range get (−∞, +∞);
//! * the query's hull is rounded the same way, and an entry is a candidate
//!   only when one hull contains the other (or either is unbounded);
//! * survivors are re-checked with the real `covers`, in ascending entry
//!   position, so every answer — and every list built from one — is
//!   identical to a linear in-order scan (pinned by a differential
//!   property test).
//!
//! The prefilter never drops a true answer. Syntactic covering between two
//! single-attribute numeric filters implies containment of their `f64`
//! intervals: each bound of the covering filter is implied by a constraint
//! of the covered one, which therefore sets a bound at least as tight (all
//! numeric comparisons go through `f64`). Rounding to `f32` is monotone
//! (`x <= y` implies `x as f32 <= y as f32`) and both sides are rounded by
//! the same map, so containment survives it; rounding only merges nearby
//! bounds, which adds candidates, never drops one. An unbounded hull
//! admits everything, which keeps multi-attribute, `Ne`/`Prefix`/`Exists`
//! and match-all filters (on either side) exact. The hulls are read as one
//! dense array, so a query costs a pass over 8 bytes per entry plus real
//! checks on the few related entries, instead of a pointer chase into every
//! entry's `Filter`. Memory: 8 bytes per entry slot, tombstones included
//! until compaction.

use std::collections::HashMap;
use std::fmt;

use crate::address::Peer;
use crate::event::Event;
use crate::filter::{Filter, Op};
use crate::value::Value;

/// One `(neighbor, filter)` entry, optionally labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEntry {
    /// The interested neighbor (broker or client).
    pub peer: Peer,
    /// The filter the neighbor is interested in.
    pub filter: Filter,
    /// MHH accept-only-from label: when set, events for this entry are only
    /// accepted when they arrive from the given neighbor.
    pub accept_only_from: Option<Peer>,
}

/// Hashable canonical form of a [`Value`] for the equality map. Values that
/// satisfy [`Value::eq_value`] always share a key: numerics canonicalise
/// through `f64` (so `Int(3)` and `Float(3.0)` collide, as matching
/// requires) and `-0.0` folds onto `0.0`; strings key by their FNV-1a hash,
/// so neither insertion, removal nor an event probe clones one. Distinct
/// values may collide (NaNs, hash collisions) without harm — candidates are
/// re-checked with the real filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ValueKey {
    Num(u64),
    Str(u64),
    Bool(bool),
}

impl ValueKey {
    fn of(value: &Value) -> Self {
        match value {
            Value::Int(i) => Self::num(*i as f64),
            Value::Float(f) => Self::num(*f),
            Value::Str(s) => {
                let mut h = Fnv::new();
                h.bytes(s);
                ValueKey::Str(h.0)
            }
            Value::Bool(b) => ValueKey::Bool(*b),
        }
    }

    fn num(f: f64) -> Self {
        ValueKey::Num(if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        })
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mix a string's bytes and a terminator.
    fn bytes(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.mix(*b as u64);
        }
        self.mix(0xff);
    }
}

/// FNV-1a content hash of a filter, respecting `Filter`'s derived equality
/// (equal filters hash equal; constraint order matters, as it does for
/// `PartialEq`). Used only to key the duplicate map — lookups always confirm
/// with a real equality check, so collisions cost a probe, never
/// correctness.
fn filter_hash(filter: &Filter) -> u64 {
    let mut h = Fnv::new();
    for c in &filter.constraints {
        h.bytes(&c.attr);
        h.mix(c.op as u64);
        match &c.value {
            Value::Int(i) => {
                h.mix(1);
                h.mix(*i as u64);
            }
            Value::Float(f) => {
                h.mix(2);
                h.mix(f.to_bits());
            }
            Value::Str(s) => {
                h.mix(3);
                h.bytes(s);
            }
            Value::Bool(b) => {
                h.mix(4);
                h.mix(*b as u64);
            }
        }
    }
    h.0
}

/// The numeric interval `[lo, hi]` that over-approximates a filter whose
/// constraints all bound one attribute: any event value satisfying the
/// filter lies inside it (boundaries included — `Gt`/`Lt` only shrink the
/// true match set, and a false candidate is re-checked anyway). `None` when
/// the filter is not a single-attribute numeric range conjunction.
fn as_interval(filter: &Filter) -> Option<(&str, f64, f64)> {
    let mut attr: Option<&str> = None;
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for c in &filter.constraints {
        let v = c.value.as_f64()?;
        match attr {
            None => attr = Some(&c.attr),
            Some(a) if a == c.attr => {}
            Some(_) => return None,
        }
        match c.op {
            Op::Ge | Op::Gt => lo = lo.max(v),
            Op::Le | Op::Lt => hi = hi.min(v),
            Op::Eq => {
                lo = lo.max(v);
                hi = hi.min(v);
            }
            _ => return None,
        }
    }
    attr.map(|a| (a, lo, hi))
}

/// A filter's [`as_interval`] bounds rounded to `f32`; (−∞, +∞) when the
/// filter is not a single-attribute numeric range. See the module docs,
/// "Indexing", for why the covering prefilter built on it is exact.
#[derive(Clone, Copy, PartialEq)]
struct Hull {
    lo: f32,
    hi: f32,
}

impl Hull {
    const UNBOUNDED: Hull = Hull {
        lo: f32::NEG_INFINITY,
        hi: f32::INFINITY,
    };

    fn of(filter: &Filter) -> Self {
        // `as_interval` never yields a NaN bound (`f64::max`/`min` skip NaN
        // operands), and `as f32` rounds to nearest, saturating to the
        // infinities: a monotone map.
        match as_interval(filter) {
            Some((_, lo, hi)) => Hull {
                lo: lo as f32,
                hi: hi as f32,
            },
            None => Hull::UNBOUNDED,
        }
    }

    /// May a filter with this hull cover one with hull `other`? False only
    /// when covering provably fails.
    fn may_cover(self, other: Hull) -> bool {
        (self.lo <= other.lo && other.hi <= self.hi) || other == Hull::UNBOUNDED
    }
}

/// A live entry related to a query filter by covering, in one direction or
/// both (see [`FilterTable::related`]).
pub(crate) struct Related<'a> {
    /// The table entry.
    pub(crate) entry: &'a FilterEntry,
    /// The entry's filter covers the query.
    pub(crate) covers: bool,
    /// The query covers the entry's filter.
    pub(crate) covered: bool,
}

/// The distinct filters, in entry order, of the `related` entries from
/// peers other than `except` that the query covers. An unsubscription must
/// re-announce these toward `except` before cancelling the query: their own
/// propagation there may have been suppressed because the query covered
/// them.
pub(crate) fn covered_filters<'a>(related: &[Related<'a>], except: Peer) -> Vec<&'a Filter> {
    let mut out: Vec<&Filter> = Vec::new();
    for r in related {
        if r.covered && r.entry.peer != except && !out.contains(&&r.entry.filter) {
            out.push(&r.entry.filter);
        }
    }
    out
}

/// How an entry is registered in the index (recomputed from the filter, so
/// removal unlinks exactly what insertion linked). Borrows the attribute
/// name from the filter: only a first-seen attribute is ever cloned.
enum Class<'a> {
    Eq(&'a str, ValueKey),
    Interval(&'a str, f64, f64),
    Scan,
}

fn classify(filter: &Filter) -> Class<'_> {
    if let [c] = filter.constraints.as_slice() {
        if c.op == Op::Eq {
            return Class::Eq(&c.attr, ValueKey::of(&c.value));
        }
    }
    match as_interval(filter) {
        Some((attr, lo, hi)) => Class::Interval(attr, lo, hi),
        None => Class::Scan,
    }
}

/// Bucketed 1-D grid over the interval entries of one attribute. An
/// interval is registered in every bucket it touches; a query value probes
/// exactly one bucket. Out-of-domain values and bounds clamp onto the edge
/// buckets, which keeps the structure sound (a superset of true matches) for
/// intervals appended after the grid was sized.
#[derive(Clone)]
struct Grid {
    lo: f64,
    inv_step: f64,
    buckets: Vec<Vec<u32>>,
}

impl Grid {
    fn bucket_of(&self, v: f64) -> usize {
        // Negative and NaN casts saturate to 0, oversized to usize::MAX.
        (((v - self.lo) * self.inv_step) as usize).min(self.buckets.len() - 1)
    }

    fn insert(&mut self, pos: u32, lo: f64, hi: f64) {
        for b in self.bucket_of(lo)..=self.bucket_of(hi) {
            self.buckets[b].push(pos);
        }
    }

    fn remove(&mut self, pos: u32, lo: f64, hi: f64) {
        for b in self.bucket_of(lo)..=self.bucket_of(hi) {
            self.buckets[b].retain(|&p| p != pos);
        }
    }
}

/// Per-attribute index: the equality map plus the interval entries and
/// their lazily-built grid.
#[derive(Clone, Default)]
struct AttrIndex {
    eq: HashMap<ValueKey, Vec<u32>>,
    /// Every interval entry of this attribute (master list; the grid is
    /// derived from it and rebuilt lazily after being dropped).
    intervals: Vec<u32>,
    grid: Option<Grid>,
}

impl AttrIndex {
    /// The grid, built on first use from the live interval entries.
    fn grid_mut(&mut self, entries: &[FilterEntry]) -> &mut Grid {
        if self.grid.is_none() {
            let mut spans: Vec<(u32, f64, f64)> = Vec::with_capacity(self.intervals.len());
            let (mut dom_lo, mut dom_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            // `intervals` holds live positions only: `kill` unlinks.
            for &pos in &self.intervals {
                let (_, lo, hi) = as_interval(&entries[pos as usize].filter)
                    .expect("interval entries re-classify as intervals");
                spans.push((pos, lo, hi));
                if lo.is_finite() {
                    dom_lo = dom_lo.min(lo);
                    dom_hi = dom_hi.max(lo);
                }
                if hi.is_finite() {
                    dom_lo = dom_lo.min(hi);
                    dom_hi = dom_hi.max(hi);
                }
            }
            let span = (dom_hi - dom_lo).max(f64::MIN_POSITIVE);
            // A bucket is a quarter of the mean interval width (bounds
            // clamped to the domain), so an interval spans about five
            // buckets and a probe reads about 1.25 times its true matches;
            // at most one bucket per interval and never more than 512.
            let width: f64 = spans
                .iter()
                .map(|&(_, lo, hi)| (hi.min(dom_hi) - lo.max(dom_lo)).max(0.0))
                .sum();
            let by_width = (4.0 * span * spans.len() as f64 / width) as usize;
            let buckets = by_width.clamp(1, spans.len().clamp(1, 512));
            let mut grid = Grid {
                lo: if dom_lo.is_finite() { dom_lo } else { 0.0 },
                inv_step: if dom_lo.is_finite() {
                    buckets as f64 / span
                } else {
                    0.0
                },
                buckets: vec![Vec::new(); buckets],
            };
            // Ascending positions per bucket: `intervals` is ascending.
            for (pos, lo, hi) in spans {
                grid.insert(pos, lo, hi);
            }
            self.grid = Some(grid);
        }
        self.grid.as_mut().expect("just built")
    }
}

/// End of a `dup_next` chain.
const NONE: u32 = u32::MAX;

/// All incremental indexes over the entry vector.
#[derive(Clone, Default)]
struct TableIndex {
    /// Per attribute name, in first-seen order. Filters name few distinct
    /// attributes, so a linear search by `&str` beats hashing the name, and
    /// only an attribute's first entry clones it.
    attrs: Vec<(String, AttrIndex)>,
    /// Unclassifiable entries, always probed.
    scan: Vec<u32>,
    /// `(peer, filter_hash)` → the newest live position under that key, for
    /// O(1) duplicate/`contains`/label lookups (confirmed by real equality).
    /// Older positions under the same key (hash collisions, or NaN filters,
    /// which never equal themselves) chain through `dup_next`.
    dup: HashMap<(Peer, u64), u32>,
    /// Per slot, the next-older live position under the same `dup` key, or
    /// [`NONE`].
    dup_next: Vec<u32>,
    /// Peer → positions, ascending, for `filters_for`/`remove_peer`.
    by_peer: HashMap<Peer, Vec<u32>>,
}

impl TableIndex {
    /// The index of `attr`, if any entry ever named it.
    fn attr(&mut self, attr: &str) -> Option<&mut AttrIndex> {
        self.attrs
            .iter_mut()
            .find_map(|(name, aidx)| (name == attr).then_some(aidx))
    }

    /// The index of `attr`, created on its first entry.
    fn attr_mut(&mut self, attr: &str) -> &mut AttrIndex {
        let at = match self.attrs.iter().position(|(name, _)| name == attr) {
            Some(at) => at,
            None => {
                self.attrs.push((attr.to_string(), AttrIndex::default()));
                self.attrs.len() - 1
            }
        };
        &mut self.attrs[at].1
    }
}

/// The filter table of a broker.
#[derive(Clone, Default)]
pub struct FilterTable {
    entries: Vec<FilterEntry>,
    /// Each slot's peer, parallel to `entries`; `None` marks a tombstone.
    /// Matching reads this dense column before it touches an entry.
    peers: Vec<Option<Peer>>,
    /// Covering-prefilter bounds, parallel to `entries`.
    hulls: Vec<Hull>,
    live_count: usize,
    index: TableIndex,
    /// Candidate positions of the current [`FilterTable::matching_targets_into`]
    /// call, kept to reuse its allocation.
    cand: Vec<u32>,
}

impl fmt::Debug for FilterTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The indexes and tombstones are derived state; keep diagnostics
        // (and any debug-format comparisons) pinned to the live entries.
        f.debug_list().entries(self.entries()).finish()
    }
}

impl FilterTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Iterate over all entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &FilterEntry> {
        self.entries
            .iter()
            .zip(&self.peers)
            .filter_map(|(e, slot)| slot.is_some().then_some(e))
    }

    /// Register a (new) position in every index. The entry must already be
    /// pushed and live; `h` is its [`filter_hash`].
    fn link(&mut self, pos: u32, h: u64) {
        let e = &self.entries[pos as usize];
        let peer = e.peer;
        match classify(&e.filter) {
            Class::Eq(attr, key) => self
                .index
                .attr_mut(attr)
                .eq
                .entry(key)
                .or_default()
                .push(pos),
            Class::Interval(attr, lo, hi) => {
                let aidx = self.index.attr_mut(attr);
                aidx.intervals.push(pos);
                if let Some(grid) = aidx.grid.as_mut() {
                    grid.insert(pos, lo, hi);
                }
            }
            Class::Scan => self.index.scan.push(pos),
        }
        debug_assert_eq!(
            self.index.dup_next.len(),
            pos as usize,
            "slots link in order"
        );
        let older = self.index.dup.insert((peer, h), pos).unwrap_or(NONE);
        self.index.dup_next.push(older);
        self.index.by_peer.entry(peer).or_default().push(pos);
    }

    /// Tombstone a live position and unlink it from every index.
    fn kill(&mut self, pos: u32) {
        debug_assert!(self.peers[pos as usize].is_some());
        self.peers[pos as usize] = None;
        self.live_count -= 1;
        let e = &self.entries[pos as usize];
        let peer = e.peer;
        let h = filter_hash(&e.filter);
        match classify(&e.filter) {
            Class::Eq(attr, key) => {
                if let Some(aidx) = self.index.attr(attr) {
                    if let Some(bucket) = aidx.eq.get_mut(&key) {
                        bucket.retain(|&p| p != pos);
                    }
                }
            }
            Class::Interval(attr, lo, hi) => {
                if let Some(aidx) = self.index.attr(attr) {
                    aidx.intervals.retain(|&p| p != pos);
                    if let Some(grid) = aidx.grid.as_mut() {
                        grid.remove(pos, lo, hi);
                    }
                }
            }
            Class::Scan => self.index.scan.retain(|&p| p != pos),
        }
        let key = (peer, h);
        let older = self.index.dup_next[pos as usize];
        let mut at = self.index.dup[&key];
        if at == pos {
            if older == NONE {
                self.index.dup.remove(&key);
            } else {
                self.index.dup.insert(key, older);
            }
        } else {
            while self.index.dup_next[at as usize] != pos {
                at = self.index.dup_next[at as usize];
            }
            self.index.dup_next[at as usize] = older;
        }
        if let Some(positions) = self.index.by_peer.get_mut(&peer) {
            positions.retain(|&p| p != pos);
        }
    }

    /// Compact the entry vector and rebuild the indexes once tombstones
    /// outnumber live entries (amortized O(1) per removal).
    fn maybe_compact(&mut self) {
        let dead = self.entries.len() - self.live_count;
        if dead <= self.live_count.max(64) {
            return;
        }
        let mut slots = self.peers.iter();
        self.entries
            .retain(|_| slots.next().expect("parallel vecs").is_some());
        let mut slots = self.peers.iter();
        self.hulls
            .retain(|_| slots.next().expect("parallel vecs").is_some());
        self.peers.retain(Option::is_some);
        self.live_count = self.entries.len();
        self.index = TableIndex::default();
        for pos in 0..self.entries.len() as u32 {
            let h = filter_hash(&self.entries[pos as usize].filter);
            self.link(pos, h);
        }
    }

    /// The live position holding exactly `(peer, filter)`, if any.
    fn position_of(&self, peer: Peer, filter: &Filter) -> Option<u32> {
        self.position_hashed(peer, filter, filter_hash(filter))
    }

    /// [`position_of`](Self::position_of) with the filter's hash already
    /// computed.
    fn position_hashed(&self, peer: Peer, filter: &Filter, h: u64) -> Option<u32> {
        let mut at = *self.index.dup.get(&(peer, h))?;
        while at != NONE {
            debug_assert!(self.peers[at as usize].is_some(), "dup chains are live");
            if &self.entries[at as usize].filter == filter {
                return Some(at);
            }
            at = self.index.dup_next[at as usize];
        }
        None
    }

    /// Add an unlabeled entry. Duplicate `(peer, filter)` pairs are ignored
    /// (the table is a set).
    pub fn add(&mut self, peer: Peer, filter: Filter) -> bool {
        self.add_labeled(peer, filter, None)
    }

    /// Add an entry with an accept-only-from label.
    /// Returns `true` when the entry was actually inserted.
    pub fn add_labeled(&mut self, peer: Peer, filter: Filter, label: Option<Peer>) -> bool {
        let h = filter_hash(&filter);
        if self.position_hashed(peer, &filter, h).is_some() {
            return false;
        }
        self.maybe_compact();
        let pos = self.entries.len() as u32;
        self.hulls.push(Hull::of(&filter));
        self.entries.push(FilterEntry {
            peer,
            filter,
            accept_only_from: label,
        });
        self.peers.push(Some(peer));
        self.live_count += 1;
        self.link(pos, h);
        true
    }

    /// Remove the `(peer, filter)` entry. Returns `true` when present.
    pub fn remove(&mut self, peer: Peer, filter: &Filter) -> bool {
        match self.position_of(peer, filter) {
            Some(pos) => {
                self.kill(pos);
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    /// Remove every entry for a peer, returning the removed filters.
    pub fn remove_peer(&mut self, peer: Peer) -> Vec<Filter> {
        let positions = match self.index.by_peer.get(&peer) {
            Some(positions) => positions.clone(),
            None => return Vec::new(),
        };
        let mut removed = Vec::with_capacity(positions.len());
        for pos in positions {
            if self.peers[pos as usize].is_some() {
                removed.push(self.entries[pos as usize].filter.clone());
                self.kill(pos);
            }
        }
        self.index.by_peer.remove(&peer);
        self.maybe_compact();
        removed
    }

    /// Whether the `(peer, filter)` entry exists.
    pub fn contains(&self, peer: Peer, filter: &Filter) -> bool {
        self.position_of(peer, filter).is_some()
    }

    /// All filters registered for a peer.
    pub fn filters_for(&self, peer: Peer) -> Vec<&Filter> {
        match self.index.by_peer.get(&peer) {
            Some(positions) => positions
                .iter()
                .filter(|&&p| self.peers[p as usize].is_some())
                .map(|&p| &self.entries[p as usize].filter)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Set (or clear) the accept-only-from label on an existing entry.
    /// Returns `true` when the entry was found.
    pub fn set_label(&mut self, peer: Peer, filter: &Filter, label: Option<Peer>) -> bool {
        match self.position_of(peer, filter) {
            Some(pos) => {
                self.entries[pos as usize].accept_only_from = label;
                true
            }
            None => false,
        }
    }

    /// The current label of an entry (None when unlabeled or absent).
    pub fn label_of(&self, peer: Peer, filter: &Filter) -> Option<Peer> {
        self.position_of(peer, filter)
            .and_then(|pos| self.entries[pos as usize].accept_only_from)
    }

    /// Reverse-path-forwarding matching: the set of neighbors an event
    /// arriving from `from` must be handed to.
    ///
    /// * the neighbor the event came from is never selected (RPF),
    /// * labeled entries only match when the event arrived from the label.
    ///
    /// Each peer is returned at most once even if several of its filters
    /// match, in the order a plain in-order scan of the table finds them.
    /// Allocates the result; the broker's hot path uses
    /// [`FilterTable::matching_targets_into`].
    pub fn matching_targets(&mut self, event: &Event, from: Peer) -> Vec<Peer> {
        let mut out = Vec::new();
        self.matching_targets_into(event, from, &mut out);
        out
    }

    /// [`FilterTable::matching_targets`] into a caller-owned buffer, which
    /// is cleared first.
    ///
    /// Candidate positions come from the per-attribute equality maps and
    /// interval grids plus the residual scan list. Every one of those lists
    /// is ascending, and an entry sits in at most one list a probe reads, so
    /// candidates from a single list are already in entry order; only
    /// candidates gathered from several lists are sorted. The work is
    /// output-sensitive: a candidate is first judged by its slot in the
    /// dense peer column, and only a peer that is neither `from` nor
    /// already chosen has its entry's label and [`Filter`] read.
    pub fn matching_targets_into(&mut self, event: &Event, from: Peer, out: &mut Vec<Peer>) {
        out.clear();
        let cand = &mut self.cand;
        cand.clear();
        cand.extend_from_slice(&self.index.scan);
        let mut sources = usize::from(!cand.is_empty());
        for (attr, aidx) in self.index.attrs.iter_mut() {
            let Some(value) = event.get(attr) else {
                continue;
            };
            if !aidx.eq.is_empty() {
                if let Some(hits) = aidx.eq.get(&ValueKey::of(value)) {
                    sources += usize::from(!hits.is_empty());
                    cand.extend_from_slice(hits);
                }
            }
            if !aidx.intervals.is_empty() {
                if let Some(v) = value.as_f64() {
                    let grid = aidx.grid_mut(&self.entries);
                    let hits = &grid.buckets[grid.bucket_of(v)];
                    sources += usize::from(!hits.is_empty());
                    cand.extend_from_slice(hits);
                }
            }
        }
        if sources > 1 {
            cand.sort_unstable();
        } else {
            debug_assert!(
                cand.windows(2).all(|w| w[0] < w[1]),
                "a single index list is ascending"
            );
        }
        // The in-order scan pushes an entry's peer when the peer is not
        // `from`, the label (if any) is `from`, the filter matches and the
        // peer is not yet in `out`. The checks are a conjunction and `out`
        // only grows, so testing the peer first gives the same pushes.
        for &pos in cand.iter() {
            let Some(peer) = self.peers[pos as usize] else {
                continue;
            };
            if peer == from || out.contains(&peer) {
                continue;
            }
            let e = &self.entries[pos as usize];
            if e.accept_only_from.is_some_and(|label| label != from) {
                continue;
            }
            if e.filter.matches(event) {
                out.push(peer);
            }
        }
    }

    /// Live entries whose hull passes `may`, in ascending position. The
    /// hull is tested first, so the peer column is read only for survivors.
    fn hull_candidates(&self, may: impl Fn(Hull) -> bool) -> impl Iterator<Item = &FilterEntry> {
        self.hulls
            .iter()
            .zip(&self.peers)
            .zip(&self.entries)
            .filter_map(move |((&h, slot), e)| (may(h) && slot.is_some()).then_some(e))
    }

    /// Is there an entry from a peer other than `except` whose filter covers
    /// `filter`? Used by the covering optimisation to decide whether a new
    /// subscription needs to be propagated to a neighbor.
    pub fn covered_by_other(&self, filter: &Filter, except: Peer) -> bool {
        let q = Hull::of(filter);
        self.hull_candidates(move |h| h.may_cover(q))
            .any(|e| e.peer != except && e.filter.covers(filter))
    }

    /// Does an entry from a peer outside `excluded` relate to `filter` by
    /// covering in either direction? MHH's `cancel_prev` test (the "whether
    /// the sender will cancel the filter" indication of Section 4.1).
    /// Deliberately liberal: any related filter counts as "still needed",
    /// so an entry is never cancelled while another subscriber could still
    /// depend on it.
    pub fn needed_excluding(&self, filter: &Filter, excluded: &[Peer]) -> bool {
        self.related(filter)
            .any(|r| !excluded.contains(&r.entry.peer))
    }

    /// Every live entry whose filter covers `filter` or is covered by it, in
    /// ascending position (insertion order), with both directions
    /// evaluated. One walk answers an unsubscription's still-needed check
    /// and its covering re-propagation list for every neighbor.
    pub(crate) fn related<'a>(
        &'a self,
        filter: &'a Filter,
    ) -> impl Iterator<Item = Related<'a>> + 'a {
        let q = Hull::of(filter);
        self.hull_candidates(move |h| h.may_cover(q) || q.may_cover(h))
            .filter_map(move |entry| {
                let covers = entry.filter.covers(filter);
                let covered = filter.covers(&entry.filter);
                (covers || covered).then_some(Related {
                    entry,
                    covers,
                    covered,
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{BrokerId, ClientId};
    use crate::event::EventBuilder;
    use crate::filter::Op;

    fn ev(group: i64) -> Event {
        EventBuilder::new()
            .attr("group", group)
            .build(1, ClientId(0), 0)
    }

    fn f(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    const B1: Peer = Peer::Broker(BrokerId(1));
    const B2: Peer = Peer::Broker(BrokerId(2));
    const C1: Peer = Peer::Client(ClientId(1));

    #[test]
    fn add_remove_contains() {
        let mut t = FilterTable::new();
        assert!(t.add(B1, f(3)));
        assert!(!t.add(B1, f(3)), "duplicates are ignored");
        assert!(t.contains(B1, &f(3)));
        assert!(!t.contains(B2, &f(3)));
        assert!(t.remove(B1, &f(3)));
        assert!(!t.remove(B1, &f(3)));
        assert!(t.is_empty());
    }

    #[test]
    fn matching_respects_rpf() {
        let mut t = FilterTable::new();
        t.add(B1, f(3));
        t.add(B2, f(3));
        t.add(C1, f(3));
        // Event arriving from B1 goes to B2 and C1 but never back to B1.
        let targets = t.matching_targets(&ev(3), B1);
        assert_eq!(targets, vec![B2, C1]);
        // Non-matching event goes nowhere.
        assert!(t.matching_targets(&ev(4), B1).is_empty());
    }

    #[test]
    fn matching_respects_labels() {
        let mut t = FilterTable::new();
        t.add(B1, f(3));
        t.add_labeled(C1, f(3), Some(B1));
        // From B1 the labeled client entry is accepted.
        assert_eq!(t.matching_targets(&ev(3), B1), vec![C1]);
        // From B2 the labeled entry is skipped; B1's broker entry matches.
        assert_eq!(t.matching_targets(&ev(3), B2), vec![B1]);
    }

    #[test]
    fn label_set_and_clear() {
        let mut t = FilterTable::new();
        t.add(C1, f(3));
        assert_eq!(t.label_of(C1, &f(3)), None);
        assert!(t.set_label(C1, &f(3), Some(B2)));
        assert_eq!(t.label_of(C1, &f(3)), Some(B2));
        assert!(t.set_label(C1, &f(3), None));
        assert_eq!(t.label_of(C1, &f(3)), None);
        assert!(!t.set_label(B1, &f(3), Some(B2)), "absent entry");
    }

    #[test]
    fn peer_deduplication_in_targets() {
        let mut t = FilterTable::new();
        t.add(B2, f(3));
        t.add(B2, Filter::match_all());
        let targets = t.matching_targets(&ev(3), B1);
        assert_eq!(
            targets,
            vec![B2],
            "peer appears once even with two matching filters"
        );
    }

    #[test]
    fn remove_peer_returns_filters() {
        let mut t = FilterTable::new();
        t.add(C1, f(1));
        t.add(C1, f(2));
        t.add(B1, f(1));
        let removed = t.remove_peer(C1);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.filters_for(C1).is_empty());
    }

    #[test]
    fn covered_by_other_uses_covering() {
        let mut t = FilterTable::new();
        t.add(B1, Filter::single("price", Op::Ge, 10.0));
        let narrow = Filter::single("price", Op::Ge, 50.0);
        assert!(t.covered_by_other(&narrow, B2));
        assert!(
            !t.covered_by_other(&narrow, B1),
            "the only covering entry is excluded"
        );
    }

    #[test]
    fn filters_for_lists_per_peer() {
        let mut t = FilterTable::new();
        t.add(C1, f(1));
        t.add(C1, f(2));
        assert_eq!(t.filters_for(C1).len(), 2);
        assert!(t.filters_for(B1).is_empty());
    }

    #[test]
    fn duplicate_key_chains_unlink_in_any_order() {
        // NaN filters never equal themselves: every add is a new entry
        // under the same duplicate key, so one key chains several slots.
        let nan = Filter::single("v", Op::Eq, f64::NAN);
        let mut t = FilterTable::new();
        for _ in 0..3 {
            assert!(t.add(C1, nan.clone()));
        }
        t.add(C1, f(1));
        // Removal runs oldest first: tail, middle, then head of the chain.
        assert_eq!(t.remove_peer(C1).len(), 4);
        assert!(t.add(C1, nan.clone()));
        assert!(!t.contains(C1, &nan));
        assert!(t.add(C1, f(1)));
        assert!(t.contains(C1, &f(1)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cross_type_numeric_eq_entries_still_match() {
        // eq_value treats Int(3) and Float(3.0) as equal; the equality map
        // must keep that semantics for single-Eq entries.
        let mut t = FilterTable::new();
        t.add(C1, Filter::single("group", Op::Eq, 3.0f64));
        let e = ev(3); // carries Int(3)
        assert_eq!(t.matching_targets(&e, B1), vec![C1]);
    }

    #[test]
    fn range_entries_match_through_the_grid() {
        // The evaluation workload's filter shape: lo <= v < hi.
        let mut t = FilterTable::new();
        for i in 0..50u32 {
            let lo = i as f64 / 50.0;
            t.add(
                Peer::Client(ClientId(i)),
                Filter::new(vec![])
                    .and("v", Op::Ge, lo)
                    .and("v", Op::Lt, lo + 0.1),
            );
        }
        let e = EventBuilder::new()
            .attr("v", 0.505)
            .build(1, ClientId(0), 0);
        let targets = t.matching_targets(&e, B1);
        // Clients with lo in (0.405, 0.505]: indices 21..=25.
        let expect: Vec<Peer> = (21..=25).map(|i| Peer::Client(ClientId(i))).collect();
        assert_eq!(targets, expect);
    }

    #[test]
    fn compaction_preserves_order_and_content() {
        let mut t = FilterTable::new();
        for i in 0..200u32 {
            t.add(Peer::Client(ClientId(i)), f(i as i64 % 5));
        }
        for i in 0..150u32 {
            assert!(t.remove(Peer::Client(ClientId(i)), &f(i as i64 % 5)));
        }
        assert_eq!(t.len(), 50);
        let survivors: Vec<Peer> = t.entries().map(|e| e.peer).collect();
        let expect: Vec<Peer> = (150..200).map(|i| Peer::Client(ClientId(i))).collect();
        assert_eq!(survivors, expect, "insertion order survives compaction");
        let targets = t.matching_targets(&ev(3), B1);
        let matching: Vec<Peer> = (150..200)
            .filter(|i| i % 5 == 3)
            .map(|i| Peer::Client(ClientId(i)))
            .collect();
        assert_eq!(targets, matching);
    }

    /// The original matcher: an in-order linear scan of every live entry.
    fn reference(t: &FilterTable, event: &Event, from: Peer) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for e in t.entries() {
            if e.peer == from {
                continue;
            }
            if let Some(label) = e.accept_only_from {
                if label != from {
                    continue;
                }
            }
            if e.filter.matches(event) && !out.contains(&e.peer) {
                out.push(e.peer);
            }
        }
        out
    }

    /// Differential check: the indexed matcher must return exactly what the
    /// original in-order linear scan returned, across random tables, random
    /// events, and interleaved removals (which exercise tombstones, grid
    /// unlinking and compaction).
    #[test]
    fn indexed_matching_equals_linear_scan() {
        use mhh_simnet::random::DetRng;

        let mut rng = DetRng::new(0xf117_ab1e);
        let peer = |rng: &mut DetRng| -> Peer {
            if rng.index(2) == 0 {
                Peer::Broker(BrokerId(rng.index(4) as u32))
            } else {
                Peer::Client(ClientId(rng.index(6) as u32))
            }
        };
        let filt = |rng: &mut DetRng| -> Filter {
            match rng.index(5) {
                0 => f(rng.index(5) as i64),
                1 => Filter::single("price", Op::Ge, rng.index(50) as f64),
                2 => Filter::single("group", Op::Eq, rng.index(5) as f64),
                3 => {
                    let lo = rng.index(40) as f64;
                    Filter::new(vec![])
                        .and("price", Op::Ge, lo)
                        .and("price", Op::Lt, lo + 10.0)
                }
                _ => Filter::match_all(),
            }
        };
        for _ in 0..64 {
            let mut t = FilterTable::new();
            for _ in 0..rng.index(24) {
                let label = if rng.index(3) == 0 {
                    Some(peer(&mut rng))
                } else {
                    None
                };
                t.add_labeled(peer(&mut rng), filt(&mut rng), label);
            }
            for _ in 0..8 {
                // Exercise append, tombstone-removal and compaction paths.
                match rng.index(3) {
                    0 => {
                        t.add(peer(&mut rng), filt(&mut rng));
                    }
                    1 => {
                        t.remove_peer(peer(&mut rng));
                    }
                    _ => {}
                }
                let event = EventBuilder::new()
                    .attr("group", rng.index(5) as i64)
                    .attr("price", rng.index(50) as f64)
                    .build(1, ClientId(0), 0);
                let from = peer(&mut rng);
                assert_eq!(
                    t.matching_targets(&event, from),
                    reference(&t, &event, from),
                    "index diverged from linear scan"
                );
            }
        }
    }

    /// Differential check at city shape: 2,400 `lo <= v < hi` windows, most
    /// behind 3–6 broker neighbors (one of them holding about half) and one
    /// per local client, some labeled; events arrive from the populous
    /// neighbor, the others, a client and a stranger. Three phases: windows
    /// plus single-`Eq` entries (an event carrying one attribute reads one
    /// index list, the unsorted path), then tombstones and compaction, then
    /// residual-scan entries (every event reads several lists, the sorted
    /// path). The label case the peer-first check must get right — a
    /// peer's first matching entry rejected by its label, a later one
    /// accepted — is counted and required.
    #[test]
    fn city_shaped_matching_equals_linear_scan() {
        use mhh_simnet::random::DetRng;

        let mut rng = DetRng::new(0x00c1_7f5a);
        let brokers = 3 + rng.index(4) as u32;
        let broker = |rng: &mut DetRng| -> Peer {
            let b = if rng.chance(0.5) {
                0
            } else {
                rng.index(brokers as usize)
            };
            Peer::Broker(BrokerId(b as u32))
        };
        let window = |rng: &mut DetRng| -> Filter {
            let lo = rng.range_f64(0.0, 0.9375);
            Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.0625)
        };
        let mut t = FilterTable::new();
        for i in 0..2400u32 {
            if i % 16 == 0 {
                let label = rng.chance(0.25).then(|| broker(&mut rng));
                t.add_labeled(Peer::Client(ClientId(i)), window(&mut rng), label);
            } else {
                let label = rng.chance(0.05).then(|| broker(&mut rng));
                t.add_labeled(broker(&mut rng), window(&mut rng), label);
            }
            if i % 40 == 0 {
                t.add(broker(&mut rng), f(rng.index(8) as i64));
            }
        }
        assert!(t.len() >= 2048);

        let mut label_then_match = 0;
        let mut check = |t: &mut FilterTable, rng: &mut DetRng, attrs: &[&str]| {
            for _ in 0..300 {
                let mut b = EventBuilder::new();
                for &attr in attrs {
                    b = match attr {
                        "v" => b.attr("v", rng.next_f64()),
                        _ => b.attr(attr, rng.index(8) as i64),
                    };
                }
                let event = b.build(1, ClientId(0), 0);
                let from = match rng.index(5) {
                    0 | 1 => Peer::Broker(BrokerId(0)),
                    2 => Peer::Broker(BrokerId(1 + rng.index(brokers as usize - 1) as u32)),
                    3 => Peer::Client(ClientId(16 * rng.index(150) as u32)),
                    _ => Peer::Broker(BrokerId(99)),
                };
                // Per peer, whether its first matching entry was rejected.
                let mut first: Vec<(Peer, bool)> = Vec::new();
                for e in t.entries() {
                    if e.peer == from || !e.filter.matches(&event) {
                        continue;
                    }
                    let rejected = e.accept_only_from.is_some_and(|l| l != from);
                    match first.iter().find(|(p, _)| *p == e.peer) {
                        None => first.push((e.peer, rejected)),
                        Some(&(_, true)) if !rejected => label_then_match += 1,
                        Some(_) => {}
                    }
                }
                assert_eq!(
                    t.matching_targets(&event, from),
                    reference(t, &event, from),
                    "index diverged from linear scan"
                );
            }
        };

        // Phase 1: grid only, eq only, then both.
        check(&mut t, &mut rng, &["v"]);
        check(&mut t, &mut rng, &["group"]);
        check(&mut t, &mut rng, &["v", "group"]);

        // Phase 2: tombstones, then a compaction.
        let slots = t.entries.len();
        for i in (0..2400u32).step_by(32) {
            t.remove_peer(Peer::Client(ClientId(i)));
        }
        check(&mut t, &mut rng, &["v"]);
        let victims: Vec<(Peer, Filter)> = t
            .entries()
            .filter(|_| rng.chance(0.6))
            .map(|e| (e.peer, e.filter.clone()))
            .collect();
        for (p, filter) in victims {
            assert!(t.remove(p, &filter));
        }
        assert!(t.entries.len() < slots, "the removals must compact");
        for i in 0..600u32 {
            t.add(broker(&mut rng), window(&mut rng));
            t.add(Peer::Client(ClientId(10_000 + i)), window(&mut rng));
        }
        check(&mut t, &mut rng, &["v"]);
        check(&mut t, &mut rng, &["v", "group"]);

        // Phase 3: residual-scan entries join every probe.
        for i in 0..64u32 {
            let filter = match i % 3 {
                0 => window(&mut rng).and("group", Op::Ge, rng.index(8) as i64),
                1 => Filter::single("group", Op::Ne, rng.index(8) as i64),
                _ => Filter::match_all(),
            };
            if i % 2 == 0 {
                t.add(broker(&mut rng), filter);
            } else {
                t.add(Peer::Client(ClientId(20_000 + i)), filter);
            }
        }
        check(&mut t, &mut rng, &["v"]);
        check(&mut t, &mut rng, &["v", "group"]);
        check(&mut t, &mut rng, &["other"]);
        assert!(
            label_then_match > 0,
            "some peer's first match must be label-rejected and a later one accepted"
        );
    }

    /// Differential check of the covering queries: the hull-prefiltered
    /// `covered_by_other`, `needed_excluding`, `related` and the
    /// re-propagation list built from it must equal a naive in-order scan
    /// calling `Filter::covers` on every live entry. The value pool mixes
    /// `Int`/`Float` pairs at equal values, values not exact in `f32` (and
    /// neighbours that round to the same `f32`), integers beyond 2^53,
    /// infinities, overflow of the `f32` range and NaN; the filter shapes
    /// cover single `Eq`, one-sided, two-sided and inverted ranges,
    /// `Ne`/`Prefix`/`Exists`, non-numeric `Eq`, match-all and
    /// two-attribute conjunctions. Labels, tombstones and compaction come
    /// from interleaved adds and removals.
    #[test]
    fn covering_queries_equal_linear_scan() {
        use mhh_simnet::random::DetRng;

        let big = 1i64 << 53;
        let pool: Vec<Value> = vec![
            Value::Int(0),
            Value::Float(-0.0),
            Value::Float(0.1),
            Value::Float(0.1f64.next_up()),
            Value::Float(1.0 / 3.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(big as f64),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Int(big + 2),
            Value::Float(1e300),
            Value::Float(-1e300),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
        ];
        const RANGE_OPS: [Op; 5] = [Op::Ge, Op::Gt, Op::Le, Op::Lt, Op::Eq];
        let num = |rng: &mut DetRng| pool[rng.index(pool.len())].clone();
        let range = |rng: &mut DetRng, attr: &str| -> Filter {
            let lo = if rng.index(2) == 0 { Op::Ge } else { Op::Gt };
            let hi = if rng.index(2) == 0 { Op::Le } else { Op::Lt };
            // Independent draws: about half the ranges come out inverted.
            Filter::single(attr, lo, num(rng)).and(attr, hi, num(rng))
        };
        let filt = |rng: &mut DetRng| -> Filter {
            match rng.index(9) {
                0 => Filter::single("v", Op::Eq, num(rng)),
                1 => Filter::single("v", RANGE_OPS[rng.index(4)], num(rng)),
                2 | 3 => range(rng, "v"),
                4 => match rng.index(3) {
                    0 => Filter::single("v", Op::Ne, num(rng)),
                    1 => Filter::single("v", Op::Prefix, "ab"),
                    _ => Filter::single("v", Op::Exists, 0i64),
                },
                5 => Filter::match_all(),
                6 => range(rng, "v").and("w", RANGE_OPS[rng.index(5)], num(rng)),
                7 => Filter::single("w", RANGE_OPS[rng.index(5)], num(rng)),
                _ => {
                    if rng.index(2) == 0 {
                        Filter::single("v", Op::Eq, "ab")
                    } else {
                        Filter::single("v", Op::Eq, true)
                    }
                }
            }
        };
        let peer = |rng: &mut DetRng| -> Peer {
            if rng.index(2) == 0 {
                Peer::Broker(BrokerId(rng.index(4) as u32))
            } else {
                Peer::Client(ClientId(rng.index(8) as u32))
            }
        };

        let mut rng = DetRng::new(0xc0e7_5ca1);
        let mut compactions = 0;
        for _ in 0..48 {
            let mut t = FilterTable::new();
            for _ in 0..rng.index(160) {
                let label = rng.chance(0.3).then(|| peer(&mut rng));
                t.add_labeled(peer(&mut rng), filt(&mut rng), label);
            }
            for _ in 0..24 {
                // Exercise append, tombstone-removal and compaction paths.
                let slots = t.entries.len();
                match rng.index(4) {
                    0 => {
                        t.add(peer(&mut rng), filt(&mut rng));
                    }
                    1 => {
                        t.remove_peer(peer(&mut rng));
                    }
                    _ => {
                        let victims: Vec<(Peer, Filter)> = t
                            .entries()
                            .filter(|_| rng.chance(0.4))
                            .map(|e| (e.peer, e.filter.clone()))
                            .collect();
                        for (p, f) in victims {
                            // NaN filters never equal themselves, so their
                            // entries cannot be removed by value.
                            t.remove(p, &f);
                        }
                    }
                }
                if t.entries.len() < slots {
                    compactions += 1;
                }
                let query = if t.is_empty() || rng.index(3) == 0 {
                    filt(&mut rng)
                } else {
                    let n = rng.index(t.len());
                    t.entries().nth(n).expect("live entry").filter.clone()
                };
                let peers: Vec<Peer> = (0..3).map(|_| peer(&mut rng)).collect();
                let except = peers[0];

                // Entries are compared by identity: NaN filters are not
                // equal to themselves.
                let naive: Vec<(*const FilterEntry, bool, bool)> = t
                    .entries()
                    .map(|e| {
                        (
                            e as *const _,
                            e.filter.covers(&query),
                            query.covers(&e.filter),
                        )
                    })
                    .filter(|&(_, covers, covered)| covers || covered)
                    .collect();
                let related: Vec<Related<'_>> = t.related(&query).collect();
                let got: Vec<(*const FilterEntry, bool, bool)> = related
                    .iter()
                    .map(|r| (r.entry as *const _, r.covers, r.covered))
                    .collect();
                assert_eq!(got, naive, "related({query}) diverged from linear scan");

                let covered = t
                    .entries()
                    .any(|e| e.peer != except && e.filter.covers(&query));
                assert_eq!(t.covered_by_other(&query, except), covered, "{query}");
                assert_eq!(
                    related.iter().any(|r| r.covers && r.entry.peer != except),
                    covered,
                    "{query}"
                );
                let needed = t.entries().any(|e| {
                    !peers[1..].contains(&e.peer)
                        && (e.filter.covers(&query) || query.covers(&e.filter))
                });
                assert_eq!(t.needed_excluding(&query, &peers[1..]), needed, "{query}");

                let mut repropagate: Vec<&Filter> = Vec::new();
                for e in t.entries() {
                    if e.peer != except
                        && query.covers(&e.filter)
                        && !repropagate.contains(&&e.filter)
                    {
                        repropagate.push(&e.filter);
                    }
                }
                let ptrs = |list: Vec<&Filter>| -> Vec<*const Filter> {
                    list.into_iter().map(|f| f as *const _).collect()
                };
                assert_eq!(
                    ptrs(covered_filters(&related, except)),
                    ptrs(repropagate),
                    "re-propagation list for {query}"
                );
            }
        }
        assert!(compactions > 0, "the loop must exercise compaction");
    }
}
