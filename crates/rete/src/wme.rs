//! Working-memory elements and conflict-set change records.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{CompOp, Tuple, TupleId, Value};

/// A working-memory element: a tuple of a declared class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Wme {
    /// The class (relation) involved.
    pub class: ClassId,
    /// The tuple involved.
    pub tuple: Tuple,
}

impl Wme {
    /// Create a new, empty instance.
    pub fn new(class: ClassId, tuple: Tuple) -> Self {
        Wme { class, tuple }
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}{}", self.class.0, self.tuple)
    }
}

/// One negated CE instantiated with a concrete binding: the pattern whose
/// *absence* supports an instantiation (§4.2.2's negative condition
/// handling). Tests carry the negated CE's constant selections plus its
/// join tests with the joined value substituted from the binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsentPattern {
    /// Class of the negated condition element.
    pub class: ClassId,
    /// `(attribute index, comparison, concrete value)` tests; no tuple of
    /// `class` satisfying all of them exists in working memory.
    pub tests: Vec<(usize, CompOp, Value)>,
}

impl AbsentPattern {
    /// Render as OPS5-ish source, e.g. `-(Dept ^dno = 99)`.
    pub fn display(&self, rules: &RuleSet) -> String {
        let class = rules.class(self.class);
        let mut s = format!("-({}", class.name);
        for (attr, op, value) in &self.tests {
            let name = class.attrs.get(*attr).map_or("?", String::as_str);
            s.push_str(&format!(" ^{name} {op} {value}"));
        }
        s.push(')');
        s
    }
}

/// Why an instantiation holds: the storage identities of its supporting
/// WM elements and, per negated CE, the pattern whose absence holds.
///
/// Deliberately **excluded** from the instantiation's equality, ordering
/// and hashing: engines identify instantiations by `(rule, wmes)` content
/// (the conflict set is a content-keyed multiset, and the two Rete
/// variants track WMEs by content rather than by storage id), so
/// provenance rides along without perturbing conflict-set semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Packed [`TupleId`]s aligned with `wmes`; empty when the engine
    /// does not track storage ids (the in-memory Rete variants).
    pub support: Vec<u64>,
    /// The absent patterns, one per negated CE of the rule.
    pub absent: Vec<AbsentPattern>,
}

impl Provenance {
    /// True when the engine supplied no provenance at all.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty() && self.absent.is_empty()
    }

    /// Space-joined supporting tuple ids (`t3.1 t7.2`), aligned with the
    /// instantiation's WMEs.
    pub fn support_display(&self) -> String {
        self.support
            .iter()
            .map(|&p| TupleId::unpack(p).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Space-joined absent patterns, rendered with class/attribute names.
    pub fn absent_display(&self, rules: &RuleSet) -> String {
        self.absent
            .iter()
            .map(|a| a.display(rules))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One satisfied production: the rule plus the WM elements matched by its
/// positive condition elements, in CE order.
///
/// This is an entry of the paper's *conflict set* — "information on all
/// applicable rules and the data elements (tuples) that cause these rules
/// to fire" (§3.1).
///
/// Equality, ordering and hashing compare only `(rule, wmes)`; see
/// [`Provenance`] for why the provenance field is excluded.
#[derive(Debug, Clone)]
pub struct Instantiation {
    /// The owning rule.
    pub rule: RuleId,
    /// Matched WMEs aligned with the rule's *positive* CEs, in order.
    pub wmes: Vec<Wme>,
    /// Supporting tuple ids / absent patterns, when the engine tracks them.
    pub why: Provenance,
}

impl PartialEq for Instantiation {
    fn eq(&self, other: &Self) -> bool {
        self.rule == other.rule && self.wmes == other.wmes
    }
}

impl Eq for Instantiation {}

impl Hash for Instantiation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rule.hash(state);
        self.wmes.hash(state);
    }
}

impl PartialOrd for Instantiation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instantiation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rule
            .cmp(&other.rule)
            .then_with(|| self.wmes.cmp(&other.wmes))
    }
}

impl Instantiation {
    /// Create an instantiation without provenance.
    pub fn new(rule: RuleId, wmes: Vec<Wme>) -> Self {
        Instantiation {
            rule,
            wmes,
            why: Provenance::default(),
        }
    }

    /// Attach provenance.
    pub fn with_provenance(mut self, why: Provenance) -> Self {
        self.why = why;
        self
    }

    /// Render using rule names, for traces and tests.
    pub fn display(&self, rules: &RuleSet) -> String {
        let mut s = format!("{}:", rules.rule(self.rule).name);
        for w in &self.wmes {
            s.push(' ');
            s.push_str(&format!("{}{}", rules.class(w.class).name, w.tuple));
        }
        s
    }

    /// The matched WMEs rendered with class names (`Emp(Mike,6000,...)`),
    /// space-joined — the same form the conflict-delta trace uses.
    pub fn wmes_display(&self, rules: &RuleSet) -> String {
        let mut s = String::new();
        for w in &self.wmes {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&rules.class(w.class).name);
            s.push_str(&w.tuple.to_string());
        }
        s
    }
}

/// An incremental change to the conflict set — the output arrows of the
/// paper's Figure 2 ("changes to conflict set").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictDelta {
    /// The instantiation entered the conflict set.
    Add(Instantiation),
    /// Remove one tuple equal to the payload.
    Remove(Instantiation),
}

impl ConflictDelta {
    /// The instantiation this delta adds or removes.
    pub fn instantiation(&self) -> &Instantiation {
        match self {
            ConflictDelta::Add(i) | ConflictDelta::Remove(i) => i,
        }
    }

    /// Is this an addition to the conflict set?
    pub fn is_add(&self) -> bool {
        matches!(self, ConflictDelta::Add(_))
    }
}

/// A maintained conflict set: applies deltas, iterates instantiations,
/// and owns refraction.
///
/// Semantically a **multiset**: OPS5 WMEs carry identity (time tags), so
/// two content-identical WM elements yield two separate instantiations.
/// Engines identify instantiations by content here, so duplicates are
/// tracked by multiplicity.
///
/// Every entry carries a *fired* flag — refraction (§3.1: an
/// instantiation never fires twice while it stays in the conflict set)
/// lives here and nowhere else. One rule governs equal-content copies:
///
/// - the fired copies are always the earliest arrivals;
/// - [`ConflictSet::mark_fired`] flags the earliest unfired copy;
/// - a `Remove` delta retires the earliest copy, so a fired copy goes
///   first.
///
/// Entries sit in an arrival-ordered slab with tombstones. A content-hash
/// index chains each hash's live entries in arrival order, so `Add` is
/// O(1) and `Remove`, `mark_fired` and `contains` cost O(copies of that
/// content).
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    /// Entries in arrival order; `None` is a retired entry's tombstone.
    /// Slot `k` holds arrival sequence `base + k`.
    slots: VecDeque<Option<Entry>>,
    /// Arrival sequence of `slots[0]`.
    base: u64,
    /// Live (non-tombstone) entries.
    live: usize,
    /// Content hash → the chain of live entries with that hash.
    index: HashMap<u64, Chain, BuildHasherDefault<WordHasher>>,
}

/// End of a hash chain.
const NIL: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Entry {
    inst: Instantiation,
    hash: u64,
    fired: bool,
    /// Arrival sequence of the next live entry with the same hash.
    next: u64,
}

/// First and last arrival sequence of one hash's entries.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u64,
    last: u64,
}

impl ConflictSet {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Apply one delta (multiset semantics).
    pub fn apply(&mut self, delta: &ConflictDelta) {
        match delta {
            ConflictDelta::Add(i) => self.add(i.clone()),
            ConflictDelta::Remove(i) => self.remove(i),
        }
    }

    /// Apply a sequence of deltas in order.
    pub fn apply_all<'a>(&mut self, deltas: impl IntoIterator<Item = &'a ConflictDelta>) {
        for d in deltas {
            self.apply(d);
        }
    }

    fn add(&mut self, inst: Instantiation) {
        let hash = content_hash(&inst);
        let seq = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(Entry {
            inst,
            hash,
            fired: false,
            next: NIL,
        }));
        self.live += 1;
        self.link(hash, seq);
    }

    /// Append entry `seq` to the end of its hash chain.
    fn link(&mut self, hash: u64, seq: u64) {
        let chain = self.index.entry(hash).or_insert(Chain {
            first: seq,
            last: NIL,
        });
        let last = std::mem::replace(&mut chain.last, seq);
        if last != NIL {
            self.entry_mut(last).next = seq;
        }
    }

    /// The live entry with arrival sequence `seq`.
    fn entry(&self, seq: u64) -> &Entry {
        self.slots[(seq - self.base) as usize]
            .as_ref()
            .expect("indexed entries are live")
    }

    fn entry_mut(&mut self, seq: u64) -> &mut Entry {
        self.slots[(seq - self.base) as usize]
            .as_mut()
            .expect("indexed entries are live")
    }

    /// The earliest live entry with this hash that satisfies `pred`, and
    /// its predecessor in the chain (`NIL` when it is the first).
    fn find(&self, hash: u64, pred: impl Fn(&Entry) -> bool) -> Option<(u64, u64)> {
        let (mut prev, mut seq) = (NIL, self.index.get(&hash)?.first);
        while seq != NIL {
            let e = self.entry(seq);
            if pred(e) {
                return Some((prev, seq));
            }
            (prev, seq) = (seq, e.next);
        }
        None
    }

    /// Retire the earliest copy of `inst`; a no-op when there is none.
    fn remove(&mut self, inst: &Instantiation) {
        let hash = content_hash(inst);
        let Some((prev, seq)) = self.find(hash, |e| e.inst == *inst) else {
            return;
        };
        let next = self.slots[(seq - self.base) as usize]
            .take()
            .expect("indexed entries are live")
            .next;
        self.live -= 1;
        if prev != NIL {
            self.entry_mut(prev).next = next;
        }
        let chain = self.index.get_mut(&hash).expect("indexed hash");
        if prev == NIL {
            chain.first = next;
        }
        if chain.last == seq {
            chain.last = prev;
        }
        if chain.first == NIL {
            self.index.remove(&hash);
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        if 2 * (self.slots.len() - self.live) > self.slots.len() {
            self.compact();
        }
    }

    /// Drop every tombstone and rebuild the chains: amortized O(1) per
    /// removal, since at least half the slab died since the last compaction.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.base = 0;
        self.index.clear();
        for seq in 0..self.slots.len() as u64 {
            let e = self.entry_mut(seq);
            e.next = NIL;
            let hash = e.hash;
            self.link(hash, seq);
        }
    }

    /// Refraction: flag the earliest unfired copy of `inst` as fired.
    /// Returns false (and changes nothing) when every copy has fired or
    /// none is left.
    pub fn mark_fired(&mut self, inst: &Instantiation) -> bool {
        let found = self.find(content_hash(inst), |e| !e.fired && e.inst == *inst);
        if let Some((_, seq)) = found {
            self.entry_mut(seq).fired = true;
        }
        found.is_some()
    }

    /// The current instantiations, in arrival order.
    pub fn items(&self) -> impl Iterator<Item = &Instantiation> + '_ {
        self.slots.iter().flatten().map(|e| &e.inst)
    }

    /// The instantiations eligible to fire — not yet fired — in arrival
    /// order.
    pub fn eligible(&self) -> impl Iterator<Item = &Instantiation> + '_ {
        self.slots
            .iter()
            .flatten()
            .filter(|e| !e.fired)
            .map(|e| &e.inst)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Is this instantiation currently in the conflict set?
    pub fn contains(&self, i: &Instantiation) -> bool {
        self.find(content_hash(i), |e| e.inst == *i).is_some()
    }

    /// Canonically sorted copy, for equivalence tests across engines.
    pub fn sorted(&self) -> Vec<Instantiation> {
        let mut v: Vec<Instantiation> = self.items().cloned().collect();
        v.sort();
        v
    }
}

/// Content hash of an instantiation's `(rule, wmes)` identity.
fn content_hash(inst: &Instantiation) -> u64 {
    let mut h = WordHasher::default();
    inst.hash(&mut h);
    h.finish()
}

/// Word-at-a-time multiplicative hasher for the conflict-set index: one
/// multiply per machine word instead of SipHash's rounds or FNV's
/// per-byte loop, with a final avalanche so every bit of the result
/// depends on the whole input.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        // murmur3's fmix64.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    fn inst(rule: usize, vals: &[i64]) -> Instantiation {
        Instantiation::new(
            RuleId(rule),
            vals.iter()
                .map(|&v| Wme::new(ClassId(0), tuple![v]))
                .collect(),
        )
    }

    #[test]
    fn conflict_set_is_a_multiset() {
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        assert_eq!(cs.len(), 2, "identical WMEs yield separate instantiations");
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert_eq!(cs.len(), 1);
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert!(cs.is_empty());
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert!(cs.is_empty(), "removing from empty is a no-op");
    }

    #[test]
    fn sorted_is_canonical() {
        let mut a = ConflictSet::new();
        a.apply(&ConflictDelta::Add(inst(1, &[2])));
        a.apply(&ConflictDelta::Add(inst(0, &[1])));
        let mut b = ConflictSet::new();
        b.apply(&ConflictDelta::Add(inst(0, &[1])));
        b.apply(&ConflictDelta::Add(inst(1, &[2])));
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn delta_accessors() {
        let d = ConflictDelta::Add(inst(0, &[1]));
        assert!(d.is_add());
        assert_eq!(d.instantiation().rule, RuleId(0));
    }

    /// Provenance is carried but invisible to equality/ordering, so the
    /// conflict-set multiset removes provenance-free duplicates of an
    /// annotated instantiation and vice versa.
    #[test]
    fn provenance_does_not_affect_identity() {
        let plain = inst(0, &[1]);
        let annotated = plain.clone().with_provenance(Provenance {
            support: vec![TupleId::new(3, 1).pack()],
            absent: vec![AbsentPattern {
                class: ClassId(1),
                tests: vec![(0, CompOp::Eq, Value::Int(9))],
            }],
        });
        assert_eq!(plain, annotated);
        assert_eq!(plain.cmp(&annotated), std::cmp::Ordering::Equal);
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(annotated.clone()));
        cs.apply(&ConflictDelta::Remove(plain));
        assert!(cs.is_empty());
        assert_eq!(annotated.why.support_display(), "t3.1");
    }

    #[test]
    fn refraction_flags_the_earliest_unfired_copy() {
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        cs.apply(&ConflictDelta::Add(inst(1, &[2])));
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        assert!(cs.mark_fired(&inst(0, &[1])));
        assert_eq!(
            cs.eligible().count(),
            2,
            "one copy of (0,[1]) stays eligible"
        );
        assert!(cs.mark_fired(&inst(0, &[1])));
        assert!(!cs.mark_fired(&inst(0, &[1])), "every copy has fired");
        assert_eq!(
            cs.eligible().cloned().collect::<Vec<_>>(),
            vec![inst(1, &[2])]
        );
        // A removal retires a fired copy first; a new arrival is unfired.
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        assert_eq!(cs.len(), 3);
        assert_eq!(
            cs.eligible().cloned().collect::<Vec<_>>(),
            vec![inst(1, &[2]), inst(0, &[1])]
        );
        assert!(!cs.mark_fired(&inst(7, &[7])), "absent content");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(usize, i64),
        Remove(usize, i64),
        Fire(usize, i64),
    }

    /// The refraction rule spelled out naively: arrival-ordered entries
    /// plus a fired count per content, where the fired copies of a
    /// content are its earliest arrivals.
    #[derive(Default)]
    struct Model {
        items: Vec<Instantiation>,
        fired: std::collections::HashMap<Instantiation, usize>,
    }

    impl Model {
        fn copies(&self, i: &Instantiation) -> usize {
            self.items.iter().filter(|x| *x == i).count()
        }

        fn apply(&mut self, op: &Op) {
            match *op {
                Op::Add(r, v) => self.items.push(inst(r, &[v])),
                Op::Remove(r, v) => {
                    let i = inst(r, &[v]);
                    if let Some(pos) = self.items.iter().position(|x| *x == i) {
                        self.items.remove(pos);
                        if let Some(n) = self.fired.get_mut(&i) {
                            *n = n.saturating_sub(1);
                        }
                    }
                }
                Op::Fire(r, v) => {
                    let i = inst(r, &[v]);
                    let copies = self.copies(&i);
                    let n = self.fired.entry(i).or_insert(0);
                    if *n < copies {
                        *n += 1;
                    }
                }
            }
        }

        fn eligible(&self) -> Vec<Instantiation> {
            let mut skip = self.fired.clone();
            self.items
                .iter()
                .filter(|i| match skip.get_mut(*i) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        false
                    }
                    _ => true,
                })
                .cloned()
                .collect()
        }
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Two rules × three values: six contents, so duplicates are common.
        prop_oneof![
            4 => (0usize..2, 0i64..3).prop_map(|(r, v)| Op::Add(r, v)),
            3 => (0usize..2, 0i64..3).prop_map(|(r, v)| Op::Remove(r, v)),
            2 => (0usize..2, 0i64..3).prop_map(|(r, v)| Op::Fire(r, v)),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 128, ..Default::default() })]

        /// Random `Add`/`Remove`/`mark_fired` sequences, long enough to
        /// trim and compact the slab many times, agree with the model.
        #[test]
        fn conflict_set_matches_refraction_model(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            let mut cs = ConflictSet::new();
            let mut model = Model::default();
            for op in &ops {
                match *op {
                    Op::Add(r, v) => cs.apply(&ConflictDelta::Add(inst(r, &[v]))),
                    Op::Remove(r, v) => cs.apply(&ConflictDelta::Remove(inst(r, &[v]))),
                    Op::Fire(r, v) => {
                        let i = inst(r, &[v]);
                        let fires = model.fired.get(&i).copied().unwrap_or(0) < model.copies(&i);
                        proptest::prop_assert_eq!(cs.mark_fired(&i), fires);
                    }
                }
                model.apply(op);
                proptest::prop_assert_eq!(cs.items().cloned().collect::<Vec<_>>(), model.items.clone());
                proptest::prop_assert_eq!(cs.eligible().cloned().collect::<Vec<_>>(), model.eligible());
                proptest::prop_assert_eq!(cs.len(), model.items.len());
                proptest::prop_assert_eq!(cs.is_empty(), model.items.is_empty());
                let mut sorted = model.items.clone();
                sorted.sort();
                proptest::prop_assert_eq!(cs.sorted(), sorted);
                for r in 0..2 {
                    for v in 0..3 {
                        let i = inst(r, &[v]);
                        proptest::prop_assert_eq!(cs.contains(&i), model.copies(&i) > 0);
                    }
                }
            }
        }
    }
}
