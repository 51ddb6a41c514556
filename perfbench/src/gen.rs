//! Seeded input generators. The same seed always yields the same rule
//! base, change trace and items; the program under test sees only the
//! generated inputs.

use std::fmt::Write as _;

use ops5::ClassId;
use relstore::{Tuple, Value};

/// SplitMix64: tiny, fast, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// One external working-memory change of a trace.
#[derive(Debug, Clone)]
pub enum Change {
    Insert(ClassId, Tuple),
    Remove(ClassId, Tuple),
}

/// Sizes of the `seq-large` rule base and trace.
#[derive(Debug, Clone, Copy)]
pub struct SeqSizes {
    /// Productions generated.
    pub rules: usize,
    /// Classes the productions read (`C0..`); `Sink` comes on top.
    pub classes: usize,
    /// Join domain of `a0`.
    pub keys: u64,
    /// Domain of the constant test on `a1`.
    pub tags: u64,
    /// Tuples batch-loaded during set-up.
    pub initial: usize,
    /// External changes streamed one at a time.
    pub changes: usize,
}

/// The generated `seq-large` input.
pub struct SeqInput {
    pub source: String,
    /// Initial WM, grouped by class for one batch load per class.
    pub initial: Vec<(ClassId, Vec<Tuple>)>,
    pub stream: Vec<Change>,
}

/// Generate `seq-large`: productions of three CEs on distinct classes,
/// equi-joined on `a0`, each CE with a constant test on `a1`. Every fourth production negates
/// its last CE; even productions consume their first WME, odd ones derive
/// into `Sink`, which no production reads. A quarter of the streamed
/// changes delete a live tuple.
pub fn seq_input(sizes: SeqSizes, seed: u64) -> SeqInput {
    let mut rng = Rng::new(seed);
    let mut src = String::new();
    for c in 0..sizes.classes {
        writeln!(src, "(literalize C{c} a0 a1 a2)").unwrap();
    }
    writeln!(src, "(literalize Sink a0 r x)").unwrap();
    for r in 0..sizes.rules {
        // Three distinct classes (a partial shuffle), as in
        // `workload::gen`: no production joins a class with itself.
        let n = sizes.classes as u64;
        let mut order: Vec<u64> = (0..n).collect();
        for k in 0..3 {
            let j = k + rng.below(n - k as u64) as usize;
            order.swap(k, j);
        }
        let (first, second, third) = (order[0], order[1], order[2]);
        let (t1, t2, t3) = (
            rng.below(sizes.tags),
            rng.below(sizes.tags),
            rng.below(sizes.tags),
        );
        let neg = if r % 4 == 3 { "-" } else { "" };
        let rhs = if r % 2 == 0 {
            "(remove 1)".to_string()
        } else {
            format!("(make Sink ^a0 <K> ^r {r} ^x <X>)")
        };
        writeln!(
            src,
            "(p R{r} (C{first} ^a0 <K> ^a1 {t1} ^a2 <X>) (C{second} ^a0 <K> ^a1 {t2}) \
             {neg}(C{third} ^a0 <K> ^a1 {t3}) --> {rhs})"
        )
        .unwrap();
    }

    // Tuples cycle through the (class, tag) cells in a fresh seeded order
    // each pass, so every cell holds the same share of the WM and the
    // conflict set's size follows the sizes rather than the draw.
    let cells = sizes.classes as u64 * sizes.tags;
    let mut order: Vec<u64> = Vec::new();
    let mut serial = 0i64;
    let mut fresh = |rng: &mut Rng| {
        if order.is_empty() {
            order = (0..cells).collect();
            shuffle(&mut order, rng);
        }
        let cell = order.pop().expect("refilled above");
        serial += 1;
        let class = ClassId((cell / sizes.tags) as usize);
        let t = Tuple::new(vec![
            Value::Int(rng.below(sizes.keys) as i64),
            Value::Int((cell % sizes.tags) as i64),
            Value::Int(serial),
        ]);
        (class, t)
    };
    let mut live: Vec<(ClassId, Tuple)> = Vec::new();
    let mut initial: Vec<(ClassId, Vec<Tuple>)> = (0..sizes.classes)
        .map(|c| (ClassId(c), Vec::new()))
        .collect();
    for _ in 0..sizes.initial {
        let (class, t) = fresh(&mut rng);
        initial[class.0].1.push(t.clone());
        live.push((class, t));
    }
    let mut stream = Vec::with_capacity(sizes.changes);
    for _ in 0..sizes.changes {
        if !live.is_empty() && rng.chance(1, 4) {
            let i = rng.below(live.len() as u64) as usize;
            let (class, t) = live.swap_remove(i);
            stream.push(Change::Remove(class, t));
        } else {
            let (class, t) = fresh(&mut rng);
            live.push((class, t.clone()));
            stream.push(Change::Insert(class, t));
        }
    }
    SeqInput {
        source: src,
        initial,
        stream,
    }
}

/// The §5 program shared by `conc-mem` and `durable-paged`. `Match`
/// consumes items whose key has a `Ref` (disjoint tuple locks); `Tally`
/// consumes the hot key's items into `Audit`, whose exclusive relation
/// lock serializes them. Key 0 is the hot key and never has a `Ref`, so
/// each item is consumed by at most one production.
pub const CONC_SOURCE: &str = r#"
(literalize Item id key pad)
(literalize Ref key)
(literalize Audit key id)
(p Match (Item ^id <I> ^key <K>) (Ref ^key <K>) --> (remove 1))
(p Tally (Item ^id <I> ^key 0) --> (remove 1) (make Audit ^key 0 ^id <I>))
"#;

pub const ITEM: ClassId = ClassId(0);
pub const REF: ClassId = ClassId(1);

/// Sizes of the §5 workloads.
#[derive(Debug, Clone, Copy)]
pub struct ConcSizes {
    /// Items batch-loaded during set-up.
    pub items: usize,
    /// Keys `1..=keys`; key 0 is the hot key.
    pub keys: u64,
    /// Keys that have a `Ref`, per thousand.
    pub ref_permille: u64,
    /// Items on the hot key, per thousand.
    pub hot_permille: u64,
    /// Bytes of padding per item (sets the WM's page count).
    pub pad: usize,
    /// External changes of the reaction phase, each enabling one firing.
    pub reacts: usize,
}

/// The generated §5 input with its closed-form expected outcome.
pub struct ConcInput {
    pub refs: Vec<Tuple>,
    pub items: Vec<Tuple>,
    /// Items inserted one at a time after the bulk run; each enables
    /// exactly one firing.
    pub reacts: Vec<Tuple>,
    /// Firings the bulk run must commit.
    pub expected_bulk: usize,
    /// Bytes of the tuples those firings delete and insert.
    pub bulk_user_bytes: u64,
    /// Final WM per class (`Item`, `Ref`, `Audit`), sorted.
    pub expected_wm: Vec<Vec<Tuple>>,
}

fn item(id: i64, key: u64, pad: &str) -> Tuple {
    Tuple::new(vec![
        Value::Int(id),
        Value::Int(key as i64),
        Value::str(pad),
    ])
}

fn audit(id: i64) -> Tuple {
    Tuple::new(vec![Value::Int(0), Value::Int(id)])
}

/// Shuffle in place (Fisher–Yates).
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Generate the §5 input. Counts are exact, not sampled: exactly
/// `ref_permille` of the keys have a `Ref`, exactly `hot_permille` of the
/// items sit on the hot key, and the other items spread evenly over the
/// keys, so every seed yields the same number of firings. The seed picks
/// which keys have a `Ref`, the item order, the padding and the
/// reactions.
pub fn conc_input(sizes: ConcSizes, seed: u64) -> ConcInput {
    let mut rng = Rng::new(seed);
    let mut keys: Vec<u64> = (1..=sizes.keys).collect();
    shuffle(&mut keys, &mut rng);
    let mut ref_list = keys[..(sizes.keys * sizes.ref_permille / 1000) as usize].to_vec();
    ref_list.sort_unstable();
    let pad: String = (0..sizes.pad)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect();
    let refs: Vec<Tuple> = ref_list
        .iter()
        .map(|&k| Tuple::new(vec![Value::Int(k as i64)]))
        .collect();
    let hot = sizes.items * sizes.hot_permille as usize / 1000;
    let mut item_keys: Vec<u64> = (0..sizes.items)
        .map(|i| {
            if i < hot {
                0
            } else {
                1 + (i as u64 % sizes.keys)
            }
        })
        .collect();
    shuffle(&mut item_keys, &mut rng);
    let mut items = Vec::with_capacity(sizes.items);
    let mut left = Vec::new();
    let mut audits = Vec::new();
    let mut expected_bulk = 0;
    let mut bulk_user_bytes = 0;
    for (id, key) in item_keys.into_iter().enumerate() {
        let id = id as i64;
        let t = item(id, key, &pad);
        if key == 0 {
            let a = audit(id);
            bulk_user_bytes += (t.approx_bytes() + a.approx_bytes()) as u64;
            audits.push(a);
            expected_bulk += 1;
        } else if ref_list.binary_search(&key).is_ok() {
            bulk_user_bytes += t.approx_bytes() as u64;
            expected_bulk += 1;
        } else {
            left.push(t.clone());
        }
        items.push(t);
    }
    let mut reacts = Vec::with_capacity(sizes.reacts);
    for r in 0..sizes.reacts {
        let id = (sizes.items + r) as i64;
        let key = if ref_list.is_empty() || rng.chance(1, 8) {
            audits.push(audit(id));
            0
        } else {
            ref_list[rng.below(ref_list.len() as u64) as usize]
        };
        reacts.push(item(id, key, &pad));
    }
    let mut expected_wm = vec![left, refs.clone(), audits];
    for class in &mut expected_wm {
        class.sort();
    }
    ConcInput {
        refs,
        items,
        reacts,
        expected_bulk,
        bulk_user_bytes,
        expected_wm,
    }
}
