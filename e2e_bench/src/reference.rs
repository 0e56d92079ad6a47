//! A fixed reference computation that calibrates the machine's speed.
//!
//! On a machine shared with other tenants, the speed of one thread moves
//! by tens of percent from minute to minute: a neighbour on the sibling
//! hardware thread, in the shared cache or on the memory bus slows every
//! instruction, so processor time rises with wall time and neither clock
//! repeats. Such a slowdown hits two pieces of similar code alike, so the
//! benchmark runs this computation around every timed operation and
//! scales the operation's time by how much slower the reference ran than
//! its nominal time.
//!
//! Neighbours slow cache-resident and memory-bound code by different
//! amounts, so the reference comes in two mixes, one for each kind of
//! work the benchmark times:
//!
//! * [`Mix::Interpreter`], for executions: a small bytecode interpreter (a
//!   dispatch loop over a decoded instruction vector, a
//!   multiplicative-hash set and an array indexed by data) whose data
//!   stays in the processor's private caches, as the programs' data does
//!   at scale 9;
//! * [`Mix::Compiler`], for compiles: the same interpreter, plus a chain
//!   of dependent reads from a table far larger than the caches and an
//!   ordered map built and dropped, which allocates as a compiler pass
//!   does over its large intermediate representation.
//!
//! The reference lives in the benchmark, so no change to the workspace
//! crates can move it.

use std::collections::BTreeMap;
use std::time::Instant;

/// What the reference computes and how long it takes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Interpreter,
    Compiler,
}

impl Mix {
    /// The layer name of its spans and metrics.
    pub fn layer(self) -> &'static str {
        match self {
            Mix::Interpreter => "reference.interpreter",
            Mix::Compiler => "reference.compiler",
        }
    }

    /// Median wall time of one [`Reference::run`] in an otherwise idle
    /// process on the machine the benchmark's baseline was taken on (see
    /// README.md). Calibrated times are stated at this speed.
    pub fn nominal_ms(self) -> f64 {
        match self {
            Mix::Interpreter => 1.2,
            Mix::Compiler => 3.6,
        }
    }

    /// What one run computes; a different value means the reference is
    /// not doing its fixed work.
    fn checksum(self) -> u64 {
        match self {
            Mix::Interpreter => 200_927_030,
            Mix::Compiler => 34_100_372_231,
        }
    }
}

/// Iterations of the interpreted loop per run.
const ITERS: u64 = 12_000;
/// Slots of the hash set (a power of two) and of the array.
const SET_SLOTS: usize = 1 << 13;
const ARRAY_LEN: usize = 1 << 15;
/// Entries of the chased table (a power of two; 64 MiB) and reads chased
/// per run.
const TABLE_LEN: usize = 1 << 23;
const CHASE_STEPS: u64 = 8_000;
/// Entries of the ordered map built per run.
const TREE_KEYS: u64 = 3_000;

#[derive(Clone, Copy)]
enum Op {
    /// `r[d] = r[a] * K + r[b]`
    MulAdd(usize, usize, usize, u64),
    /// `r[d] = r[a] ^ (r[a] >> s)`
    XorShift(usize, usize, u32),
    /// `r[d] = array[r[a] % len]`, then `array[...] += r[b]`
    Load(usize, usize, usize),
    /// Inserts `r[a]` into the set; `r[d]` = 1 if it was new.
    Insert(usize, usize),
    /// `r[d] += 1` if the set holds `r[a]`.
    Probe(usize, usize),
    /// Removes `r[a]` from the set if present and `r[b]` is odd.
    RemoveIfOdd(usize, usize),
    /// `r[d] += r[a]`
    Add(usize, usize),
    /// Jumps to `target` while `r[a]` < `r[b]`, after `r[a] += 1`.
    Loop(usize, usize, usize),
}

/// Open-addressing set of non-zero keys with linear probing and
/// tombstones.
struct Set {
    slots: Vec<u64>,
    len: usize,
}

const TOMBSTONE: u64 = u64::MAX;

impl Set {
    fn slot(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) as usize & (self.slots.len() - 1)
    }

    fn find(&self, key: u64) -> Result<usize, usize> {
        let mut i = self.slot(key);
        let mut free = None;
        loop {
            match self.slots[i] {
                0 => return Err(free.unwrap_or(i)),
                TOMBSTONE => free = free.or(Some(i)),
                k if k == key => return Ok(i),
                _ => {}
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    fn insert(&mut self, key: u64) -> bool {
        // Keep the load factor at or below a half, clearing when full.
        if 2 * self.len >= self.slots.len() {
            self.clear();
        }
        match self.find(key) {
            Ok(_) => false,
            Err(i) => {
                self.slots[i] = key;
                self.len += 1;
                true
            }
        }
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
        self.len = 0;
    }

    fn contains(&self, key: u64) -> bool {
        self.find(key).is_ok()
    }

    fn remove(&mut self, key: u64) {
        if let Ok(i) = self.find(key) {
            self.slots[i] = TOMBSTONE;
            self.len -= 1;
        }
    }
}

/// Keys are kept non-zero and below the tombstone.
fn key(v: u64) -> u64 {
    (v % 50_000) + 1
}

fn program() -> Vec<Op> {
    use Op::*;
    vec![
        MulAdd(1, 1, 0, 6_364_136_223_846_793_005),
        XorShift(2, 1, 29),
        Insert(3, 2),
        Load(4, 2, 3),
        Probe(5, 4),
        MulAdd(6, 4, 2, 31),
        Probe(5, 6),
        RemoveIfOdd(6, 4),
        Add(7, 4),
        Add(7, 5),
        Loop(0, 8, 0),
    ]
}

fn interpret(code: &[Op], set: &mut Set, array: &mut [u64]) -> u64 {
    let mut r = [0u64; 9];
    r[1] = 1;
    r[8] = ITERS;
    let mut pc = 0;
    while pc < code.len() {
        pc += 1;
        match code[pc - 1] {
            Op::MulAdd(d, a, b, k) => r[d] = r[a].wrapping_mul(k).wrapping_add(r[b]),
            Op::XorShift(d, a, s) => r[d] = r[a] ^ (r[a] >> s),
            Op::Load(d, a, b) => {
                let i = (r[a] % array.len() as u64) as usize;
                r[d] = array[i];
                array[i] = array[i].wrapping_add(r[b]);
            }
            Op::Insert(d, a) => r[d] = u64::from(set.insert(key(r[a]))),
            Op::Probe(d, a) => r[d] += u64::from(set.contains(key(r[a]))),
            Op::RemoveIfOdd(a, b) => {
                if r[b] & 1 == 1 {
                    set.remove(key(r[a]));
                }
            }
            Op::Add(d, a) => r[d] = r[d].wrapping_add(r[a]),
            Op::Loop(a, b, target) => {
                r[a] += 1;
                if r[a] < r[b] {
                    pc = target;
                }
            }
        }
    }
    r[7]
}

/// Reads a chain of `CHASE_STEPS` dependent entries of a table larger
/// than the processor's private caches.
fn chase(table: &[u64]) -> u64 {
    let mask = table.len() as u64 - 1;
    let mut at = 0u64;
    let mut sum = 0u64;
    for step in 0..CHASE_STEPS {
        at = (table[at as usize] ^ step) & mask;
        sum = sum.wrapping_add(at);
    }
    sum
}

/// Builds and drops an ordered map of `TREE_KEYS` small entries, which
/// allocates and frees as a compiler pass does.
fn tree() -> u64 {
    let mut map = BTreeMap::new();
    for i in 0..TREE_KEYS {
        let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        map.insert(k, vec![i; 3]);
    }
    map.values().step_by(7).map(|v| v[0]).sum()
}

/// The reference computation and the memory it works on, allocated once.
pub struct Reference {
    mix: Mix,
    /// The chased table; empty for [`Mix::Interpreter`].
    table: Vec<u64>,
    set: Set,
    array: Vec<u64>,
}

impl Reference {
    pub fn new(mix: Mix) -> Reference {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let len = if mix == Mix::Compiler { TABLE_LEN } else { 0 };
        let table = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        Reference {
            mix,
            table,
            set: Set {
                slots: vec![0; SET_SLOTS],
                len: 0,
            },
            array: vec![0; ARRAY_LEN],
        }
    }

    /// Runs the reference computation twice and returns the wall time of
    /// the second run in milliseconds, so that what the timed operation
    /// left in the caches and allocator does not count. Panics if it
    /// computed the wrong value.
    pub fn run(&mut self) -> f64 {
        self.run_once();
        self.run_once()
    }

    fn run_once(&mut self) -> f64 {
        let t = Instant::now();
        self.set.clear();
        for (i, a) in self.array.iter_mut().enumerate() {
            *a = i as u64;
        }
        let code = std::hint::black_box(program());
        let mut sum = interpret(&code, &mut self.set, &mut self.array);
        if self.mix == Mix::Compiler {
            sum = sum
                .wrapping_add(chase(std::hint::black_box(&self.table)))
                .wrapping_add(tree());
        }
        let took = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            std::hint::black_box(sum),
            self.mix.checksum(),
            "reference computed the wrong value"
        );
        took
    }
}
