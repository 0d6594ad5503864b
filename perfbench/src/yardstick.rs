//! The yardstick: a fixed task of the benchmark's own, timed between the
//! operations of every segment, so that an operation's latency can be read
//! in multiples of it.
//!
//! The shared virtual machines this benchmark runs on pass through spells
//! of minutes in which memory-bound code runs up to 2.5× slower while the
//! steal time stays near 0 and plain arithmetic keeps its speed. Every
//! latency of a run in such a spell is stretched; latencies measured in
//! the same minutes as a task that slows with them are not. The yardstick
//! does the kind of work the program's hot paths do — it formats floats
//! into text, parses them back, sorts them and counts them in a hash map —
//! and calls no program code, so a change to the program moves the ratio
//! and leaves the yardstick where it was.

use crate::rng::Rng;
use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Values the task formats, parses, sorts and counts.
const VALUES: usize = 4096;

/// Times one run of the task, in seconds.
pub fn time_once() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0x5EED, 9);
    let values: Vec<f64> = (0..VALUES).map(|_| rng.unit() * 1000.0).collect();
    let mut text = String::new();
    for v in black_box(&values) {
        let _ = write!(text, "{v:.3},");
    }
    let mut parsed: Vec<f64> = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("the task parses its own text"))
        .collect();
    parsed.sort_by(f64::total_cmp);
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for (i, v) in parsed.iter().enumerate() {
        *counts.entry(*v as u64 % 512).or_default() += i;
    }
    black_box(counts.len());
    start.elapsed().as_secs_f64()
}
