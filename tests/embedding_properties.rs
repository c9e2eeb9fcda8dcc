//! Property-based tests over the embedding substrate's golden operations.

use proptest::prelude::*;

use tensordimm::embedding::{ops, zipf_lookup_rows, Distribution, EmbeddingTable, IndexStream};
use tensordimm::isa::ReduceOp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Gather preserves every selected row exactly.
    #[test]
    fn gather_selects_exact_rows(
        rows in 1u64..200,
        dim in 1usize..64,
        seed in 0u64..1000,
        picks in 1usize..32,
    ) {
        let table = EmbeddingTable::seeded("t", rows, dim, seed);
        let mut stream = IndexStream::new(Distribution::Uniform, rows, seed);
        let idx = stream.batch(picks);
        let out = ops::gather(&table, &idx).expect("indices in range");
        prop_assert_eq!(out.len(), picks * dim);
        for (i, &r) in idx.iter().enumerate() {
            prop_assert_eq!(&out[i * dim..(i + 1) * dim], table.row(r).expect("in range"));
        }
    }

    /// reduce(Add) is commutative; reduce(Sub) is its anti-symmetric twin.
    #[test]
    fn reduce_algebra(
        n in 1usize..256,
        seed in 0u64..1000,
    ) {
        let a = EmbeddingTable::seeded("a", 1, n, seed);
        let b = EmbeddingTable::seeded("b", 1, n, seed + 1);
        let ab = ops::reduce(a.data(), b.data(), ReduceOp::Add).expect("same shape");
        let ba = ops::reduce(b.data(), a.data(), ReduceOp::Add).expect("same shape");
        prop_assert_eq!(&ab, &ba);
        let sub = ops::reduce(a.data(), b.data(), ReduceOp::Sub).expect("same shape");
        for ((s, x), y) in sub.iter().zip(ab.iter()).zip(b.data()) {
            prop_assert!((s - (x - 2.0 * y)).abs() < 1e-4);
        }
        // Min/Max bound the inputs.
        let mn = ops::reduce(a.data(), b.data(), ReduceOp::Min).expect("same shape");
        let mx = ops::reduce(a.data(), b.data(), ReduceOp::Max).expect("same shape");
        for (lo, hi) in mn.iter().zip(&mx) {
            prop_assert!(lo <= hi);
        }
    }

    /// Averaging a group of identical vectors returns that vector, and the
    /// average always lies within the per-lane min/max envelope.
    #[test]
    fn average_envelope(
        group in 1usize..16,
        dim in 1usize..32,
        seed in 0u64..1000,
    ) {
        let one = EmbeddingTable::seeded("v", 1, dim, seed);
        let repeated: Vec<f32> = one.data().iter().copied().cycle().take(group * dim).collect();
        let avg = ops::average(&repeated, group, dim).expect("whole groups");
        for (a, v) in avg.iter().zip(one.data()) {
            prop_assert!((a - v).abs() < 1e-5);
        }

        let table = EmbeddingTable::seeded("m", group as u64, dim, seed + 7);
        let avg = ops::average(table.data(), group, dim).expect("whole groups");
        for (d, value) in avg.iter().enumerate() {
            let lane: Vec<f32> = (0..group as u64)
                .map(|r| table.row(r).expect("in range")[d])
                .collect();
            let lo = lane.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = lane.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(*value >= lo - 1e-5 && *value <= hi + 1e-5);
        }
    }

    /// Index streams are deterministic per seed and respect bounds for
    /// both distributions.
    #[test]
    fn index_stream_bounds(
        rows in 1u64..1_000_000,
        seed in 0u64..1000,
        s in 0.5f64..1.5,
    ) {
        for dist in [Distribution::Uniform, Distribution::Zipfian { s }] {
            let mut a = IndexStream::new(dist, rows, seed);
            let mut b = IndexStream::new(dist, rows, seed);
            let xa = a.batch(64);
            prop_assert_eq!(&xa, &b.batch(64));
            prop_assert!(xa.iter().all(|&i| i < rows));
        }
    }

    /// Reseeding one stream and filling a reused buffer draws exactly the
    /// rows a fresh `zipf_lookup_rows` call draws, at any skew (the
    /// uniform `s = 0` and the logarithmic `s = 1` branch included) and
    /// whatever the stream and the buffer held before.
    #[test]
    fn reseed_and_fill_match_fresh_lookup_rows(
        seed in 0u64..u64::MAX,
        prior_seed in 0u64..u64::MAX,
        n in 0usize..64,
        rows in 1u64..5_000_000_000,
        s in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..2.0],
    ) {
        let mut stream = IndexStream::new(Distribution::with_skew(s), rows, prior_seed);
        let mut out = stream.batch(5);
        stream.reseed(seed);
        stream.fill(n, &mut out);
        prop_assert_eq!(out, zipf_lookup_rows(n, rows, s, seed));
    }
}
