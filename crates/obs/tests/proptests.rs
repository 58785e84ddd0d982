//! Property-based tests for the observability crate: arbitrary span
//! open/close interleavings must yield well-formed trees, histogram
//! bucketing must be consistent at all edges, and the cross-rank report
//! must be input-order independent.

use proptest::prelude::*;
use specfem_obs::{
    finish_rank, init_rank, span, IpmRankInput, IpmReport, LogHistogram, Span, StatsSnapshot,
    TagTraffic, TraceConfig,
};

/// Names for randomly opened spans.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interleavings of opens and (possibly out-of-order)
    /// guard drops always produce a well-formed span forest, and every
    /// opened span is eventually recorded exactly once.
    #[test]
    fn random_open_close_yields_well_formed_tree(
        ops in prop::collection::vec(0u8..=255, 1..60),
    ) {
        init_rank(0, &TraceConfig { capacity: 4096 });
        let mut opened = 0usize;
        let mut held: Vec<Span> = Vec::new();
        for op in &ops {
            if *op % 2 == 0 || held.is_empty() {
                held.push(span(NAMES[(*op as usize / 2) % NAMES.len()]));
                opened += 1;
            } else {
                // Drop an arbitrary held guard — possibly out of order.
                let idx = (*op as usize) % held.len();
                drop(held.swap_remove(idx));
            }
        }
        drop(held);
        let trace = finish_rank().unwrap().trace;
        prop_assert_eq!(trace.events.len(), opened);
        prop_assert_eq!(trace.dropped, 0);
        if let Err(msg) = trace.check_well_formed() {
            prop_assert!(false, "{}", msg);
        }
        // Events are reported oldest-completed first.
        for w in trace.events.windows(2) {
            prop_assert!(w[0].end_ns() <= w[1].end_ns());
        }
    }

    /// Every value lands in a bucket whose bounds contain it, including
    /// 0 and u64::MAX, and bucket counts always sum to the total count.
    #[test]
    fn histogram_buckets_contain_their_values(
        values in prop::collection::vec(any::<u64>(), 0..40),
        edge_zero in any::<bool>(),
        edge_max in any::<bool>(),
    ) {
        let mut values = values;
        if edge_zero {
            values.push(0);
        }
        if edge_max {
            values.push(u64::MAX);
        }
        let mut h = LogHistogram::default();
        for &v in &values {
            let i = LogHistogram::bucket_index(v);
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.counts.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(h.min(), values.iter().min().copied());
        prop_assert_eq!(h.max(), values.iter().max().copied());
    }

    /// Merging histograms is equivalent to recording the concatenation.
    #[test]
    fn histogram_merge_matches_concatenation(
        a in prop::collection::vec(any::<u64>(), 0..30),
        b in prop::collection::vec(any::<u64>(), 0..30),
    ) {
        let mut ha = LogHistogram::default();
        let mut hb = LogHistogram::default();
        let mut hall = LogHistogram::default();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha, hall);
    }

    /// Merge is commutative: a⊕b == b⊕a for all value sets, including
    /// the 0 and u64::MAX edge buckets. The ledger's cross-rank rollup
    /// merges in nondeterministic worker order, so this is load-bearing.
    #[test]
    fn histogram_merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..30),
        b in prop::collection::vec(any::<u64>(), 0..30),
        edges in any::<u8>(),
    ) {
        let mut a = a;
        let mut b = b;
        if edges & 1 != 0 { a.push(0); }
        if edges & 2 != 0 { a.push(u64::MAX); }
        if edges & 4 != 0 { b.push(0); }
        if edges & 8 != 0 { b.push(u64::MAX); }
        let record_all = |vals: &[u64]| {
            let mut h = LogHistogram::default();
            for &v in vals { h.record(v); }
            h
        };
        let (ha, hb) = (record_all(&a), record_all(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    /// Merge is associative: (a⊕b)⊕c == a⊕(b⊕c), and the merged total
    /// count is the sum of the parts (no value lost or double-counted).
    #[test]
    fn histogram_merge_is_associative_and_preserves_count(
        a in prop::collection::vec(any::<u64>(), 0..20),
        b in prop::collection::vec(any::<u64>(), 0..20),
        c in prop::collection::vec(any::<u64>(), 0..20),
        edges in any::<u8>(),
    ) {
        let mut a = a;
        let mut b = b;
        let mut c = c;
        if edges & 1 != 0 { a.push(0); }
        if edges & 2 != 0 { b.push(u64::MAX); }
        if edges & 4 != 0 { c.push(0); }
        if edges & 8 != 0 { c.push(u64::MAX); }
        let record_all = |vals: &[u64]| {
            let mut h = LogHistogram::default();
            for &v in vals { h.record(v); }
            h
        };
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let total = (a.len() + b.len() + c.len()) as u64;
        prop_assert_eq!(left.count(), total);
        prop_assert_eq!(left.counts.iter().sum::<u64>(), total);
        prop_assert_eq!(left.min(), a.iter().chain(&b).chain(&c).min().copied());
        prop_assert_eq!(left.max(), a.iter().chain(&b).chain(&c).max().copied());
    }

    /// The cross-rank report is deterministic and independent of the
    /// order ranks are supplied in, and totals match a direct sum.
    #[test]
    fn report_is_order_independent(
        ranks in prop::collection::vec(
            (0.001f64..10.0, 0.0f64..1.0, 0u64..1_000_000, 1u64..100),
            1..8,
        ),
    ) {
        let inputs: Vec<IpmRankInput> = ranks
            .iter()
            .enumerate()
            .map(|(rank, &(elapsed, comm_frac, bytes, msgs))| {
                let mut size_hist = LogHistogram::default();
                size_hist.record(bytes);
                IpmRankInput {
                    rank,
                    elapsed_s: elapsed,
                    comm: StatsSnapshot {
                        wall_time_s: elapsed * comm_frac,
                        modeled_time_s: elapsed * comm_frac * 0.5,
                        bytes_sent: bytes,
                        bytes_received: bytes,
                        messages_sent: msgs,
                        collectives: 1,
                        per_tag: vec![TagTraffic { tag: 100, messages: msgs, bytes }],
                        size_hist,
                        ..Default::default()
                    },
                    phase_seconds: vec![("halo".into(), elapsed * comm_frac)],
                }
            })
            .collect();
        let forward = IpmReport::build(&inputs);
        let mut reversed = inputs.clone();
        reversed.reverse();
        let backward = IpmReport::build(&reversed);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(forward.render_text(), backward.render_text());
        prop_assert_eq!(forward.to_json(), backward.to_json());

        let bytes_sum: u64 = inputs.iter().map(|i| i.comm.bytes_sent).sum();
        let msgs_sum: u64 = inputs.iter().map(|i| i.comm.messages_sent).sum();
        prop_assert_eq!(forward.totals.bytes_sent, bytes_sum);
        prop_assert_eq!(forward.totals.messages_sent, msgs_sum);
        prop_assert_eq!(forward.ranks, inputs.len());
        prop_assert_eq!(forward.totals.per_tag.len(), 1);
        prop_assert_eq!(forward.totals.per_tag[0].bytes, bytes_sum);
        // Per-rank rows come back sorted by rank.
        for w in forward.per_rank.windows(2) {
            prop_assert!(w[0].rank < w[1].rank);
        }
    }
}
