//! K-nearest-neighbour regression and classification.
//!
//! The paper finds KNN regression "the most suitable for the power model
//! of both LS/BE applications" and competitive for BE performance models
//! (Fig. 6/7). With only four features and a few thousand profiling
//! samples, a brute-force scan with a bounded max-heap is both simple and
//! fast (well under the paper's 0.04 ms/prediction budget in release
//! builds).
//!
//! # Layout and the last-axis sweep
//!
//! The standardized training features are stored once, column-major, so
//! one feature of every training row is a contiguous slice. There is one
//! scan kernel, `KnnCore::sweep`. It answers a batch of queries that
//! share every feature but the last, `[x, last[j]]` for `j` in
//! `0..last.len()` — the QPS-slab and model-table builders sweep the
//! LLC-ways axis, the last feature, this way. A single `predict` is the
//! one-value case of the same kernel.
//!
//! The kernel first sums the squared distance over the leading features
//! for every training row, column by column. Each query then adds its
//! own last-feature term row by row and keeps its own bounded heap.
//!
//! This is bit-identical to scanning every query alone over row-major
//! rows:
//!
//! * the squared distance is summed in feature order,
//!   `((d0 + d1) + d2) + d3`, so the shared prefix `(d0 + d1) + d2` is the
//!   same float a per-query scan builds before adding `d3`;
//! * each query's heap sees the training rows in the same order under the
//!   same strict `dist2 < worst` rule, so it gets exactly the same
//!   sequence of pushes and pops;
//! * the neighbours therefore leave the heap in the same order, and the
//!   aggregate sums them in that order.
//!
//! With one value, the last term is folded into the prefix pass and the
//! heap scan runs over the finished distances.

use crate::model::{check_binary_targets, Classifier, Dataset, MlError, Regressor};
use crate::preprocess::Standardizer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, target)` pair ordered by distance for the bounded heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Neighbor {
    dist2: f64,
    y: f64,
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist2.total_cmp(&other.dist2)
    }
}

/// Shared KNN core: standardizes features at fit time and finds the `k`
/// nearest training rows at query time.
#[derive(Debug, Clone)]
struct KnnCore {
    k: usize,
    /// Standardized training features, column-major: feature `j` of row
    /// `i` is `cols[j * n + i]` for `n` training rows.
    cols: Vec<f64>,
    y: Vec<f64>,
    scaler: Option<Standardizer>,
}

impl KnnCore {
    fn new(k: usize) -> Self {
        Self {
            k,
            cols: Vec::new(),
            y: Vec::new(),
            scaler: None,
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if self.k == 0 {
            return Err(MlError::InvalidParameter("k must be ≥ 1".into()));
        }
        if data.len() < self.k {
            return Err(MlError::InvalidDataset(format!(
                "k = {} exceeds dataset size {}",
                self.k,
                data.len()
            )));
        }
        let scaler = Standardizer::fit(data);
        let n = data.len();
        let mut cols = vec![0.0; n * data.dims()];
        let mut row = vec![0.0; data.dims()];
        for (i, r) in data.x.iter().enumerate() {
            row.copy_from_slice(r);
            scaler.transform_row(&mut row);
            for (j, &v) in row.iter().enumerate() {
                cols[j * n + i] = v;
            }
        }
        self.cols = cols;
        self.y = data.y.clone();
        self.scaler = Some(scaler);
        Ok(())
    }

    /// The scan kernel: finds the `k` nearest training rows of every query
    /// `[x, last[j]]` and hands each neighbourhood, in heap order, to
    /// `emit(j, ..)`. `x` holds every feature but the last.
    fn sweep(&self, x: &[f64], last: &[f64], mut emit: impl FnMut(usize, &[Neighbor])) {
        let scaler = self.scaler.as_ref().expect("predict before fit");
        let n = self.y.len();
        let d = x.len() + 1;
        debug_assert_eq!(d * n, self.cols.len(), "query width differs from training");
        let (lead, last_col) = self.cols.split_at((d - 1) * n);
        // Shared prefix pass, summed in feature order. Starting from 0.0
        // is exact: every term is a square, and 0.0 + d0 == d0.
        let mut dist = vec![0.0; n];
        for (j, (&v, col)) in x.iter().zip(lead.chunks_exact(n)).enumerate() {
            let q = scaler.transform_feature(j, v);
            for (acc, &t) in dist.iter_mut().zip(col) {
                *acc += (q - t).powi(2);
            }
        }
        let mut heap = BinaryHeap::with_capacity(self.k + 1);
        if let [v] = *last {
            // One query: fold the last column into the prefix pass.
            let q = scaler.transform_feature(d - 1, v);
            for (acc, &t) in dist.iter_mut().zip(last_col) {
                *acc += (q - t).powi(2);
            }
            self.select(&mut heap, dist.iter().copied());
            emit(0, heap.as_slice());
            return;
        }
        for (j, &v) in last.iter().enumerate() {
            let q = scaler.transform_feature(d - 1, v);
            let dists = dist
                .iter()
                .zip(last_col)
                .map(|(&p, &t)| p + (q - t).powi(2));
            self.select(&mut heap, dists);
            emit(j, heap.as_slice());
        }
    }

    /// Refills `heap` with the `k` nearest of the training rows whose
    /// squared distances `dists` yields in row order.
    fn select(&self, heap: &mut BinaryHeap<Neighbor>, dists: impl Iterator<Item = f64>) {
        // Max-heap of size k keyed on distance: the root is the current
        // worst candidate and is evicted by any strictly closer row.
        heap.clear();
        let mut rows = dists.zip(&self.y);
        for (dist2, &y) in rows.by_ref().take(self.k) {
            heap.push(Neighbor { dist2, y });
        }
        let mut worst = heap.peek().map_or(f64::INFINITY, |nb| nb.dist2);
        for (dist2, &y) in rows {
            if dist2 < worst {
                heap.pop();
                heap.push(Neighbor { dist2, y });
                worst = heap.peek().expect("heap non-empty").dist2;
            }
        }
    }
}

/// How neighbour targets are folded into one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Aggregation {
    /// Plain mean of the `k` targets.
    Mean,
    /// Inverse-distance-weighted mean. Removes the smoothing bias at the
    /// edges of the training domain (critical for power models queried at
    /// the all-cores/max-frequency corner).
    Weighted,
    /// Maximum of the `k` targets: the paper's conservative peak-power
    /// training ("Sturgeon builds power models based on their peak powers
    /// conservatively"). Mean-style aggregation systematically
    /// *under*-predicts at domain boundaries because every neighbour lies
    /// on the interior, cheaper side; taking the neighbourhood peak turns
    /// that bias into a safety margin instead.
    Peak,
}

/// Folds neighbour targets into one prediction per the aggregation mode.
fn aggregate(neighbors: &[Neighbor], mode: Aggregation) -> f64 {
    if neighbors.is_empty() {
        return 0.0;
    }
    match mode {
        Aggregation::Weighted => {
            // An exact-match neighbour short-circuits to its target.
            if let Some(hit) = neighbors.iter().find(|n| n.dist2 < 1e-18) {
                return hit.y;
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for n in neighbors {
                let w = 1.0 / n.dist2.sqrt();
                num += w * n.y;
                den += w;
            }
            num / den
        }
        Aggregation::Mean => neighbors.iter().map(|n| n.y).sum::<f64>() / neighbors.len() as f64,
        Aggregation::Peak => neighbors
            .iter()
            .map(|n| n.y)
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// KNN regressor: predicts an aggregate (mean, distance-weighted mean, or
/// peak) of the `k` nearest neighbours' targets.
#[derive(Debug, Clone)]
pub struct KnnRegressor {
    core: KnnCore,
    mode: Aggregation,
}

impl KnnRegressor {
    /// Creates a plain-mean regressor with neighbourhood size `k`.
    pub fn new(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Mean,
        }
    }

    /// Creates an inverse-distance-weighted regressor.
    pub fn weighted(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Weighted,
        }
    }

    /// Creates a peak-of-neighbourhood regressor (conservative: predicts
    /// the largest target among the `k` nearest training rows).
    pub fn peak(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
            mode: Aggregation::Peak,
        }
    }
}

impl Regressor for KnnRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.core.fit(data)
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let (lead, last) = x.split_at(x.len().saturating_sub(1));
        let mut out = 0.0;
        self.core
            .sweep(lead, last, |_, nbs| out = aggregate(nbs, self.mode));
        out
    }

    fn predict_last_axis(&self, x: &[f64], last: &[f64], out: &mut [f64]) {
        self.core
            .sweep(x, last, |j, nbs| out[j] = aggregate(nbs, self.mode));
    }
}

/// KNN classifier: majority vote of the `k` nearest neighbours.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    core: KnnCore,
}

impl KnnClassifier {
    /// Creates a classifier with neighbourhood size `k` (odd values avoid
    /// ties).
    pub fn new(k: usize) -> Self {
        Self {
            core: KnnCore::new(k),
        }
    }
}

impl Classifier for KnnClassifier {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        check_binary_targets(data)?;
        self.core.fit(data)
    }

    fn predict_score(&self, x: &[f64]) -> f64 {
        let (lead, last) = x.split_at(x.len().saturating_sub(1));
        let mut out = 0.0;
        self.core
            .sweep(lead, last, |_, nbs| out = aggregate(nbs, Aggregation::Mean));
        out
    }

    fn predict_last_axis(&self, x: &[f64], last: &[f64], out: &mut [f64]) {
        self.core
            .sweep(x, last, |j, nbs| out[j] = aggregate(nbs, Aggregation::Mean));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Dataset {
        // y = x0 + x1 over a 10×10 grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![i as f64, j as f64]);
                y.push((i + j) as f64);
            }
        }
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn k1_memorizes_training_points() {
        let data = grid();
        let mut m = KnnRegressor::new(1);
        m.fit(&data).unwrap();
        for (row, &y) in data.x.iter().zip(&data.y) {
            assert_eq!(m.predict(row), y);
        }
    }

    #[test]
    fn interpolates_smooth_functions() {
        let data = grid();
        let mut m = KnnRegressor::new(4);
        m.fit(&data).unwrap();
        // Query the centre of a grid cell: 4 symmetric neighbours average
        // to the exact function value.
        assert!((m.predict(&[4.5, 4.5]) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_zero_k_and_oversized_k() {
        let data = grid();
        assert!(KnnRegressor::new(0).fit(&data).is_err());
        assert!(KnnRegressor::new(101).fit(&data).is_err());
    }

    #[test]
    fn classifier_majority_vote() {
        // Class 1 iff x0 > 5.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 2.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] > 5.0 { 1.0 } else { 0.0 })
            .collect();
        let data = Dataset::new(x, y).unwrap();
        let mut m = KnnClassifier::new(3);
        m.fit(&data).unwrap();
        assert!(m.predict_label(&[9.0]));
        assert!(!m.predict_label(&[1.0]));
    }

    #[test]
    fn classifier_rejects_non_binary() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0]], vec![0.0, 3.0]).unwrap();
        assert!(KnnClassifier::new(1).fit(&data).is_err());
    }

    /// The row-major brute-force scan this module used before the
    /// column-major sweep, kept as the bit-identity reference: every query
    /// scans its own standardized row against every training row.
    fn reference_neighbors(data: &Dataset, k: usize, x: &[f64]) -> Vec<Neighbor> {
        fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
        }
        let scaler = Standardizer::fit(data);
        let scaled = scaler.transform(data);
        let q = scaler.transformed(x);
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
        for (row, &y) in scaled.x.iter().zip(&scaled.y) {
            let dist2 = squared_distance(&q, row);
            if heap.len() < k {
                heap.push(Neighbor { dist2, y });
            } else if dist2 < heap.peek().expect("heap non-empty").dist2 {
                heap.pop();
                heap.push(Neighbor { dist2, y });
            }
        }
        heap.into_vec()
    }

    /// Tie-heavy data: an integer lattice over four features with every
    /// point present twice under different targets, so equal distances
    /// abound and heap order decides which duplicate survives.
    fn lattice(binary: bool) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..3 {
            for b in 1..4 {
                for c in 0..2 {
                    for w in 1..6 {
                        for dup in 0..2 {
                            x.push(vec![a as f64, b as f64, c as f64, w as f64]);
                            let v = a * 7 + b * 3 + c + w * 2 + dup * 5;
                            y.push(if binary {
                                (v % 2) as f64
                            } else {
                                v as f64 * 0.37
                            });
                        }
                    }
                }
            }
        }
        Dataset::new(x, y).unwrap()
    }

    /// Leading features on and off the lattice, and last-axis values on
    /// the grid, between grid points and outside the trained range.
    fn queries() -> (Vec<[f64; 3]>, Vec<f64>) {
        let leads = vec![
            [1.0, 2.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.5, 2.5, 0.5],
            [2.0, 3.7, 1.0],
        ];
        let lasts = vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.5, 2.5, 7.0];
        (leads, lasts)
    }

    /// Asserts `predict` and `predict_last_axis` of `model` equal the
    /// reference scan aggregated by `mode`, bit for bit.
    fn assert_matches_reference(
        data: &Dataset,
        k: usize,
        mode: Aggregation,
        predict: impl Fn(&[f64]) -> f64,
        sweep: impl Fn(&[f64], &[f64], &mut [f64]),
    ) {
        let (leads, lasts) = queries();
        for lead in &leads {
            let mut out = vec![f64::NAN; lasts.len()];
            sweep(lead, &lasts, &mut out);
            for (&last, &swept) in lasts.iter().zip(&out) {
                let row = [lead[0], lead[1], lead[2], last];
                let want = aggregate(&reference_neighbors(data, k, &row), mode);
                assert_eq!(
                    predict(&row).to_bits(),
                    want.to_bits(),
                    "predict {row:?} k={k}"
                );
                assert_eq!(swept.to_bits(), want.to_bits(), "sweep {row:?} k={k}");
            }
        }
    }

    #[test]
    fn regressor_matches_row_major_reference_bit_for_bit() {
        let data = lattice(false);
        for k in [1, 5, data.len()] {
            for (mut m, mode) in [
                (KnnRegressor::new(k), Aggregation::Mean),
                (KnnRegressor::weighted(k), Aggregation::Weighted),
                (KnnRegressor::peak(k), Aggregation::Peak),
            ] {
                m.fit(&data).unwrap();
                assert_matches_reference(
                    &data,
                    k,
                    mode,
                    |x| m.predict(x),
                    |x, last, out| m.predict_last_axis(x, last, out),
                );
            }
        }
    }

    #[test]
    fn classifier_matches_row_major_reference_bit_for_bit() {
        let data = lattice(true);
        for k in [1, 5, data.len()] {
            let mut m = KnnClassifier::new(k);
            m.fit(&data).unwrap();
            assert_matches_reference(
                &data,
                k,
                Aggregation::Mean,
                |x| m.predict_score(x),
                |x, last, out| m.predict_last_axis(x, last, out),
            );
        }
    }

    #[test]
    fn scaling_makes_features_comparable() {
        // Feature 1 has a huge scale but is irrelevant; with
        // standardization the relevant feature 0 still dominates.
        let x: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64, (i as f64) * 1e6])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0]).collect();
        let data = Dataset::new(x, y).unwrap();
        let mut m = KnnRegressor::new(5);
        m.fit(&data).unwrap();
        let p = m.predict(&[3.0, 25.0e6]);
        assert!(p.is_finite());
    }
}
