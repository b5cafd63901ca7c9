//! CART regression trees over binned features, shared by the GBDT and
//! random-forest learners.
//!
//! Split search uses per-bin histograms of `(count, sum)` and picks the
//! split maximising the variance-reduction gain
//! `sum_l²/n_l + sum_r²/n_r − sum²/n`.

use crate::binning::Binned;
use deepsd_rng::Rng;

/// Tree growth parameters.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum gain to accept a split.
    pub min_gain: f64,
    /// Fraction of features considered at each split (`(0, 1]`).
    pub colsample: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_leaf: 20,
            min_gain: 1e-7,
            colsample: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f32,
    },
    Split {
        feature: u32,
        bin: u8,
        left: u32,
        right: u32,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree to `targets` over the rows in `rows`.
    ///
    /// # Panics
    /// Panics if `rows` is empty or parameters are degenerate.
    pub fn fit(
        data: &Binned,
        rows: &[u32],
        targets: &[f32],
        params: &TreeParams,
        rng: &mut Rng,
    ) -> RegressionTree {
        assert!(!rows.is_empty(), "tree needs samples");
        assert!(
            params.colsample > 0.0 && params.colsample <= 1.0,
            "bad colsample"
        );
        let mut tree = RegressionTree { nodes: Vec::new() };
        let mut rows_owned: Vec<u32> = rows.to_vec();
        tree.grow(data, &mut rows_owned, targets, params, rng, 0);
        tree
    }

    /// Recursively grows the subtree over `rows`, returning its node id.
    fn grow(
        &mut self,
        data: &Binned,
        rows: &mut [u32],
        targets: &[f32],
        params: &TreeParams,
        rng: &mut Rng,
        depth: usize,
    ) -> u32 {
        let n = rows.len();
        let sum: f64 = rows.iter().map(|&r| targets[r as usize] as f64).sum();
        let mean = (sum / n as f64) as f32;

        let make_leaf = |tree: &mut RegressionTree| {
            let id = tree.nodes.len() as u32;
            tree.nodes.push(Node::Leaf { value: mean });
            id
        };

        if depth >= params.max_depth || n < 2 * params.min_samples_leaf {
            return make_leaf(self);
        }

        let Some((feature, bin, gain)) = self.best_split(data, rows, targets, sum, params, rng)
        else {
            return make_leaf(self);
        };
        if gain < params.min_gain {
            return make_leaf(self);
        }

        // Partition rows in place: codes <= bin go left.
        let mid = partition(rows, |&r| data.row(r as usize)[feature as usize] <= bin);
        if mid < params.min_samples_leaf || n - mid < params.min_samples_leaf {
            return make_leaf(self);
        }

        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Split {
            feature,
            bin,
            left: 0,
            right: 0,
        });
        let (left_rows, right_rows) = rows.split_at_mut(mid);
        let left = self.grow(data, left_rows, targets, params, rng, depth + 1);
        let right = self.grow(data, right_rows, targets, params, rng, depth + 1);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[id as usize]
        {
            *l = left;
            *r = right;
        }
        id
    }

    /// Finds the best `(feature, bin, gain)` split over a column sample.
    fn best_split(
        &self,
        data: &Binned,
        rows: &[u32],
        targets: &[f32],
        total_sum: f64,
        params: &TreeParams,
        rng: &mut Rng,
    ) -> Option<(u32, u8, f64)> {
        let n = rows.len() as f64;
        let base = total_sum * total_sum / n;

        let features: Vec<usize> = if params.colsample >= 1.0 {
            (0..data.d).collect()
        } else {
            let k = ((data.d as f64 * params.colsample).ceil() as usize).clamp(1, data.d);
            let mut all: Vec<usize> = (0..data.d).collect();
            rng.shuffle(&mut all);
            all.truncate(k);
            all
        };

        let mut best: Option<(u32, u8, f64)> = None;
        let mut hist_count = [0u32; 256];
        let mut hist_sum = [0f64; 256];
        for &f in &features {
            let bins = data.n_bins(f);
            if bins < 2 {
                continue;
            }
            hist_count[..bins].fill(0);
            hist_sum[..bins].fill(0.0);
            for &r in rows {
                let b = data.row(r as usize)[f] as usize;
                hist_count[b] += 1;
                hist_sum[b] += targets[r as usize] as f64;
            }
            let mut left_n = 0u32;
            let mut left_sum = 0.0f64;
            for b in 0..bins - 1 {
                left_n += hist_count[b];
                left_sum += hist_sum[b];
                let right_n = rows.len() as u32 - left_n;
                if (left_n as usize) < params.min_samples_leaf
                    || (right_n as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let gain = left_sum * left_sum / left_n as f64
                    + right_sum * right_sum / right_n as f64
                    - base;
                if best.is_none_or(|(_, _, g)| gain > g) && gain.is_finite() {
                    best = Some((f as u32, b as u8, gain));
                }
            }
        }
        best
    }

    /// Predicts one binned row.
    pub fn predict_codes(&self, codes: &[u8]) -> f32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    bin,
                    left,
                    right,
                } => {
                    node = if codes[*feature as usize] <= *bin {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, *left as usize).max(walk(nodes, *right as usize))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

/// Stable-ish in-place partition; returns the number of elements
/// satisfying the predicate (moved to the front).
fn partition<T: Copy>(xs: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut i = 0;
    for j in 0..xs.len() {
        if pred(&xs[j]) {
            xs.swap(i, j);
            i += 1;
        }
    }
    i
}

/// Draws a bootstrap sample of `[0, n)` with replacement.
pub fn bootstrap_rows(n: usize, rng: &mut Rng) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Tabular;

    fn binned(cols: Vec<Vec<f32>>, y: Vec<f32>) -> (Binned, Vec<f32>) {
        let n = cols[0].len();
        let d = cols.len();
        let mut x = Vec::with_capacity(n * d);
        for i in 0..n {
            for c in &cols {
                x.push(c[i]);
            }
        }
        (
            Binned::from_tabular(&Tabular {
                x,
                n,
                d,
                y: y.clone(),
            }),
            y,
        )
    }

    #[test]
    fn splits_a_step_function_exactly() {
        let xs: Vec<f32> = (0..200).map(|v| v as f32).collect();
        let y: Vec<f32> = xs
            .iter()
            .map(|&v| if v < 100.0 { 1.0 } else { 5.0 })
            .collect();
        let (data, y) = binned(vec![xs], y);
        let rows: Vec<u32> = (0..200).collect();
        let mut rng = Rng::seed_from_u64(1);
        let tree = RegressionTree::fit(
            &data,
            &rows,
            &y,
            &TreeParams {
                max_depth: 2,
                min_samples_leaf: 5,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!((tree.predict_codes(&data.encode_row(&[10.0])) - 1.0).abs() < 0.05);
        assert!((tree.predict_codes(&data.encode_row(&[150.0])) - 5.0).abs() < 0.05);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let xs: Vec<f32> = (0..50).map(|v| v as f32).collect();
        let (data, y) = binned(vec![xs], vec![3.0; 50]);
        let rows: Vec<u32> = (0..50).collect();
        let mut rng = Rng::seed_from_u64(2);
        let tree = RegressionTree::fit(&data, &rows, &y, &TreeParams::default(), &mut rng);
        assert_eq!(tree.n_leaves(), 1);
        assert!((tree.predict_codes(&data.encode_row(&[25.0])) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<f32> = (0..256).map(|v| v as f32).collect();
        let y: Vec<f32> = xs.iter().map(|&v| (v * 0.1).sin()).collect();
        let (data, y) = binned(vec![xs], y);
        let rows: Vec<u32> = (0..256).collect();
        let mut rng = Rng::seed_from_u64(3);
        let tree = RegressionTree::fit(
            &data,
            &rows,
            &y,
            &TreeParams {
                max_depth: 3,
                min_samples_leaf: 1,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let xs: Vec<f32> = (0..100).map(|v| v as f32).collect();
        let y: Vec<f32> = xs
            .iter()
            .map(|&v| if v < 3.0 { 100.0 } else { 0.0 })
            .collect();
        let (data, y) = binned(vec![xs], y);
        let rows: Vec<u32> = (0..100).collect();
        let mut rng = Rng::seed_from_u64(4);
        let tree = RegressionTree::fit(
            &data,
            &rows,
            &y,
            &TreeParams {
                min_samples_leaf: 10,
                ..TreeParams::default()
            },
            &mut rng,
        );
        // The first-3-rows split is forbidden; predictions are pooled.
        let p = tree.predict_codes(&data.encode_row(&[0.0]));
        assert!(p < 100.0);
    }

    #[test]
    fn picks_informative_feature_among_noise() {
        let n = 300;
        let mut rng = Rng::seed_from_u64(5);
        let noise: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let signal: Vec<f32> = (0..n).map(|v| (v % 2) as f32).collect();
        let y: Vec<f32> = signal.iter().map(|&s| s * 10.0).collect();
        let (data, y) = binned(vec![noise, signal], y);
        let rows: Vec<u32> = (0..n as u32).collect();
        let tree = RegressionTree::fit(
            &data,
            &rows,
            &y,
            &TreeParams {
                max_depth: 1,
                min_samples_leaf: 5,
                ..TreeParams::default()
            },
            &mut rng,
        );
        assert!((tree.predict_codes(&data.encode_row(&[0.0, 0.0])) - 0.0).abs() < 0.5);
        assert!((tree.predict_codes(&data.encode_row(&[0.0, 1.0])) - 10.0).abs() < 0.5);
    }

    #[test]
    fn bootstrap_covers_range() {
        let mut rng = Rng::seed_from_u64(6);
        let rows = bootstrap_rows(100, &mut rng);
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|&r| r < 100));
        // With replacement: near-certainly some duplicate exists.
        let unique: std::collections::HashSet<_> = rows.iter().collect();
        assert!(unique.len() < 100);
    }

    #[test]
    fn partition_helper() {
        let mut xs = vec![5, 1, 4, 2, 3];
        let k = partition(&mut xs, |&v| v <= 2);
        assert_eq!(k, 2);
        assert!(xs[..k].iter().all(|&v| v <= 2));
        assert!(xs[k..].iter().all(|&v| v > 2));
    }
}
