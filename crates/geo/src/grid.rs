//! A uniform-cell spatial index.

use std::collections::HashMap;

use crate::point::GeoPoint;

/// A spatial index over items with geographic positions, built on a uniform
/// grid of cells roughly `cell_m` meters on a side.
///
/// Supports insertion, radius ("range") queries, and k-nearest-neighbour
/// queries. This is the in-memory analogue of the paper's lightweight spatial
/// indexing service (§II-C2, ref. \[18\]): simple, predictable, and fast for
/// the city-scale densities the cyberinfrastructure deals with.
///
/// # Examples
///
/// ```
/// use scgeo::{GridIndex, GeoPoint};
///
/// let mut idx = GridIndex::new(500.0);
/// idx.insert(GeoPoint::new(30.45, -91.18), "camera-1");
/// idx.insert(GeoPoint::new(30.46, -91.19), "camera-2");
/// let hits = idx.nearest(GeoPoint::new(30.45, -91.18), 1);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(*hits[0].1, "camera-1");
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_deg: f64,
    cells: HashMap<(i32, i32), Vec<usize>>,
    items: Vec<(GeoPoint, T)>,
}

impl<T> GridIndex<T> {
    /// Creates an index with cells roughly `cell_m` meters on a side.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive.
    pub fn new(cell_m: f64) -> Self {
        assert!(cell_m > 0.0, "cell size must be positive");
        // 1 degree of latitude ≈ 111.32 km.
        GridIndex {
            cell_deg: cell_m / 111_320.0,
            cells: HashMap::new(),
            items: Vec::new(),
        }
    }

    fn cell_of(&self, p: GeoPoint) -> (i32, i32) {
        (
            (p.lat() / self.cell_deg).floor() as i32,
            (p.lon() / self.cell_deg).floor() as i32,
        )
    }

    /// Inserts an item at `pos`.
    pub fn insert(&mut self, pos: GeoPoint, item: T) {
        let idx = self.items.len();
        self.items.push((pos, item));
        self.cells.entry(self.cell_of(pos)).or_default().push(idx);
    }

    /// All items within `radius_m` meters of `center`, sorted nearest-first.
    fn within_radius(&self, center: GeoPoint, radius_m: f64) -> Vec<(GeoPoint, &T)> {
        let span = (radius_m / 111_320.0 / self.cell_deg).ceil() as i32 + 1;
        let (cr, cc) = self.cell_of(center);
        let mut hits: Vec<(f64, usize)> = Vec::new();
        for dr in -span..=span {
            for dc in -span..=span {
                if let Some(bucket) = self.cells.get(&(cr + dr, cc + dc)) {
                    for &i in bucket {
                        let d = self.items[i].0.haversine_m(center);
                        if d <= radius_m {
                            hits.push((d, i));
                        }
                    }
                }
            }
        }
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.into_iter()
            .map(|(_, i)| (self.items[i].0, &self.items[i].1))
            .collect()
    }

    /// The `k` nearest items to `query`, sorted nearest-first.
    ///
    /// Expands the search ring until `k` items are found (or the index is
    /// exhausted), then verifies with exact distances.
    pub fn nearest(&self, query: GeoPoint, k: usize) -> Vec<(GeoPoint, &T)> {
        if k == 0 || self.items.is_empty() {
            return Vec::new();
        }
        // Expanding-radius search: double the radius until enough hits.
        let mut radius = self.cell_deg * 111_320.0;
        loop {
            let hits = self.within_radius(query, radius);
            if hits.len() >= k.min(self.items.len()) {
                return hits.into_iter().take(k).collect();
            }
            radius *= 2.0;
            if radius > 45_000_000.0 {
                // Larger than Earth's circumference: return everything sorted.
                let mut all: Vec<(f64, usize)> = self
                    .items
                    .iter()
                    .enumerate()
                    .map(|(i, (p, _))| (p.haversine_m(query), i))
                    .collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                return all
                    .into_iter()
                    .take(k)
                    .map(|(_, i)| (self.items[i].0, &self.items[i].1))
                    .collect();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with_line(n: usize) -> GridIndex<usize> {
        // Points spaced ~1 km apart going east from Baton Rouge.
        let mut g = GridIndex::new(500.0);
        let base = GeoPoint::new(30.45, -91.18);
        for i in 0..n {
            g.insert(base.offset_m(0.0, i as f64 * 1000.0), i);
        }
        g
    }

    #[test]
    fn radius_query_filters_by_distance() {
        let g = grid_with_line(10);
        let base = GeoPoint::new(30.45, -91.18);
        let hits = g.within_radius(base, 2_500.0);
        let ids: Vec<usize> = hits.iter().map(|(_, &i)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn radius_query_sorted_nearest_first() {
        let g = grid_with_line(10);
        let probe = GeoPoint::new(30.45, -91.18).offset_m(0.0, 3_100.0);
        let hits = g.within_radius(probe, 5_000.0);
        let dists: Vec<f64> = hits.iter().map(|(p, _)| p.haversine_m(probe)).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let g = grid_with_line(50);
        let probe = GeoPoint::new(30.46, -91.10);
        let knn: Vec<usize> = g.nearest(probe, 5).iter().map(|(_, &i)| i).collect();

        let mut brute: Vec<(f64, usize)> = g
            .items
            .iter()
            .map(|&(p, i)| (p.haversine_m(probe), i))
            .collect();
        brute.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expect: Vec<usize> = brute.into_iter().take(5).map(|(_, i)| i).collect();
        assert_eq!(knn, expect);
    }

    #[test]
    fn nearest_k_larger_than_items() {
        let g = grid_with_line(3);
        let all = g.nearest(GeoPoint::new(30.0, -91.0), 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn nearest_zero_k() {
        let g = grid_with_line(3);
        assert!(g.nearest(GeoPoint::new(30.0, -91.0), 0).is_empty());
    }

    #[test]
    fn empty_index_queries() {
        let g: GridIndex<u8> = GridIndex::new(100.0);
        assert!(g.items.is_empty());
        assert!(g.within_radius(GeoPoint::new(0.0, 0.0), 1e6).is_empty());
        assert!(g.nearest(GeoPoint::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _: GridIndex<u8> = GridIndex::new(0.0);
    }
}
