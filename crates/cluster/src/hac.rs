//! Hierarchical agglomerative clustering over geographic points.
//!
//! The pipeline only needs the dendrogram *cut* at a threshold `t` (paper
//! Rule 1: 100 m), and [`hac_clusters`] is built around that cut:
//!
//! 1. **Neighbour pass.** One pass over a grid lists, for every point, the
//!    points within `t` with their exact [`haversine_m`] distances. Cells
//!    are at least `t` wide in both axes (longitude cells are sized from
//!    the input's largest |latitude| and wrap at the antimeridian), so
//!    every such pair lies in one 3×3 block of cells. Each point scans its
//!    block for higher-indexed points only, so each pair is measured
//!    exactly once. Memory is O(pairs within `t`), not O(n²).
//! 2. **Complete linkage: a cut-aware sparse nearest-neighbour chain.**
//!    A merge above the cut can never bring a pair back under it: the
//!    merged cluster is within `t` of `C` only when both parts were, so its
//!    neighbour list is the intersection of the two lists (at the larger
//!    distance), and a cluster whose list is empty is final. Ties go to the
//!    lowest slot, and a merged cluster keeps the lower slot of its parts.
//!    Under that rule a reciprocal nearest-neighbour pair stays reciprocal
//!    whatever else merges, so the merges at or below `t` do not depend on
//!    the order the chain finds them in, and the result equals
//!    [`hac_dendrogram`] cut at `t` exactly.
//! 3. **Single linkage:** the connected components of the neighbour lists
//!    are the flat clusters.
//! 4. **Average linkage** (used only by the linkage ablation): each
//!    component is clustered with the dense [`hac_dendrogram`] and cut. The
//!    dense matrix is O(n²) per component, so a component larger than
//!    [`MAX_EXACT_COMPONENT`] points is first bisected along its longer
//!    axis (a documented approximation; average linkage has no sparse
//!    exact form, because a merge can pull a distance back under `t`).

use crate::linkage::Linkage;
use crate::{ClusterError, Result};
use moby_geo::{haversine_m, haversine_rad_cos, GeoPoint, EARTH_RADIUS_M};
use std::f64::consts::{FRAC_PI_2, PI, TAU};
use std::ops::Range;

/// Average-linkage components larger than this are recursively bisected
/// before the dense HAC. Complete and single linkage never bisect.
pub const MAX_EXACT_COMPONENT: usize = 5_000;

/// One merge step of the dendrogram: clusters `a` and `b` (indices into the
/// evolving cluster list, initial singletons are `0..n`) merged at the given
/// linkage distance into a new cluster with id `n + step`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeStep {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened (metres).
    pub distance: f64,
    /// Number of points in the merged cluster.
    pub size: usize,
}

/// A full dendrogram over `n` points (only produced by
/// [`hac_dendrogram`], which is intended for moderate `n`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaf points.
    pub n: usize,
    /// Merge steps in the order they were performed.
    pub merges: Vec<MergeStep>,
}

impl Dendrogram {
    /// Cut the dendrogram at `threshold` metres: every merge with a linkage
    /// distance `<= threshold` is applied, the rest are ignored. Returns the
    /// member indices of each resulting cluster (singletons included),
    /// sorted by their smallest member for determinism.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        let mut parent: Vec<usize> = (0..self.n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, m) in self.merges.iter().enumerate() {
            if m.distance <= threshold {
                let new_id = self.n + step;
                let ra = find(&mut parent, m.a);
                let rb = find(&mut parent, m.b);
                parent[ra] = new_id;
                parent[rb] = new_id;
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..self.n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        for c in clusters.iter_mut() {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }
}

/// Exact HAC dendrogram over all points (no partitioning), from a dense
/// distance matrix. Quadratic memory — intended for input sizes up to a few
/// thousand points: it clusters average-linkage components, and its cut is
/// the reference the sparse complete-linkage path is tested against.
pub fn hac_dendrogram(points: &[GeoPoint], linkage: Linkage) -> Dendrogram {
    let n = points.len();
    let mut merges = Vec::new();
    if n <= 1 {
        return Dendrogram { n, merges };
    }
    // Dense distance matrix (f64, row-major). Entries for dead clusters stay
    // but are never read again.
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = haversine_m(points[i], points[j]);
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<usize> = vec![1; n];
    // Map from matrix slot to current cluster id (slots are reused for the
    // merged cluster; ids follow the scipy convention n + step).
    let mut cluster_id: Vec<usize> = (0..n).collect();

    // Nearest-neighbour chain.
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            let start = (0..n).find(|&i| active[i]).expect("remaining > 1");
            chain.push(start);
        }
        loop {
            let top = *chain.last().expect("chain non-empty");
            // Find nearest active neighbour of `top`.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..n {
                if j != top && active[j] {
                    let d = dist[top * n + j];
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
            }
            debug_assert!(best != usize::MAX);
            // Reciprocal nearest neighbours?
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Merge `top` and `best` (== previous chain element).
                let a = chain.pop().expect("top");
                let b = chain.pop().expect("prev");
                let (keep, drop) = if a < b { (a, b) } else { (b, a) };
                let merged_size = size[keep] + size[drop];
                merges.push(MergeStep {
                    a: cluster_id[keep],
                    b: cluster_id[drop],
                    distance: best_d,
                    size: merged_size,
                });
                // Lance–Williams update into slot `keep`.
                for j in 0..n {
                    if j != keep && j != drop && active[j] {
                        let d_aj = dist[keep * n + j];
                        let d_bj = dist[drop * n + j];
                        let nd = linkage.merge_distance(d_aj, d_bj, size[keep], size[drop]);
                        dist[keep * n + j] = nd;
                        dist[j * n + keep] = nd;
                    }
                }
                active[drop] = false;
                size[keep] = merged_size;
                cluster_id[keep] = n + merges.len() - 1;
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
        // Drop chain entries that are no longer active (merged away).
        while let Some(&last) = chain.last() {
            if active[last] {
                break;
            }
            chain.pop();
        }
    }
    Dendrogram { n, merges }
}

/// Relative slack on the grid's cell sizes, so rounding in the cell
/// arithmetic can never place a pair within the threshold two cells apart.
const CELL_SLACK: f64 = 1.0 + 1e-9;
/// Absolute slack on the cell sizes in radians (about 0.6 µm). It also
/// keeps cells non-empty at `t = 0`, where only identical points (which
/// share a cell) are neighbours.
const CELL_PAD_RAD: f64 = 1e-13;

/// One neighbour-list entry: the neighbour's slot, the distance to it
/// (`+∞` once the entry is a tombstone) and the index in `entries` of the
/// mirror entry in the neighbour's own row.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    slot: usize,
    d: f64,
    mirror: usize,
}

/// For every point, the points within the threshold in ascending index
/// order, with their exact Haversine distances. Row `i` is
/// `entries[offsets[i]..offsets[i] + len[i]]`.
///
/// The complete-linkage chain edits rows in place: an entry that stops
/// being within the threshold becomes a tombstone, so rows stay sorted by
/// slot, each entry's mirror stays where it is, and a row is compacted
/// only when its own cluster merges.
struct NeighbourLists {
    offsets: Vec<usize>,
    len: Vec<usize>,
    entries: Vec<Entry>,
}

impl NeighbourLists {
    fn row(&self, i: usize) -> &[Entry] {
        &self.entries[self.row_range(i)]
    }

    fn row_range(&self, i: usize) -> Range<usize> {
        self.offsets[i]..self.offsets[i] + self.len[i]
    }
}

/// The neighbour pass: every pair of points within `threshold` metres,
/// found with a grid whose cells are at least `threshold` wide in both
/// axes and measured once with [`haversine_rad_cos`] over cached
/// per-point radians, so each distance is bit-identical to
/// [`haversine_m`] with the lower index first.
fn neighbour_lists(points: &[GeoPoint], threshold: f64) -> NeighbourLists {
    let n = points.len();
    let rad: Vec<(f64, f64, f64)> = points
        .iter()
        .map(|p| (p.lat_rad(), p.lon_rad(), p.lat_rad().cos()))
        .collect();

    // Rows: a pair within t differs in latitude by at most t / R.
    let half = threshold / (2.0 * EARTH_RADIUS_M);
    let row_h = 2.0 * half * CELL_SLACK + CELL_PAD_RAD;
    // Columns: cos φ ≥ cos φmax for every point, so a pair within t has
    // sin(Δλ/2) ≤ sin(t / 2R) / cos φmax over the circular Δλ. Fewer than
    // three columns cannot wrap without revisiting a cell: use one.
    let max_abs_lat = rad.iter().map(|r| r.0.abs()).fold(0.0, f64::max);
    let sin_ratio = half.sin() / max_abs_lat.cos();
    let (cols, col_w) = if half < FRAC_PI_2 && sin_ratio < 1.0 {
        let col_w = 2.0 * sin_ratio.asin() * CELL_SLACK + CELL_PAD_RAD;
        match (TAU / col_w).floor() {
            c if c >= 3.0 => (c as i64, col_w),
            _ => (1, f64::INFINITY),
        }
    } else {
        (1, f64::INFINITY)
    };
    let cell_of = |r: &(f64, f64, f64)| {
        let row = ((r.0 + FRAC_PI_2) / row_h).floor() as i64;
        let col = if cols == 1 {
            0
        } else {
            // Columns widen to TAU / cols ≥ col_w so they tile the circle.
            (((r.1 + PI) / (TAU / cols as f64)).floor() as i64).min(cols - 1)
        };
        (row, col)
    };

    // Points in cell order, with their cached radians alongside.
    let keys: Vec<(i64, i64)> = rad.iter().map(cell_of).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| keys[i]);
    let ordered_rad: Vec<(f64, f64, f64)> = order.iter().map(|&i| rad[i]).collect();
    // Runs of equal keys: (key, range into `order`).
    let mut cells: Vec<((i64, i64), Range<usize>)> = Vec::new();
    for (k, &i) in order.iter().enumerate() {
        match cells.last_mut() {
            Some(cell) if cell.0 == keys[i] => cell.1.end = k + 1,
            _ => cells.push((keys[i], k..k + 1)),
        }
    }

    // Each point's higher-indexed neighbours, sorted, as one segment of
    // `upper` per point.
    let col_steps: &[i64] = if cols == 1 { &[0] } else { &[-1, 0, 1] };
    let mut upper: Vec<(usize, f64)> = Vec::new();
    let mut upper_at: Vec<Range<usize>> = vec![0..0; n];
    let mut block: Vec<Range<usize>> = Vec::with_capacity(9);
    for ((row, col), here) in &cells {
        block.clear();
        for dr in -1..=1 {
            for dc in col_steps {
                let key = (row + dr, (col + dc).rem_euclid(cols));
                if let Ok(c) = cells.binary_search_by_key(&key, |c| c.0) {
                    block.push(cells[c].1.clone());
                }
            }
        }
        for &i in &order[here.clone()] {
            let a = rad[i];
            let from = upper.len();
            for range in &block {
                for k in range.clone() {
                    let j = order[k];
                    if j <= i {
                        continue;
                    }
                    let b = ordered_rad[k];
                    // Cheap rejections first: any pair within t is within
                    // one row height in latitude and one column width in
                    // circular longitude.
                    let dlon = (a.1 - b.1).abs();
                    if (a.0 - b.0).abs() > row_h || dlon.min(TAU - dlon) > col_w {
                        continue;
                    }
                    let d = haversine_rad_cos(a.0, a.1, a.2, b.0, b.1, b.2);
                    if d <= threshold {
                        upper.push((j, d));
                    }
                }
            }
            upper[from..].sort_unstable_by_key(|e| e.0);
            upper_at[i] = from..upper.len();
        }
    }

    // Row i is its lower neighbours (scattered in ascending i, so already
    // sorted) followed by its upper segment.
    let mut len: Vec<usize> = upper_at.iter().map(|r| r.len()).collect();
    for &(j, _) in &upper {
        len[j] += 1;
    }
    // Rows are laid out in cell order, so a point's neighbours' rows sit
    // close to its own in memory.
    let mut offsets = vec![0; n];
    let mut total = 0;
    for &i in &order {
        offsets[i] = total;
        total += len[i];
    }
    let mut fill = offsets.clone();
    let mut entries = vec![Entry::default(); total];
    for i in 0..n {
        for (k, &(j, d)) in upper[upper_at[i].clone()].iter().enumerate() {
            let (at_i, at_j) = (fill[i] + k, fill[j]);
            entries[at_i] = Entry {
                slot: j,
                d,
                mirror: at_j,
            };
            entries[at_j] = Entry {
                slot: i,
                d,
                mirror: at_i,
            };
            fill[j] += 1;
        }
    }
    NeighbourLists {
        offsets,
        len,
        entries,
    }
}

/// Connected components of the neighbour lists (single linkage's flat
/// clusters), each sorted, ordered by smallest member.
fn components(lists: &NeighbourLists) -> Vec<Vec<usize>> {
    let n = lists.len.len();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut comp = vec![start];
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &Entry { slot: v, .. } in lists.row(u) {
                if !seen[v] {
                    seen[v] = true;
                    comp.push(v);
                    stack.push(v);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Complete-linkage flat clusters at the lists' threshold: the
/// nearest-neighbour chain over the neighbour lists only (module docs,
/// step 2). Each cluster lives in the slot of its smallest member.
fn sparse_complete(mut lists: NeighbourLists) -> Vec<Vec<usize>> {
    let n = lists.len.len();
    let mut parent: Vec<usize> = (0..n).collect();
    // Per-merge scratch, tagged with the merge number so it never needs
    // clearing: for each neighbour of the kept slot, the merged distance
    // and where its row holds the kept slot, and which of those neighbours
    // the dropped slot shares.
    let mut merged_d = vec![0.0f64; n];
    let mut keep_mirror = vec![0usize; n];
    let mut near_keep = vec![usize::MAX; n];
    let mut near_both = vec![usize::MAX; n];
    let mut chain: Vec<usize> = Vec::new();
    let mut cursor = 0;
    let mut merge = 0;
    loop {
        let Some(&top) = chain.last() else {
            // Slots behind the cursor are final: lists never regain entries.
            while cursor < n && lists.len[cursor] == 0 {
                cursor += 1;
            }
            if cursor == n {
                break;
            }
            chain.push(cursor);
            continue;
        };
        // Nearest neighbour, lowest slot among ties; tombstones never win.
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for e in lists.row(top) {
            if e.d < best_d {
                best_d = e.d;
                best = Some(e.slot);
            }
        }
        let Some(best) = best else {
            // Nothing within the threshold: the cluster is final.
            lists.len[top] = 0;
            chain.pop();
            continue;
        };
        if chain.len() < 2 || chain[chain.len() - 2] != best {
            chain.push(best);
            continue;
        }
        chain.truncate(chain.len() - 2);
        let (keep, drop) = (top.min(best), top.max(best));
        parent[drop] = keep;
        merge += 1;
        for e in lists.row(keep) {
            if e.d != f64::INFINITY {
                near_keep[e.slot] = merge;
                merged_d[e.slot] = e.d;
                keep_mirror[e.slot] = e.mirror;
            }
        }
        for r in lists.row_range(drop) {
            let e = lists.entries[r];
            if e.slot == keep || e.d == f64::INFINITY {
                continue;
            }
            lists.entries[e.mirror].d = f64::INFINITY;
            if near_keep[e.slot] == merge {
                // Within t of both parts: within t of the merged cluster.
                near_both[e.slot] = merge;
                merged_d[e.slot] = merged_d[e.slot].max(e.d);
                lists.entries[keep_mirror[e.slot]].d = merged_d[e.slot];
            }
        }
        // Compact the kept row to the shared neighbours, and tombstone the
        // kept slot in the rows of the neighbours it loses.
        let mut w = lists.offsets[keep];
        for r in lists.row_range(keep) {
            let e = lists.entries[r];
            if e.slot == drop || e.d == f64::INFINITY {
                continue;
            }
            if near_both[e.slot] == merge {
                lists.entries[w] = Entry {
                    d: merged_d[e.slot],
                    ..e
                };
                lists.entries[e.mirror].mirror = w;
                w += 1;
            } else {
                lists.entries[e.mirror].d = f64::INFINITY;
            }
        }
        lists.len[keep] = w - lists.offsets[keep];
        lists.len[drop] = 0;
    }

    // A merge keeps the lower slot, so every point's parent comes before
    // it and is already placed.
    let mut cluster_of = vec![0; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        if parent[i] == i {
            cluster_of[i] = clusters.len();
            clusters.push(vec![i]);
        } else {
            cluster_of[i] = cluster_of[parent[i]];
            clusters[cluster_of[i]].push(i);
        }
    }
    clusters
}

/// Split an oversized component along the longer geographic axis until each
/// part is at most `max_size` points.
fn bisect_component(points: &[GeoPoint], members: Vec<usize>, max_size: usize) -> Vec<Vec<usize>> {
    if members.len() <= max_size {
        return vec![members];
    }
    let lats: Vec<f64> = members.iter().map(|&i| points[i].lat()).collect();
    let lons: Vec<f64> = members.iter().map(|&i| points[i].lon()).collect();
    let lat_span = lats.iter().cloned().fold(f64::MIN, f64::max)
        - lats.iter().cloned().fold(f64::MAX, f64::min);
    let lon_span = lons.iter().cloned().fold(f64::MIN, f64::max)
        - lons.iter().cloned().fold(f64::MAX, f64::min);
    let mut sorted = members;
    if lat_span >= lon_span {
        sorted.sort_by(|&a, &b| {
            points[a]
                .lat()
                .partial_cmp(&points[b].lat())
                .expect("finite")
        });
    } else {
        sorted.sort_by(|&a, &b| {
            points[a]
                .lon()
                .partial_cmp(&points[b].lon())
                .expect("finite")
        });
    }
    let mid = sorted.len() / 2;
    let right = sorted.split_off(mid);
    let mut out = bisect_component(points, sorted, max_size);
    out.extend(bisect_component(points, right, max_size));
    out
}

/// Flat clusters from constrained-scale HAC: cluster `points` with the given
/// linkage and cut so that the linkage distance never exceeds
/// `threshold_m` metres.
///
/// For complete linkage this guarantees the paper's Rule 1: no two points in
/// a returned cluster are farther apart than `threshold_m`. Complete and
/// single linkage are exact at any input size, in memory proportional to
/// the pairs within `threshold_m`; average linkage bisects components over
/// [`MAX_EXACT_COMPONENT`] points (see the module docs).
///
/// Clusters are returned as lists of indices into `points`, each sorted, and
/// the cluster list is sorted by smallest member index.
pub fn hac_clusters(points: &[GeoPoint], linkage: Linkage, threshold_m: f64) -> Vec<Vec<usize>> {
    try_hac_clusters(points, linkage, threshold_m).expect("non-negative finite threshold")
}

/// Checked variant of [`hac_clusters`].
///
/// # Errors
///
/// [`ClusterError::InvalidThreshold`] when `threshold_m` is negative or not
/// finite.
pub fn try_hac_clusters(
    points: &[GeoPoint],
    linkage: Linkage,
    threshold_m: f64,
) -> Result<Vec<Vec<usize>>> {
    if !threshold_m.is_finite() || threshold_m < 0.0 {
        return Err(ClusterError::InvalidThreshold(threshold_m));
    }
    let lists = neighbour_lists(points, threshold_m);
    Ok(match linkage {
        Linkage::Complete => sparse_complete(lists),
        Linkage::Single => components(&lists),
        Linkage::Average => dense_clusters(points, components(&lists), linkage, threshold_m),
    })
}

/// Flat clusters from the dense [`hac_dendrogram`] of each component (after
/// bisecting oversized ones), cut at `threshold_m`.
fn dense_clusters(
    points: &[GeoPoint],
    components: Vec<Vec<usize>>,
    linkage: Linkage,
    threshold_m: f64,
) -> Vec<Vec<usize>> {
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for comp in components {
        for part in bisect_component(points, comp, MAX_EXACT_COMPONENT) {
            if part.len() == 1 {
                clusters.push(part);
                continue;
            }
            let sub_points: Vec<GeoPoint> = part.iter().map(|&i| points[i]).collect();
            let dendro = hac_dendrogram(&sub_points, linkage);
            for local in dendro.cut(threshold_m) {
                let mut global: Vec<usize> = local.into_iter().map(|li| part[li]).collect();
                global.sort_unstable();
                clusters.push(global);
            }
        }
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// The maximum pairwise Haversine distance (metres) among the given members.
pub fn cluster_diameter(points: &[GeoPoint], members: &[usize]) -> f64 {
    let mut max = 0.0f64;
    for (k, &i) in members.iter().enumerate() {
        for &j in &members[k + 1..] {
            max = max.max(haversine_m(points[i], points[j]));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_geo::destination_point;
    use rand::{Rng, SeedableRng};

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    /// Three blobs of points, blob centres ~1 km apart, blob radius ~30 m.
    fn three_blobs(per_blob: usize, seed: u64) -> (Vec<GeoPoint>, Vec<usize>) {
        let centres = [p(53.34, -6.26), p(53.35, -6.26), p(53.34, -6.245)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (bi, c) in centres.iter().enumerate() {
            for _ in 0..per_blob {
                let angle = rng.gen_range(0.0..360.0);
                let dist = rng.gen_range(0.0..30.0);
                pts.push(destination_point(*c, angle, dist));
                labels.push(bi);
            }
        }
        (pts, labels)
    }

    /// Brute-force reference: repeatedly merge the closest pair of
    /// clusters (complete linkage) while the distance <= threshold.
    fn bruteforce_complete(points: &[GeoPoint], threshold: f64) -> Vec<Vec<usize>> {
        let mut clusters: Vec<Vec<usize>> = (0..points.len()).map(|i| vec![i]).collect();
        loop {
            let mut best = (f64::INFINITY, 0usize, 0usize);
            for i in 0..clusters.len() {
                for j in (i + 1)..clusters.len() {
                    let mut dmax = 0.0f64;
                    for &a in &clusters[i] {
                        for &b in &clusters[j] {
                            dmax = dmax.max(haversine_m(points[a], points[b]));
                        }
                    }
                    if dmax < best.0 {
                        best = (dmax, i, j);
                    }
                }
            }
            if best.0 > threshold || clusters.len() <= 1 {
                break;
            }
            let merged = clusters.remove(best.2);
            clusters[best.1].extend(merged);
        }
        for c in clusters.iter_mut() {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }

    /// Brute-force single linkage: components of "within `threshold`".
    fn bruteforce_single(points: &[GeoPoint], threshold: f64) -> Vec<Vec<usize>> {
        let mut label: Vec<usize> = (0..points.len()).collect();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if haversine_m(points[i], points[j]) <= threshold {
                    let (from, to) = (label[j].max(label[i]), label[j].min(label[i]));
                    for l in label.iter_mut() {
                        if *l == from {
                            *l = to;
                        }
                    }
                }
            }
        }
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for root in 0..points.len() {
            let c: Vec<usize> = (0..points.len()).filter(|&i| label[i] == root).collect();
            if !c.is_empty() {
                clusters.push(c);
            }
        }
        clusters
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(hac_clusters(&[], Linkage::Complete, 100.0).is_empty());
        let one = vec![p(53.34, -6.26)];
        let c = hac_clusters(&one, Linkage::Complete, 100.0);
        assert_eq!(c, vec![vec![0]]);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let pts = vec![p(53.34, -6.26)];
        assert!(try_hac_clusters(&pts, Linkage::Complete, -1.0).is_err());
        assert!(try_hac_clusters(&pts, Linkage::Complete, f64::NAN).is_err());
    }

    #[test]
    fn blobs_are_recovered_by_all_linkages() {
        let (pts, labels) = three_blobs(20, 3);
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let clusters = hac_clusters(&pts, linkage, 100.0);
            assert_eq!(clusters.len(), 3, "{linkage:?}");
            for c in &clusters {
                let blob = labels[c[0]];
                assert!(c.iter().all(|&i| labels[i] == blob), "{linkage:?}");
                assert_eq!(c.len(), 20, "{linkage:?}");
            }
        }
    }

    #[test]
    fn every_point_appears_exactly_once() {
        let (pts, _) = three_blobs(15, 9);
        let clusters = hac_clusters(&pts, Linkage::Complete, 100.0);
        let mut seen = vec![false; pts.len()];
        for c in &clusters {
            for &i in c {
                assert!(!seen[i], "point {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn complete_linkage_respects_diameter_bound() {
        // A chain of points 60 m apart: single linkage keeps the chain as
        // one cluster at a 100 m cut, complete linkage must split it so the
        // diameter never exceeds 100 m.
        let base = p(53.34, -6.26);
        let pts: Vec<GeoPoint> = (0..10)
            .map(|i| destination_point(base, 90.0, i as f64 * 60.0))
            .collect();
        let complete = hac_clusters(&pts, Linkage::Complete, 100.0);
        for c in &complete {
            assert!(
                cluster_diameter(&pts, c) <= 100.0 + 1e-6,
                "diameter {} exceeds bound",
                cluster_diameter(&pts, c)
            );
        }
        let single = hac_clusters(&pts, Linkage::Single, 100.0);
        assert_eq!(single.len(), 1, "single linkage chains everything");
        assert!(complete.len() > 1);
    }

    #[test]
    fn dendrogram_merge_count_and_cut_extremes() {
        let (pts, _) = three_blobs(5, 1);
        let d = hac_dendrogram(&pts, Linkage::Complete);
        assert_eq!(d.merges.len(), pts.len() - 1);
        // Cut at 0: everything is a singleton.
        assert_eq!(d.cut(0.0).len(), pts.len());
        // Cut at infinity: one cluster.
        assert_eq!(d.cut(f64::INFINITY).len(), 1);
    }

    #[test]
    fn dendrogram_distances_are_monotone_for_complete_linkage() {
        let (pts, _) = three_blobs(8, 5);
        let d = hac_dendrogram(&pts, Linkage::Complete);
        // NN-chain emits merges out of global order, but sorted distances
        // must form a valid monotone sequence for a reducible linkage: the
        // sorted order equals a valid agglomeration order.
        let mut dists: Vec<f64> = d.merges.iter().map(|m| m.distance).collect();
        let sorted = {
            let mut s = dists.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dists, sorted);
        // Merge sizes are consistent: final merge covers all points.
        assert_eq!(d.merges.last().unwrap().size, pts.len());
    }

    #[test]
    fn matches_bruteforce_flat_clustering_on_small_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let pts: Vec<GeoPoint> = (0..25)
                .map(|_| {
                    destination_point(
                        p(53.34, -6.26),
                        rng.gen_range(0.0..360.0),
                        rng.gen_range(0.0..400.0),
                    )
                })
                .collect();
            let got = hac_clusters(&pts, Linkage::Complete, 120.0);
            let want = bruteforce_complete(&pts, 120.0);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bisect_component_respects_max_size() {
        let (pts, _) = three_blobs(30, 2);
        let members: Vec<usize> = (0..pts.len()).collect();
        let parts = bisect_component(&pts, members, 40);
        assert!(parts.iter().all(|p| p.len() <= 40));
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let dup = p(53.34, -6.26);
        let pts = vec![dup, dup, dup, p(53.36, -6.26)];
        let clusters = hac_clusters(&pts, Linkage::Complete, 50.0);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn cluster_diameter_helper() {
        let base = p(53.34, -6.26);
        let pts = vec![base, destination_point(base, 90.0, 80.0)];
        let d = cluster_diameter(&pts, &[0, 1]);
        assert!((d - 80.0).abs() < 0.5);
        assert_eq!(cluster_diameter(&pts, &[0]), 0.0);
    }

    /// A random cloud of `n` points within `radius_m` of `centre`.
    fn cloud(centre: GeoPoint, n: usize, radius_m: f64, seed: u64) -> Vec<GeoPoint> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                destination_point(
                    centre,
                    rng.gen_range(0.0..360.0),
                    rng.gen_range(0.0..radius_m),
                )
            })
            .collect()
    }

    #[test]
    fn east_west_neighbours_are_found_at_high_latitude() {
        // At 80° a metre of longitude is ~5.8× narrower in degrees than at
        // Dublin, so longitude cells sized at 53.35° missed this pair.
        for lat in [80.0, -80.0] {
            let a = p(lat, 10.0);
            let pts = vec![a, destination_point(a, 90.0, 90.0)];
            for linkage in [Linkage::Single, Linkage::Complete] {
                let clusters = hac_clusters(&pts, linkage, 100.0);
                assert_eq!(clusters, vec![vec![0, 1]], "{linkage:?} at {lat}°");
            }
        }
    }

    #[test]
    fn matches_bruteforce_at_high_latitude() {
        for (k, lat) in [80.0, -80.0].into_iter().enumerate() {
            for seed in 0..4 {
                let pts = cloud(p(lat, -6.26), 25, 400.0, 10 * k as u64 + seed);
                assert_eq!(
                    hac_clusters(&pts, Linkage::Complete, 120.0),
                    bruteforce_complete(&pts, 120.0),
                    "complete at {lat}°, seed {seed}"
                );
                assert_eq!(
                    hac_clusters(&pts, Linkage::Single, 120.0),
                    bruteforce_single(&pts, 120.0),
                    "single at {lat}°, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn neighbours_are_found_across_the_antimeridian() {
        let pts = cloud(p(10.0, 179.9995), 25, 300.0, 5);
        assert!(pts.iter().any(|q| q.lon() < 0.0) && pts.iter().any(|q| q.lon() > 0.0));
        assert_eq!(
            hac_clusters(&pts, Linkage::Complete, 120.0),
            bruteforce_complete(&pts, 120.0)
        );
        assert_eq!(
            hac_clusters(&pts, Linkage::Single, 120.0),
            bruteforce_single(&pts, 120.0)
        );
    }

    #[test]
    fn zero_threshold_groups_exactly_the_identical_points() {
        let a = p(53.34, -6.26);
        let b = destination_point(a, 45.0, 0.001);
        let c = p(80.0, 10.0);
        let pts = vec![a, b, a, c, b, c, a];
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            assert_eq!(
                hac_clusters(&pts, linkage, 0.0),
                vec![vec![0, 2, 6], vec![1, 4], vec![3, 5]],
                "{linkage:?}"
            );
        }
    }
}
