//! Shared fabric machinery of the stitchers: legal-anchor candidate
//! tables, flat per-instance and per-net tables with the one wirelength
//! function, and the occupancy grid.
//!
//! Both the single-run annealer ([`crate::sa`]) and the portfolio search
//! problem ([`crate::search`]) move macros over the same device model;
//! this module holds the pieces they share so the two stay in exact
//! agreement about legality and cost.

use crate::problem::StitchProblem;
use std::collections::HashMap;
use tms_device::{ColumnSignature, Device};

/// Per-module candidate anchor positions: the x columns whose signature
/// matches, crossed with y rows at the module's vertical alignment.
/// Candidate `idx` is column `xs[idx / ys]`, row `(idx % ys) * y_step`.
pub(crate) struct Candidates {
    pub(crate) xs: Vec<u32>,
    pub(crate) y_step: u32,
    /// Anchor rows per column (`0, y_step, …` up to the last row the
    /// footprint fits from).
    pub(crate) ys: u64,
    /// Total candidates, `xs.len() * ys`.
    pub(crate) count: u64,
    /// The anchor rows as a column bitmap in the [`Grid`] word layout.
    rows_mask: Vec<u64>,
}

impl Candidates {
    fn new(xs: Vec<u32>, y_step: u32, y_max: u32, rows: u32) -> Self {
        let ys = u64::from(y_max / y_step + 1);
        // Multiples of `y_step` below 64, shifted per word to its first
        // aligned row.
        let period = (0..64)
            .step_by(y_step as usize)
            .fold(0u64, |m, b| m | 1 << b);
        let rows_mask = (0..words_per_column(rows))
            .map(|w| {
                let first = (y_step - (64 * w as u32) % y_step) % y_step;
                period.checked_shl(first).unwrap_or(0) & word_mask(w, 0, (y_max + 1).min(rows))
            })
            .collect();
        let count = xs.len() as u64 * ys;
        assert!(
            u32::try_from(count).is_ok(),
            "{count} candidates overflow 32-bit indices"
        );
        Candidates {
            count,
            xs,
            y_step,
            ys,
            rows_mask,
        }
    }

    pub(crate) fn nth(&self, idx: u64) -> (u32, u32) {
        // `count` fits in 32 bits (checked in `new`), and a 32-bit
        // division is several times cheaper than a 64-bit one.
        let (i, ys) = (idx as u32, self.ys as u32);
        (self.xs[(i / ys) as usize], i % ys * self.y_step)
    }

    /// Candidate index closest to a position (for range-limited moves).
    pub(crate) fn index_near(&self, (x, y): (u32, u32)) -> u64 {
        let xi = self.xs.partition_point(|&c| c < x).min(self.xs.len() - 1) as u64;
        let yi = u64::from(y / self.y_step).min(self.ys - 1);
        xi * self.ys + yi
    }
}

/// Rows of `u32`s in one flat array (compressed sparse rows): row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    fn new<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let mut csr = Csr {
            start: vec![0],
            items: Vec::new(),
        };
        for row in rows {
            csr.items.extend_from_slice(row);
            csr.start.push(csr.items.len() as u32);
        }
        csr
    }

    /// The transpose over items `0..n`: row `j` lists every row holding
    /// item `j`, in row order, once per occurrence. A counting sort.
    fn transpose(&self, n: usize) -> Self {
        // Item `j`'s count goes to `start[j + 2]`; after the prefix sum,
        // `start[j + 1]` is row `j`'s first slot and serves as its cursor,
        // ending at row `j + 1`'s first slot.
        let mut start = vec![0u32; n + 2];
        for &j in &self.items {
            start[j as usize + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        let mut items = vec![0u32; self.items.len()];
        for i in 0..self.start.len() as u32 - 1 {
            for &j in self.row(i) {
                let at = &mut start[j as usize + 1];
                items[*at as usize] = i;
                *at += 1;
            }
        }
        start.pop();
        Csr { start, items }
    }

    fn row(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// A stitch problem as flat tables: the candidate anchors of every
/// module, each instance's module and footprint, and the nets and their
/// incidence as compressed rows. Both stitchers read the problem only
/// through these tables, and [`Tables::net_cost`] is the one wirelength
/// function.
pub(crate) struct Tables {
    /// Candidate anchors of each unique module.
    pub(crate) candidates: Vec<Candidates>,
    /// Anchor class of each unique module: the first module with the same
    /// signature and footprint width. Modules of one class share `xs` and
    /// `y_step`, so a footprint of the class that finds no free anchor
    /// tells every taller one of the class it would find none either.
    pub(crate) class: Vec<u32>,
    /// Module of each instance.
    pub(crate) module: Vec<u32>,
    /// Footprint `(width, height)` of each instance.
    pub(crate) footprint: Vec<(u32, u32)>,
    /// Endpoints of each net.
    ends: Csr,
    /// Weight of each net.
    weight: Vec<f64>,
    /// Nets each instance terminates, in net order.
    incident: Csr,
}

impl Tables {
    pub(crate) fn new(device: &Device, problem: &StitchProblem) -> Self {
        let (candidates, class) = build_candidates(device, problem);
        let ends = Csr::new(problem.nets.iter().map(|n| n.endpoints.as_slice()));
        Tables {
            candidates,
            class,
            module: problem.instances.iter().map(|&m| m as u32).collect(),
            footprint: (0..problem.instances.len() as u32)
                .map(|i| {
                    let b = problem.block_of(i);
                    (b.width, b.height)
                })
                .collect(),
            incident: ends.transpose(problem.instances.len()),
            ends,
            weight: problem.nets.iter().map(|n| n.weight).collect(),
        }
    }

    /// Number of instances.
    pub(crate) fn instances(&self) -> u32 {
        self.module.len() as u32
    }

    /// Candidate anchors of instance `inst`'s module.
    pub(crate) fn cand_of(&self, inst: u32) -> &Candidates {
        &self.candidates[self.module[inst as usize] as usize]
    }

    /// Anchor class of instance `inst`'s module.
    pub(crate) fn class_of(&self, inst: u32) -> u32 {
        self.class[self.module[inst as usize] as usize]
    }

    /// Nets instance `inst` terminates.
    pub(crate) fn incident(&self, inst: u32) -> &[u32] {
        self.incident.row(inst)
    }

    /// Half-perimeter wirelength of net `net` under `positions`: the
    /// weighted bounding box of its placed endpoints' footprint centres,
    /// 0 below two placed endpoints.
    ///
    /// A centre `x + w/2` is a half-integer, so the box is taken exactly
    /// over doubled centres `2x + w` in integers. Every `f64` the centre
    /// arithmetic would produce before the weight — the centres, their
    /// extents, the extents' sum — is exact, so halving the integer
    /// half-perimeter and weighting it gives the same bits.
    pub(crate) fn net_cost(&self, positions: &[Option<(u32, u32)>], net: u32) -> f64 {
        let mut n = 0u32;
        let (mut x0, mut x1, mut y0, mut y1) = (u32::MAX, 0, u32::MAX, 0);
        for &e in self.ends.row(net) {
            if let Some((x, y)) = positions[e as usize] {
                let (w, h) = self.footprint[e as usize];
                let (cx, cy) = (2 * x + w, 2 * y + h);
                n += 1;
                x0 = x0.min(cx);
                x1 = x1.max(cx);
                y0 = y0.min(cy);
                y1 = y1.max(cy);
            }
        }
        if n < 2 {
            0.0
        } else {
            self.weight[net as usize] * (f64::from(x1 - x0 + (y1 - y0)) / 2.0)
        }
    }

    /// Total wirelength under `positions`.
    pub(crate) fn total_cost(&self, positions: &[Option<(u32, u32)>]) -> f64 {
        (0..self.weight.len() as u32)
            .map(|n| self.net_cost(positions, n))
            .sum()
    }

    /// Sum of the costs of the nets incident to `inst`.
    pub(crate) fn incident_cost(&self, positions: &[Option<(u32, u32)>], inst: u32) -> f64 {
        self.incident(inst)
            .iter()
            .map(|&n| self.net_cost(positions, n))
            .sum()
    }
}

/// Build the candidate table and the anchor class of every unique
/// module of `problem`. Modules share a few distinct signatures, so each
/// class's anchors are searched once.
fn build_candidates(device: &Device, problem: &StitchProblem) -> (Vec<Candidates>, Vec<u32>) {
    let rows = device.rows();
    let mut first: HashMap<(&ColumnSignature, u32), u32> = HashMap::new();
    let mut candidates: Vec<Candidates> = Vec::with_capacity(problem.modules.len());
    let mut class = Vec::with_capacity(problem.modules.len());
    for (i, m) in problem.modules.iter().enumerate() {
        let c = *first.entry((&m.signature, m.width)).or_insert(i as u32);
        let xs = if c == i as u32 {
            device.matching_anchors(&m.signature)
        } else {
            candidates[c as usize].xs.clone()
        };
        let y_max = rows.saturating_sub(m.height);
        candidates.push(Candidates::new(xs, m.signature.y_alignment(), y_max, rows));
        class.push(c);
    }
    (candidates, class)
}

fn words_per_column(rows: u32) -> usize {
    rows.div_ceil(64) as usize
}

/// The words of a column that hold rows `lo..hi`.
fn words_of(lo: u32, hi: u32) -> std::ops::Range<usize> {
    (lo / 64) as usize..hi.div_ceil(64) as usize
}

/// The bits of rows `lo..hi` that fall in word `w` of a column.
fn word_mask(w: usize, lo: u32, hi: u32) -> u64 {
    let base = w as u32 * 64;
    let (a, b) = (lo.max(base), hi.min(base + 64));
    if a >= b {
        0
    } else {
        (u64::MAX >> (64 - (b - a))) << (a - base)
    }
}

/// Occupancy bitmap over the fabric: one bit per cell, set while a placed
/// footprint covers it.
///
/// Column-major, `⌈rows/64⌉` words per column, so a legality test reads
/// one or two words per footprint column and [`Grid::first_free`] tests
/// 64 anchor rows at a time. The grid does not record owners: placements
/// never overlap, so the cells a mover covers are exactly its current
/// footprint, and [`Grid::is_free`] takes that anchor instead of an id. The
/// grid is cloned on every portfolio-lane snapshot and population
/// operation; on the xc7z045 a clone is 8.3 KB.
#[derive(Clone)]
pub(crate) struct Grid {
    rows: u32,
    words: usize,
    bits: Vec<u64>,
    /// One column's free-anchor map, reused by every [`Grid::first_free`].
    free: Vec<u64>,
}

impl Grid {
    pub(crate) fn new(w: u32, h: u32) -> Self {
        let words = words_per_column(h);
        Grid {
            rows: h,
            words,
            bits: vec![0; w as usize * words],
            free: vec![0; words],
        }
    }

    fn column(&self, x: u32) -> &[u64] {
        let at = x as usize * self.words;
        &self.bits[at..at + self.words]
    }

    /// Whether the `bw`×`bh` footprint anchored at `(x, y)` covers only
    /// free cells, counting the cells of `own` — the mover's current
    /// anchor, a footprint of the same size — as free.
    ///
    /// Word-outer: each word's mask is computed once and tested against
    /// the word in every footprint column, stepping the index a column at
    /// a time. The mask with the own footprint's rows taken out is
    /// computed only when the own footprint shares a column, since most
    /// calls on a crowded fabric end at their first occupied word.
    pub(crate) fn is_free(
        &self,
        x: u32,
        y: u32,
        bw: u32,
        bh: u32,
        own: Option<(u32, u32)>,
    ) -> bool {
        // Rows past the fabric's edge are never free.
        if y + bh > self.rows {
            return false;
        }
        // The footprint columns the own footprint also covers, and its row.
        let (mine, oy) = match own {
            Some((ox, oy)) => (ox.max(x)..(ox + bw).min(x + bw), oy),
            None => (0..0, 0),
        };
        words_of(y, y + bh).all(|w| {
            let mask = word_mask(w, y, y + bh);
            let own_mask = if mine.is_empty() {
                mask
            } else {
                mask & !word_mask(w, oy, oy + bh)
            };
            let mut at = x as usize * self.words + w;
            (x..x + bw).all(|c| {
                let m = if mine.contains(&c) { own_mask } else { mask };
                let free = self.bits[at] & m == 0;
                at += self.words;
                free
            })
        })
    }

    fn update(&mut self, x: u32, y: u32, bw: u32, bh: u32, set: bool) {
        for w in words_of(y, y + bh) {
            let mask = word_mask(w, y, y + bh);
            let mut at = x as usize * self.words + w;
            for _ in 0..bw {
                if set {
                    self.bits[at] |= mask;
                } else {
                    self.bits[at] &= !mask;
                }
                at += self.words;
            }
        }
    }

    /// Mark the `bw`×`bh` footprint anchored at `(x, y)` occupied.
    pub(crate) fn fill(&mut self, x: u32, y: u32, bw: u32, bh: u32) {
        self.update(x, y, bw, bh, true);
    }

    /// Mark the `bw`×`bh` footprint anchored at `(x, y)` free.
    pub(crate) fn clear(&mut self, x: u32, y: u32, bw: u32, bh: u32) {
        self.update(x, y, bw, bh, false);
    }

    /// The first free anchor of `cand` (which must have candidates) for a
    /// `bw`×`bh` footprint, in the order candidate indices
    /// `(start + k) % cand.count` visit them: the rest of `start`'s
    /// column, the later columns, the earlier columns, then `start`'s
    /// column below `start`.
    ///
    /// Per column it ORs the footprint's `bw` occupancy columns, inverts
    /// them, and erodes the free map by shifted ANDs until every set bit
    /// `y` has `bh` free rows from `y` on; ANDed with the alignment rows,
    /// each set bit is a free anchor.
    pub(crate) fn first_free(
        &mut self,
        cand: &Candidates,
        start: u64,
        bw: u32,
        bh: u32,
    ) -> Option<(u32, u32)> {
        let mut free = std::mem::take(&mut self.free);
        let found = self.scan(cand, start, bw, bh, &mut free);
        self.free = free;
        found
    }

    /// [`Grid::first_free`] with `free` as the column's free-anchor map.
    fn scan(
        &self,
        cand: &Candidates,
        start: u64,
        bw: u32,
        bh: u32,
        free: &mut [u64],
    ) -> Option<(u32, u32)> {
        let n = cand.xs.len();
        let first = (start / cand.ys) as usize;
        let y0 = (start % cand.ys) as u32 * cand.y_step;
        let columns = std::iter::once((first, y0, self.rows))
            .chain((first + 1..n).chain(0..first).map(|i| (i, 0, self.rows)))
            .chain(std::iter::once((first, 0, y0)));
        for (i, lo, hi) in columns {
            if lo >= hi {
                continue;
            }
            let x = cand.xs[i];
            self.free_anchors(x, bw, bh, &cand.rows_mask, free);
            for w in words_of(lo, hi) {
                let hits = free[w] & word_mask(w, lo, hi);
                if hits != 0 {
                    return Some((x, w as u32 * 64 + hits.trailing_zeros()));
                }
            }
        }
        None
    }

    /// Fill `out` with the anchor rows in `rows_mask` from which a
    /// `bw`×`bh` footprint at column `x` covers only free cells.
    fn free_anchors(&self, x: u32, bw: u32, bh: u32, rows_mask: &[u64], out: &mut [u64]) {
        out.fill(0);
        for c in x..x + bw {
            for (o, &b) in out.iter_mut().zip(self.column(c)) {
                *o |= b;
            }
        }
        for (w, o) in out.iter_mut().enumerate() {
            *o = !*o & word_mask(w, 0, self.rows);
        }
        // Invariant: bit y is set iff rows y..y + covered are all free.
        let mut covered = 1;
        while covered < bh {
            let s = covered.min(bh - covered);
            shift_and(out, s);
            covered += s;
        }
        for (o, &m) in out.iter_mut().zip(rows_mask) {
            *o &= m;
        }
    }
}

#[cfg(test)]
impl Grid {
    /// Whether both grids mark the same cells occupied.
    pub(crate) fn same_cells(&self, other: &Grid) -> bool {
        (self.rows, &self.bits) == (other.rows, &other.bits)
    }
}

/// `bits[y] &= bits[y + s]` over a multi-word bitmap (rows past the end
/// read as 0). Ascending order reads every source word before it is
/// overwritten.
fn shift_and(bits: &mut [u64], s: u32) {
    let (q, r) = ((s / 64) as usize, s % 64);
    let n = bits.len();
    for w in 0..n {
        let lo = if w + q < n { bits[w + q] >> r } else { 0 };
        let hi = if r > 0 && w + q + 1 < n {
            bits[w + q + 1] << (64 - r)
        } else {
            0
        };
        bits[w] &= lo | hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The owner-tag grid the bitmap replaced (row-major, 0 = free, else
    /// instance id + 1): the oracle for every legality verdict.
    struct OwnerGrid {
        w: u32,
        cells: Vec<u16>,
    }

    impl OwnerGrid {
        fn new(w: u32, h: u32) -> Self {
            OwnerGrid {
                w,
                cells: vec![0; (w * h) as usize],
            }
        }

        fn is_free(&self, x: u32, y: u32, bw: u32, bh: u32, ignore: u32) -> bool {
            let tag = (ignore + 1) as u16;
            for yy in y..y + bh {
                let row = (yy * self.w + x) as usize;
                for c in &self.cells[row..row + bw as usize] {
                    if *c != 0 && *c != tag {
                        return false;
                    }
                }
            }
            true
        }

        fn set(&mut self, x: u32, y: u32, bw: u32, bh: u32, v: u32) {
            let v = v as u16;
            for yy in y..y + bh {
                let row = (yy * self.w + x) as usize;
                for c in &mut self.cells[row..row + bw as usize] {
                    *c = v;
                }
            }
        }
    }

    /// An id no placement carries: the oracle's "no own footprint".
    const NOBODY: u32 = 60_000;

    /// The candidate-by-candidate scan `first_free` replaces.
    fn first_free_oracle(
        grid: &OwnerGrid,
        cand: &Candidates,
        start: u64,
        bw: u32,
        bh: u32,
    ) -> Option<(u32, u32)> {
        (0..cand.count)
            .map(|k| cand.nth((start + k) % cand.count))
            .find(|&(x, y)| grid.is_free(x, y, bw, bh, NOBODY))
    }

    /// A random footprint for a `w`-column, `rows`-row fabric: mostly
    /// small, sometimes crossing word boundaries or taller than a word.
    fn shape(rng: &mut StdRng, w: u32, rows: u32) -> (u32, u32) {
        let bw = rng.gen_range(1..=w.min(6));
        let bh = if rng.gen_range(0..4u32) == 0 {
            rng.gen_range(1..=rows)
        } else {
            rng.gen_range(1..=rows.min(12))
        };
        (bw, bh)
    }

    /// Compare both grids on random `is_free` and `first_free` queries.
    /// `placed[id]` is the anchor and shape of live instance `id`.
    fn check_queries(
        rng: &mut StdRng,
        bitmap: &mut Grid,
        oracle: &OwnerGrid,
        placed: &[Option<(u32, u32, u32, u32)>],
        w: u32,
        rows: u32,
    ) {
        let live: Vec<usize> = (0..placed.len()).filter(|&i| placed[i].is_some()).collect();
        // `is_free` with and without an own anchor.
        for _ in 0..8 {
            let (id, own, (bw, bh)) = if !live.is_empty() && rng.gen_range(0..2u32) == 0 {
                let id = live[rng.gen_range(0..live.len())];
                let (x, y, bw, bh) = placed[id].unwrap();
                (id as u32, Some((x, y)), (bw, bh))
            } else {
                (NOBODY, None, shape(rng, w, rows))
            };
            let x = rng.gen_range(0..=w - bw);
            let y = rng.gen_range(0..=rows - bh);
            prop_assert_eq!(
                bitmap.is_free(x, y, bw, bh, own),
                oracle.is_free(x, y, bw, bh, id),
                "is_free({}, {}, {}x{}, own {:?})",
                x,
                y,
                bw,
                bh,
                own
            );
        }
        // `first_free` against the per-candidate scan, any alignment.
        for _ in 0..4 {
            let (bw, bh) = shape(rng, w, rows);
            let xs: Vec<u32> = (0..=w - bw)
                .filter(|_| rng.gen_range(0..3u32) > 0)
                .collect();
            let cand = Candidates::new(xs, rng.gen_range(1..=6), rows - bh, rows);
            if cand.count == 0 {
                continue;
            }
            let start = rng.gen_range(0..cand.count);
            prop_assert_eq!(
                bitmap.first_free(&cand, start, bw, bh),
                first_free_oracle(oracle, &cand, start, bw, bh),
                "first_free({}x{}, y_step {}, start {})",
                bw,
                bh,
                cand.y_step,
                start
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random non-overlapping fill/clear sequences: the bitmap's
        /// `is_free` and `first_free` agree with the owner-tag grid after
        /// every step, on row counts below, at and past word multiples.
        #[test]
        fn bitmap_agrees_with_the_owner_grid(
            w in 1u32..24,
            rows_pick in (0u32..4, 1u32..260),
            seed in any::<u64>(),
        ) {
            let rows = match rows_pick {
                (0, r) => 64 * (1 + r % 3),
                (_, r) => r,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bitmap = Grid::new(w, rows);
            let mut oracle = OwnerGrid::new(w, rows);
            let mut placed: Vec<Option<(u32, u32, u32, u32)>> = Vec::new();
            for _ in 0..60 {
                let live: Vec<usize> =
                    (0..placed.len()).filter(|&i| placed[i].is_some()).collect();
                match rng.gen_range(0..4u32) {
                    // Move a live instance (its own footprint counts as free).
                    0 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let (ox, oy, bw, bh) = placed[id].unwrap();
                        let x = rng.gen_range(0..=w - bw);
                        let y = rng.gen_range(0..=rows - bh);
                        if oracle.is_free(x, y, bw, bh, id as u32) {
                            bitmap.clear(ox, oy, bw, bh);
                            bitmap.fill(x, y, bw, bh);
                            oracle.set(ox, oy, bw, bh, 0);
                            oracle.set(x, y, bw, bh, id as u32 + 1);
                            placed[id] = Some((x, y, bw, bh));
                        }
                    }
                    // Remove a live instance.
                    1 if !live.is_empty() => {
                        let id = live[rng.gen_range(0..live.len())];
                        let (x, y, bw, bh) = placed[id].take().unwrap();
                        bitmap.clear(x, y, bw, bh);
                        oracle.set(x, y, bw, bh, 0);
                    }
                    // Insert a new instance where it fits.
                    _ => {
                        let (bw, bh) = shape(&mut rng, w, rows);
                        let x = rng.gen_range(0..=w - bw);
                        let y = rng.gen_range(0..=rows - bh);
                        if oracle.is_free(x, y, bw, bh, NOBODY) {
                            bitmap.fill(x, y, bw, bh);
                            oracle.set(x, y, bw, bh, placed.len() as u32 + 1);
                            placed.push(Some((x, y, bw, bh)));
                        }
                    }
                }
                check_queries(&mut rng, &mut bitmap, &oracle, &placed, w, rows);
            }
        }

        /// The facts the annealer's insertion skip rule rests on. Once
        /// `first_free` finds no anchor for a footprint over some columns
        /// and row step, it finds none from any start, none for a taller
        /// footprint over the same columns and step, and none after more
        /// cells are filled. Random cells are filled until a scan fails,
        /// on row counts below, at and past word multiples.
        #[test]
        fn a_failed_scan_stays_failed(
            w in 1u32..24,
            rows_pick in (0u32..4, 1u32..260),
            seed in any::<u64>(),
        ) {
            let rows = match rows_pick {
                (0, r) => 64 * (1 + r % 3),
                (_, r) => r,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let (bw, bh) = shape(&mut rng, w, rows);
            let xs: Vec<u32> = (0..=w - bw)
                .filter(|_| rng.gen_range(0..3u32) > 0)
                .collect();
            let y_step = rng.gen_range(1..=6);
            let cand = |h: u32| Candidates::new(xs.clone(), y_step, rows - h, rows);
            let fails = |grid: &mut Grid, h: u32, start: u64| {
                let c = cand(h);
                grid.first_free(&c, start % c.count, bw, h).is_none()
            };
            prop_assume!(cand(bh).count > 0);
            let fill = |grid: &mut Grid, rng: &mut StdRng| {
                let (fw, fh) = shape(rng, w, rows);
                grid.fill(rng.gen_range(0..=w - fw), rng.gen_range(0..=rows - fh), fw, fh);
            };
            let mut grid = Grid::new(w, rows);
            while !fails(&mut grid, bh, rng.gen()) {
                fill(&mut grid, &mut rng);
            }
            for start in 0..cand(bh).count {
                prop_assert!(fails(&mut grid, bh, start), "start {}", start);
            }
            for h in bh..=rows {
                prop_assert!(fails(&mut grid, h, rng.gen()), "height {} after {}", h, bh);
            }
            for _ in 0..8 {
                fill(&mut grid, &mut rng);
                prop_assert!(fails(&mut grid, bh, rng.gen()), "after a fill");
            }
        }
    }
}
