//! Rectangular regions on the fabric grid.

/// A half-open rectangle on the fabric grid: columns `x .. x + w`, rows
/// `y .. y + h`. This is the geometric footprint of a PBlock and of a
/// pre-implemented macro during stitching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rect {
    /// Leftmost column index.
    pub x: u32,
    /// Bottom row index.
    pub y: u32,
    /// Width in columns. Must be at least 1 for a non-degenerate rectangle.
    pub w: u32,
    /// Height in rows. Must be at least 1 for a non-degenerate rectangle.
    pub h: u32,
}

impl Rect {
    /// Construct a rectangle from its origin and extent.
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Number of grid cells covered.
    #[inline]
    pub fn area(&self) -> u64 {
        u64::from(self.w) * u64::from(self.h)
    }

    /// Exclusive right edge.
    #[inline]
    pub fn right(&self) -> u32 {
        self.x + self.w
    }

    /// Exclusive top edge.
    #[inline]
    pub fn top(&self) -> u32 {
        self.y + self.h
    }

    /// Whether two rectangles share at least one grid cell.
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x < other.right()
            && other.x < self.right()
            && self.y < other.top()
            && other.y < self.top()
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.right() <= self.right()
            && other.top() <= self.top()
    }

    /// The same rectangle translated to a new origin.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> Rect {
        Rect {
            x,
            y,
            w: self.w,
            h: self.h,
        }
    }

    /// Aspect ratio width / height.
    #[inline]
    pub fn aspect(&self) -> f64 {
        f64::from(self.w) / f64::from(self.h.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_edges() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!(r.right(), 6);
        assert_eq!(r.top(), 8);
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(3, 3, 4, 4);
        let c = Rect::new(4, 0, 2, 2); // touches a's right edge: no overlap
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn containment() {
        let outer = Rect::new(0, 0, 10, 10);
        let inner = Rect::new(2, 2, 3, 3);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn translation_keeps_the_size() {
        let r = Rect::new(2, 2, 4, 2);
        let moved = r.at(0, 0);
        assert_eq!(moved, Rect::new(0, 0, 4, 2));
    }

    #[test]
    fn aspect_never_divides_by_zero() {
        let r = Rect::new(0, 0, 3, 0);
        assert_eq!(r.aspect(), 3.0);
    }
}
